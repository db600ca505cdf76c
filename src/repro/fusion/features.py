"""Domain-specific feature engineering (paper Section 3.1).

SLiMFast consumes *binary* domain features: each source either has or does
not have a feature value such as ``"BounceRate=High"`` or
``"channel=clixsense"``.  Real metadata is rarely binary, so the paper
discretizes numeric statistics (e.g. Alexa traffic numbers) into buckets and
one-hot encodes categoricals ("We found that discretization does not affect
SLiMFast's performance significantly").

:class:`FeatureSpace` performs exactly that transformation with an explicit
sklearn-style lifecycle::

    space = FeatureSpace(n_bins=2)
    space.fit(dataset.source_features)     # learn bins + column layout
    design = space.transform(dataset)      # |S| x |K| 0/1 design matrix
    row = space.transform_one({"citations": 12})  # encode a new source

A fitted space is summarized by a frozen, hashable :class:`FeatureSpec`
(``space.spec``) and round-trips via :meth:`FeatureSpace.to_state` /
:meth:`FeatureSpace.from_state` like
:class:`~repro.fusion.encoding.DenseEncoding`.  The legacy one-shot
``space.fit(dataset) -> matrix`` call is kept as a deprecation shim.

Data-derived reliability features (volume, corroboration, recency, ...)
live in :mod:`repro.featurize`, which composes its feature groups with this
metadata encoder into one design matrix.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .dataset import FusionDataset, _reject_nonfinite_features
from .types import DatasetError, Indexer, SourceId

#: Bump when the encoding logic changes in a way that invalidates cached
#: design matrices built from an earlier version (see ``repro.featurize``).
FEATURE_SPACE_VERSION = 2

#: Accepted ``unseen`` policies for categorical values not seen at fit time.
UNSEEN_POLICIES = ("error", "other", "zero")

_OTHER_LABEL = "<other>"


@dataclass(frozen=True)
class FeatureColumn:
    """One binary column of the design matrix.

    Attributes
    ----------
    name:
        Raw feature name this column was derived from.
    label:
        Full human-readable column label, e.g. ``"BounceRate=High"``.
    """

    name: str
    label: str


def _is_numeric(value: object) -> bool:
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def _bin_labels(n_bins: int) -> List[str]:
    """Human-readable ordinal labels for quantile bins."""
    if n_bins <= 1:
        return ["Low"]
    if n_bins == 2:
        return ["Low", "High"]
    if n_bins == 3:
        return ["Low", "Mid", "High"]
    return [f"Q{i + 1}" for i in range(n_bins)]


@dataclass(frozen=True)
class FeatureSpec:
    """Frozen, hashable summary of a fitted :class:`FeatureSpace`.

    Everything needed to reconstruct the encoder — bin edges, column
    layout, policies and the encoder version — in immutable tuples, so a
    spec can key caches (it hashes) and serialize via
    :meth:`to_state`/:meth:`from_state` like
    :class:`~repro.fusion.encoding.DenseEncoding` snapshots.
    """

    n_bins: int = 2
    include_missing: bool = False
    unseen: str = "error"
    columns: Tuple[FeatureColumn, ...] = ()
    numeric_edges: Tuple[Tuple[str, Tuple[float, ...]], ...] = ()
    version: int = FEATURE_SPACE_VERSION

    def to_state(self) -> Dict[str, object]:
        """A picklable/JSON-friendly snapshot of this spec."""
        return {
            "n_bins": self.n_bins,
            "include_missing": self.include_missing,
            "unseen": self.unseen,
            "columns": [(c.name, c.label) for c in self.columns],
            "numeric_edges": [[name, list(edges)] for name, edges in self.numeric_edges],
            "version": self.version,
        }

    @classmethod
    def from_state(cls, state: Mapping[str, object]) -> "FeatureSpec":
        """Rebuild a spec from a :meth:`to_state` snapshot."""
        return cls(
            n_bins=int(state["n_bins"]),
            include_missing=bool(state["include_missing"]),
            unseen=str(state["unseen"]),
            columns=tuple(FeatureColumn(name, label) for name, label in state["columns"]),
            numeric_edges=tuple(
                (str(name), tuple(float(edge) for edge in edges))
                for name, edges in state["numeric_edges"]
            ),
            version=int(state["version"]),
        )


#: Anything :meth:`FeatureSpace.transform` accepts: a dataset (rows in
#: source-index order) or an iterable of per-source feature mappings.
TransformInput = Union[FusionDataset, Iterable[Mapping[str, object]]]


class FeatureSpace:
    """Binary feature encoder for source metadata.

    Parameters
    ----------
    n_bins:
        Number of quantile bins for numeric features (paper uses coarse
        Low/High style discretization; default 2).  Duplicate quantile
        edges and edges that would bound an *empty* bucket are dropped at
        fit time, so a feature with fewer distinct values than ``n_bins``
        yields exactly one non-empty bucket column per occupied bucket.
    include_missing:
        When True, sources lacking a raw feature get a dedicated
        ``"name=<missing>"`` column instead of all-zeros for that feature.
    unseen:
        Policy for categorical values (or feature names) not seen at fit
        time: ``"error"`` (default) raises :class:`DatasetError`,
        ``"other"`` maps unseen values of known features to a dedicated
        ``"name=<other>"`` column, ``"zero"`` keeps the legacy silent
        zero-fill.

    Lifecycle::

        space = FeatureSpace(n_bins=2)
        space.fit(metadata)                  # metadata: {source: {name: value}}
        design = space.transform(dataset)    # |S| x |K| float matrix
        space.column_labels                  # names per column
        row = space.transform_one({"citations": 12})  # encode a new source

    Passing a :class:`FusionDataset` to :meth:`fit` is the deprecated
    legacy call and returns the design matrix directly.
    """

    def __init__(
        self, n_bins: int = 2, include_missing: bool = False, unseen: str = "error"
    ) -> None:
        if n_bins < 2:
            raise DatasetError("n_bins must be at least 2")
        if unseen not in UNSEEN_POLICIES:
            raise DatasetError(f"unseen must be one of {UNSEEN_POLICIES}, got {unseen!r}")
        self.n_bins = n_bins
        self.include_missing = include_missing
        self.unseen = unseen
        self._reset()

    def _reset(self) -> None:
        self._columns: Indexer[str] = Indexer()
        self._column_meta: List[FeatureColumn] = []
        self._numeric_edges: Dict[str, np.ndarray] = {}
        self._numeric_labels: Dict[str, List[str]] = {}
        self._feature_names: set = set()
        self._fitted = False

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------
    def fit(
        self,
        metadata: Union[FusionDataset, Mapping[SourceId, Mapping[str, object]]],
    ) -> "FeatureSpace":
        """Learn quantile edges and column layout from source metadata.

        ``metadata`` maps each source to its raw ``{name: value}`` feature
        mapping.  Re-fitting resets any previous state.  Returns ``self``
        for chaining.

        .. deprecated::
            Passing a :class:`FusionDataset` is the legacy one-shot call;
            it fits on ``dataset.source_features`` and returns the encoded
            design matrix (not ``self``).  Use
            ``space.fit(dataset.source_features)`` followed by
            ``space.transform(dataset)`` — or
            :func:`build_design_matrix` — instead.
        """
        if isinstance(metadata, FusionDataset):
            warnings.warn(
                "FeatureSpace.fit(dataset) returning the design matrix is "
                "deprecated; call space.fit(dataset.source_features) then "
                "space.transform(dataset), or use build_design_matrix",
                DeprecationWarning,
                stacklevel=2,
            )
            self.fit(metadata.source_features)
            return self.transform(metadata)
        _reject_nonfinite_features(metadata)
        self._reset()
        names = sorted({name for feats in metadata.values() for name in feats})

        for name in names:
            values = [feats[name] for feats in metadata.values() if name in feats]
            if values and all(_is_numeric(v) for v in values):
                self._fit_numeric_column(name, np.asarray(values, dtype=float))
            else:
                self._fit_categorical_column(name, values)
            if self.include_missing:
                self._add_column(name, f"{name}=<missing>")
            self._feature_names.add(name)

        self._fitted = True
        return self

    def fit_metadata(self, metadata: Mapping[SourceId, Mapping[str, object]]) -> "FeatureSpace":
        """Alias of :meth:`fit` kept for callers of the pre-redesign API."""
        return self.fit(metadata)

    def fit_transform(self, dataset: FusionDataset) -> np.ndarray:
        """Fit on ``dataset.source_features`` and encode its sources."""
        self.fit(dataset.source_features)
        return self.transform(dataset)

    def _fit_numeric_column(self, name: str, values: np.ndarray) -> None:
        quantiles = np.linspace(0.0, 1.0, self.n_bins + 1)[1:-1]
        edges = np.unique(np.quantile(values, quantiles))
        if edges.size:
            # Keep only edges that separate two *occupied* buckets: ties or
            # near-duplicate quantiles (fewer distinct values than bins)
            # would otherwise mint empty or duplicate bucket columns.
            bins = np.searchsorted(edges, values, side="right")
            occupied = np.unique(bins)
            edges = edges[occupied[1:] - 1]
        self._numeric_edges[name] = edges
        labels = _bin_labels(len(edges) + 1)
        self._numeric_labels[name] = labels
        for label in labels:
            self._add_column(name, f"{name}={label}")

    def _fit_categorical_column(self, name: str, values: Sequence[object]) -> None:
        seen: List[object] = []
        seen_set = set()
        for value in values:
            key = repr(value)
            if key not in seen_set:
                seen_set.add(key)
                seen.append(value)
        for value in seen:
            self._add_column(name, f"{name}={value}")
        if self.unseen == "other":
            self._add_column(name, f"{name}={_OTHER_LABEL}")

    def _add_column(self, name: str, label: str) -> int:
        idx = self._columns.add(label)
        if idx == len(self._column_meta):
            self._column_meta.append(FeatureColumn(name=name, label=label))
        return idx

    def _require_fitted(self) -> None:
        if not self._fitted:
            raise DatasetError("FeatureSpace must be fitted before encoding")

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------
    def transform(self, sources: TransformInput, unseen: Optional[str] = None) -> np.ndarray:
        """Encode sources into the fitted binary design matrix.

        Accepts a :class:`FusionDataset` (or any dataset view exposing
        ``sources`` and ``source_features``) — rows follow source-index
        order — or an iterable of per-source feature mappings, one row
        each.  Unseen categorical values follow the space's ``unseen``
        policy (reject by default); ``unseen`` overrides it per call.
        """
        self._require_fitted()
        if hasattr(sources, "sources") and hasattr(sources, "source_features"):
            dataset = sources
            rows = np.zeros((dataset.n_sources, len(self._columns)), dtype=float)
            for source in dataset.sources:
                feats = dataset.source_features.get(source)
                if feats or (self.include_missing and feats is not None):
                    rows[dataset.sources.index(source)] = self.transform_one(feats, unseen)
            return rows
        mappings = list(sources)
        rows = np.zeros((len(mappings), len(self._columns)), dtype=float)
        for i, feats in enumerate(mappings):
            rows[i] = self.transform_one(feats, unseen)
        return rows

    def transform_one(
        self, features: Mapping[str, object], unseen: Optional[str] = None
    ) -> np.ndarray:
        """Encode one source's raw feature mapping into a binary row."""
        self._require_fitted()
        if unseen is not None and unseen not in UNSEEN_POLICIES:
            raise DatasetError(f"unseen must be one of {UNSEEN_POLICIES}, got {unseen!r}")
        row = np.zeros(len(self._columns), dtype=float)
        for name, value in features.items():
            label = self._value_label(name, value, unseen)
            if label is not None:
                row[self._columns.index(label)] = 1.0
        if self.include_missing:
            present = set(features)
            for column in self._column_meta:
                if column.label.endswith("=<missing>") and column.name not in present:
                    row[self._columns.index(column.label)] = 1.0
        return row

    def encode(self, features: Mapping[str, object]) -> np.ndarray:
        """Alias of :meth:`transform_one` kept for the pre-redesign API."""
        return self.transform_one(features)

    def encode_sources(self, dataset: FusionDataset) -> np.ndarray:
        """Alias of :meth:`transform` kept for the pre-redesign API."""
        return self.transform(dataset)

    def _value_label(
        self, name: str, value: object, unseen: Optional[str] = None
    ) -> Optional[str]:
        policy = unseen if unseen is not None else self.unseen
        if name in self._numeric_edges and _is_numeric(value):
            edges = self._numeric_edges[name]
            bin_idx = int(np.searchsorted(edges, float(value), side="right"))
            return f"{name}={self._numeric_labels[name][bin_idx]}"
        label = f"{name}={value}"
        if label in self._columns:
            return label
        if policy == "zero":
            return None
        if name not in self._feature_names:
            raise DatasetError(
                f"unknown feature {name!r}: not seen when this FeatureSpace was "
                f"fitted (known features: {sorted(self._feature_names)}); pass "
                f"unseen='zero' to ignore unknown metadata"
            )
        if policy == "other" and f"{name}={_OTHER_LABEL}" in self._columns:
            return f"{name}={_OTHER_LABEL}"
        if policy == "other":
            return None  # space was fitted without <other> columns
        raise DatasetError(
            f"unseen value {value!r} for categorical feature {name!r}; fitted "
            f"values are {[c.label for c in self._column_meta if c.name == name]}. "
            f"Use FeatureSpace(unseen='other') to bucket unseen values or "
            f"unseen='zero' for the legacy silent zero-fill"
        )

    # ------------------------------------------------------------------
    # Introspection / serialization
    # ------------------------------------------------------------------
    @property
    def n_columns(self) -> int:
        return len(self._columns)

    @property
    def column_labels(self) -> List[str]:
        """Labels of all design-matrix columns, in column order."""
        return self._columns.items

    def columns_for(self, name: str) -> List[Tuple[int, str]]:
        """(index, label) pairs of the columns derived from raw feature ``name``."""
        return [
            (i, column.label)
            for i, column in enumerate(self._column_meta)
            if column.name == name
        ]

    @property
    def spec(self) -> FeatureSpec:
        """The frozen :class:`FeatureSpec` of this fitted space."""
        self._require_fitted()
        return FeatureSpec(
            n_bins=self.n_bins,
            include_missing=self.include_missing,
            unseen=self.unseen,
            columns=tuple(self._column_meta),
            numeric_edges=tuple(
                sorted(
                    (name, tuple(float(edge) for edge in edges))
                    for name, edges in self._numeric_edges.items()
                )
            ),
        )

    def to_state(self) -> Dict[str, object]:
        """Serializable snapshot (see :meth:`FeatureSpec.to_state`)."""
        return self.spec.to_state()

    @classmethod
    def from_state(cls, state: Mapping[str, object]) -> "FeatureSpace":
        """Rebuild a fitted space from a :meth:`to_state` snapshot."""
        return cls.from_spec(FeatureSpec.from_state(state))

    @classmethod
    def from_spec(cls, spec: FeatureSpec) -> "FeatureSpace":
        """Rebuild a fitted space from its frozen :class:`FeatureSpec`."""
        space = cls(
            n_bins=spec.n_bins, include_missing=spec.include_missing, unseen=spec.unseen
        )
        for column in spec.columns:
            space._add_column(column.name, column.label)
            space._feature_names.add(column.name)
        for name, edges in spec.numeric_edges:
            space._numeric_edges[name] = np.asarray(edges, dtype=float)
            space._numeric_labels[name] = _bin_labels(len(edges) + 1)
        space._fitted = True
        return space

    @classmethod
    def empty(cls) -> "FeatureSpace":
        """A fitted zero-column space — the ``use_features=False`` design."""
        space = cls()
        space._fitted = True
        return space


def build_design_matrix(
    dataset: FusionDataset,
    feature_space: Optional[FeatureSpace] = None,
    use_features: bool = True,
) -> Tuple[np.ndarray, FeatureSpace]:
    """Convenience helper returning ``(design, fitted_space)``.

    With ``use_features=False`` the design matrix has zero columns which
    reduces SLiMFast to the Sources-only variants of the paper.  An
    already-fitted ``feature_space`` is reused as-is (its columns define
    the matrix); an unfitted one is fitted on ``dataset.source_features``.
    """
    if not use_features:
        return np.zeros((dataset.n_sources, 0), dtype=float), FeatureSpace.empty()
    space = feature_space if feature_space is not None else FeatureSpace()
    if not space._fitted:
        space.fit(dataset.source_features)
    return space.transform(dataset), space
