"""Fusion output container shared by SLiMFast and all baselines.

Since the array-native refactor this container has two interchangeable
backings:

* **Array-backed** (the learners' and streaming fuser's output, built with
  :meth:`FusionResult.from_rows`): the estimate lives in flat NumPy arrays —
  per-object MAP *value codes* into each object's domain, a **ragged CSR
  posterior store** (:class:`~repro.fusion.posterior_store.PosteriorStore`:
  per-object offsets plus flat probabilities, ``O(total claimed values)``
  memory instead of ``O(n_objects x max_domain)``), and a per-source
  accuracy vector.  Nothing per-object is materialized in Python at
  construction time, which keeps the predict path free of O(n) dict loops.
* **Dict-backed** (baselines, streaming, hand-built results): the classic
  ``values`` / ``posteriors`` / ``source_accuracies`` dictionaries are
  stored directly; :meth:`attach_dataset` promotes such a result to array
  form for fast metric evaluation.  Promotion is *lazy* for posteriors:
  only the value codes are derived eagerly, and the ragged store builds on
  first posterior access.

Either way the public dict API is unchanged: ``values``, ``posteriors`` and
``source_accuracies`` are **lazily materialized cached views** — the first
access of an array-backed result builds the dict once and caches it, so all
existing consumers (baselines, the experiment harness, reports) keep
working without modification, while hot callers use the ``value_codes`` /
``posterior_store`` / ``source_accuracy_vector`` accessors and never pay
for the dicts.  ``posterior_matrix`` survives as a lazy *dense view* of the
ragged store, cached on first access and guarded by the store's
materialization thresholds (warn past ``DENSE_WARN_CELLS``, raise past
``DENSE_MAX_CELLS``) so out-of-core results cannot be densified by
accident.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence

import numpy as np

from .dataset import FusionDataset
from .metrics import (
    dataset_source_accuracy_error,
    object_value_accuracy,
    value_accuracy_from_codes,
)
from .posterior_store import PosteriorStore
from .types import ObjectId, SourceId, Value


class FusionResult:
    """Output of a data-fusion method (paper Figure 1, right side).

    Parameters
    ----------
    values:
        Estimated true value ``v_o`` for every object.
    posteriors:
        Optional posterior distribution ``P(T_o = d | Ω)`` per object; only
        methods with probabilistic semantics populate this.
    source_accuracies:
        Optional estimated accuracy ``A_s`` per source; methods without
        probabilistic semantics (e.g. CATD's normalized reliability weights)
        leave this ``None`` and are excluded from Table 3 comparisons, as in
        the paper.
    method:
        Name of the producing method, e.g. ``"slimfast"`` or ``"accu"``.
    diagnostics:
        Free-form method-specific extras (iterations, learner choice,
        optimizer decision, timings, ...).

    Array-backed results are constructed with :meth:`from_rows` instead and
    expose :attr:`value_codes`, :attr:`posterior_matrix` and
    :attr:`source_accuracy_vector`; the three dict attributes above then
    behave as lazily-built cached views.
    """

    def __init__(
        self,
        values: Optional[Dict[ObjectId, Value]] = None,
        posteriors: Optional[Dict[ObjectId, Dict[Value, float]]] = None,
        source_accuracies: Optional[Dict[SourceId, float]] = None,
        method: str = "unknown",
        diagnostics: Optional[Dict[str, Any]] = None,
    ) -> None:
        self._values = values
        self._posteriors = posteriors
        self._source_accuracies = source_accuracies
        self.method = method
        self.diagnostics: Dict[str, Any] = diagnostics if diagnostics is not None else {}

        # Array backing (None unless built by from_rows / attach_dataset).
        self._object_ids: Optional[List[ObjectId]] = None
        self._pair_values: Optional[List[Value]] = None
        self._pair_offsets: Optional[np.ndarray] = None
        self._value_codes: Optional[np.ndarray] = None
        self._posterior_store: Optional[PosteriorStore] = None
        self._posterior_matrix: Optional[np.ndarray] = None
        self._promotion_dataset: Optional[FusionDataset] = None
        self._accuracy_vector: Optional[np.ndarray] = None
        self._source_ids: Optional[List[SourceId]] = None
        # Clamped objects whose known truth is outside the claimed domain
        # cannot be represented as a value code; they carry a dict override.
        self._overrides: Dict[ObjectId, Value] = {}

        if values is None:
            raise TypeError("FusionResult requires values (or use from_rows)")

    # ------------------------------------------------------------------
    # Array-native construction
    # ------------------------------------------------------------------
    @classmethod
    def from_rows(
        cls,
        structure,
        row_probs: np.ndarray,
        clamp: Optional[Mapping[ObjectId, Value]] = None,
        accuracy_vector: Optional[np.ndarray] = None,
        source_ids: Optional[Sequence[SourceId]] = None,
        method: str = "unknown",
        diagnostics: Optional[Dict[str, Any]] = None,
    ) -> "FusionResult":
        """Build an array-backed result from flat candidate-row posteriors.

        Parameters
        ----------
        structure:
            The :class:`~repro.core.structure.PairStructure` the
            probabilities were computed over.
        row_probs:
            Posterior probability of every flattened (object, value) row
            (one segmented softmax per object, see
            :func:`repro.core.inference.posterior_rows`).
        clamp:
            Objects with known truth; their posterior row becomes a point
            mass and their value code is forced to the known value.
        accuracy_vector, source_ids:
            Estimated per-source accuracies aligned with ``source_ids``
            (typically ``model.accuracies()`` / ``model.source_ids``).

        No per-object Python structures are built here — and no dense
        matrix either: the flat ``row_probs`` become the ragged store
        directly (one O(rows) copy plus a segmented argmax), so memory
        stays ``O(rows)`` regardless of the largest domain.  The dict
        views and the dense :attr:`posterior_matrix` materialize lazily
        on first access.
        """
        # Bypass __init__: array-backed results start with no dict views
        # (the values-required check only guards the dict constructor).
        self = cls.__new__(cls)
        self._values = None
        self._posteriors = None
        self._source_accuracies = None
        self.method = method
        self.diagnostics = diagnostics if diagnostics is not None else {}
        self._overrides = {}
        self._posterior_matrix = None
        self._promotion_dataset = None

        offsets = np.asarray(structure.pair_offsets, dtype=np.int64)
        # Clamping mutates rows in place; copy so callers keep their
        # probability vector (posterior_rows output is reusable).
        probs = np.array(row_probs, dtype=float, copy=True)

        self._object_ids = list(structure.object_ids)
        self._pair_values = structure.pair_values
        self._pair_offsets = offsets

        store = PosteriorStore(offsets, probs)

        if clamp:
            labeled, truth_codes = _clamp_codes(structure, clamp)
            in_domain = labeled & (truth_codes >= 0)
            if np.any(in_domain):
                positions = np.flatnonzero(in_domain)
                store.set_point_mass(positions, truth_codes[positions])
            out_of_domain = labeled & (truth_codes < 0)
            if np.any(out_of_domain):
                positions = np.flatnonzero(out_of_domain)
                store.zero_spans(positions)
                store.value_codes[positions] = -1
                for position in positions:
                    obj = self._object_ids[int(position)]
                    self._overrides[obj] = clamp[obj]

        # Segmented argmax with first-row tie-breaking (domain order), the
        # same rule as map_assignment / map_rows; clamped point masses
        # argmax to their truth code, overrides were forced to -1 above.
        self._value_codes = store.value_codes
        self._posterior_store = store
        if accuracy_vector is not None:
            if source_ids is None:
                raise ValueError("accuracy_vector requires source_ids")
            self._accuracy_vector = np.asarray(accuracy_vector, dtype=float)
            self._source_ids = list(source_ids)
        else:
            self._accuracy_vector = None
            self._source_ids = list(source_ids) if source_ids is not None else None
        return self

    def attach_dataset(self, dataset: FusionDataset) -> "FusionResult":
        """Promote a dict-backed result to array form using ``dataset``.

        Computes :attr:`value_codes` (and, when source accuracies exist,
        :attr:`source_accuracy_vector` with ``NaN`` for unestimated
        sources) from the stored dictionaries against the dataset's
        domains, so metric evaluation over many objects runs as array
        comparisons.  Values outside an object's claimed domain (e.g. the
        open-world ``UNKNOWN`` marker) are kept as dict overrides with code
        -1.  Posteriors are **not** densified here: promotion only records
        the dataset, and the ragged :attr:`posterior_store` (or its dense
        :attr:`posterior_matrix` view) builds lazily on first access —
        metric evaluation never pays for posteriors it does not read.
        This is a one-time O(n_objects) pass; results that already carry
        arrays return unchanged, so calling it defensively (as the
        experiment harness does before scoring) is cheap.  Returns
        ``self`` for chaining.
        """
        if self._value_codes is not None:
            return self
        from .encoding import encode_dataset

        encoding = encode_dataset(dataset)
        n_objects = dataset.n_objects
        object_ids = list(dataset.objects.items)
        values = self._values or {}
        codes = np.full(n_objects, -1, dtype=np.int64)
        overrides: Dict[ObjectId, Value] = {}
        for o_idx, obj in enumerate(object_ids):
            if obj not in values:
                continue
            value = values[obj]
            code = dataset.domain_by_index(o_idx).get(value)
            if code is None:
                overrides[obj] = value
            else:
                codes[o_idx] = code

        self._object_ids = object_ids
        self._pair_values = encoding.pair_values
        self._pair_offsets = encoding.pair_offsets
        self._value_codes = codes
        self._overrides = overrides

        if self._posteriors is not None:
            # Lazy promotion: keep the dataset so posterior_store can
            # translate the dicts on first access instead of eagerly
            # materializing probabilities nobody may read.
            self._promotion_dataset = dataset

        if self._source_accuracies is not None:
            self._source_ids = list(dataset.sources.items)
            self._accuracy_vector = np.asarray(
                [self._source_accuracies.get(s, np.nan) for s in self._source_ids],
                dtype=float,
            )
        return self

    # ------------------------------------------------------------------
    # Array accessors (the hot-path API)
    # ------------------------------------------------------------------
    @property
    def has_arrays(self) -> bool:
        """Whether the result carries an array backing."""
        return self._value_codes is not None

    @property
    def value_codes(self) -> np.ndarray:
        """Per-object MAP value code into the object's domain (-1 = override).

        An ``int64`` array of shape ``(n_objects,)`` aligned with
        :attr:`object_ids`; entry ``i`` indexes into the i-th object's
        domain (first-seen claimed-value order), so decoding a code costs
        one offset lookup (:meth:`predicted_values` bulk-decodes).  Code -1
        marks objects whose value is outside the claimed domain (clamped
        unclaimed truth, open-world UNKNOWN); :attr:`overrides` holds their
        actual values.  Raises ``ValueError`` on dict-backed results — call
        :meth:`attach_dataset` first.
        """
        if self._value_codes is None:
            raise ValueError(
                "result is dict-backed; call attach_dataset(dataset) to "
                "enable array accessors"
            )
        return self._value_codes

    @property
    def posterior_store(self) -> PosteriorStore:
        """Ragged per-object posteriors (the memory-bounded accessor).

        A :class:`~repro.fusion.posterior_store.PosteriorStore` holding
        object ``i``'s distribution in rows
        ``offsets[i]:offsets[i+1]`` of its flat ``probs`` array, aligned
        with the claimed-value layout of :attr:`object_ids` /
        ``pair_values``.  Clamped objects are exact point masses on their
        truth code; override objects (value outside the claimed domain)
        have an all-zero span, with the point mass recorded in
        :attr:`overrides` instead.  Dict-backed results promoted by
        :meth:`attach_dataset` build the store lazily here on first
        access.  Raises ``ValueError`` for results without posteriors.
        """
        if self._posterior_store is None and self._posteriors is not None:
            dataset = self._promotion_dataset
            if dataset is not None and self._pair_offsets is not None:
                offsets = self._pair_offsets
                probs = np.zeros(int(offsets[-1]))
                bases = offsets[:-1].tolist()
                for o_idx, obj in enumerate(self._object_ids):
                    dist = self._posteriors.get(obj)
                    if not dist:
                        continue
                    domain = dataset.domain_by_index(o_idx)
                    base = bases[o_idx]
                    for value, prob in dist.items():
                        code = domain.get(value)
                        if code is not None:
                            probs[base + code] = prob
                self._posterior_store = PosteriorStore(offsets, probs)
        if self._posterior_store is None:
            raise ValueError(
                "result has no posterior matrix; only probabilistic "
                "array-backed results carry one"
            )
        return self._posterior_store

    @property
    def posterior_matrix(self) -> np.ndarray:
        """Dense ``(n_objects, max_domain)`` posterior matrix (lazy view).

        Row ``i`` holds ``P(T_o = d | Ω)`` over the domain codes of the
        i-th object in :attr:`object_ids`, zero-padded past ``|D_o|``.
        Since the ragged refactor this is a *view materialized from*
        :attr:`posterior_store` on first access (then cached): it warns
        (:class:`~repro.fusion.posterior_store.DenseMaterializationWarning`)
        past ``DENSE_WARN_CELLS`` and raises ``MemoryError`` past
        ``DENSE_MAX_CELLS``, so out-of-core results cannot be densified by
        accident — use the ragged store at that scale.  Only probabilistic
        results carry posteriors; otherwise ``ValueError`` is raised.
        """
        if self._posterior_matrix is None:
            self._posterior_matrix = self.posterior_store.dense()
        return self._posterior_matrix

    @property
    def source_accuracy_vector(self) -> Optional[np.ndarray]:
        """Estimated accuracy per source aligned with :attr:`source_ids`.

        A float array of shape ``(n_sources,)``, or ``None`` for methods
        without probabilistic accuracy estimates (e.g. CATD's reliability
        weights).  After :meth:`attach_dataset` promotes a dict-backed
        result, sources absent from its ``source_accuracies`` dict are
        ``NaN`` — consumers such as
        :func:`repro.extensions.selection.accuracy_vector_for` substitute a
        default for those entries.
        """
        return self._accuracy_vector

    @property
    def object_ids(self) -> List[ObjectId]:
        """Objects covered by the array backing, in array order."""
        if self._object_ids is None:
            raise ValueError("result is dict-backed; call attach_dataset(dataset)")
        return self._object_ids

    @property
    def source_ids(self) -> Optional[List[SourceId]]:
        """Sources aligned with :attr:`source_accuracy_vector`."""
        return self._source_ids

    @property
    def overrides(self) -> Dict[ObjectId, Value]:
        """Out-of-domain values keyed by object (code -1 in value_codes)."""
        return self._overrides

    @property
    def pair_offsets(self) -> np.ndarray:
        """CSR offsets over the flat claimed-value rows (array-backed only).

        ``(n_objects + 1,)`` int64 prefix sums: object ``i``'s claimed
        values occupy rows ``pair_offsets[i]:pair_offsets[i+1]`` of
        :attr:`pair_values` and of the :attr:`posterior_store`'s flat
        ``probs`` — the layout ``repro.serve`` snapshots serve from.
        Raises ``ValueError`` on dict-backed results.
        """
        if self._pair_offsets is None:
            raise ValueError("result is dict-backed; call attach_dataset(dataset)")
        return self._pair_offsets

    @property
    def pair_values(self) -> List[Value]:
        """Flat claimed values aligned with :attr:`pair_offsets` rows.

        Decoding a value code is ``pair_values[pair_offsets[i] + code]``;
        :meth:`predicted_values` bulk-decodes.  Raises ``ValueError`` on
        dict-backed results.
        """
        if self._pair_values is None:
            raise ValueError("result is dict-backed; call attach_dataset(dataset)")
        return self._pair_values

    def position_index(self) -> Dict[ObjectId, int]:
        """Object id -> position in the array backing (built once, cached)."""
        if getattr(self, "_position_index", None) is None:
            self._position_index = {obj: i for i, obj in enumerate(self.object_ids)}
        return self._position_index

    def confidence_vector(self) -> np.ndarray:
        """Posterior mass of the MAP value per object (array-backed only).

        Override objects (code -1, value clamped outside the domain) have
        confidence 1.0, matching the point-mass semantics of the dict view.
        Computed as a segmented max over the ragged store — no dense
        materialization.
        """
        confidence = self.posterior_store.max_probs()
        if self._overrides:
            index = self.position_index()
            for obj in self._overrides:
                confidence[index[obj]] = 1.0
        return confidence

    def predicted_values(self, positions: Optional[np.ndarray] = None) -> List[Value]:
        """Decode MAP value codes to values for ``positions`` (default: all)."""
        codes = self.value_codes
        offsets = self._pair_offsets
        pair_values = self._pair_values
        if positions is None:
            # Bulk decode: one vectorized row computation, one list pass.
            rows = (offsets[:-1] + np.maximum(codes, 0)).tolist()
            return [
                pair_values[row] if code >= 0 else self._overrides.get(obj)
                for obj, code, row in zip(self._object_ids, codes.tolist(), rows)
            ]
        out: List[Value] = []
        for position in positions:
            position = int(position)
            code = int(codes[position])
            if code >= 0:
                out.append(pair_values[int(offsets[position]) + code])
            else:
                out.append(self._overrides.get(self._object_ids[position]))
        return out

    # ------------------------------------------------------------------
    # Lazily-materialized cached dict views
    #
    # The dicts are *read* views: they materialize once from the arrays and
    # are cached, and mutating them in place does not write back to the
    # array backing (assigning a whole new dict through the setter does
    # drop the stale arrays).
    # ------------------------------------------------------------------
    @property
    def values(self) -> Dict[ObjectId, Value]:
        """Estimated true value per object (cached dict view)."""
        if self._values is None:
            # Raises when neither backing exists (value_codes checks).
            self._values = dict(zip(self.object_ids, self.predicted_values()))
        return self._values

    @values.setter
    def values(self, new: Dict[ObjectId, Value]) -> None:
        self._values = new
        self._value_codes = None

    @property
    def posteriors(self) -> Optional[Dict[ObjectId, Dict[Value, float]]]:
        """Posterior distribution per object (cached dict view)."""
        if self._posteriors is None and self._posterior_store is not None:
            offsets = self._pair_offsets.tolist()
            pair_values = self._pair_values
            probs_list = self._posterior_store.probs.tolist()
            result: Dict[ObjectId, Dict[Value, float]] = {}
            for i, obj in enumerate(self._object_ids):
                start, stop = offsets[i], offsets[i + 1]
                result[obj] = dict(zip(pair_values[start:stop], probs_list[start:stop]))
                override = self._overrides.get(obj)
                if override is not None:
                    result[obj][override] = 1.0
            self._posteriors = result
        return self._posteriors

    @posteriors.setter
    def posteriors(self, new: Optional[Dict[ObjectId, Dict[Value, float]]]) -> None:
        self._posteriors = new
        self._posterior_store = None
        self._posterior_matrix = None
        self._promotion_dataset = None

    @property
    def source_accuracies(self) -> Optional[Dict[SourceId, float]]:
        """Estimated accuracy per source (cached dict view)."""
        if self._source_accuracies is None and self._accuracy_vector is not None:
            self._source_accuracies = {
                source: float(acc)
                for source, acc in zip(self._source_ids, self._accuracy_vector)
            }
        return self._source_accuracies

    @source_accuracies.setter
    def source_accuracies(self, new: Optional[Dict[SourceId, float]]) -> None:
        self._source_accuracies = new
        self._accuracy_vector = None
        self._source_ids = None

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def accuracy(
        self,
        dataset: FusionDataset,
        objects: Optional[Mapping[ObjectId, Value] | list] = None,
    ) -> float:
        """Object-value accuracy against the dataset's ground truth.

        The evaluation population (``objects``, default: every object with
        ground truth) must be fully covered by the dataset's ground truth;
        objects without a known true value cannot be scored and raise
        ``ValueError`` instead of being silently counted.
        """
        population = list(objects) if objects is not None else list(dataset.ground_truth)
        missing = [obj for obj in population if obj not in dataset.ground_truth]
        if missing:
            preview = ", ".join(repr(obj) for obj in missing[:5])
            raise ValueError(
                f"{len(missing)} object(s) in the evaluation population have "
                f"no ground truth (e.g. {preview}); accuracy is only defined "
                "over labeled objects"
            )
        # The array path scores each *distinct* object once, so populations
        # with repeated objects fall back to the per-entry dict accounting.
        unique_population = len(set(population)) == len(population)
        if self._value_codes is not None and unique_population:
            encoding = getattr(dataset, "_dense_encoding", None)
            if encoding is not None and self._object_ids == dataset.objects.items:
                truth = {obj: dataset.ground_truth[obj] for obj in population}
                labeled, truth_codes = encoding.truth_codes(truth)
                # Objects with override values (code -1) fall back to a
                # direct comparison; truth outside the claimed domain can
                # still match a clamped override.
                extra = sum(
                    1
                    for obj, value in self._overrides.items()
                    if obj in truth and value == truth[obj]
                )
                return value_accuracy_from_codes(
                    self._value_codes, truth_codes, np.flatnonzero(labeled), extra
                )
        return object_value_accuracy(self.values, dataset.ground_truth, population)

    def source_error(self, dataset: FusionDataset) -> float:
        """Weighted source-accuracy estimation error (Table 3 metric).

        Raises ``ValueError`` when the method did not estimate accuracies.
        """
        if self.source_accuracies is None:
            raise ValueError(f"method {self.method!r} does not estimate source accuracies")
        return dataset_source_accuracy_error(dataset, self.source_accuracies)

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        backing = "array" if self.has_arrays else "dict"
        n = len(self._object_ids) if self._object_ids is not None else (
            len(self._values) if self._values is not None else 0
        )
        return f"FusionResult(method={self.method!r}, objects={n}, backing={backing})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FusionResult):
            return NotImplemented
        return (
            self.method == other.method
            and self.values == other.values
            and self.posteriors == other.posteriors
            and self.source_accuracies == other.source_accuracies
        )


def _clamp_codes(structure, clamp: Mapping[ObjectId, Value]):
    """(labeled mask, within-domain truth code or -1) per structure position."""
    encoding = getattr(structure, "encoding", None)
    if encoding is not None:
        labeled_all, codes_all = encoding.truth_codes(clamp)
        idx = structure.object_dataset_idx
        return labeled_all[idx], codes_all[idx]
    n = structure.n_objects
    labeled = np.zeros(n, dtype=bool)
    codes = np.full(n, -1, dtype=np.int64)
    offsets = structure.pair_offsets
    for position, obj in enumerate(structure.object_ids):
        if obj not in clamp:
            continue
        labeled[position] = True
        wanted = clamp[obj]
        start, stop = int(offsets[position]), int(offsets[position + 1])
        for row in range(start, stop):
            if structure.pair_values[row] == wanted:
                codes[position] = row - start
                break
    return labeled, codes
