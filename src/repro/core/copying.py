"""Source-copying extension (paper Appendix D).

Copying is modeled with pairwise Boolean features: for a source pair
``(s1, s2)`` the feature fires when the two sources agree on an object but
the inferred value differs from their common claim — "if two sources make
the same mistakes they have a higher probability of copying from each
other".  In the flattened (object, value) representation this is an extra
score contribution of ``-w_pair`` on the jointly-claimed value's row:
a positive learned weight discounts the duplicated vote (and flags the pair
as copying, cf. the Figure 8 weight table), leaving the model a logistic
regression.

Learning comes in two modes:

* ``learner="em"`` (default, the paper's Figure 8 setting) — semi-
  supervised EM where the E-step posterior includes the copying
  discounts.  This is where copying features genuinely matter: without
  them, EM lets correlated sources inflate each other's estimated
  accuracy (their agreeing claims dominate the posteriors, so each round
  re-credits them); the discounts break that reinforcement loop.
* ``learner="erm"`` — the trust model is fitted on the ground truth and
  frozen; only the pair weights are learned from the labeled objects.
  Supervised correctness labels are immune to cross-source correlation,
  so this mode mostly serves diagnosis (which pairs copy), not accuracy.

Pair weights are constrained non-negative (a discount can be zero but a
candidate pair can never *amplify* the duplicated vote).  Candidate pairs
are selected by an agreement z-score: a pair qualifies when its observed
agreement rate is significantly above the dataset's mean pairwise
agreement — chance agreement on binary domains is common, so a raw
agreement threshold would flood the model with false candidates.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..fusion.dataset import FusionDataset
from ..fusion.result import FusionResult
from ..fusion.types import DatasetError, NotFittedError, ObjectId, SourceId, Value
from ..optim.objectives import segment_softmax
from ..optim.solvers import minimize_lbfgs
from .agreement import _agreement_counts, average_domain_size, estimate_average_accuracy
from .erm import ERMConfig, ERMLearner
from .inference import expected_correctness, pair_scores
from .model import AccuracyModel
from .structure import PairStructure, build_pair_structure


@dataclass(frozen=True)
class SourcePair:
    """A candidate copying pair with its overlap statistics."""

    first: SourceId
    second: SourceId
    overlap: int
    agreement_rate: float
    z_score: float


def find_candidate_pairs(
    dataset: FusionDataset,
    min_overlap: int = 3,
    min_agreement: float = 0.5,
    max_pairs: int = 200,
    z_threshold: float = 0.0,
) -> List[SourcePair]:
    """Source pairs worth a copying feature.

    Pairs must share at least ``min_overlap`` objects, agree on at least
    ``min_agreement`` of them, and (when ``z_threshold`` > 0) exceed the
    mean pairwise agreement by ``z_threshold`` standard errors.  The
    ``max_pairs`` strongest pairs (by z-score, then overlap) are kept so
    the extension stays linear in practice.
    """
    matrix, agree = _agreement_counts(dataset, min_overlap=1)
    overlap = matrix.overlaps
    first_idx, second_idx = np.nonzero(np.triu(overlap >= max(min_overlap, 1), k=1))
    if not first_idx.size:
        return []
    # Baseline: the agreement rate two *independent* sources of average
    # accuracy would show.  Pooling the observed rates instead would be
    # contaminated — at low density the high-overlap pairs are mostly the
    # copiers themselves.
    avg_accuracy = estimate_average_accuracy(dataset, matrix=matrix)
    k = max(average_domain_size(dataset), 2.0)
    independent_rate = avg_accuracy**2 + (1.0 - avg_accuracy) ** 2 / (k - 1.0)
    base_rate = min(max(independent_rate, 1e-6), 1.0 - 1e-6)

    shared = overlap[first_idx, second_idx]
    rates = agree[first_idx, second_idx] / shared
    z_scores = (rates - base_rate) / np.sqrt(base_rate * (1.0 - base_rate) / shared)
    keep = (rates >= min_agreement) & (z_scores >= z_threshold)
    candidates = [
        SourcePair(
            first=dataset.sources.item(int(sa)),
            second=dataset.sources.item(int(sb)),
            overlap=int(n_shared),
            agreement_rate=float(rate),
            z_score=float(z_score),
        )
        for sa, sb, n_shared, rate, z_score in zip(
            first_idx[keep], second_idx[keep], shared[keep], rates[keep], z_scores[keep]
        )
    ]

    def rank(pair: SourcePair) -> Tuple[float, int, str]:
        return (-pair.z_score, -pair.overlap, repr(pair.first))

    kept: List[SourcePair] = []
    for _, group in groupby(sorted(candidates, key=rank), key=rank):
        if len(kept) >= max_pairs:
            break
        # Ties go in the order an object-major scan of the claims first
        # meets each pair: by object index, then claim rows.
        kept.extend(sorted(group, key=lambda pair: _first_meeting(dataset, pair)))
    return kept[:max_pairs]


def _first_meeting(dataset: FusionDataset, pair: SourcePair) -> Tuple[int, int, int]:
    """``(object, row, row)`` of the first object both sources of ``pair`` claim."""
    rows_a = dataset.source_observation_rows(dataset.sources.index(pair.first))
    rows_b = dataset.source_observation_rows(dataset.sources.index(pair.second))
    objects = dataset.obs_object_idx
    shared, at_a, at_b = np.intersect1d(objects[rows_a], objects[rows_b], return_indices=True)
    row_a, row_b = int(rows_a[at_a[0]]), int(rows_b[at_b[0]])
    return int(shared[0]), min(row_a, row_b), max(row_a, row_b)


def build_extra_features(
    dataset: FusionDataset,
    structure: PairStructure,
    pairs: List[SourcePair],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Extra-feature triples ``(rows, feature_idx, values)`` for the objective.

    For pair ``j`` and each covered object where both sources claim the same
    value, the flattened row of that value receives contribution ``-1`` with
    feature index ``j`` (so a positive weight lowers the common value's
    score).
    """
    row_of: Dict[Tuple[int, Value], int] = {}
    for position in range(structure.n_objects):
        o_idx = int(structure.object_dataset_idx[position])
        for row in structure.rows_of(position):
            row_of[(o_idx, structure.pair_values[row])] = row

    claims: Dict[int, Dict[int, Value]] = {}
    for obs in dataset.observations:
        s_idx = dataset.sources.index(obs.source)
        claims.setdefault(s_idx, {})[dataset.objects.index(obs.obj)] = obs.value

    rows: List[int] = []
    feature_idx: List[int] = []
    values: List[float] = []
    for j, pair in enumerate(pairs):
        claims_a = claims.get(dataset.sources.index(pair.first), {})
        claims_b = claims.get(dataset.sources.index(pair.second), {})
        shared = claims_a.keys() & claims_b.keys()
        for o_idx in shared:
            if claims_a[o_idx] != claims_b[o_idx]:
                continue
            row = row_of.get((o_idx, claims_a[o_idx]))
            if row is None:
                continue
            rows.append(row)
            feature_idx.append(j)
            values.append(-1.0)
    return (
        np.asarray(rows, dtype=np.int64),
        np.asarray(feature_idx, dtype=np.int64),
        np.asarray(values, dtype=float),
    )


class _PairWeightObjective:
    """Conditional log-loss of labeled objects as a function of the pair
    weights only (trust-derived scores are fixed).

    Parameters are just ``w_extra``; the fixed part of each row's score
    comes from the frozen trust model.
    """

    def __init__(
        self,
        fixed_scores: np.ndarray,
        pair_object_idx: np.ndarray,
        label_rows: np.ndarray,
        extra: Tuple[np.ndarray, np.ndarray, np.ndarray],
        n_extra: int,
        l2: float,
    ) -> None:
        self.fixed_scores = fixed_scores
        self.pair_object_idx = pair_object_idx
        self.n_objects = label_rows.shape[0]
        self.label_rows = label_rows
        self.extra_rows, self.extra_feature_idx, self.extra_values = extra
        self.n_params = n_extra
        self.valid = label_rows >= 0
        self.n_labeled = max(int(np.sum(self.valid)), 1)
        self._l2 = l2 / self.n_labeled

    def _scores(self, w: np.ndarray) -> np.ndarray:
        scores = self.fixed_scores.copy()
        if self.extra_rows.size:
            scores += np.bincount(
                self.extra_rows,
                weights=w[self.extra_feature_idx] * self.extra_values,
                minlength=scores.shape[0],
            )
        return scores

    def row_posteriors(self, w: np.ndarray) -> np.ndarray:
        return segment_softmax(self._scores(w), self.pair_object_idx, self.n_objects)

    def value(self, w: np.ndarray) -> float:
        return self.value_and_grad(w)[0]

    def grad(self, w: np.ndarray) -> np.ndarray:
        return self.value_and_grad(w)[1]

    def value_and_grad(self, w: np.ndarray) -> Tuple[float, np.ndarray]:
        probs = self.row_posteriors(w)
        picked = np.where(self.valid, self.label_rows, 0)
        log_probs = np.log(np.maximum(probs[picked], 1e-300))
        value = -float(np.sum(np.where(self.valid, log_probs, 0.0))) / self.n_labeled
        value += 0.5 * float(np.sum(self._l2 * w * w))

        residual = probs * self.valid[self.pair_object_idx]
        np.subtract.at(residual, picked[self.valid], 1.0)
        residual /= self.n_labeled
        grad = np.zeros(self.n_params)
        if self.extra_rows.size:
            grad = np.bincount(
                self.extra_feature_idx,
                weights=residual[self.extra_rows] * self.extra_values,
                minlength=self.n_params,
            )
        return value, grad + self._l2 * w


class CopyingSLiMFast:
    """SLiMFast with copying features.

    Parameters
    ----------
    learner:
        ``"em"`` (Figure 8 setting: semi-supervised EM with copying-aware
        posteriors) or ``"erm"`` (trust frozen from ground truth; pair
        weights only, for copying diagnosis).
    use_features:
        Include domain features in the trust model (the paper's Figure 8
        experiment uses no domain features "for simplicity"; default False
        to match).
    em_rounds:
        Alternation rounds (EM mode: trust M-step + pair refit per round;
        ERM mode: hard-EM pair-weight refinements on imputed labels).
    min_overlap, min_agreement, max_pairs, z_threshold:
        Candidate-pair selection, see :func:`find_candidate_pairs`.
    l2_sources, l2_pairs:
        Ridge penalties for the trust fit and the pair-weight fit.
    """

    def __init__(
        self,
        learner: str = "em",
        use_features: bool = False,
        em_rounds: int = 10,
        min_overlap: int = 4,
        min_agreement: float = 0.6,
        max_pairs: int = 300,
        z_threshold: float = 2.0,
        l2_sources: float = 4.0,
        l2_pairs: float = 5.0,
    ) -> None:
        if learner not in ("em", "erm"):
            raise ValueError(f"unknown learner {learner!r}")
        self.learner = learner
        self.use_features = use_features
        self.em_rounds = em_rounds
        self.min_overlap = min_overlap
        self.min_agreement = min_agreement
        self.max_pairs = max_pairs
        self.z_threshold = z_threshold
        self.l2_sources = l2_sources
        self.l2_pairs = l2_pairs
        self.model_: Optional[AccuracyModel] = None
        self.pair_weights_: np.ndarray = np.zeros(0)
        self.pairs_: List[SourcePair] = []
        self._dataset: Optional[FusionDataset] = None
        self._structure: Optional[PairStructure] = None
        self._extra: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None
        self._truth: Dict[ObjectId, Value] = {}

    # ------------------------------------------------------------------
    def fit(self, dataset: FusionDataset, truth: Mapping[ObjectId, Value]) -> "CopyingSLiMFast":
        """Fit the trust model and the copying weights."""
        if not truth and self.learner == "erm":
            raise DatasetError("CopyingSLiMFast(learner='erm') requires ground truth")
        self._dataset = dataset
        self._truth = dict(truth)

        self.pairs_ = find_candidate_pairs(
            dataset,
            self.min_overlap,
            self.min_agreement,
            self.max_pairs,
            self.z_threshold,
        )
        structure = build_pair_structure(dataset)
        self._structure = structure
        self._extra = build_extra_features(dataset, structure, self.pairs_)
        self.pair_weights_ = np.zeros(len(self.pairs_))

        if self.learner == "erm":
            self._fit_erm(dataset, structure)
        else:
            self._fit_em(dataset, structure)
        return self

    # ------------------------------------------------------------------
    def _fit_pairs(
        self,
        fixed_scores: np.ndarray,
        label_rows: np.ndarray,
        warm: np.ndarray,
    ) -> np.ndarray:
        objective = _PairWeightObjective(
            fixed_scores=fixed_scores,
            pair_object_idx=self._structure.pair_object_pos,
            label_rows=label_rows,
            extra=self._extra,
            n_extra=len(self.pairs_),
            l2=self.l2_pairs,
        )
        # Copying weights are discounts: constrained non-negative, so a
        # spurious candidate pair can be zeroed but never *amplify* the
        # double-counted vote.
        return minimize_lbfgs(objective, w0=warm, bounds=[(0.0, None)] * len(self.pairs_)).w

    def _fit_erm(self, dataset: FusionDataset, structure: PairStructure) -> None:
        """ERM mode: trust frozen from labels, pairs from conditional fit."""
        erm = ERMLearner(ERMConfig(use_features=self.use_features, l2_sources=self.l2_sources))
        self.model_ = erm.fit(dataset, self._truth)
        if not self.pairs_:
            return
        fixed_scores = pair_scores(structure, self.model_.trust_scores())
        clamped_rows = structure.label_rows(self._truth)
        labels = clamped_rows
        self.pair_weights_ = self._fit_pairs(fixed_scores, labels, self.pair_weights_)
        for _ in range(self.em_rounds):
            imputed = self._map_rows(clamped_rows)
            if np.array_equal(imputed, labels):
                break
            labels = imputed
            self.pair_weights_ = self._fit_pairs(fixed_scores, labels, self.pair_weights_)

    def _fit_em(self, dataset: FusionDataset, structure: PairStructure) -> None:
        """EM mode: alternate copying-aware E-steps with trust M-steps.

        The E-step posterior includes the pair discounts, so agreeing
        copier groups stop re-crediting each other; the pair weights are
        refit against the labeled objects after every trust update.
        """
        from ..fusion.features import build_design_matrix
        from ..optim.numerics import logit
        from ..optim.objectives import CorrectnessObjective
        from .model import model_from_flat

        design, space = build_design_matrix(dataset, use_features=self.use_features)
        clamped_rows = structure.label_rows(self._truth)

        # Initialize trust exactly like the plain EM learner.
        w = np.zeros(dataset.n_sources + design.shape[1])
        w[: dataset.n_sources] = float(logit(0.7))
        model = model_from_flat(w, dataset, design, space)

        previous_acc = model.accuracies()
        for _ in range(max(self.em_rounds, 1)):
            extra_scores = self._extra_scores_for(self.pair_weights_)
            # E-step with discounted scores, labeled objects clamped.
            q_obs, _ = expected_correctness(
                structure, model.trust_scores(), clamped_rows, extra_scores
            )
            # M-step on the soft correctness labels.
            objective = CorrectnessObjective(
                source_idx=structure.obs_source_idx,
                labels=q_obs,
                design=design,
                l2_sources=self.l2_sources,
                l2_features=1.0,
            )
            w = minimize_lbfgs(objective, w0=w).w
            model = model_from_flat(w, dataset, design, space)

            # Refit pair weights against the labels under the new trust.
            if self.pairs_ and self._truth:
                fixed_scores = pair_scores(structure, model.trust_scores())
                self.pair_weights_ = self._fit_pairs(fixed_scores, clamped_rows, self.pair_weights_)

            current_acc = model.accuracies()
            if float(np.mean(np.abs(current_acc - previous_acc))) < 1e-4:
                break
            previous_acc = current_acc

        self.model_ = model_from_flat(w, dataset, design, space if self.use_features else None)

    # ------------------------------------------------------------------
    def _extra_scores_for(self, pair_weights: np.ndarray) -> np.ndarray:
        rows, feature_idx, values = self._extra
        scores = np.zeros(self._structure.n_pairs)
        if rows.size and pair_weights.size:
            scores = np.bincount(
                rows,
                weights=pair_weights[feature_idx] * values,
                minlength=self._structure.n_pairs,
            )
        return scores

    def _extra_scores(self) -> np.ndarray:
        return self._extra_scores_for(self.pair_weights_)

    def _row_posteriors(self) -> np.ndarray:
        scores = pair_scores(self._structure, self.model_.trust_scores(), self._extra_scores())
        return segment_softmax(scores, self._structure.pair_object_pos, self._structure.n_objects)

    def _map_rows(self, clamped_rows: np.ndarray) -> np.ndarray:
        probs = self._row_posteriors()
        assignments = np.full(self._structure.n_objects, -1, dtype=np.int64)
        for position in range(self._structure.n_objects):
            if clamped_rows[position] >= 0:
                assignments[position] = clamped_rows[position]
                continue
            rows = self._structure.rows_of(position)
            block = probs[rows.start : rows.stop]
            assignments[position] = rows.start + int(np.argmax(block))
        return assignments

    # ------------------------------------------------------------------
    def predict(self) -> FusionResult:
        """Fusion output with copying-adjusted posteriors (array-backed)."""
        if self.model_ is None or self._structure is None:
            raise NotFittedError("call fit() before predict()")
        return FusionResult.from_rows(
            self._structure,
            self._row_posteriors(),
            clamp=self._truth,
            accuracy_vector=self.model_.accuracies(),
            source_ids=self.model_.source_ids,
            method="slimfast-copying",
            diagnostics={"n_pairs": len(self.pairs_)},
        )

    def pair_weights(self) -> Dict[Tuple[SourceId, SourceId], float]:
        """Learned copying weight per candidate pair (positive = copying)."""
        if self.model_ is None:
            raise NotFittedError("call fit() before pair_weights()")
        return {
            (pair.first, pair.second): float(self.pair_weights_[j])
            for j, pair in enumerate(self.pairs_)
        }
