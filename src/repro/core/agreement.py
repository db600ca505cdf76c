"""Average source-accuracy estimation via matrix completion (Section 4.3).

The optimizer needs the average source accuracy without ground truth.  The
paper builds the pairwise agreement matrix

    ``X_ij = mean over shared objects of (1[agree] - 1[disagree])``

whose expectation under the uniform-accuracy model is ``mu^2`` with
``mu = 2A - 1``.  The rank-1 matrix completion
``min ||X - mu^2||^2`` has the closed form ``mu_hat = sqrt(mean(X))``, and
``A = (mu_hat + 1) / 2``.

Two refinements are provided beyond the paper's estimator:

* ``method="domain-corrected"`` accounts for multi-valued domains, where
  two wrong sources agree with probability ``1/(|D_o|-1)`` instead of 1.
* :func:`estimate_source_accuracies_rank1` generalizes to a per-source
  ``mu_i`` via alternating rank-1 updates (the "more general matrix
  completion problem" the paper mentions in passing).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np
from scipy import sparse

from ..fusion.dataset import FusionDataset
from ..fusion.types import SourceId


@dataclass
class AgreementMatrix:
    """Pairwise source agreement statistics.

    Attributes
    ----------
    scores:
        ``|S| x |S|`` matrix of ``2 * agree_rate - 1``; ``nan`` where the
        two sources share fewer than ``min_overlap`` objects.
    overlaps:
        ``|S| x |S|`` count of shared objects.
    """

    scores: np.ndarray
    overlaps: np.ndarray

    def observed_pairs(self) -> np.ndarray:
        """Boolean mask of valid off-diagonal entries."""
        mask = ~np.isnan(self.scores)
        np.fill_diagonal(mask, False)
        return mask


def _object_claim_counts(dataset: FusionDataset) -> Tuple[np.ndarray, np.ndarray]:
    """Per-object claim counts ``m_o`` and domain sizes ``|D_o|``.

    Domains index their values in first-seen order, so ``|D_o|`` is one
    more than the largest value index claimed for ``o``.
    """
    sizes = np.zeros(dataset.n_objects, dtype=np.int64)
    np.maximum.at(sizes, dataset.obs_object_idx, dataset.obs_value_idx + 1)
    return np.bincount(dataset.obs_object_idx, minlength=dataset.n_objects), sizes


def _agreement_counts(
    dataset: FusionDataset, min_overlap: int
) -> Tuple[AgreementMatrix, np.ndarray]:
    """The agreement matrix plus the agreeing-claim counts behind it.

    Both counts are exact integers held in float64: the Gram products of
    the source x object and source x (object, value) incidence matrices.
    Cells are numbered object by object, ``|D_o|`` apiece, so the cell
    matrix has at most ``n_observations`` columns however wide one
    object's domain is.
    """
    sources, objects = dataset.obs_source_idx, dataset.obs_object_idx
    n_sources, n_objects = dataset.n_sources, dataset.n_objects
    _, sizes = _object_claim_counts(dataset)
    offsets = np.cumsum(sizes) - sizes
    ones = np.ones(sources.shape[0])
    by_object = sparse.csr_matrix((ones, (sources, objects)), shape=(n_sources, n_objects))
    by_cell = sparse.csr_matrix(
        (ones, (sources, offsets[objects] + dataset.obs_value_idx)),
        shape=(n_sources, int(sizes.sum())),
    )
    overlap = (by_object @ by_object.T).toarray()
    agree = (by_cell @ by_cell.T).toarray()
    np.fill_diagonal(overlap, 0.0)
    np.fill_diagonal(agree, 0.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        rate = agree / overlap
    scores = 2.0 * rate - 1.0
    scores[overlap < min_overlap] = np.nan
    return AgreementMatrix(scores=scores, overlaps=overlap), agree


def agreement_matrix(dataset: FusionDataset, min_overlap: int = 1) -> AgreementMatrix:
    """Compute the pairwise agreement matrix ``X`` of Section 4.3.

    Its counts are a self-join of the claims on object, of size
    ``sum_o m_o^2``, computed as two sparse Gram products over incidence
    matrices with one nonzero per observation.
    """
    return _agreement_counts(dataset, min_overlap)[0]


def average_domain_size(dataset: FusionDataset) -> float:
    """Mean number of distinct claimed values over conflicted objects."""
    counts, sizes = _object_claim_counts(dataset)
    conflicted = sizes[counts >= 2]
    if not conflicted.size:
        return 2.0
    return float(np.mean(conflicted))


def estimate_average_accuracy(
    dataset: FusionDataset,
    min_overlap: int = 1,
    method: str = "paper",
    fallback: float = 0.7,
    matrix: Optional[AgreementMatrix] = None,
) -> float:
    """Estimate the average source accuracy from agreements alone.

    Parameters
    ----------
    method:
        ``"paper"`` uses the binary-model identity
        ``E[X] = (2A - 1)^2``; ``"domain-corrected"`` solves
        ``agree_rate = A^2 + (1 - A)^2 / (k - 1)`` with ``k`` the average
        conflicted-domain size, which is the right identity for
        multi-valued objects.
    fallback:
        Returned when no source pair has sufficient overlap (e.g. extremely
        sparse datasets such as Genomics).
    """
    matrix = matrix if matrix is not None else agreement_matrix(dataset, min_overlap)
    mask = matrix.observed_pairs()
    if not np.any(mask):
        return fallback
    mean_score = float(np.mean(matrix.scores[mask]))

    if method == "paper":
        mu_sq = max(mean_score, 0.0)
        mu = float(np.sqrt(mu_sq))
        return (mu + 1.0) / 2.0
    if method == "domain-corrected":
        agree_rate = (mean_score + 1.0) / 2.0
        k = max(average_domain_size(dataset), 2.0)
        return _solve_domain_corrected(agree_rate, k)
    raise ValueError(f"unknown estimation method {method!r}")


def _solve_domain_corrected(agree_rate: float, k: float) -> float:
    """Solve ``agree = A^2 + (1-A)^2/(k-1)`` for ``A`` in [1/k, 1].

    The quadratic has two roots; the one at or above the random-guess rate
    ``1/k`` is the meaningful accuracy.  Agreement below the random
    baseline clamps to ``1/k`` (can happen with adversarial sources).
    """
    c = 1.0 / (k - 1.0)
    # (1 + c) A^2 - 2c A + (c - agree) = 0
    a_coef = 1.0 + c
    b_coef = -2.0 * c
    c_coef = c - agree_rate
    disc = b_coef * b_coef - 4.0 * a_coef * c_coef
    if disc < 0.0:
        return 1.0 / k
    root = (-b_coef + np.sqrt(disc)) / (2.0 * a_coef)
    return float(np.clip(root, 1.0 / k, 1.0))


def estimate_source_accuracies_rank1(
    dataset: FusionDataset,
    min_overlap: int = 2,
    max_iterations: int = 200,
    tolerance: float = 1e-8,
    matrix: Optional[AgreementMatrix] = None,
) -> Dict[SourceId, float]:
    """Per-source accuracy via the generalized rank-1 completion.

    Fits ``X_ij ~ mu_i * mu_j`` over observed pairs by alternating
    least-squares updates, then maps ``A_i = (mu_i + 1) / 2``.  Sources
    without any sufficiently-overlapping peer keep the global average.
    """
    matrix = matrix if matrix is not None else agreement_matrix(dataset, min_overlap)
    mask = matrix.observed_pairs()
    n = matrix.scores.shape[0]
    global_avg = estimate_average_accuracy(dataset, min_overlap, matrix=matrix)
    mu = np.full(n, max(2.0 * global_avg - 1.0, 0.05))

    scores = np.where(mask, matrix.scores, 0.0)
    for _ in range(max_iterations):
        previous = mu.copy()
        for i in range(n):
            peers = mask[i]
            denom = float(np.sum(mu[peers] ** 2))
            if denom <= 0.0:
                continue
            mu[i] = float(np.clip(scores[i, peers] @ mu[peers] / denom, -1.0, 1.0))
        if float(np.max(np.abs(mu - previous))) < tolerance:
            break

    accuracies = (mu + 1.0) / 2.0
    return {source: float(accuracies[i]) for i, source in enumerate(dataset.sources)}
