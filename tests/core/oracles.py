"""Per-object loop implementations of the optimizer layer, kept as oracles.

These are the straightforward Python loops the library's array code
replaced: the Section 4.3 agreement matrix, Algorithm 1's EM units, the
average conflicted-domain size, the per-observation ERM units and the
copying extension's candidate-pair scan.  They walk one object at a time
and are easy to check by eye; the parity tests hold the library to them
(exactly for counts and scores, to 1e-12 relative for EM units).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Tuple

import numpy as np
from scipy import stats

from repro.core.agreement import AgreementMatrix, estimate_average_accuracy
from repro.core.copying import SourcePair
from repro.fusion import FusionDataset, binary_entropy
from repro.fusion.types import ObjectId, Value


def agreement_matrix(dataset: FusionDataset, min_overlap: int = 1) -> AgreementMatrix:
    """``O(sum_o m_o^2)`` double loop over each object's claim pairs."""
    n = dataset.n_sources
    agree = np.zeros((n, n))
    overlap = np.zeros((n, n))
    for o_idx in range(dataset.n_objects):
        rows = dataset.object_observation_rows(o_idx)
        if rows.shape[0] < 2:
            continue
        sources = dataset.obs_source_idx[rows]
        values = dataset.obs_value_idx[rows]
        same = values[:, None] == values[None, :]
        for a in range(sources.shape[0]):
            sa = sources[a]
            for b in range(a + 1, sources.shape[0]):
                sb = sources[b]
                overlap[sa, sb] += 1
                overlap[sb, sa] += 1
                if same[a, b]:
                    agree[sa, sb] += 1
                    agree[sb, sa] += 1
    with np.errstate(invalid="ignore", divide="ignore"):
        rate = agree / overlap
    scores = 2.0 * rate - 1.0
    scores[overlap < min_overlap] = np.nan
    return AgreementMatrix(scores=scores, overlaps=overlap)


def average_domain_size(dataset: FusionDataset) -> float:
    """Mean number of distinct claimed values over conflicted objects."""
    sizes = [
        len(dataset.domain_by_index(o_idx))
        for o_idx in range(dataset.n_objects)
        if dataset.object_observation_rows(o_idx).shape[0] >= 2
    ]
    if not sizes:
        return 2.0
    return float(np.mean(sizes))


def em_information_units(
    dataset: FusionDataset,
    avg_accuracy: float,
    per_observation: bool = False,
    vote_threshold: str = "majority",
) -> float:
    """Algorithm 1 with one scalar ``binom.cdf`` call per object."""
    if vote_threshold not in ("majority", "paper"):
        raise ValueError(f"unknown vote_threshold {vote_threshold!r}")
    avg_accuracy = float(np.clip(avg_accuracy, 1e-6, 1.0 - 1e-6))
    total = 0.0
    for o_idx in range(dataset.n_objects):
        m = int(dataset.object_observation_rows(o_idx).shape[0])
        if m == 0:
            continue
        n_distinct = len(dataset.domain_by_index(o_idx))
        if n_distinct <= 1:
            p_e = 1.0
        else:
            divisor = 2 if vote_threshold == "majority" else n_distinct
            threshold = m // divisor
            p_e = float(1.0 - stats.binom.cdf(threshold, m, avg_accuracy))
        if p_e >= 0.5:
            units = 1.0 - binary_entropy(p_e)
            total += units * m if per_observation else units
    return total


def erm_information_units(
    dataset: FusionDataset,
    truth: Mapping[ObjectId, Value],
    per_observation: bool = False,
) -> float:
    """Ground-truth units: ``|G|``, or total observations on labeled objects."""
    if not per_observation:
        return float(len(truth))
    total = 0
    for obj in truth:
        if obj in dataset.objects:
            o_idx = dataset.objects.index(obj)
            total += int(dataset.object_observation_rows(o_idx).shape[0])
    return float(total)


def find_candidate_pairs(
    dataset: FusionDataset,
    min_overlap: int = 3,
    min_agreement: float = 0.5,
    max_pairs: int = 200,
    z_threshold: float = 0.0,
) -> List[SourcePair]:
    """Candidate copying pairs from a per-object pair scan.

    Pairs enter a dict in the order the object-major scan first meets
    them; the final sort is stable, so that order breaks ties.
    """
    pair_stats: Dict[Tuple[int, int], Tuple[int, int]] = {}
    for o_idx in range(dataset.n_objects):
        rows = dataset.object_observation_rows(o_idx)
        if rows.shape[0] < 2:
            continue
        sources = dataset.obs_source_idx[rows]
        values = dataset.obs_value_idx[rows]
        for a in range(sources.shape[0]):
            for b in range(a + 1, sources.shape[0]):
                key = (int(min(sources[a], sources[b])), int(max(sources[a], sources[b])))
                overlap, agree = pair_stats.get(key, (0, 0))
                pair_stats[key] = (overlap + 1, agree + int(values[a] == values[b]))

    eligible = {
        key: (overlap, agree)
        for key, (overlap, agree) in pair_stats.items()
        if overlap >= min_overlap
    }
    if not eligible:
        return []
    avg_accuracy = estimate_average_accuracy(dataset, matrix=agreement_matrix(dataset))
    k = max(average_domain_size(dataset), 2.0)
    independent_rate = avg_accuracy**2 + (1.0 - avg_accuracy) ** 2 / (k - 1.0)
    base_rate = min(max(independent_rate, 1e-6), 1.0 - 1e-6)

    candidates = []
    for (sa, sb), (overlap, agree) in eligible.items():
        rate = agree / overlap
        if rate < min_agreement:
            continue
        stderr = float(np.sqrt(base_rate * (1.0 - base_rate) / overlap))
        z_score = (rate - base_rate) / stderr
        if z_score < z_threshold:
            continue
        candidates.append(
            SourcePair(
                first=dataset.sources.item(sa),
                second=dataset.sources.item(sb),
                overlap=overlap,
                agreement_rate=rate,
                z_score=z_score,
            )
        )
    candidates.sort(key=lambda pair: (-pair.z_score, -pair.overlap, repr(pair.first)))
    return candidates[:max_pairs]
