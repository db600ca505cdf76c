"""Contiguous object-range sharding of a compiled candidate structure.

The vectorized E-step is a composition of *segment-local* reductions:
per-row vote scores (a ``bincount`` over each object's own observation
rows), a segmented softmax (per-object normalization), and per-source
sufficient statistics (a ``bincount`` over sources).  Because every
object's rows are contiguous in both the ``pair_*`` and ``obs_*``
layouts, slicing the structure by contiguous object range preserves each
piece **bit-for-bit**:

* a shard's vote scores equal the matching slice of the global scores
  (``bincount`` accumulates each bin's addends in input order, and a
  shard sees exactly the global order restricted to its rows);
* the segmented softmax is per-object, so shard row probabilities equal
  the global ones on the shard's rows exactly;
* only the final cross-shard *sum* of per-source statistics reorders
  floating-point additions — the one place sharded EM may differ from
  the unsharded fit, bounded by the ``atol=1e-10`` equivalence contract
  (value codes stay bit-identical; see
  ``tests/fusion/test_posterior_store.py``).

Shards are plain picklable array bundles, so a fit can fan its per-round
shard E-steps out over worker processes (:func:`shard_worker_pool`, a
:class:`repro.experiments.parallel.WorkerPool`): the shard arrays ship to
each worker once, and every round only the trust vector and the
per-shard partial statistics cross the process boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..optim.objectives import segment_softmax


def shard_bounds(n_objects: int, n_shards: int) -> np.ndarray:
    """Contiguous, balanced object-range boundaries (``n_shards + 1``).

    Deterministic in ``(n_objects, n_shards)`` — the same rule as
    :func:`repro.experiments.parallel.chunk_indices` — and never returns
    empty ranges unless ``n_objects < n_shards``.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be a positive integer, got {n_shards!r}")
    return np.linspace(0, n_objects, min(n_shards, max(n_objects, 1)) + 1).astype(np.int64)


@dataclass
class StructureShard:
    """One contiguous object range of a compiled candidate structure.

    All arrays are *rebased* to the shard: ``pair_offsets`` starts at 0,
    ``pair_object_pos`` indexes shard-local objects, ``obs_pair_idx``
    indexes shard-local rows.  ``object_start`` / ``object_stop`` locate
    the shard in the parent structure; source indices stay global, so
    per-source statistics from different shards align for the reduce.
    """

    object_start: int
    object_stop: int
    pair_start: int
    pair_stop: int
    pair_offsets: np.ndarray
    pair_object_pos: np.ndarray
    obs_source_idx: np.ndarray
    obs_pair_idx: np.ndarray
    base_scores: np.ndarray

    @property
    def n_objects(self) -> int:
        """Objects covered by the shard."""
        return self.object_stop - self.object_start

    @property
    def n_pairs(self) -> int:
        """Candidate (object, value) rows in the shard."""
        return self.pair_stop - self.pair_start

    @property
    def n_observations(self) -> int:
        """Observations whose object falls in the shard."""
        return int(self.obs_pair_idx.shape[0])

    def to_state(self) -> Dict[str, object]:
        """Flat picklable dict (arrays + ints) for cross-process transport."""
        return {
            "object_start": self.object_start,
            "object_stop": self.object_stop,
            "pair_start": self.pair_start,
            "pair_stop": self.pair_stop,
            "pair_offsets": self.pair_offsets,
            "pair_object_pos": self.pair_object_pos,
            "obs_source_idx": self.obs_source_idx,
            "obs_pair_idx": self.obs_pair_idx,
            "base_scores": self.base_scores,
        }

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "StructureShard":
        """Rebuild a shard from :meth:`to_state` output."""
        return cls(**state)


def _pair_positions(structure) -> np.ndarray:
    """Per-row object positions of a structure or encoding (duck-typed)."""
    positions = getattr(structure, "pair_object_pos", None)
    if positions is None:
        positions = structure.pair_object_idx
    return np.asarray(positions, dtype=np.int64)


def shard_structure(structure, n_shards: int) -> List[StructureShard]:
    """Slice a compiled structure into contiguous object-range shards.

    Works on any structure-shaped object carrying the CSR candidate
    layout (:class:`repro.core.structure.PairStructure` or a
    :class:`~repro.fusion.encoding.DenseEncoding`-compatible snapshot).
    Requires the observation rows to be grouped by object position in
    nondecreasing order — true of every builder in this codebase — and
    raises ``ValueError`` otherwise, because slice boundaries would split
    an object's rows across shards.
    """
    pair_offsets = np.asarray(structure.pair_offsets, dtype=np.int64)
    pair_positions = _pair_positions(structure)
    obs_pair_idx = np.asarray(structure.obs_pair_idx, dtype=np.int64)
    obs_source_idx = np.asarray(structure.obs_source_idx, dtype=np.int64)
    base_scores = np.asarray(structure.base_scores, dtype=float)
    n_objects = pair_offsets.shape[0] - 1

    obs_positions = pair_positions[obs_pair_idx]
    if obs_positions.shape[0] and np.any(np.diff(obs_positions) < 0):
        raise ValueError(
            "shard_structure requires observation rows grouped by object "
            "position; got an unsorted obs layout"
        )

    bounds = shard_bounds(n_objects, n_shards)
    obs_cuts = np.searchsorted(obs_positions, bounds, side="left")
    shards: List[StructureShard] = []
    for i in range(bounds.shape[0] - 1):
        start, stop = int(bounds[i]), int(bounds[i + 1])
        pair_start, pair_stop = int(pair_offsets[start]), int(pair_offsets[stop])
        obs_start, obs_stop = int(obs_cuts[i]), int(obs_cuts[i + 1])
        shards.append(
            StructureShard(
                object_start=start,
                object_stop=stop,
                pair_start=pair_start,
                pair_stop=pair_stop,
                pair_offsets=pair_offsets[start : stop + 1] - pair_start,
                pair_object_pos=pair_positions[pair_start:pair_stop] - start,
                obs_source_idx=obs_source_idx[obs_start:obs_stop],
                obs_pair_idx=obs_pair_idx[obs_start:obs_stop] - pair_start,
                base_scores=base_scores[pair_start:pair_stop],
            )
        )
    return shards


def shard_blocked_rows(
    shards: List[StructureShard], blocked_rows: Optional[np.ndarray]
) -> List[np.ndarray]:
    """Split a global E-step clamp plan into shard-local row indices.

    ``blocked_rows`` (sorted global row indices from
    :func:`repro.core.inference.clamp_rows`) is cut at each shard's pair
    range and rebased; ``None`` yields empty plans.
    """
    empty = np.zeros(0, dtype=np.int64)
    if blocked_rows is None or blocked_rows.size == 0:
        return [empty for _ in shards]
    blocked_rows = np.asarray(blocked_rows, dtype=np.int64)
    out: List[np.ndarray] = []
    for shard in shards:
        lo = int(np.searchsorted(blocked_rows, shard.pair_start, side="left"))
        hi = int(np.searchsorted(blocked_rows, shard.pair_stop, side="left"))
        out.append(blocked_rows[lo:hi] - shard.pair_start)
    return out


def shard_posterior_rows(shard: StructureShard, trust: np.ndarray) -> np.ndarray:
    """Posterior probability of the shard's candidate rows.

    Bit-identical to the matching slice of the global
    :func:`repro.core.inference.posterior_rows` output (see the module
    docstring for why).
    """
    scores = (
        np.bincount(
            shard.obs_pair_idx,
            weights=trust[shard.obs_source_idx],
            minlength=shard.n_pairs,
        )
        + shard.base_scores
    )
    return segment_softmax(scores, shard.pair_object_pos, shard.n_objects)


def shard_expected_stats(
    shard: StructureShard,
    trust: np.ndarray,
    n_sources: int,
    blocked_rows: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Partial per-source M-step sufficient statistics of one shard.

    Runs the shard's E-step (vote scores, fused clamp, segmented softmax)
    and collapses the per-observation soft correctness ``q`` to
    ``(totals, mass)`` vectors of length ``n_sources``: the shard's
    observation count and summed ``q`` per *global* source index.  The
    full-fit statistics are the elementwise sums over shards
    (:func:`sharded_correctness_stats`), after which the M-step proceeds
    exactly as in :func:`repro.optim.objectives.reduce_correctness_samples`.
    """
    scores = (
        np.bincount(
            shard.obs_pair_idx,
            weights=trust[shard.obs_source_idx],
            minlength=shard.n_pairs,
        )
        + shard.base_scores
    )
    if blocked_rows is not None and blocked_rows.size:
        scores[blocked_rows] = -np.inf
    probs = segment_softmax(scores, shard.pair_object_pos, shard.n_objects)
    q = probs[shard.obs_pair_idx]
    totals = np.bincount(shard.obs_source_idx, minlength=n_sources).astype(float)
    mass = np.bincount(shard.obs_source_idx, weights=q, minlength=n_sources)
    return totals, mass


def shard_worker_pool(
    shards: List[StructureShard],
    blocked_per_shard: List[np.ndarray],
    n_sources: int,
    n_jobs: Optional[int],
):
    """A :class:`~repro.experiments.parallel.WorkerPool` holding the shards.

    Pass it to :func:`sharded_correctness_stats` to evaluate each round's
    shard E-steps on ``n_jobs`` worker processes (at most one per shard;
    one worker runs them in-process).  The caller closes the pool.
    """
    from ..experiments.parallel import WorkerPool, resolve_n_jobs

    state = {
        "shards": [shard.to_state() for shard in shards],
        "blocked": list(blocked_per_shard),
        "n_sources": int(n_sources),
    }
    return WorkerPool(state, min(resolve_n_jobs(n_jobs), len(shards)))


def _pooled_shard_stats(state: Dict[str, object], index: int, trust: np.ndarray):
    """One shard's partial statistics, as a :func:`shard_worker_pool` task."""
    shard = StructureShard.from_state(state["shards"][index])
    return shard_expected_stats(shard, trust, state["n_sources"], state["blocked"][index])


def sharded_correctness_stats(
    shards: List[StructureShard],
    trust: np.ndarray,
    n_sources: int,
    blocked_per_shard: Optional[List[np.ndarray]] = None,
    pool=None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Reduce per-shard partial statistics in ascending shard index.

    ``pool`` (from :func:`shard_worker_pool` over the same shards) fans
    the shard E-steps out over processes; the partials still come back
    and sum in shard order, so serial and process-parallel sharded fits
    produce identical statistics.
    """
    if pool is not None:
        partials = pool.map(_pooled_shard_stats, [(i, trust) for i in range(len(shards))])
    else:
        blocked = blocked_per_shard if blocked_per_shard is not None else [None] * len(shards)
        partials = [
            shard_expected_stats(shard, trust, n_sources, rows)
            for shard, rows in zip(shards, blocked)
        ]
    totals = np.zeros(n_sources)
    mass = np.zeros(n_sources)
    for shard_totals, shard_mass in partials:
        totals += shard_totals
        mass += shard_mass
    return totals, mass
