"""Per-source reliability statistics computed from the data itself.

The reliability featurizer (Section 3.2's domain-feature idea, applied to
*data-derived* signals) reduces a fused dataset to a small set of
per-source accumulators:

* volume — how many claims the source makes;
* breadth — how large the claimed objects' domains are;
* recency — where in the arrival stream the claims sit (row indices are
  the arrival clock), including an exponentially decayed volume;
* corroboration — how often the source agrees with the per-object
  consensus and with co-claiming sources;
* contradiction — how often at least one other source disputes a claim;
* overlap — how often claims are solo vs shared with other sources;
* entropy — how contested the claimed objects are (normalized vote
  entropy).

Everything is a segmented reduction over the encoding's flat arrays:
object-level quantities (:class:`ObjectStats`) are computed once
globally, then per-source sums are masked ``np.bincount`` calls over a
contiguous source range.  Because chunking by source range preserves
each source's observation order and ``bincount`` accumulates
sequentially per bin, concatenating per-chunk results is **bit-identical**
to a single full-range pass — the invariant the chunked-parallel
pipeline and its tests rely on.

:class:`RunningSourceStats` maintains the same accumulators under
O(batch + touched-object claims) streaming appends, for the
:class:`~repro.extensions.streaming.StreamingFuser` refit path.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, Mapping, Optional, Sequence

import numpy as np

from ..fusion.posterior_store import segmented_argmax

#: Default half-life (in arrival rows) of the decayed-volume accumulator.
DEFAULT_HALF_LIFE = 256.0

_ROW_SENTINEL = np.iinfo(np.int64).max

#: The flat encoding arrays the statistics pass reads.
STAT_ARRAYS = (
    "obs_source_idx",
    "obs_object_idx",
    "obs_value_code",
    "obs_pair_idx",
    "obs_order",
    "pair_offsets",
    "domain_sizes",
)


@dataclass(frozen=True)
class ObjectStats:
    """Global per-object/per-pair quantities shared by every source chunk.

    Attributes
    ----------
    votes:
        Per candidate pair: how many sources claim that value.
    claims_per_object:
        Per object: total number of claims (= number of claiming sources).
    consensus_code:
        Per object: the plurality value code (ties break toward the
        lowest code, matching :func:`segmented_argmax`).
    entropy:
        Per object: vote entropy normalized by ``log(max(|D_o|, 2))`` so
        values live in ``[0, 1]``.
    domain_sizes:
        Per object: number of distinct claimed values.
    """

    votes: np.ndarray
    claims_per_object: np.ndarray
    consensus_code: np.ndarray
    entropy: np.ndarray
    domain_sizes: np.ndarray

    def as_arrays(self) -> Dict[str, np.ndarray]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass
class SourceStats:
    """Per-source accumulators over a contiguous source range.

    All arrays are aligned to sources ``range(source_start, source_stop)``.
    ``concat`` glues adjacent chunks back together; the result of
    concatenating any chunking equals the single-pass computation
    bit-for-bit (see module docstring).
    """

    source_start: int
    source_stop: int
    n_observations: int
    n_objects: int
    half_life: float

    n_claims: np.ndarray  # int64: total claims
    n_solo: np.ndarray  # int64: claims on single-claim objects
    n_consensus: np.ndarray  # int64: claims matching the object consensus
    n_contradicted: np.ndarray  # int64: claims disputed by >=1 other source
    sum_domain: np.ndarray  # float: sum of claimed objects' |D_o|
    sum_coclaim: np.ndarray  # float: sum of co-claimant counts
    sum_agree: np.ndarray  # float: sum of agreeing co-claimant counts
    sum_entropy: np.ndarray  # float: sum of claimed objects' entropies
    sum_row: np.ndarray  # float: sum of arrival rows
    first_row: np.ndarray  # int64: earliest arrival row (sentinel if none)
    last_row: np.ndarray  # int64: latest arrival row (-1 if none)
    decayed_volume: np.ndarray  # float: sum of 2^((row - last_row)/h)
    decayed_agree: np.ndarray  # float: recency-weighted sum of agreeing co-claimants

    ARRAY_FIELDS = (
        "n_claims",
        "n_solo",
        "n_consensus",
        "n_contradicted",
        "sum_domain",
        "sum_coclaim",
        "sum_agree",
        "sum_entropy",
        "sum_row",
        "first_row",
        "last_row",
        "decayed_volume",
        "decayed_agree",
    )

    @property
    def n_sources(self) -> int:
        return self.source_stop - self.source_start

    @classmethod
    def concat(cls, parts: Sequence["SourceStats"]) -> "SourceStats":
        """Glue adjacent source-range chunks (ascending, contiguous)."""
        if not parts:
            raise ValueError("cannot concatenate zero SourceStats chunks")
        parts = sorted(parts, key=lambda p: p.source_start)
        for left, right in zip(parts, parts[1:]):
            if left.source_stop != right.source_start:
                raise ValueError(
                    f"source ranges must be contiguous: "
                    f"[{left.source_start}, {left.source_stop}) then "
                    f"[{right.source_start}, {right.source_stop})"
                )
        head = parts[0]
        merged = {
            name: np.concatenate([getattr(p, name) for p in parts]) for name in cls.ARRAY_FIELDS
        }
        return cls(
            source_start=head.source_start,
            source_stop=parts[-1].source_stop,
            n_observations=head.n_observations,
            n_objects=head.n_objects,
            half_life=head.half_life,
            **merged,
        )


def compute_object_stats(arrays: Mapping[str, np.ndarray]) -> ObjectStats:
    """One global pass producing the shared object-level quantities."""
    pair_offsets = arrays["pair_offsets"]
    domain_sizes = arrays["domain_sizes"]
    obs_pair_idx = arrays["obs_pair_idx"]
    obs_object_idx = arrays["obs_object_idx"]
    n_objects = domain_sizes.shape[0]
    n_pairs = int(pair_offsets[-1]) if pair_offsets.shape[0] else 0

    votes = np.bincount(obs_pair_idx, minlength=n_pairs).astype(np.int64)
    claims_per_object = np.bincount(obs_object_idx, minlength=n_objects).astype(np.int64)
    consensus_code = segmented_argmax(votes.astype(float), pair_offsets)

    # Normalized vote entropy per object.  Zero-vote pairs contribute an
    # exact 0.0, so the bincount accumulation order matches the
    # ascending-code order RunningSourceStats uses.
    lengths = pair_offsets[1:] - pair_offsets[:-1]
    pair_object = np.repeat(np.arange(n_objects, dtype=np.int64), lengths)
    totals = np.maximum(claims_per_object[pair_object], 1)
    p = votes / totals
    terms = np.where(votes > 0, -p * np.log(np.where(votes > 0, p, 1.0)), 0.0)
    entropy = np.bincount(pair_object, weights=terms, minlength=n_objects)
    entropy = entropy / np.log(np.maximum(domain_sizes, 2))

    return ObjectStats(
        votes=votes,
        claims_per_object=claims_per_object,
        consensus_code=consensus_code,
        entropy=entropy,
        domain_sizes=np.asarray(domain_sizes, dtype=np.int64),
    )


def compute_source_stats_chunk(
    arrays: Mapping[str, np.ndarray],
    object_stats: ObjectStats,
    source_start: int,
    source_stop: int,
    *,
    half_life: float = DEFAULT_HALF_LIFE,
) -> SourceStats:
    """Per-source accumulators for sources ``[source_start, source_stop)``.

    The mask keeps each source's observations in the encoding's
    object-sorted order, so every ``bincount`` below accumulates a given
    source's terms in the same order regardless of how the source axis
    is chunked — the bit-identity invariant.
    """
    n = source_stop - source_start
    obs_source_idx = arrays["obs_source_idx"]
    mask = (obs_source_idx >= source_start) & (obs_source_idx < source_stop)
    src = obs_source_idx[mask] - source_start
    obj = arrays["obs_object_idx"][mask]
    code = arrays["obs_value_code"][mask]
    pair = arrays["obs_pair_idx"][mask]
    rows = arrays["obs_order"][mask]
    rows_f = rows.astype(float)

    claims_on_obj = object_stats.claims_per_object[obj]
    votes = object_stats.votes[pair]

    def count(cond: np.ndarray) -> np.ndarray:
        return np.bincount(src[cond], minlength=n).astype(np.int64)

    def total(weights: np.ndarray) -> np.ndarray:
        return np.bincount(src, weights=weights, minlength=n)

    n_claims = np.bincount(src, minlength=n).astype(np.int64)
    n_solo = count(claims_on_obj == 1)
    n_consensus = count(object_stats.consensus_code[obj] == code)
    n_contradicted = count(votes < claims_on_obj)
    sum_domain = total(object_stats.domain_sizes[obj].astype(float))
    sum_coclaim = total((claims_on_obj - 1).astype(float))
    sum_agree = total((votes - 1).astype(float))
    sum_entropy = total(object_stats.entropy[obj])
    sum_row = total(rows_f)

    first_row = np.full(n, _ROW_SENTINEL, dtype=np.int64)
    np.minimum.at(first_row, src, rows)
    last_row = np.full(n, -1, dtype=np.int64)
    np.maximum.at(last_row, src, rows)

    # Exponents are <= 0 by construction, so the decayed accumulators
    # never overflow no matter how long the stream ran.  decayed_agree is
    # the drift-aware cousin of sum_agree: corroboration weighted toward
    # each source's recent claims.
    age = (rows_f - last_row[src].astype(float)) / float(half_life)
    weights = np.exp2(age)
    decayed_volume = total(weights)
    decayed_agree = total(weights * (votes - 1).astype(float))

    return SourceStats(
        source_start=source_start,
        source_stop=source_stop,
        n_observations=int(obs_source_idx.shape[0]),
        n_objects=int(object_stats.domain_sizes.shape[0]),
        half_life=float(half_life),
        n_claims=n_claims,
        n_solo=n_solo,
        n_consensus=n_consensus,
        n_contradicted=n_contradicted,
        sum_domain=sum_domain,
        sum_coclaim=sum_coclaim,
        sum_agree=sum_agree,
        sum_entropy=sum_entropy,
        sum_row=sum_row,
        first_row=first_row,
        last_row=last_row,
        decayed_volume=decayed_volume,
        decayed_agree=decayed_agree,
    )


def compute_source_stats(
    arrays: Mapping[str, np.ndarray],
    n_sources: int,
    *,
    half_life: float = DEFAULT_HALF_LIFE,
    n_jobs: Optional[int] = 1,
) -> SourceStats:
    """Full per-source statistics, optionally fanned over processes.

    ``n_jobs=1`` computes everything inline; ``n_jobs=None`` resolves to
    the CPU count via :func:`repro.experiments.parallel.resolve_n_jobs`.
    Results are bit-identical across any ``n_jobs`` (see module
    docstring): source-range chunks run as
    :class:`~repro.experiments.parallel.WorkerPool` tasks, which ships the
    flat arrays to each worker once (in-process when one worker) and
    returns the chunks in ascending source order for the concat.
    """
    object_stats = compute_object_stats(arrays)
    if n_sources == 0:
        return compute_source_stats_chunk(arrays, object_stats, 0, 0, half_life=half_life)

    # Lazy import: repro.featurize must not import repro.experiments at
    # module scope (experiments -> harness -> core -> featurize cycle).
    from ..experiments.parallel import WorkerPool, chunk_indices, resolve_n_jobs

    chunks = chunk_indices(n_sources, resolve_n_jobs(n_jobs))
    state = {
        "arrays": {name: arrays[name] for name in STAT_ARRAYS},
        "object_arrays": object_stats.as_arrays(),
        "half_life": half_life,
    }
    with WorkerPool(state, len(chunks)) as pool:
        parts = pool.map(_stats_chunk_task, [(c.start, c.stop) for c in chunks])
    return SourceStats.concat(parts)


def _stats_chunk_task(state: Mapping[str, object], start: int, stop: int) -> SourceStats:
    """One source-range chunk of :func:`compute_source_stats`."""
    return compute_source_stats_chunk(
        state["arrays"],
        ObjectStats(**state["object_arrays"]),
        start,
        stop,
        half_life=state["half_life"],
    )


# ----------------------------------------------------------------------
# Incremental (streaming) accumulation
# ----------------------------------------------------------------------
class RunningSourceStats:
    """O(batch) streaming counterpart of :func:`compute_source_stats`.

    Feed every :class:`~repro.fusion.encoding.AppendBatch` produced by an
    :class:`~repro.fusion.encoding.IncrementalEncoding` through
    :meth:`observe` (starting from an empty encoding).  Row/volume
    accumulators update purely from the batch; consensus-dependent
    accumulators are re-derived for the touched objects only, by reading
    each touched object's claim span (old claims are the span prefix —
    appends land at the span's end in arrival order).

    :meth:`snapshot` returns a :class:`SourceStats` matching the cold
    computation exactly on integer fields; float fields agree to
    accumulation-order tolerance (``decayed_volume`` is rescaled rather
    than recomputed when a source's ``last_row`` advances).
    """

    def __init__(self, half_life: float = DEFAULT_HALF_LIFE) -> None:
        self.half_life = float(half_life)
        self.n_observations = 0
        self._capacity = 16
        self._n_sources = 0
        self._int_fields = (
            "n_claims",
            "n_solo",
            "n_consensus",
            "n_contradicted",
        )
        self._float_fields = (
            "sum_domain",
            "sum_coclaim",
            "sum_agree",
            "sum_entropy",
            "sum_row",
            "decayed_volume",
            "decayed_agree",
        )
        for name in self._int_fields:
            setattr(self, name, np.zeros(self._capacity, dtype=np.int64))
        for name in self._float_fields:
            setattr(self, name, np.zeros(self._capacity, dtype=float))
        self.first_row = np.full(self._capacity, _ROW_SENTINEL, dtype=np.int64)
        self.last_row = np.full(self._capacity, -1, dtype=np.int64)

    def _grow(self, n_sources: int) -> None:
        if n_sources <= self._capacity:
            self._n_sources = max(self._n_sources, n_sources)
            return
        new_capacity = max(2 * self._capacity, n_sources)
        pad = new_capacity - self._capacity
        for name in self._int_fields + self._float_fields:
            arr = getattr(self, name)
            setattr(self, name, np.concatenate([arr, np.zeros(pad, dtype=arr.dtype)]))
        self.first_row = np.concatenate(
            [self.first_row, np.full(pad, _ROW_SENTINEL, dtype=np.int64)]
        )
        self.last_row = np.concatenate([self.last_row, np.full(pad, -1, dtype=np.int64)])
        self._capacity = new_capacity
        self._n_sources = max(self._n_sources, n_sources)

    # ------------------------------------------------------------------
    def observe(self, encoding, batch) -> None:
        """Fold one :class:`AppendBatch` (already applied to ``encoding``)."""
        k = len(batch)
        if k == 0:
            return
        src = batch.source_idx
        self._grow(int(src.max()) + 1)
        rows = self.n_observations + np.arange(k, dtype=np.int64)
        self.n_observations += k

        counts = np.bincount(src, minlength=self._n_sources)[: self._n_sources]
        touched_src = np.flatnonzero(counts)
        self.n_claims[: self._n_sources] += counts
        self.sum_row[: self._n_sources] += np.bincount(
            src, weights=rows.astype(float), minlength=self._n_sources
        )[: self._n_sources]

        batch_first = np.full(self._n_sources, _ROW_SENTINEL, dtype=np.int64)
        np.minimum.at(batch_first, src, rows)
        batch_last = np.full(self._n_sources, -1, dtype=np.int64)
        np.maximum.at(batch_last, src, rows)
        new_last = np.maximum(self.last_row[: self._n_sources], batch_last)

        # Rescale the decayed accumulators to the advanced clock, then add
        # the batch's (<= 0 exponent) volume terms.  (decayed_agree's new
        # terms land in the per-object pass below, which runs after
        # last_row is advanced so its weights match the rescaled state.)
        had_prior = self.last_row[touched_src] >= 0
        shift = np.zeros(touched_src.shape[0])
        shift[had_prior] = (
            self.last_row[touched_src[had_prior]] - new_last[touched_src[had_prior]]
        ) / self.half_life
        rescale = np.exp2(shift)
        self.decayed_volume[touched_src] *= rescale
        self.decayed_agree[touched_src] *= rescale
        age = (rows.astype(float) - new_last[src].astype(float)) / self.half_life
        self.decayed_volume[: self._n_sources] += np.bincount(
            src, weights=np.exp2(age), minlength=self._n_sources
        )[: self._n_sources]

        np.minimum.at(self.first_row, src, rows)
        self.last_row[: self._n_sources] = new_last

        # Consensus-dependent stats: re-derive each touched object's
        # contribution.  Old claims are the span prefix (the batch's k_new
        # claims sit at the span's end, in arrival order).
        new_per_object = np.bincount(batch.object_idx)
        for o_idx in np.flatnonzero(new_per_object):
            all_src, all_code, all_rows = encoding.object_claims(int(o_idx), with_rows=True)
            k_new = int(new_per_object[o_idx])
            if all_src.shape[0] > k_new:
                self._object_contribution(
                    all_src[:-k_new], all_code[:-k_new], all_rows[:-k_new], -1.0
                )
            self._object_contribution(all_src, all_code, all_rows, +1.0)

    def _object_contribution(
        self, src: np.ndarray, code: np.ndarray, rows: np.ndarray, sign: float
    ) -> None:
        n = src.shape[0]
        if n == 0:
            return
        # Codes are minted in first-claim order, so the claims seen so far
        # cover exactly 0..d-1.
        d = int(code.max()) + 1
        counts = np.bincount(code, minlength=d)
        p = counts / n
        terms = np.where(counts > 0, -p * np.log(np.where(counts > 0, p, 1.0)), 0.0)
        entropy = float(terms.sum() / np.log(max(d, 2)))
        consensus = int(np.argmax(counts))
        votes = counts[code]

        np.add.at(self.n_solo, src, np.int64(sign) if n == 1 else np.int64(0))
        np.add.at(self.n_consensus, src, np.where(code == consensus, sign, 0).astype(np.int64))
        np.add.at(self.n_contradicted, src, np.where(votes < n, sign, 0).astype(np.int64))
        np.add.at(self.sum_domain, src, sign * float(d))
        np.add.at(self.sum_coclaim, src, sign * float(n - 1))
        np.add.at(self.sum_agree, src, sign * (votes - 1).astype(float))
        np.add.at(self.sum_entropy, src, sign * entropy)
        # Weights are relative to each source's *current* last_row, which
        # matches the accumulator after observe()'s rescale step.
        weights = np.exp2((rows.astype(float) - self.last_row[src].astype(float)) / self.half_life)
        np.add.at(self.decayed_agree, src, sign * weights * (votes - 1).astype(float))

    # ------------------------------------------------------------------
    def snapshot(self, n_objects: int) -> SourceStats:
        """Materialize the accumulated state as a :class:`SourceStats`."""
        n = self._n_sources
        return SourceStats(
            source_start=0,
            source_stop=n,
            n_observations=self.n_observations,
            n_objects=int(n_objects),
            half_life=self.half_life,
            n_claims=self.n_claims[:n].copy(),
            n_solo=self.n_solo[:n].copy(),
            n_consensus=self.n_consensus[:n].copy(),
            n_contradicted=self.n_contradicted[:n].copy(),
            sum_domain=self.sum_domain[:n].copy(),
            sum_coclaim=self.sum_coclaim[:n].copy(),
            sum_agree=self.sum_agree[:n].copy(),
            sum_entropy=self.sum_entropy[:n].copy(),
            sum_row=self.sum_row[:n].copy(),
            first_row=self.first_row[:n].copy(),
            last_row=self.last_row[:n].copy(),
            decayed_volume=self.decayed_volume[:n].copy(),
            decayed_agree=self.decayed_agree[:n].copy(),
        )
