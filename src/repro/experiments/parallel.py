"""The one process fan-out helper, and the transport under it.

Three callers fan work out over processes: the parallel sweep engine
(:class:`~repro.experiments.sweeps.SweepRunner`), the sharded E-step of
one EM fit (``EMConfig(shard_jobs=...)``, :mod:`repro.fusion.sharding`)
and the chunked featurizer statistics
(:func:`repro.featurize.stats.compute_source_stats`).  All of them go
through :class:`WorkerPool`, which ships a read-only ``state`` to each
worker once, runs ``fn(state, *args)`` tasks and returns results in
submission order.  The pieces under it:

* :func:`resolve_n_jobs` / :func:`chunk_indices` — deterministic worker
  count and contiguous, balanced chunking.  Chunk membership depends
  only on ``(n_items, n_chunks)``, never on scheduling order, which is
  half of every caller's determinism story (the other half is the
  ordered reduce: results come back in submission order).
* :class:`SharedArrayPack` / :func:`attach_shared_arrays` — one
  ``multiprocessing.shared_memory`` block carrying many named arrays, for
  start methods that would otherwise pickle the large arrays of the
  state into every worker (``spawn``/``forkserver``; under ``fork`` the
  state is inherited copy-on-write and sharing buys nothing).

Workers receive read-only views: every attached array has its
``writeable`` flag cleared, so a worker that accidentally mutates shared
state fails loudly instead of corrupting its siblings.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

#: Arrays at least this large (bytes) are routed through shared memory
#: when sharing is active; smaller ones ride the pickle stream, where the
#: fixed cost of a segment entry would exceed the copy it avoids.
SHARED_ARRAY_MIN_BYTES = 1 << 16


def resolve_n_jobs(n_jobs: Optional[int]) -> int:
    """Normalize an ``n_jobs`` setting to a concrete worker count.

    ``None`` means one worker per available CPU; explicit values must be
    positive integers (there is no sklearn-style ``-1`` spelling — pass
    ``None``).
    """
    if n_jobs is None:
        return max(os.cpu_count() or 1, 1)
    count = int(n_jobs)
    if count < 1:
        raise ValueError(f"n_jobs must be a positive integer or None, got {n_jobs!r}")
    return count


def chunk_indices(n_items: int, n_chunks: int) -> List[range]:
    """Split ``range(n_items)`` into at most ``n_chunks`` contiguous ranges.

    Chunks are balanced to within one item and returned in order; empty
    chunks are dropped.  Contiguity matters: the sweep engine hands each
    chunk to one worker task, and nearest-config warm-start donors are
    drawn from the chunk's own completed fits, so specs that were adjacent
    in the caller's sweep order stay adjacent in a worker.
    """
    if n_items < 0:
        raise ValueError("n_items must be non-negative")
    if n_chunks < 1:
        raise ValueError("n_chunks must be positive")
    bounds = np.linspace(0, n_items, min(n_chunks, max(n_items, 1)) + 1).astype(int)
    return [
        range(int(bounds[i]), int(bounds[i + 1]))
        for i in range(len(bounds) - 1)
        if bounds[i + 1] > bounds[i]
    ]


def sharing_is_worthwhile() -> bool:
    """Whether the current start method pickles worker arguments.

    Under ``fork`` the initializer payload is inherited copy-on-write, so
    shared-memory indirection only adds bookkeeping; ``spawn`` and
    ``forkserver`` pickle the payload per worker, where one shared segment
    replaces ``n_jobs`` copies of the large arrays.
    """
    return multiprocessing.get_start_method(allow_none=False) != "fork"


@dataclass(frozen=True)
class _SharedArrayRef:
    """Placeholder for an array extracted into a :class:`SharedArrayPack`."""

    key: str


class SharedArrayPack:
    """Many named arrays packed into one shared-memory segment (owner side).

    The owning process builds the pack, ships :attr:`descriptor` (a small
    picklable dict) to workers, and must call :meth:`release` once the pool
    has shut down.  Workers attach with :func:`attach_shared_arrays`.
    """

    def __init__(self, arrays: Mapping[str, np.ndarray]) -> None:
        from multiprocessing import shared_memory

        entries: List[Tuple[str, str, tuple, int]] = []
        offset = 0
        contiguous: Dict[str, np.ndarray] = {}
        for key, array in arrays.items():
            array = np.ascontiguousarray(array)
            contiguous[key] = array
            offset = (offset + 7) & ~7  # 8-byte alignment per array
            entries.append((key, array.dtype.str, array.shape, offset))
            offset += array.nbytes
        self._shm = shared_memory.SharedMemory(create=True, size=max(offset, 1))
        for key, dtype, shape, start in entries:
            view = np.ndarray(shape, dtype=dtype, buffer=self._shm.buf, offset=start)
            view[...] = contiguous[key]
        self.descriptor = {"segment": self._shm.name, "entries": entries}

    def release(self) -> None:
        """Close and unlink the segment (idempotent)."""
        if self._shm is None:
            return
        self._shm.close()
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass
        self._shm = None


def attach_shared_arrays(descriptor: dict):
    """Attach to a :class:`SharedArrayPack` segment (worker side).

    Returns ``(arrays, segment)``: read-only views keyed like the owner's
    mapping, plus the ``SharedMemory`` handle the caller must keep
    referenced for as long as the views are in use.
    """
    from multiprocessing import shared_memory

    segment = shared_memory.SharedMemory(name=descriptor["segment"])
    # No attach-side resource_tracker bookkeeping: parent and workers share
    # one tracker whose per-type cache is a *set*, so the worker's attach
    # registration dedups against the owner's and the owner's unlink-time
    # unregister balances both.  An explicit worker-side unregister would
    # double-remove and crash the tracker at interpreter exit.
    arrays: Dict[str, np.ndarray] = {}
    for key, dtype, shape, offset in descriptor["entries"]:
        view = np.ndarray(shape, dtype=dtype, buffer=segment.buf, offset=offset)
        view.flags.writeable = False
        arrays[key] = view
    return arrays, segment


def _walk(value, leaf):
    """Rebuild nested dicts, lists and tuples with ``leaf`` applied below.

    Every value that is not one of those three containers (exact types:
    other containers and objects count as leaves) is replaced by
    ``leaf(value)``.
    """
    if type(value) is dict:
        return {key: _walk(item, leaf) for key, item in value.items()}
    if type(value) in (list, tuple):
        return type(value)(_walk(item, leaf) for item in value)
    return leaf(value)


#: This worker process's state, installed once by the pool initializer,
#: and the shared-memory handle its views live in (kept referenced for
#: the worker's lifetime).
_WORKER_STATE = None
_WORKER_SEGMENT = None


def _init_worker(state, descriptor: Optional[dict]) -> None:
    global _WORKER_STATE, _WORKER_SEGMENT
    if descriptor is not None:
        arrays, _WORKER_SEGMENT = attach_shared_arrays(descriptor)
        state = _walk(
            state,
            lambda value: arrays[value.key] if isinstance(value, _SharedArrayRef) else value,
        )
    _WORKER_STATE = state


def _run_task(fn, args: tuple):
    return fn(_WORKER_STATE, *args)


class WorkerPool:
    """Run ``fn(state, *args)`` tasks over worker processes.

    ``state`` reaches each worker once, through the pool initializer:
    inherited under ``fork``, and under ``spawn``/``forkserver`` with
    every array of at least :data:`SHARED_ARRAY_MIN_BYTES` (found by
    walking nested dicts, lists and tuples) moved into one
    :class:`SharedArrayPack` that workers see read-only.  Each
    :meth:`map` call then only pickles its task arguments and results,
    and returns results in submission order — callers reduce them in that
    order, which keeps every parallel run equal to its serial one.

    With ``n_workers <= 1`` no process starts and nothing is shipped:
    tasks run in-process against ``state`` itself.  ``fn`` must be a
    module-level function (it is pickled by reference).  Use as a context
    manager, or call :meth:`close`; the shared segment is released on
    close, and also when construction fails.

    Example::

        with WorkerPool({"x": np.arange(10.0)}, n_workers=2) as pool:
            parts = pool.map(partial_sum, [(0, 5), (5, 10)])
    """

    def __init__(self, state, n_workers: int) -> None:
        self._state = state
        self._executor: Optional[ProcessPoolExecutor] = None
        self._pack: Optional[SharedArrayPack] = None
        if n_workers <= 1:
            return
        try:
            shipped, descriptor = state, None
            if sharing_is_worthwhile():
                arrays: Dict[str, np.ndarray] = {}

                def share(value):
                    if not isinstance(value, np.ndarray) or value.nbytes < SHARED_ARRAY_MIN_BYTES:
                        return value
                    key = str(len(arrays))
                    arrays[key] = value
                    return _SharedArrayRef(key)

                shipped = _walk(state, share)
                if arrays:
                    self._pack = SharedArrayPack(arrays)
                    descriptor = self._pack.descriptor
            self._executor = ProcessPoolExecutor(
                max_workers=n_workers,
                initializer=_init_worker,
                initargs=(shipped, descriptor),
            )
        except BaseException:
            self.close()
            raise

    def map(self, fn, args_list) -> list:
        """``[fn(state, *args) for args in args_list]``, fanned out."""
        if self._executor is None:
            return [fn(self._state, *args) for args in args_list]
        futures = [self._executor.submit(_run_task, fn, tuple(args)) for args in args_list]
        return [future.result() for future in futures]

    def close(self) -> None:
        """Shut the workers down and release the segment (idempotent)."""
        if self._executor is not None:
            self._executor.shutdown(cancel_futures=True)
            self._executor = None
        if self._pack is not None:
            self._pack.release()
            self._pack = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
