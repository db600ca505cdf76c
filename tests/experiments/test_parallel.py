"""Contract of the one process fan-out helper, ``WorkerPool``.

Results come back in submission order, workers see shared arrays
read-only, and the shared segment is unlinked however the pool ends —
closed normally, a task raising, or construction failing.  The last test
runs every fan-out site (sweeps, shard E-steps, featurizer statistics)
under the ``spawn`` start method, the only one macOS and Windows have.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import repro.experiments.parallel as parallel
from repro.experiments.parallel import WorkerPool

SRC = Path(__file__).resolve().parents[2] / "src"


def _slice_sum(state, start, stop):
    return float(state["values"][start:stop].sum()), os.getpid()


def _writeable(state):
    return [array.flags.writeable for array in (state["values"], state["nested"][0]["deep"])]


def _fail(state, message):
    raise ValueError(message)


def _state():
    return {
        "values": np.arange(100.0),
        "nested": [{"deep": np.ones((4, 3))}, ("label", np.zeros(5, dtype=np.int64))],
        "scale": 2.0,
    }


class TestWorkerPool:
    def test_results_in_submission_order(self):
        bounds = [(i, i + 10) for i in range(0, 100, 10)]
        with WorkerPool(_state(), n_workers=2) as pool:
            results = pool.map(_slice_sum, bounds)
        assert [total for total, _ in results] == [float(np.arange(a, b).sum()) for a, b in bounds]
        assert os.getpid() not in {pid for _, pid in results}

    def test_one_worker_runs_in_process_and_ships_nothing(self, forced_shared_transport):
        state = _state()
        with WorkerPool(state, n_workers=1) as pool:
            results = pool.map(_slice_sum, [(0, 50), (50, 100)])
            # In-process tasks see the caller's own (writable) arrays.
            assert pool.map(_writeable, [()]) == [[True, True]]
        assert [pid for _, pid in results] == [os.getpid()] * 2
        assert forced_shared_transport == []

    def test_shared_arrays_are_read_only(self, forced_shared_transport):
        with WorkerPool(_state(), n_workers=2) as pool:
            assert pool.map(_writeable, [(), ()]) == [[False, False]] * 2
            assert pool.map(_slice_sum, [(0, 100)])[0][0] == float(np.arange(100.0).sum())
        assert len(forced_shared_transport) == 1

    def test_segment_unlinked_after_close(self, forced_shared_transport):
        pool = WorkerPool(_state(), n_workers=2)
        pool.map(_slice_sum, [(0, 10)])
        assert forced_shared_transport.still_linked() == list(forced_shared_transport)
        pool.close()
        pool.close()  # idempotent
        assert forced_shared_transport and forced_shared_transport.still_linked() == []

    def test_segment_unlinked_when_a_task_raises(self, forced_shared_transport):
        with pytest.raises(ValueError, match="boom"):
            with WorkerPool(_state(), n_workers=2) as pool:
                pool.map(_fail, [("boom",)])
        assert forced_shared_transport and forced_shared_transport.still_linked() == []

    def test_segment_unlinked_when_construction_fails(self, forced_shared_transport, monkeypatch):
        def refuse(**kwargs):
            raise OSError("no processes")

        monkeypatch.setattr(parallel, "ProcessPoolExecutor", refuse)
        with pytest.raises(OSError, match="no processes"):
            WorkerPool(_state(), n_workers=2)
        assert forced_shared_transport and forced_shared_transport.still_linked() == []


SPAWN_SCRIPT = textwrap.dedent(
    """
    import multiprocessing

    import numpy as np

    import repro.experiments.parallel as parallel
    from repro.core import SLiMFast
    from repro.core.em import EMConfig
    from repro.data import SyntheticConfig, generate
    from repro.experiments import FitSpec, SweepRunner
    from repro.featurize import SourceStats, compute_source_stats
    from repro.featurize.pipeline import _resolve_source

    if __name__ == "__main__":
        multiprocessing.set_start_method("spawn")
        # Small data stays under the default size threshold; route every
        # array through the segment so spawned workers attach to it.
        parallel.SHARED_ARRAY_MIN_BYTES = 1
        dataset = generate(
            SyntheticConfig(
                n_sources=20, n_objects=60, density=0.25, n_features=4, n_informative=2, seed=5
            )
        ).dataset

        specs = [
            FitSpec(
                name=f"em@{fraction}",
                learner="em",
                train_truth=dataset.split(fraction, seed=0).train_truth,
                overrides={"max_iterations": 5, "m_step_tolerance": 1e-13},
            )
            for fraction in (0.1, 0.2, 0.3)
        ]
        serial = SweepRunner(dataset).run(specs)
        fanned = SweepRunner(dataset, n_jobs=2).run(specs)
        for s, p in zip(serial, fanned):
            assert abs(s.objective_value - p.objective_value) <= 1e-8, (s, p)
            np.testing.assert_allclose(
                p.model.accuracies(), s.model.accuracies(), rtol=0, atol=1e-6
            )

        train = dataset.split(0.2, seed=1).train_truth
        fits = [
            SLiMFast(
                em_config=EMConfig(solver="lbfgs-warm", n_shards=3, shard_jobs=jobs)
            ).fit(dataset, train).predict()
            for jobs in (None, 2)
        ]
        np.testing.assert_array_equal(fits[1].value_codes, fits[0].value_codes)
        np.testing.assert_array_equal(
            fits[1].source_accuracy_vector, fits[0].source_accuracy_vector
        )

        arrays = _resolve_source(dataset).arrays
        one = compute_source_stats(arrays, dataset.n_sources, n_jobs=1)
        two = compute_source_stats(arrays, dataset.n_sources, n_jobs=2)
        for name in SourceStats.ARRAY_FIELDS:
            assert np.array_equal(getattr(one, name), getattr(two, name)), name
        print("spawn ok")
    """
)


def test_every_fan_out_site_matches_serial_under_spawn(tmp_path):
    script = tmp_path / "spawn_check.py"
    script.write_text(SPAWN_SCRIPT)
    path = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, str(script)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert "spawn ok" in done.stdout
