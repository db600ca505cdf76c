"""Repo-aware static analysis for the SLiMFast reproduction.

``python -m tools.repro_analysis`` runs five rule families over the tree
(zero dependencies, pure ``ast``), each enforcing an invariant the
runtime differential suites otherwise catch only as flaky failures:

* **RA1 — determinism.**  No ad-hoc RNG construction in ``src/repro`` or
  ``examples``: every generator flows through
  :func:`repro._rng.as_generator` / ``spawn_generators`` (re-exported by
  ``repro.data.simulators``), so seeds stay process-fan-out
  reproducible.
* **RA2 — lock discipline.**  Modules that declare a ``GUARDED_BY``
  table (``repro.serve``) get a guarded-attribute race check: each
  listed attribute may only be touched inside ``with self.<lock>:`` (or
  in ``__init__``/``__new__``, or in a function annotated
  ``# repro-analysis: holds[<lock>]``).
* **RA3 — parity.**  Every public function or class in the test-oracle
  package ``tests/oracles/`` must be used by some ``tests/**/test_*.py``.
  Backend dispatch sites (the Gibbs sampler's) must handle both
  ``"vectorized"`` and ``"reference"`` (an untaken branch that falls
  through to nothing is the bug class), and every dispatching module
  needs a parity test under ``tests/`` that exercises both literals.
* **RA4 — cache-version honesty.**  The source of every
  ``FeatureGroup`` subclass and of the ``featurize.stats`` kernels is
  digested into ``versions.lock``; editing one without bumping its
  ``version`` / ``FEATURIZER_VERSION`` fails, keeping ``FeatureCache``
  keys honest.  ``--update-lock`` refreshes the lock.
* **RA5 — one fan-out site.**  ``ProcessPoolExecutor``,
  ``multiprocessing.Pool`` and ``shared_memory.SharedMemory`` are
  constructed only in ``src/repro/experiments/parallel.py``; every other
  process fan-out goes through its ``WorkerPool``.

Per-line suppression: ``# repro-analysis: ignore[RA2]`` on the flagged
line, the line above it, or the ``def``/``class`` header (covers the
whole body).  ``--strict`` additionally fails on suppressions that no
longer match anything.  See ``docs/analysis.md`` for the full catalog.
"""

from .core import Finding, Project, Report, run_rules  # noqa: F401

__all__ = ["Finding", "Project", "Report", "run_rules"]
