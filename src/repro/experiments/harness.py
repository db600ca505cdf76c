"""Experiment harness: run methods over datasets with the paper's protocol.

The protocol (Section 5.1, "Evaluation Methodology"):

* ground truth for ``train_fraction`` of the objects is revealed at random;
* the method fuses the full dataset using the revealed labels;
* object-value accuracy is measured on the *test* objects only;
* source-accuracy error is measured against empirical accuracies computed
  from all ground truth;
* every configuration is repeated over several seeds and averaged.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence

import numpy as np

from ..data.scenarios import Scenario
from ..fusion.dataset import FusionDataset
from ..fusion.metrics import dataset_source_accuracy_error
from ..fusion.types import ObjectId, Value
from .methods import get_method


@dataclass
class RunResult:
    """Outcome of one (method, dataset, fraction, seed) run."""

    method: str
    dataset: str
    train_fraction: float
    seed: int
    object_accuracy: float
    source_error: float  # nan when the method has no accuracy estimates
    runtime_seconds: float
    diagnostics: Dict[str, object] = field(default_factory=dict)


def run_method(
    dataset: FusionDataset,
    method: str,
    train_fraction: float,
    seed: int = 0,
) -> RunResult:
    """Run one method once under the paper's protocol."""
    split = dataset.split(train_fraction, seed=seed)
    runner = get_method(method)
    started = time.perf_counter()
    result = runner(dataset, split.train_truth)
    runtime = time.perf_counter() - started

    # Score through the array backing: SLiMFast results already carry it,
    # dict-backed baselines are promoted once so the accuracy comparison
    # runs as a value-code reduction instead of a per-object dict scan.
    result.attach_dataset(dataset)
    accuracy = result.accuracy(dataset, list(split.test_objects))
    if result.source_accuracies is not None:
        source_error = dataset_source_accuracy_error(dataset, result.source_accuracies)
    else:
        source_error = float("nan")
    return RunResult(
        method=method,
        dataset=dataset.name,
        train_fraction=train_fraction,
        seed=seed,
        object_accuracy=accuracy,
        source_error=source_error,
        runtime_seconds=runtime,
        diagnostics=dict(result.diagnostics),
    )


def sweep(
    dataset: FusionDataset,
    methods: Sequence[str],
    train_fractions: Sequence[float],
    seeds: Sequence[int] = (0, 1, 2),
    mode: str = "batched",
    n_jobs: int = 1,
    featurizer: Optional[object] = None,
) -> List[RunResult]:
    """Full sweep: every method x fraction x seed.

    SLiMFast-family methods run through the batched
    :class:`~repro.experiments.sweeps.SweepRunner` by default — one dataset
    compile shared by every (fraction, seed) fit, with warm-start handoff
    between nearby configurations, fanned out over ``n_jobs`` worker
    processes when requested (``None`` = one per CPU; parallel results
    equal serial ones at the sweep contract tolerances).  Baselines (and
    every method under ``mode="isolated"``) keep the original per-fit
    :func:`run_method` path, whose equivalence to the batched path is
    pinned in ``tests/experiments/test_sweeps.py``.

    ``featurizer`` (a :class:`repro.featurize.FeaturizerPipeline`) swaps
    the feature-consuming methods' design matrices for data-derived
    reliability features; the runner computes that design once per sweep.
    Sources-* variants and baselines ignore it.
    """
    from .sweeps import METHOD_SPECS, SWEEP_MODES, FitSpec, SweepRunner

    if mode not in SWEEP_MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {SWEEP_MODES}")
    batched = mode == "batched"
    # One pass to lay out the grid: sweep-able combos become FitSpecs (run
    # in one possibly-parallel batch below), baselines keep run_method.
    plan: List[tuple] = []  # ("baseline", ...) or ("spec", spec_index, split)
    specs = []
    splits = []
    for fraction in train_fractions:
        for method in methods:
            for seed in seeds:
                if not batched or method not in METHOD_SPECS:
                    plan.append(("baseline", method, fraction, seed))
                    continue
                split = dataset.split(fraction, seed=seed)
                uses_features = METHOD_SPECS[method][1]
                specs.append(
                    FitSpec.from_method(
                        name=f"{method}@{fraction}#{seed}",
                        method=method,
                        train_truth=split.train_truth,
                        featurizer=featurizer if uses_features else None,
                    )
                )
                splits.append(split)
                plan.append(("spec", len(specs) - 1, method, fraction, seed))

    fits = SweepRunner(dataset, mode="batched", n_jobs=n_jobs).run(specs) if specs else []

    results: List[RunResult] = []
    for entry in plan:
        if entry[0] == "baseline":
            _, method, fraction, seed = entry
            results.append(run_method(dataset, method, fraction, seed))
            continue
        _, index, method, fraction, seed = entry
        fit, split = fits[index], splits[index]
        result = fit.result
        result.attach_dataset(dataset)
        accuracy = result.accuracy(dataset, list(split.test_objects))
        estimated = result.source_accuracies
        if estimated is not None:
            source_error = dataset_source_accuracy_error(dataset, estimated)
        else:
            source_error = float("nan")
        results.append(
            RunResult(
                method=method,
                dataset=dataset.name,
                train_fraction=fraction,
                seed=seed,
                object_accuracy=accuracy,
                source_error=source_error,
                runtime_seconds=fit.runtime_seconds,
                diagnostics=dict(result.diagnostics),
            )
        )
    return results


@dataclass(frozen=True)
class CellKey:
    """Aggregation key: one cell of a paper table."""

    dataset: str
    method: str
    train_fraction: float


@dataclass
class CellStats:
    """Seed-averaged statistics for a table cell."""

    object_accuracy: float
    source_error: float
    runtime_seconds: float
    n_runs: int


def aggregate(results: Iterable[RunResult]) -> Dict[CellKey, CellStats]:
    """Average results over seeds per (dataset, method, fraction) cell."""
    grouped: Dict[CellKey, List[RunResult]] = {}
    for result in results:
        key = CellKey(result.dataset, result.method, result.train_fraction)
        grouped.setdefault(key, []).append(result)
    cells: Dict[CellKey, CellStats] = {}
    for key, runs in grouped.items():
        accuracies = [r.object_accuracy for r in runs]
        errors = [r.source_error for r in runs if not np.isnan(r.source_error)]
        runtimes = [r.runtime_seconds for r in runs]
        cells[key] = CellStats(
            object_accuracy=float(np.mean(accuracies)),
            source_error=float(np.mean(errors)) if errors else float("nan"),
            runtime_seconds=float(np.mean(runtimes)),
            n_runs=len(runs),
        )
    return cells


def best_method_per_cell(
    cells: Dict[CellKey, CellStats],
) -> Dict[tuple, str]:
    """For each (dataset, fraction), the method with the best accuracy."""
    best: Dict[tuple, tuple] = {}
    for key, stats in cells.items():
        group = (key.dataset, key.train_fraction)
        if group not in best or stats.object_accuracy > best[group][1]:
            best[group] = (key.method, stats.object_accuracy)
    return {group: method for group, (method, _) in best.items()}


# ----------------------------------------------------------------------
# Scenario replay driver (drifting / adversarial / open-world streams)
# ----------------------------------------------------------------------

#: Streaming arms understood by :func:`scenario` and their trust policy.
SCENARIO_STREAM_METHODS = ("stream-flat", "stream-decayed", "stream-windowed", "stream-refit")

#: Batch arms and the registry method each one runs on the accumulated stream.
SCENARIO_BATCH_METHODS: Dict[str, str] = {"batch-em": "slimfast", "majority": "majority"}


@dataclass
class ScenarioSeries:
    """One method's trajectory through a scenario replay.

    ``accuracy[i]`` is MAP accuracy over the held-out objects of the
    trailing evaluation window at checkpoint ``steps[i]``;
    ``trust_error[i]`` is the mean absolute gap between estimated and
    *current* true source accuracies (NaN when the method estimates
    none).  ``final_accuracy`` scores every held-out object of the whole
    stream at the end.
    """

    method: str
    steps: List[int]
    times: List[float]
    accuracy: List[float]
    trust_error: List[float]
    final_accuracy: float
    runtime_seconds: float

    def tail(self) -> Dict[str, float]:
        """The last checkpoint's numbers (the post-drift regime)."""
        return {
            "accuracy": self.accuracy[-1] if self.accuracy else float("nan"),
            "trust_error": self.trust_error[-1] if self.trust_error else float("nan"),
        }


@dataclass
class ScenarioReport:
    """Figure-style accuracy-vs-baselines report for one scenario replay."""

    scenario: str
    series: Dict[str, ScenarioSeries]
    eval_window: int
    n_steps: int
    n_observations: int

    def best(self) -> str:
        """Method with the best final held-out accuracy."""
        return max(self.series.values(), key=lambda s: s.final_accuracy).method

    def table(self) -> str:
        """Render the summary comparison as a fixed-width table."""
        from .reporting import format_table

        rows = []
        for name in self.series:
            s = self.series[name]
            tail = s.tail()
            rows.append(
                [
                    name,
                    f"{s.final_accuracy:.3f}",
                    f"{tail['accuracy']:.3f}",
                    f"{tail['trust_error']:.3f}",
                    f"{s.runtime_seconds:.2f}",
                ]
            )
        return format_table(
            ["method", "final acc", "tail acc", "tail trust err", "seconds"],
            rows,
            title=f"Scenario '{self.scenario}' ({self.n_steps} steps, "
            f"{self.n_observations} observations, window={self.eval_window})",
        )


def _value_accuracy(
    value_of: Callable[[ObjectId], Optional[Value]],
    truth: Dict[ObjectId, Value],
    objects: Sequence[ObjectId],
) -> float:
    if not objects:
        return float("nan")
    correct = sum(1 for obj in objects if value_of(obj) == truth[obj])
    return correct / len(objects)


def _trust_error(estimated: Optional[Dict], scn: Scenario, step: int) -> float:
    if not estimated:
        return float("nan")
    errors = [
        abs(float(estimated[source]) - float(scn.true_accuracy[step, i]))
        for i, source in enumerate(scn.source_ids)
        if source in estimated
    ]
    return float(np.mean(errors)) if errors else float("nan")


def scenario(
    scn: Scenario,
    methods: Sequence[str] = (
        "stream-flat",
        "stream-decayed",
        "stream-windowed",
        "stream-refit",
        "batch-em",
        "majority",
    ),
    decay: Optional["DecayConfig"] = None,
    window_decay: Optional["DecayConfig"] = None,
    refit_every: Optional[int] = None,
    refit_overrides: Optional[Dict[str, object]] = None,
    eval_window: int = 5,
    checkpoint_every: int = 1,
    self_training: bool = False,
    featurizer: Optional[object] = None,
) -> ScenarioReport:
    """Replay a :class:`~repro.data.scenarios.Scenario` across fusion arms.

    ``featurizer`` (a :class:`repro.featurize.FeaturizerPipeline`)
    attaches data-derived reliability features to the arms that fit an
    accuracy model: the ``"stream-refit"`` fuser maintains running
    statistics and featurizes every periodic re-fit, and ``"batch-em"``
    fits with the featurized design.  The other arms ignore it.

    Streaming arms ingest the stream step by step (each step's batch,
    then its truth reveals) and are scored at every checkpoint on the
    trailing ``eval_window`` steps' held-out objects — so a regime change
    shows up as a dip whose depth depends on the arm's trust policy:

    * ``"stream-flat"`` — plain Beta counts (all history weighted equally);
    * ``"stream-decayed"`` — ``trust_decay=DecayConfig(half_life=...)``
      exponential forgetting (default half-life: an eighth of the
      per-source observation volume);
    * ``"stream-windowed"`` — ``trust_decay=DecayConfig(window=...)``
      effective-sample-size cap (default: a quarter of the per-source
      volume);
    * ``"stream-refit"`` — flat counts re-anchored by periodic
      warm-started EM re-fits (``refit_every``, default four per stream).

    Batch arms (``"batch-em"`` — the full SLiMFast fit — and
    ``"majority"``) fit once on the accumulated stream with the revealed
    truth and are scored on the same checkpoints with their final values,
    showing what a static model can and cannot track.  The differential
    pins over this report (``DecayConfig()`` equals flat, decayed beats
    flat on step drift) live in ``tests/scenarios/``.
    """
    from ..extensions.streaming import DecayConfig, StreamingFuser

    unknown = [
        m
        for m in methods
        if m not in SCENARIO_STREAM_METHODS and m not in SCENARIO_BATCH_METHODS
    ]
    if unknown:
        raise ValueError(
            f"unknown scenario methods {unknown}; expected stream arms "
            f"{SCENARIO_STREAM_METHODS} or batch arms {tuple(SCENARIO_BATCH_METHODS)}"
        )
    per_source = scn.n_observations / max(scn.n_sources, 1)
    if decay is None:
        decay = DecayConfig(half_life=max(per_source / 8.0, 4.0))
    if window_decay is None:
        window_decay = DecayConfig(window=max(per_source / 4.0, 8.0))
    if refit_every is None:
        refit_every = max(scn.n_observations // 4, 1)
    if refit_overrides is None:
        refit_overrides = {"max_iterations": 10}

    checkpoints = [
        s for s in range(scn.n_steps) if (s + 1) % checkpoint_every == 0 or s == scn.n_steps - 1
    ]
    checkpoint_set = set(checkpoints)
    eval_sets = {s: scn.eval_objects(at_step=s, window=eval_window) for s in checkpoints}
    all_eval = scn.eval_objects()

    stream_configs: Dict[str, Dict[str, object]] = {
        "stream-flat": {},
        "stream-decayed": {"trust_decay": decay},
        "stream-windowed": {"trust_decay": window_decay},
        "stream-refit": {
            "refit_every": refit_every,
            "refit_overrides": refit_overrides,
            "featurizer": featurizer,
        },
    }

    series: Dict[str, ScenarioSeries] = {}
    for method in methods:
        if method in SCENARIO_BATCH_METHODS:
            continue
        fuser = StreamingFuser(self_training=self_training, **stream_configs[method])
        started = time.perf_counter()
        steps_out: List[int] = []
        times: List[float] = []
        accuracy: List[float] = []
        trust_error: List[float] = []
        for step in scn.steps:
            if step.observations:
                fuser.observe_batch(step.observations)
            for obj, value in step.reveal.items():
                fuser.reveal_truth(obj, value)
            if step.index in checkpoint_set:
                steps_out.append(step.index)
                times.append(step.time)
                accuracy.append(
                    _value_accuracy(fuser.current_value, scn.truth, eval_sets[step.index])
                )
                trust_error.append(_trust_error(fuser.source_accuracies(), scn, step.index))
        runtime = time.perf_counter() - started
        series[method] = ScenarioSeries(
            method=method,
            steps=steps_out,
            times=times,
            accuracy=accuracy,
            trust_error=trust_error,
            final_accuracy=_value_accuracy(fuser.current_value, scn.truth, all_eval),
            runtime_seconds=runtime,
        )

    batch_methods = [m for m in methods if m in SCENARIO_BATCH_METHODS]
    if batch_methods:
        dataset = scn.to_dataset()
        revealed = scn.revealed_truth()
        for method in batch_methods:
            runner = get_method(
                SCENARIO_BATCH_METHODS[method],
                featurizer=featurizer if method == "batch-em" else None,
            )
            started = time.perf_counter()
            result = runner(dataset, revealed)
            runtime = time.perf_counter() - started
            value_of = result.values.get
            series[method] = ScenarioSeries(
                method=method,
                steps=list(checkpoints),
                times=[scn.steps[s].time for s in checkpoints],
                accuracy=[
                    _value_accuracy(value_of, scn.truth, eval_sets[s]) for s in checkpoints
                ],
                trust_error=[
                    _trust_error(result.source_accuracies, scn, s) for s in checkpoints
                ],
                final_accuracy=_value_accuracy(value_of, scn.truth, all_eval),
                runtime_seconds=runtime,
            )
    # Preserve the caller's method order in the report.
    ordered = {name: series[name] for name in methods}
    return ScenarioReport(
        scenario=scn.name,
        series=ordered,
        eval_window=eval_window,
        n_steps=scn.n_steps,
        n_observations=scn.n_observations,
    )
