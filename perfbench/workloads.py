"""The benchmark workloads, each driving one layer of ``repro`` hardest.

Every workload draws a fixed simulator instance and lets the seed choose
how it is presented: the order of the claims and the identifiers of the
sources and objects.  The instance is fixed because the work a fit does
depends on the data far more than on the code: over generator seeds 0-9
the genomics EM fit ran 13 to 47 rounds (4.7 to 12.3 s), which would put
the seed-to-seed spread of its fit time near 40%.  Relabelling and
reordering leave a batch fit's values unchanged, so the fit workload's
expected outputs (``expected.json``) hold for every seed, while the
program still sees new inputs each time.  Sweep and serving outputs depend
on claim order, so those workloads check each run against an oracle run
instead.

A workload returns a :class:`Outcome`: the end-to-end metrics (tracing
off), the per-layer metrics (tracing on), the operations attempted and
every failed check.
"""

from __future__ import annotations

import gc
import hashlib
import resource
import sys
import threading
import time
import traceback
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from tracing import Tracer, self_time_table, span_cost

#: Seed of the simulator instance every workload seed re-presents.
GENERATOR_SEED = 0
#: Training-label protocol of the fit workload (paper Section 5.1).
FIT_TRAIN_FRACTION = 0.05
SPLIT_SEED = 0
#: Set-up samples a run takes: one before the window and one after the
#: operation that crosses each further ``k / SETUP_SAMPLES`` mark of it;
#: ``setup_s`` is their median.
SETUP_SAMPLES = 6
#: CPU seconds one ``calibrate()`` takes at the reference host speed: a
#: quiet period of the 2-vCPU VM the benchmark was tuned on.  End-to-end
#: times are reported at that speed (see ``_at_reference_speed``).
CALIBRATION_REFERENCE_S = 0.040
#: Posterior mass may differ from 1 by this much (float64 softmax sums).
PROB_TOLERANCE = 1e-9
#: Work inside a ``SLiMFast.timings_`` bucket that no span covers (a few
#: Python statements) may add this much on top of the measured tracing
#: overhead before the cross-check fails.
UNSPANNED_ALLOWANCE_S = 1e-3

SIZES = {
    "full": {
        "fit_dense": {"n_objects": 907},
        "sweep_grid": {
            # Half the paper's Demos size: at full size (3,105 objects) a
            # sweep took 6-7 s, so a run held 2-4 of them and the lookup
            # and ingest samples bunched at as many moments (spreads of
            # 0.28 and 0.29 over ten seeds); at half size a sweep takes
            # about 1.7 s.
            "n_sources": 261,
            "n_objects": 1552,
            "fractions": (0.01, 0.05, 0.1, 0.2),
            "split_seeds": (0, 1),
        },
        # 1,000 lookups/s, not 2,000/s: at 2,000/s the lookup p50 spread
        # 0.24-0.28 over ten and five seeds, at 1,000/s 0.07 over five.
        "serve_mixed": {"n_objects": 5000, "n_observations": 40000, "rate": 1000.0},
    },
    "tiny": {
        "fit_dense": {"n_objects": 60},
        "sweep_grid": {
            "n_sources": 80,
            "n_objects": 300,
            "fractions": (0.05, 0.2),
            "split_seeds": (0,),
        },
        "serve_mixed": {"n_objects": 400, "n_observations": 3200, "rate": 500.0},
    },
}

SWEEP_METHODS = ("slimfast", "slimfast-erm", "slimfast-em", "sources-erm", "sources-em")
SERVE_SOURCES = 60
SERVE_BATCH = 32
SERVE_PUBLISH_EVERY = 4
SERVE_TOPK_EVERY = 8  # 7 posterior+value lookups to 1 top_conflicts(10)
SERVE_KEYS = 512
SERVE_SWITCH_INTERVAL_S = 5e-4
#: Calls per slice of the lookup statistics (see ``_lookup_metrics``).
LOOKUP_SLICE = 64
#: Dataset builds timed after each untraced operation on top of its own,
#: so that every run takes ``ingest_obs_per_s`` from dozens of builds
#: spread over the window (the metric is claims over the mean build time).
EXTRA_INGESTS = {"fit_dense": 2, "sweep_grid": 2}

END_TO_END = (
    ("setup_s", "s"),
    ("fit_s", "s"),
    ("fit_cpu_s", "s"),
    ("sweep_fits_per_s", "1/s"),
    ("ingest_obs_per_s", "1/s"),
    ("lookup_p50_us", "us"),
    ("lookup_p99_us", "us"),
    ("test_accuracy", "ratio"),
    ("peak_rss_mib", "MiB"),
)

#: Span name -> per-layer self-time metric it contributes to.
SELF_TIME_METRICS = {
    "fusion.dataset.ingest": "fusion.dataset.ingest_s",
    "fusion.encoding.encode_dataset": "fusion.encoding.encode_s",
    "fusion.encoding.design": "fusion.encoding.encode_s",
    "core.agreement.estimate": "core.agreement.estimate_s",
    "core.agreement.matrix": "core.agreement.estimate_s",
    "core.optimizer.em_units": "core.optimizer.units_s",
    "core.optimizer.decide": "core.optimizer.decide_s",
    "core.em.fit": "core.em.fit_s",
    "core.erm.fit": "core.erm.fit_s",
    "core.structure.build": "core.structure.build_s",
    "core.inference.posterior_rows": "core.inference.posterior_s",
    "fusion.result.from_rows": "fusion.result.package_s",
    "experiments.sweeps.prepare": "experiments.sweeps.prepare_s",
}

PER_LAYER = (
    ("fusion.dataset.ingest_s", "s"),
    ("fusion.encoding.encode_s", "s"),
    ("core.agreement.estimate_s", "s"),
    ("core.agreement.join_pairs", "count"),
    ("core.optimizer.units_s", "s"),
    ("core.optimizer.decide_s", "s"),
    ("core.em.fit_s", "s"),
    ("core.em.rounds", "count"),
    ("core.em.converged_ratio", "ratio"),
    ("core.erm.fit_s", "s"),
    ("core.structure.build_s", "s"),
    ("core.inference.posterior_s", "s"),
    ("fusion.result.package_s", "s"),
    ("experiments.sweeps.prepare_s", "s"),
    ("experiments.sweeps.run_s", "s"),
    ("experiments.sweeps.warm_start_ratio", "ratio"),
    ("experiments.parallel.serial_run_s", "s"),
    ("experiments.parallel.speedup", "ratio"),
    ("extensions.streaming.append_s.p50", "s"),
    ("extensions.streaming.append_s.p99", "s"),
    ("serve.snapshot.publish_s.p50", "s"),
    ("serve.snapshot.publish_s.p99", "s"),
    ("serve.server.publishes", "count"),
    ("serve.server.lookup_service_us.p50", "us"),
    ("serve.server.lookup_service_us.p99", "us"),
    ("loadgen.lag_p99_us", "us"),
    ("trace.untraced_op_s", "s"),
    ("trace.overhead_s", "s"),
)


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    info: Dict[str, object] = field(default_factory=dict)
    tracer: Optional[Tracer] = None

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
@dataclass
class Instance:
    """A simulator instance re-presented under one seed."""

    claims: list
    features: dict
    truth: dict
    join_size: int
    object_names: dict

    def rename(self, truth) -> dict:
        """Map a truth dict on the base instance's ids to this seed's ids."""
        return {self.object_names[obj]: value for obj, value in truth.items()}


def present(dataset, seed: int) -> Instance:
    """Shuffle claim order and rename sources and objects, both by ``seed``."""
    rng = np.random.default_rng(seed)
    sources = list(dataset.sources.items)
    # Sources with metadata but no claims are part of the input too.
    sources += sorted(set(dataset.source_features) - set(sources), key=repr)
    objects = list(dataset.objects.items)
    source_names = {s: f"s{int(i):05d}" for s, i in zip(sources, rng.permutation(len(sources)))}
    object_names = {o: f"o{int(i):05d}" for o, i in zip(objects, rng.permutation(len(objects)))}
    raw = dataset.observations
    claims = [
        (source_names[raw[i].source], object_names[raw[i].obj], raw[i].value)
        for i in rng.permutation(len(raw))
    ]
    features = {source_names[s]: dict(f) for s, f in dataset.source_features.items()}
    truth = {object_names[o]: v for o, v in dataset.ground_truth.items()}
    per_object = Counter(obj for _, obj, _ in claims)
    join_size = sum(m * m for m in per_object.values())
    return Instance(claims, features, truth, join_size, object_names)


def _median(values) -> float:
    return float(np.median(np.asarray(values, dtype=float))) if len(values) else 0.0


def _mean(values) -> float:
    return float(np.mean(np.asarray(values, dtype=float))) if len(values) else 0.0


def _percentiles(samples, points=(50, 99)) -> List[float]:
    if not len(samples):
        return [0.0 for _ in points]
    return [float(v) for v in np.percentile(np.asarray(samples, dtype=float), points)]


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cpu_with_children() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _timed(build: Callable[[], object]):
    """Run ``build`` once from a collected heap; return (seconds, its value).

    Every timed section of the benchmark starts from a collected heap, so
    that garbage left by the benchmark's own bookkeeping (lookups, checks)
    is not collected on the clock of whatever is timed next: a dataset
    build that a full collection lands in takes up to 4x as long.
    Collections that the timed work's own allocations trigger still count.
    """
    gc.collect()
    start = time.perf_counter()
    value = build()
    return time.perf_counter() - start, value


def calibrate() -> int:
    """A fixed mix of interpreter and numpy work that never calls ``repro``.

    The host the benchmark was tuned on changes speed by up to 1.5x over
    minutes, and every time it measures moves with it, this kernel's too:
    over one 200 s stretch the mean fit_dense operation of consecutive 35 s
    windows ranged from 0.90 to 1.23 s, while its ratio to this kernel's
    mean time ranged from 19.8 to 20.9.  Library changes cannot move this
    kernel, so dividing by it removes the host's drift and keeps theirs.
    """
    table = {}
    for i in range(30000):
        table[(f"s{i % 331:05d}", i)] = (i, float(i))
    rows = sorted(table.items(), key=lambda item: item[1][1], reverse=True)
    rng = np.random.default_rng(0)
    matrix = rng.standard_normal((200, 200))
    product = matrix @ matrix.T
    labels = rng.integers(0, 1000, 200000)
    np.bincount(labels)
    np.sort(labels)
    np.unique(labels, return_counts=True)
    return len(rows) + product.shape[0]


def _time_calibration() -> float:
    """CPU seconds of the calling thread in one ``calibrate()``, with the
    collector paused so that garbage the workload left on the heap is not
    collected on its clock.  Thread time, so that only this thread's work
    counts and not that of BLAS helper threads."""
    gc.disable()
    try:
        start = time.thread_time()
        calibrate()
        return time.thread_time() - start
    finally:
        gc.enable()


def _cpu_ticks() -> tuple:
    """(busy, stolen) clock ticks of all CPUs so far, from ``/proc/stat``.

    Stolen ticks are those in which the hypervisor ran something else on a
    CPU this machine wanted to run on.  Where ``/proc/stat`` is missing,
    both are 0 and no time counts as stolen.
    """
    try:
        with open("/proc/stat") as stat:
            fields = [int(x) for x in stat.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    user, nice, system, _idle, _iowait, irq, softirq, steal = fields + [0] * (8 - len(fields))
    return user + nice + system + irq + softirq, steal


def _at_reference_speed(metrics: Dict[str, float], outcome: Outcome):
    """End-to-end metrics rescaled to the reference host speed.

    The run's host speed is its CPU speed, ``CALIBRATION_REFERENCE_S``
    over the mean CPU time of ``calibrate()``, times the share of busy CPU
    time the hypervisor did not steal (both measured by ``_window``).
    Times are multiplied by it and rates divided by it, except
    ``fit_cpu_s``: a CPU clock does not run while its CPU is stolen, so
    it is rescaled by the CPU speed alone.  The measured values and the
    speed are kept in the report.
    """
    cpu_speed = CALIBRATION_REFERENCE_S / outcome.info["calibration_cpu_s"]
    speed = cpu_speed * (1.0 - outcome.info["stolen_share"])
    outcome.info["host_speed"] = speed
    outcome.info["measured_metrics"] = dict(metrics)
    units = dict(END_TO_END)
    scaled = {}
    for name, value in metrics.items():
        if name == "fit_cpu_s":
            value *= cpu_speed
        elif units[name] in ("s", "us"):
            value *= speed
        elif units[name] == "1/s":
            value /= speed
        scaled[name] = value
    return scaled


def _window(
    seconds: float,
    op: Callable[[int], None],
    outcome: Outcome,
    setup: Callable[[], object],
) -> List[float]:
    """Run ``op(i)`` until ``seconds`` have passed (at least once).

    An operation that raises is counted as failed and the run goes on, so
    one bad operation shows in ``failed`` instead of hiding the rest.
    Another operation starts only if it is expected to end no later than
    half an operation past the window, which keeps a run of long
    operations close to ``seconds`` long.

    After the operation that crosses each ``k / SETUP_SAMPLES`` mark of
    the window, ``setup`` is run and timed once more, so that set-up
    samples, like operations, come from across the window: the host this
    was tuned on has fast and slow periods lasting seconds, and set-ups
    timed back to back all fell into the same one.

    ``calibrate()`` is timed before every operation, so that its samples
    come from the same periods as the operations; their mean and the share
    of busy CPU time stolen during the window go to ``outcome.info`` for
    ``_at_reference_speed``.  Returns the set-up times.
    """
    start = time.perf_counter()
    walls: List[float] = []
    setups: List[float] = []
    calibrations: List[float] = []
    busy_start, stolen_start = _cpu_ticks()
    i = 0
    while i == 0 or time.perf_counter() - start + 0.5 * _median(walls) < seconds:
        calibrations.append(_time_calibration())
        gc.collect()  # see _timed
        began = time.perf_counter()
        try:
            op(i)
        except Exception:  # noqa: BLE001 - the measurement loop must keep running
            traceback.print_exc(file=sys.stderr)
            outcome.failures.append(f"operation {i} raised")
        walls.append(time.perf_counter() - began)
        i += 1
        if (time.perf_counter() - start) * SETUP_SAMPLES >= seconds * (len(setups) + 1):
            setups.append(_timed(setup)[0])
    busy_end, stolen_end = _cpu_ticks()
    stolen = stolen_end - stolen_start
    wanted = busy_end - busy_start + stolen
    outcome.info["calibration_cpu_s"] = _mean(calibrations)
    outcome.info["stolen_share"] = stolen / wanted if wanted > 0 else 0.0
    return setups


def _extra_ingests(instance: Instance, count: int, samples: List[float]) -> None:
    """Time ``count`` more dataset builds, so that workloads with few,
    long operations still take ``ingest_obs_per_s`` from many samples."""
    from repro import FusionDataset

    for _ in range(count):
        samples.append(
            _timed(lambda: FusionDataset(instance.claims, source_features=instance.features))[0]
        )


def _make_tracer() -> Tracer:
    def join_pairs(tracer, args, kwargs, result):
        # Ordered pairs of distinct claims on one object, plus each claim
        # paired with itself: the self-join size sum_o m_o^2.
        tracer.count("core.agreement.join_pairs", float(result.overlaps.sum()))
        tracer.count("core.agreement.join_pairs", float(args[0].n_observations))

    def em_rounds(tracer, args, kwargs, result):
        learner_trace = args[0].trace_
        tracer.count("core.em.rounds", learner_trace.n_iterations)
        tracer.count("core.em.fits", 1)
        tracer.count("core.em.converged", 1 if learner_trace.converged else 0)

    return Tracer(hooks={"core.agreement.matrix": join_pairs, "core.em.fit": em_rounds})


def _per_op_self_metrics(tracer: Tracer, ops: List[int]) -> Dict[str, float]:
    totals = tracer.self_times()
    out = {}
    for metric in sorted(set(SELF_TIME_METRICS.values())):
        spans = [name for name, target in SELF_TIME_METRICS.items() if target == metric]
        out[metric] = _median([sum(totals.get((op, n), 0.0) for n in spans) for op in ops])
    return out


def _counts(tracer: Tracer, ops: List[int]) -> Dict[str, float]:
    fits = sum(tracer.counts.get((op, "core.em.fits"), 0.0) for op in ops)
    converged = sum(tracer.counts.get((op, "core.em.converged"), 0.0) for op in ops)
    return {
        "core.em.rounds": _median([tracer.counts.get((op, "core.em.rounds"), 0.0) for op in ops]),
        "core.em.converged_ratio": converged / fits if fits else 0.0,
        "core.agreement.join_pairs": _median(
            [tracer.counts.get((op, "core.agreement.join_pairs"), 0.0) for op in ops]
        ),
    }


def _trace_common(outcome: Outcome, tracer: Tracer, traced: List[int], wall: Dict[int, float]):
    """Per-layer metrics every workload reports, plus the self-time table."""
    untraced = [op for op in wall if op not in traced]
    traced_wall = _median([wall[op] for op in traced])
    untraced_wall = _median([wall[op] for op in untraced])
    metrics = {name: 0.0 for name, _ in PER_LAYER}
    metrics.update(_per_op_self_metrics(tracer, traced))
    metrics.update(_counts(tracer, traced))
    metrics["trace.untraced_op_s"] = untraced_wall
    metrics["trace.overhead_s"] = traced_wall - untraced_wall if untraced else 0.0
    outcome.info["self_time_table"] = self_time_table(tracer, traced)
    return metrics


# ----------------------------------------------------------------------
# fit_dense: one SLiMFast().fit_predict from raw claim tuples
# ----------------------------------------------------------------------
def _fit_instance(workload: str, size: str, seed: int):
    from repro.data import generate_stocks

    params = SIZES[size][workload]
    base = generate_stocks(n_objects=params["n_objects"], seed=GENERATOR_SEED)
    split = base.split(FIT_TRAIN_FRACTION, seed=SPLIT_SEED)
    instance = present(base, seed)
    train_truth = instance.rename(split.train_truth)
    test_objects = [obj for obj in instance.truth if obj not in train_truth]
    return instance, train_truth, test_objects


def _check_lookup(outcome: Outcome, label: str, key, posterior, value) -> None:
    outcome.check(
        abs(sum(posterior.values()) - 1.0) <= PROB_TOLERANCE and value in posterior,
        f"{label}: posterior of {key!r} does not sum to 1 or misses its value {value!r}",
    )


def _query_held_out(snapshot, objects, latencies, outcome: Outcome, label: str) -> None:
    """Query every held-out object of one fitted result once.

    A read-only :class:`~repro.serve.snapshot.Snapshot` of the result gets
    one ``posterior``+``value`` call per held-out object and, after every
    ``SERVE_TOPK_EVERY - 1`` of them, one ``top_conflicts(10)``: the serve
    mix, and a fixed number of calls per fit.  Each call is timed from its
    start (its service time) and its answer is checked.
    """
    clock = time.perf_counter
    for k, key in enumerate(objects):
        start = clock()
        posterior = snapshot.posterior(key)
        value = snapshot.value(key)
        latencies.append(clock() - start)
        _check_lookup(outcome, label, key, posterior, value)
        if k % (SERVE_TOPK_EVERY - 1) == SERVE_TOPK_EVERY - 2:
            start = clock()
            conflicts = snapshot.top_conflicts(10)
            latencies.append(clock() - start)
            outcome.check(len(conflicts) <= 10, f"{label}: top_conflicts returned too many")


def _lookup_metrics(latencies) -> Dict[str, float]:
    """``lookup_p50_us`` and ``lookup_p99_us`` from per-call latencies in call order.

    The host this benchmark was tuned on alternates between fast and slow
    periods (a factor of about 2 for the same call, lasting 10 ms to
    seconds), so call latencies are bimodal and a pooled median flips
    between the two modes from run to run.  ``lookup_p50_us`` is therefore
    the median of each consecutive slice of :data:`LOOKUP_SLICE` calls,
    averaged over the run's slices: the typical latency, averaged over
    time.  ``lookup_p99_us`` pools every call.
    """
    if not latencies:
        return {"lookup_p50_us": 0.0, "lookup_p99_us": 0.0}
    samples = np.asarray(latencies, dtype=float) * 1e6
    n_slices = max(len(samples) // LOOKUP_SLICE, 1)
    slices = samples[: n_slices * LOOKUP_SLICE].reshape(n_slices, -1)
    return {
        "lookup_p50_us": float(np.mean(np.median(slices, axis=1))),
        "lookup_p99_us": float(np.percentile(samples, 99)),
    }


def _count_correct(result, objects, truth) -> int:
    values = result.values
    return sum(values[obj] == truth[obj] for obj in objects)


def run_fit(workload, seed, seconds, trace, size, expected) -> Outcome:
    from repro import FusionDataset, SLiMFast
    from repro.serve.snapshot import Snapshot

    outcome = Outcome()

    def build():
        return _fit_instance(workload, size, seed)

    first_setup, (instance, train_truth, test_objects) = _timed(build)
    # Lazy imports and first-call paths are paid once per process by any
    # user; a tiny fit pays them before the window opens.
    warm = _fit_instance(workload, "tiny", seed)
    SLiMFast().fit_predict(
        FusionDataset(warm[0].claims, source_features=warm[0].features), warm[1]
    )

    tracer = _make_tracer() if trace else None
    wall, cpu, fit_wall, ingest, latencies, accuracy, traced = {}, {}, [], [], [], [], []
    timing_gaps: List[tuple] = []

    def op(i: int) -> None:
        traced_op = tracer is not None and i % 2 == 0
        if tracer is not None:
            tracer.begin_operation(i)
        cpu_start = time.process_time()
        start = time.perf_counter()
        if traced_op:
            with tracer.installed(), tracer.span("fit"):
                with tracer.span("fusion.dataset.ingest"):
                    dataset = FusionDataset(instance.claims, source_features=instance.features)
                fuser = SLiMFast()
                result = fuser.fit_predict(dataset, train_truth)
        else:
            dataset = FusionDataset(instance.claims, source_features=instance.features)
            ingested = time.perf_counter()
            fuser = SLiMFast()
            result = fuser.fit_predict(dataset, train_truth)
        wall[i] = time.perf_counter() - start
        cpu[i] = time.process_time() - cpu_start
        if traced_op:
            traced.append(i)
            timing_gaps.append((i, dict(fuser.timings_)))
        else:
            ingest.append(ingested - start)
            fit_wall.append(start + wall[i] - ingested)
            _extra_ingests(instance, EXTRA_INGESTS[workload], ingest)
        outcome.attempted += 1

        correct = _count_correct(result, test_objects, instance.truth)
        _query_held_out(Snapshot.from_result(result), test_objects, latencies, outcome, f"op {i}")
        accuracy.append(correct / len(test_objects))
        outcome.check(
            fuser.chosen_learner_ == expected["learner"],
            f"op {i}: optimizer chose {fuser.chosen_learner_!r}, expected {expected['learner']!r}",
        )
        outcome.check(
            correct == expected["correct"] and len(test_objects) == expected["test"],
            f"op {i}: {correct}/{len(test_objects)} test objects correct, "
            f"expected {expected['correct']}/{expected['test']}",
        )

    setups = _window(seconds, op, outcome, build)
    outcome.info["op_wall_s"] = wall
    outcome.info["join_size"] = instance.join_size
    outcome.info["n_claims"] = len(instance.claims)

    if tracer is None:
        measured = {
            "setup_s": _median([first_setup, *setups]),
            "fit_s": _mean(list(wall.values())),
            "fit_cpu_s": _mean(list(cpu.values())),
            # fit_predict alone, on the built dataset: fit_s without ingest.
            "sweep_fits_per_s": len(fit_wall) / sum(fit_wall),
            "ingest_obs_per_s": len(instance.claims) / _mean(ingest),
            **_lookup_metrics(latencies),
            "test_accuracy": _median(accuracy),
            "peak_rss_mib": peak_rss_mib(),
        }
        outcome.metrics = _at_reference_speed(measured, outcome)
        outcome.info["lookup_samples"] = len(latencies)
        return outcome

    metrics = _trace_common(outcome, tracer, traced, wall)
    _cross_check_timings(outcome, tracer, timing_gaps)
    for op_id in traced:
        pairs = tracer.counts.get((op_id, "core.agreement.join_pairs"), 0.0)
        outcome.check(
            pairs == instance.join_size,
            f"op {op_id}: agreement join covered {pairs:.0f} pairs, "
            f"sum of squared claims per object is {instance.join_size}",
        )
    outcome.metrics = metrics
    outcome.tracer = tracer
    return outcome


#: ``SLiMFast.timings_`` bucket -> spans that run inside it.
TIMING_BUCKETS = {
    "compile": ("fusion.encoding.encode_dataset", "fusion.encoding.design"),
    "optimizer": ("core.optimizer.decide",),
    "learning": ("core.em.fit", "core.erm.fit"),
    "inference": (
        "core.structure.build",
        "core.inference.posterior_rows",
        "core.model.accuracies",
        "fusion.result.from_rows",
    ),
}


def _cross_check_timings(outcome: Outcome, tracer: Tracer, timing_gaps) -> None:
    """The traced split must agree with ``SLiMFast.timings_``.

    Each bucket of ``timings_`` brackets the spans listed in
    :data:`TIMING_BUCKETS` (top-level spans only: those whose parent is
    the operation's root).  The bucket may exceed its spans by the
    operation's measured tracing overhead (its span count times the
    calibrated cost of one span) plus :data:`UNSPANNED_ALLOWANCE_S`, and
    never fall short.
    """
    cost = span_cost()
    roots = {s.op_id: s.span_id for s in tracer.spans if s.name == "fit"}
    gaps: Dict[str, List[float]] = {}
    for op_id, timings in timing_gaps:
        op_spans = [s for s in tracer.spans if s.op_id == op_id]
        allowed = len(op_spans) * cost + UNSPANNED_ALLOWANCE_S
        covered: Dict[str, float] = {bucket: 0.0 for bucket in TIMING_BUCKETS}
        for span in op_spans:
            for bucket, names in TIMING_BUCKETS.items():
                if span.parent == roots.get(op_id) and span.name in names:
                    covered[bucket] += span.duration
        for bucket, spanned in covered.items():
            gap = timings[bucket] - spanned
            gaps.setdefault(bucket, []).append(gap)
            outcome.check(
                0.0 <= gap <= allowed,
                f"op {op_id}: timings_[{bucket!r}] = {timings[bucket]:.6f} s but its "
                f"spans cover {spanned:.6f} s (allowed gap {allowed:.6f} s)",
            )
    outcome.info["span_cost_s"] = cost
    outcome.info["timings_minus_spans_s"] = {b: _median(g) for b, g in gaps.items()}


# ----------------------------------------------------------------------
# sweep_grid: 40 fits through SweepRunner(dataset, n_jobs=None)
# ----------------------------------------------------------------------
def _sweep_instance(size: str, seed: int):
    from repro.data import generate_demos
    from repro.experiments import FitSpec

    params = SIZES[size]["sweep_grid"]
    base = generate_demos(
        n_sources=params["n_sources"], n_objects=params["n_objects"], seed=GENERATOR_SEED
    )
    instance = present(base, seed)
    specs, tests = [], []
    for method in SWEEP_METHODS:
        for fraction in params["fractions"]:
            for split_seed in params["split_seeds"]:
                split = base.split(fraction, seed=split_seed)
                train = instance.rename(split.train_truth)
                name = f"{method}@{fraction}/{split_seed}"
                specs.append(FitSpec.from_method(name, method, train))
                tests.append([obj for obj in instance.truth if obj not in train])
    return instance, specs, tests


def _score_sweep(fits, tests, truth) -> List[tuple]:
    """(learner, correct test objects) per fit, in spec order."""
    return [
        (fit.learner_used, _count_correct(fit.result, objects, truth))
        for fit, objects in zip(fits, tests)
    ]


def run_sweep(workload, seed, seconds, trace, size, expected) -> Outcome:
    from repro import FusionDataset
    from repro.experiments import SweepRunner
    from repro.serve.snapshot import Snapshot

    outcome = Outcome()

    def build():
        return _sweep_instance(size, seed)

    first_setup, (instance, specs, tests) = _timed(build)

    tracer = _make_tracer() if trace else None
    wall, cpu, run_wall, ingest, latencies, accuracy, traced = {}, {}, {}, [], [], [], []
    scores: List[List[tuple]] = []
    serial_wall, speedups, warm_ratios = [], [], []

    def op(i: int) -> None:
        traced_op = tracer is not None and i % 2 == 0
        if tracer is not None:
            tracer.begin_operation(i)
        cpu_start = _cpu_with_children()
        start = time.perf_counter()
        if traced_op:
            with tracer.installed(), tracer.span("sweep"):
                with tracer.span("fusion.dataset.ingest"):
                    dataset = FusionDataset(instance.claims, source_features=instance.features)
                ingested = time.perf_counter()
                with tracer.span("experiments.sweeps.prepare"):
                    runner = SweepRunner(dataset, n_jobs=None)
                ran = time.perf_counter()
                fits = runner.run(specs)
        else:
            dataset = FusionDataset(instance.claims, source_features=instance.features)
            ingested = time.perf_counter()
            runner = SweepRunner(dataset, n_jobs=None)
            ran = time.perf_counter()
            fits = runner.run(specs)
        end = time.perf_counter()
        wall[i] = end - start
        cpu[i] = _cpu_with_children() - cpu_start
        run_wall[i] = end - ran
        ingest.append(ingested - start)
        if tracer is None:
            _extra_ingests(instance, EXTRA_INGESTS[workload], ingest)
        outcome.attempted += len(specs)

        score = _score_sweep(fits, tests, instance.truth)
        for k, (fit, objects) in enumerate(zip(fits, tests)):
            _query_held_out(
                Snapshot.from_result(fit.result), objects, latencies, outcome, f"op {i} fit {k}"
            )
        scores.append(score)
        accuracy.append(float(np.mean([c / len(t) for (_, c), t in zip(score, tests)])))
        warm_ratios.append(sum(f.warm_started is not None for f in fits) / len(fits))
        if traced_op:
            traced.append(i)
            # The serial batched run is both the speedup's base and the
            # oracle the parallel fits must match; traced, it also gives
            # the learner layers' split, which worker processes cannot.
            serial_start = time.perf_counter()
            with tracer.installed(), tracer.span("serial_base"):
                serial = SweepRunner(dataset, n_jobs=1).run(specs)
            serial_wall.append(time.perf_counter() - serial_start)
            speedups.append(serial_wall[-1] / run_wall[i])
            _check_sweep(outcome, f"op {i}", score, _score_sweep(serial, tests, instance.truth))

    setups = _window(seconds, op, outcome, build)
    outcome.info["op_wall_s"] = wall
    outcome.info["run_wall_s"] = run_wall
    outcome.info["n_claims"] = len(instance.claims)
    outcome.info["fits_per_op"] = len(specs)

    for i, score in enumerate(scores):
        outcome.check(score == scores[0], f"op {i}: sweep outputs differ from op 0")

    if tracer is None:
        # One serial batched run is the oracle for every parallel sweep.
        dataset = FusionDataset(instance.claims, source_features=instance.features)
        serial = SweepRunner(dataset, n_jobs=1).run(specs)
        _check_sweep(outcome, "serial", scores[0], _score_sweep(serial, tests, instance.truth))
        measured = {
            "setup_s": _median([first_setup, *setups]),
            "fit_s": _mean(list(wall.values())) / len(specs),
            "fit_cpu_s": _mean(list(cpu.values())) / len(specs),
            "sweep_fits_per_s": len(specs) * len(run_wall) / sum(run_wall.values()),
            "ingest_obs_per_s": len(instance.claims) / _mean(ingest),
            **_lookup_metrics(latencies),
            "test_accuracy": _median(accuracy),
            "peak_rss_mib": peak_rss_mib(),
        }
        outcome.metrics = _at_reference_speed(measured, outcome)
        outcome.info["lookup_samples"] = len(latencies)
        return outcome

    metrics = _trace_common(outcome, tracer, traced, wall)
    parallel_runs = tracer.op_durations("experiments.sweeps.run", parent="sweep")
    metrics["experiments.sweeps.run_s"] = _median([parallel_runs.get(op, 0.0) for op in traced])
    metrics["experiments.sweeps.warm_start_ratio"] = _median(warm_ratios)
    metrics["experiments.parallel.serial_run_s"] = _median(serial_wall)
    metrics["experiments.parallel.speedup"] = _median(speedups)
    outcome.metrics = metrics
    outcome.tracer = tracer
    return outcome


def _check_sweep(outcome: Outcome, label: str, parallel, serial) -> None:
    for k, (got, want) in enumerate(zip(parallel, serial)):
        outcome.check(
            got == want,
            f"{label}: parallel fit {k} gave (learner, correct) {got}, serial batched {want}",
        )
    outcome.check(len(parallel) == len(serial), f"{label}: fit counts differ")


# ----------------------------------------------------------------------
# serve_mixed: open-loop lookups against a FusionServer under a writer
# ----------------------------------------------------------------------
def _serve_instance(size: str, seed: int):
    from repro.data import SyntheticConfig, generate

    params = SIZES[size]["serve_mixed"]
    n_obs = params["n_observations"]
    config = SyntheticConfig(
        n_sources=SERVE_SOURCES,
        n_objects=params["n_objects"],
        density=min(n_obs / (SERVE_SOURCES * params["n_objects"]), 1.0),
        avg_accuracy=0.72,
        n_features=8,
        n_informative=4,
        seed=GENERATOR_SEED,
        name=f"serve-{n_obs}",
    )
    instance = present(generate(config).dataset, seed)
    half = len(instance.claims) // 2
    preloaded = sorted({obj for _, obj, _ in instance.claims[:half]})
    rng = np.random.default_rng(seed)
    keys = [preloaded[int(k)] for k in rng.integers(0, len(preloaded), SERVE_KEYS)]
    return instance, half, keys


def _preloaded_server(instance: Instance, half: int):
    from repro.serve import FusionServer

    server = FusionServer()
    server.append(instance.claims[:half])
    server.publish()
    return server


def _write_stream(server, instance: Instance, half: int, publish_walls: List[float]) -> None:
    """Append the rest in fixed batches, publishing after every few.

    The wall time of every ``publish()`` call is appended to ``publish_walls``.
    """

    def publish() -> None:
        start = time.perf_counter()
        server.publish()
        publish_walls.append(time.perf_counter() - start)

    claims = instance.claims
    for k, start in enumerate(range(half, len(claims), SERVE_BATCH)):
        server.append(claims[start : start + SERVE_BATCH])
        if k % SERVE_PUBLISH_EVERY == SERVE_PUBLISH_EVERY - 1:
            publish()
    publish()


def _snapshot_digest(snapshot) -> str:
    digest = hashlib.sha256()
    digest.update(repr(snapshot.object_ids).encode())
    digest.update(repr(snapshot.pair_values).encode())
    digest.update(np.ascontiguousarray(snapshot.store.offsets).tobytes())
    digest.update(np.ascontiguousarray(snapshot.store.probs).tobytes())
    return digest.hexdigest()


def run_serve(workload, seed, seconds, trace, size, expected) -> Outcome:
    # docs/serving.md: a serving process lowers the 5 ms default so that a
    # busy writer cannot hold the GIL for whole milliseconds.
    previous = sys.getswitchinterval()
    sys.setswitchinterval(SERVE_SWITCH_INTERVAL_S)
    try:
        outcome = _run_serve(seed, seconds, trace, size)
    finally:
        sys.setswitchinterval(previous)
    outcome.info["switch_interval_s"] = SERVE_SWITCH_INTERVAL_S
    return outcome


def _run_serve(seed, seconds, trace, size) -> Outcome:
    outcome = Outcome()
    rate = SIZES[size]["serve_mixed"]["rate"]

    def build():
        instance, half, keys = _serve_instance(size, seed)
        return instance, half, keys, _preloaded_server(instance, half)

    first_setup, (instance, half, keys, _) = _timed(build)
    tracer = _make_tracer() if trace else None
    wall, cpu, traced, digests = {}, {}, [], []
    latency, service, lag, publish_walls = [], [], [], []
    appended = len(instance.claims) - half
    n_batches = -(-appended // SERVE_BATCH)

    def op(i: int) -> None:
        traced_op = tracer is not None and i % 2 == 0
        if tracer is not None:
            tracer.begin_operation(i)
        server = _preloaded_server(instance, half)
        writer_done = threading.Event()
        writer_wall: List[float] = []
        errors: List[str] = []

        def writer() -> None:
            start = time.perf_counter()
            try:
                _write_stream(server, instance, half, publish_walls)
            except Exception:  # noqa: BLE001 - reported as a failed operation
                errors.append(traceback.format_exc())
            finally:
                writer_wall.append(time.perf_counter() - start)
                writer_done.set()

        cpu_start = time.process_time()
        with tracer.installed() if traced_op else nullcontext():
            thread = threading.Thread(target=writer, name="writer")
            thread.start()
            try:
                issued = _open_loop(server, keys, rate, writer_done, latency, service, lag, outcome)
            finally:
                thread.join()
        cpu[i] = time.process_time() - cpu_start
        wall[i] = writer_wall[0]
        outcome.attempted += issued + n_batches
        for error in errors:
            sys.stderr.write(error)
            outcome.failures.append(f"round {i}: writer raised")
        digests.append(_snapshot_digest(server.snapshot))
        if traced_op:
            traced.append(i)

    setups = _window(seconds, op, outcome, build)

    # Single-threaded replay of the same batches: the oracle for every
    # concurrently written round's final published state.
    replay = _preloaded_server(instance, half)
    _write_stream(replay, instance, half, [])
    reference = _snapshot_digest(replay.snapshot)
    for i, digest in enumerate(digests):
        outcome.check(digest == reference, f"round {i}: final snapshot differs from the replay")
    correct = sum(replay.snapshot.value(obj) == value for obj, value in instance.truth.items())
    outcome.info["lookup_samples"] = len(latency)
    outcome.info["rate_per_s"] = rate
    outcome.info["op_wall_s"] = wall

    if tracer is None:
        measured = {
            "setup_s": _median([first_setup, *setups]),
            "fit_s": _mean(list(wall.values())),
            "fit_cpu_s": _mean(list(cpu.values())),
            # Snapshots rebuilt from the streaming fit per second of publish().
            "sweep_fits_per_s": len(publish_walls) / sum(publish_walls),
            "ingest_obs_per_s": appended * len(wall) / sum(wall.values()),
            **_lookup_metrics(latency),
            "test_accuracy": correct / len(instance.truth),
            "peak_rss_mib": peak_rss_mib(),
        }
        outcome.metrics = _at_reference_speed(measured, outcome)
        return outcome

    metrics = _trace_common(outcome, tracer, traced, wall)
    appends = tracer.durations("extensions.streaming.append")
    publishes = tracer.durations("serve.snapshot.publish")
    svc50, svc99 = _percentiles(service)
    metrics.update(
        {
            "extensions.streaming.append_s.p50": _percentiles(appends)[0],
            "extensions.streaming.append_s.p99": _percentiles(appends)[1],
            "serve.snapshot.publish_s.p50": _percentiles(publishes)[0],
            "serve.snapshot.publish_s.p99": _percentiles(publishes)[1],
            "serve.server.publishes": _median(
                [tracer.calls("serve.snapshot.publish").get(op, 0) for op in traced]
            ),
            "serve.server.lookup_service_us.p50": svc50 * 1e6,
            "serve.server.lookup_service_us.p99": svc99 * 1e6,
            "loadgen.lag_p99_us": _percentiles(lag)[1] * 1e6,
        }
    )
    outcome.metrics = metrics
    outcome.tracer = tracer
    return outcome


def _open_loop(server, keys, rate, writer_done, latency, service, lag, outcome) -> int:
    """Send lookups on a fixed schedule until the writer finishes.

    Independent users do not wait for each other, so the schedule never
    slips: a lookup that could not start on time is still due at its
    slot, and its latency is measured from that slot.
    """
    clock = time.perf_counter
    interval = 1.0 / rate
    begin = clock()
    i = 0
    while not writer_done.is_set():
        due = begin + i * interval
        now = clock()
        if due > now:
            time.sleep(due - now)
        key = keys[i % len(keys)]
        start = clock()
        if i % SERVE_TOPK_EVERY == SERVE_TOPK_EVERY - 1:
            conflicts = server.top_conflicts(10)
            end = clock()
            outcome.check(len(conflicts) <= 10, f"lookup {i}: top_conflicts returned too many")
        else:
            posterior = server.posterior(key)
            value = server.value(key)
            end = clock()
            _check_lookup(outcome, f"lookup {i}", key, posterior, value)
        lag.append(start - due)
        service.append(end - start)
        latency.append(end - due)
        i += 1
    return i


#: Workloads whose outputs are recorded in ``expected.json``.
RECORDED = ("fit_dense",)

WORKLOADS = {
    "fit_dense": run_fit,
    "sweep_grid": run_sweep,
    "serve_mixed": run_serve,
}


def record_expected(workload: str, size: str, seed: int = 0) -> dict:
    """What the fit workload's operation outputs at this commit under ``seed``.

    Used to write ``expected.json``.  The sweep and serving workloads have
    no recorded values: their outputs depend on claim order (the streaming
    fuser is online, batched sweeps hand warm starts along the spec
    order), so each run checks them against an oracle run instead.
    """
    from repro import FusionDataset, SLiMFast

    instance, train, tests = _fit_instance(workload, size, seed)
    fuser = SLiMFast()
    result = fuser.fit_predict(
        FusionDataset(instance.claims, source_features=instance.features), train
    )
    correct = sum(result.values[o] == instance.truth[o] for o in tests)
    return {"learner": fuser.chosen_learner_, "correct": int(correct), "test": len(tests)}
