"""Benchmark of the SLiMFast reproduction (``repro``), end to end and per layer.

Usage, from the repository root::

    python3 perfbench/run.py --workload fit_dense --seed 0 --seconds 20 --trace 0

Workloads: ``fit_dense``, ``sweep_grid``, ``serve_mixed``
(see ``perfbench/README.md`` for why each exists).  With ``--trace 0`` the
run reports end-to-end metrics with no instrumentation; with ``--trace 1``
it wraps the library's layer entry points and reports per-layer metrics
plus a self-time table.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  A line before
it, starting ``stamp:``, records the hardware and software the run saw.
Full details (stamp, every failure, self-time table, spans) are written to
``perfbench/out/``.

The library is imported from ``src/`` next to this directory and nowhere
else; without it the run exits with code 2 before measuring anything.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import multiprocessing
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
EXPECTED = HERE / "expected.json"
#: A seed kept out of tuning, for re-checking a claimed gain (the claim
#: must also hold on a seed not used while the change was written).
HOLDOUT_SEED = 7919


def _blas() -> dict:
    import numpy as np

    info: dict = {"name": "unknown", "version": "unknown", "threads": "unknown"}
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        blas = deps.get("blas", {})
        info["name"] = blas.get("name", "unknown")
        info["version"] = blas.get("version", "unknown")
    except (TypeError, AttributeError):  # numpy < 1.25 has no dict mode
        pass
    libs_dir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    libs = glob.glob(os.path.join(libs_dir, "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                break
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        if var in os.environ:
            info[var] = os.environ[var]
    return info


def _git_commit() -> str:
    """Commit of the checkout, read from ``.git`` (no git process)."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split(" ", 1)[0]
    return f"unknown ({name})"


def stamp(args) -> dict:
    import numpy as np
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "holdout_seed": HOLDOUT_SEED,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas": _blas(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "git_commit": _git_commit(),
        "switch_interval_s": sys.getswitchinterval(),
        "mp_start_method": multiprocessing.get_start_method(),
    }


def result_line(outcome, metric_specs) -> dict:
    """The contract's final JSON object."""
    metrics = {}
    for name, unit in metric_specs:
        value = float(outcome.metrics.get(name, float("nan")))
        if not math.isfinite(value):
            outcome.failures.append(f"metric {name} is {value}")
            value = 0.0
        metrics[name] = {"value": value, "unit": unit}
    attempted = max(outcome.attempted, 1)
    return {
        "correct": not outcome.failures,
        "attempted": attempted,
        "failed": min(len(outcome.failures), attempted),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input size; 'tiny' is for the benchmark's self-test")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}"
        )
    expected = json.loads(EXPECTED.read_text())[args.size].get(args.workload)
    run = workloads.WORKLOADS[args.workload]
    outcome = run(args.workload, args.seed, args.seconds, bool(args.trace), args.size, expected)

    specs = workloads.PER_LAYER if args.trace else workloads.END_TO_END
    line = result_line(outcome, specs)
    run_stamp = stamp(args)
    # The serving workload runs under its own switch interval.
    run_stamp["switch_interval_s"] = outcome.info.get(
        "switch_interval_s", run_stamp["switch_interval_s"]
    )
    report = {
        "stamp": run_stamp,
        "result": line,
        "error_rate": line["failed"] / line["attempted"],
        "failures": outcome.failures,
        "info": outcome.info,
    }
    if outcome.tracer is not None:
        report["spans"] = [span.as_dict() for span in outcome.tracer.spans]
        report["counts"] = [
            {"op": op, "name": name, "value": value}
            for (op, name), value in sorted(outcome.tracer.counts.items())
        ]
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}.json"
    out_file.write_text(json.dumps(report, indent=1, default=str) + "\n")

    for failure in outcome.failures[:20]:
        print(f"perfbench: FAILED: {failure}", file=sys.stderr)
    if len(outcome.failures) > 20:
        print(f"perfbench: ... {len(outcome.failures) - 20} more failures", file=sys.stderr)
    if args.trace:
        print(f"{'span':<36} {'calls':>7} {'self s/op':>12} {'share':>7}")
        for row in outcome.info.get("self_time_table", []):
            print(
                f"{row['span']:<36} {row['calls']:>7} {row['self_s_median']:>12.6f} "
                f"{row['share_median']:>7.1%}"
            )
        print(f"tracing overhead per op: {outcome.metrics['trace.overhead_s']:.6f} s "
              f"(untraced op {outcome.metrics['trace.untraced_op_s']:.6f} s)")
    print("stamp: " + json.dumps({**run_stamp, "error_rate": report["error_rate"],
                                  "lookup_samples": outcome.info.get("lookup_samples"),
                                  "host_speed": outcome.info.get("host_speed")}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
