"""Self-test of the benchmark at tiny input sizes (about 30 s).

Run from the repository root::

    python3 perfbench/selftest.py

Checks that:

* every workload, traced and untraced, ends its output with the result
  object, passes its correctness checks, and prints every metric
  ``BENCHMARK.json`` names, with that metric's unit;
* a deliberately wrong expected value (and a wrong expected learner)
  makes the fit correctness check fail;
* a parallel sweep whose outputs differ from the serial oracle fails;
* the benchmark exits non-zero, printing no result, when the library
  sources are missing.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

TIMEOUT_S = 180


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=TIMEOUT_S,
    )


def check_printed_metrics(spec: dict, failures: list) -> None:
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            label = f"{workload} trace={trace}"
            proc = _run(
                ROOT, "--workload", workload, "--seed", "1", "--seconds", "1",
                "--trace", str(trace), "--size", "tiny",
            )
            if proc.returncode != 0:
                failures.append(f"{label}: exit code {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(line) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{label}: result keys {sorted(line)}")
                continue
            if line["correct"] is not True or line["failed"] != 0 or line["attempted"] < 1:
                failures.append(f"{label}: result {line}\n{proc.stderr[-2000:]}")
            wanted = spec["per_layer" if trace else "end_to_end"]
            names = [m["name"] for m in wanted]
            if sorted(line["metrics"]) != sorted(names):
                failures.append(f"{label}: metrics {sorted(line['metrics'])} != {sorted(names)}")
            for metric in wanted:
                got = line["metrics"].get(metric["name"])
                if got is None:
                    continue
                if got.get("unit") != metric["unit"]:
                    failures.append(f"{label}: {metric['name']} unit {got.get('unit')!r}")
                value = got.get("value")
                if not isinstance(value, (int, float)) or not math.isfinite(value):
                    failures.append(f"{label}: {metric['name']} value {value!r}")
                elif not trace and value == 0:
                    failures.append(f"{label}: end-to-end metric {metric['name']} is 0")
            print(f"ok   {label}", flush=True)


def check_wrong_expectations(failures: list) -> None:
    right = json.loads((HERE / "expected.json").read_text())["tiny"]["fit_dense"]
    for field, wrong in (("correct", right["correct"] + 1), ("learner", "erm")):
        outcome = workloads.run_fit(
            "fit_dense", 0, 0.0, False, "tiny", {**right, field: wrong}
        )
        caught = [f for f in outcome.failures if "expected" in f]
        if not caught:
            failures.append(f"fit check passed with a wrong expected {field} {wrong!r}")
        else:
            print(f"ok   wrong expected {field} fails: {caught[0]}", flush=True)
    outcome = workloads.Outcome()
    workloads._check_sweep(outcome, "selftest", [("em", 10)], [("em", 11)])
    if not outcome.failures:
        failures.append("sweep check passed although parallel and serial outputs differ")
    else:
        print("ok   differing sweep outputs fail", flush=True)


def check_bare_directory(failures: list) -> None:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = _run(
            bare, "--workload", "fit_dense", "--seed", "0", "--seconds", "1", "--trace", "0"
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        failures.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-500:]!r}")
    else:
        print(f"ok   bare directory exits {proc.returncode} without a result", flush=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures: list = []
    check_printed_metrics(spec, failures)
    check_wrong_expectations(failures)
    check_bare_directory(failures)
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
