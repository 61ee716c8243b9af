"""Self-test of the benchmark at smoke size.

Usage (from the repository root; about two minutes)::

    python3 perfbench/selftest.py

Checks that:

* every workload, untraced and traced, emits exactly the metrics that
  ``BENCHMARK.json`` declares for that mode, each with its unit, and
  passes every output check (``failed`` is 0);
* the simulated and counted per-layer figures repeat exactly across two
  traced runs of one seed;
* a deliberately wrong reference answer is counted as a failed check,
  not raised;
* without the program's sources the command exits non-zero and prints
  no result.

Exits with code 1 on the first failed expectation.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402  (needs the path set above)

#: per-layer units whose values must repeat exactly for one seed
EXACT_UNITS = ("sim_ms", "bytes", "count")


def expect(ok, message):
    if not ok:
        print(f"selftest FAILED: {message}", file=sys.stderr)
        sys.exit(1)


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return (
        [w["name"] for w in spec["workloads"]],
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def check_metrics(result, units, what):
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    expect(got == units, f"{what}: metrics/units differ from BENCHMARK.json: "
           f"missing {sorted(set(units) - set(got))}, extra {sorted(set(got) - set(units))}")
    for name, m in result["metrics"].items():
        expect(isinstance(m["value"], (int, float)), f"{what}: {name} is not a number")
    expect(result["attempted"] >= 1, f"{what}: no output was checked")
    expect(result["failed"] == 0 and result["correct"],
           f"{what}: failed checks {result['failures']}")


def main():
    home = run.confine()
    try:
        return check_all()
    finally:
        shutil.rmtree(home, ignore_errors=True)


def check_all():
    workloads, end_to_end, per_layer = declared()
    expect(tuple(workloads) == run.WORKLOAD_NAMES, "workload names differ")
    for name in workloads:
        plain = run.measure(name, seed=5, seconds=0, trace=0, scale="smoke")
        check_metrics(plain, end_to_end, f"{name} --trace 0")
        traced = [
            run.measure(name, seed=5, seconds=0, trace=1, scale="smoke")
            for _ in range(2)
        ]
        for result in traced:
            check_metrics(result, per_layer, f"{name} --trace 1")
        for metric, unit in per_layer.items():
            if unit in EXACT_UNITS:
                a, b = (r["metrics"][metric]["value"] for r in traced)
                expect(a == b, f"{name}: {metric} differs between runs ({a} vs {b})")
        print(f"selftest: {name} ok ({plain['attempted']} checks)")

    def plant_wrong_answers(state):
        state.refs[0]["tc"] += 1
        state.refs[0]["wcc"][0] += 1

    result = run.measure("run", seed=5, seconds=0, trace=0, scale="smoke",
                         tamper=plant_wrong_answers)
    expect(result["failed"] > 0 and not result["correct"],
           "wrong reference answers were not counted as failures")
    check_metrics(dict(result, failed=0, correct=True), end_to_end, "tampered run")
    print(f"selftest: wrong answers counted ({result['failed']} failed checks)")

    os.makedirs(run.WORK_ROOT, exist_ok=True)
    bare = tempfile.mkdtemp(dir=run.WORK_ROOT)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "refine",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
           "without sources the command must fail without a result")
    print("selftest: no sources -> exit code", proc.returncode)
    print("selftest: all ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
