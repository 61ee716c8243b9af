"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload refine --seed 1 --seconds 15 --trace 0
    python3 perfbench/selftest.py        # smoke-size self-test, about 2 min

The workload's inputs are generated from ``--seed``.  Set-up is repeated
and timed, then the workload's timed pass repeats until ``--seconds``
have passed (and at least the workload's minimum number of passes has
run).  Every output is checked; a failed check is counted, not raised.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics of ``BENCHMARK.json``.  With ``--trace 1`` passes
alternate between untraced and traced; the JSON object then holds the
per-layer metrics (taken from the traced passes), the tracing overhead
(traced minus untraced ``primary_s``) and the share of each timed
section that no span covers.  The spans are written as Chrome
trace-event JSON to ``.perfbench_out/`` and a flat per-layer summary
goes to stderr.  Lines before the JSON object print every metric by
name with its unit; ``perfbench/meta.json`` says what each stands for.

The program under test is imported from ``src/`` of the checkout that
holds this file; without it the script exits with code 2.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")

#: workload sizes: "full" is what the benchmark measures, "smoke" is for
#: perfbench/selftest.py.  min_passes is the fewest timed passes a run
#: makes, whatever --seconds says.
SCALES = {
    "full": {
        "refine": {"vertices": 600, "graphs": 5, "min_passes": 10},
        "run": {"vertices": 800, "graphs": 5, "warm_runs": 5, "min_passes": 10},
        "maintain": {
            "vertices": 1000, "batches": 101, "batch_size": 20, "min_passes": 101,
        },
        # a pass (a cold and a warm sweep) takes 8-12 s; with the
        # deadline alone a run made two or three, and the median of two
        # was not steady
        "sweep": {"min_passes": 3},
    },
    "smoke": {
        "refine": {"vertices": 150, "graphs": 3, "min_passes": 6},
        "run": {"vertices": 200, "graphs": 3, "warm_runs": 1, "min_passes": 6},
        "maintain": {
            "vertices": 200, "batches": 11, "batch_size": 20, "min_passes": 22,
        },
        "sweep": {"min_passes": 1},
    },
}
WORKLOAD_NAMES = tuple(SCALES["full"])
#: seconds between timings of the host loop while passes run
CALIBRATE_EVERY_S = 0.5
END_TO_END = {
    "setup_s": "s",
    "primary_s": "s",
    "secondary_s": "s",
    "peak_rss_mb": "MB",
}


def _uncovered(tracer, section):
    """Share of the ``section`` spans' time that no child span covers."""
    own = tracer.self_seconds()
    spans = [s for s in tracer.spans if s.name == section]
    total = sum(s.seconds for s in spans)
    return sum(own[s.sid] for s in spans) / total if total else 0.0


def host():
    """The host fingerprint that results are quoted with."""
    import numpy

    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next(
                line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")
            )
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def _scale(records, factor):
    """Scale every timing (the list values) of ``records`` in place."""
    for rec in records:
        for key, value in rec.items():
            if isinstance(value, list):
                rec[key] = [t * factor for t in value]


def measure(workload_name, seed, seconds, trace, scale="full", tamper=None):
    """Run one workload; returns the result dict printed as JSON.

    ``tamper``, if given, is called with the set-up state before the
    timed passes (the self-test uses it to plant a wrong answer).
    """
    from tracing import Tracer
    from workloads import HOST_LOOP_REF_S, PER_LAYER, WORKLOADS, Context

    workload = WORKLOADS[workload_name]()
    os.makedirs(WORK_ROOT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_ROOT) as workdir:
        ctx = Context(seed, SCALES[scale][workload_name], workdir, Tracer(False))
        # The host loop is timed before and after every set-up, and
        # between passes every CALIBRATE_EVERY_S.  A bracket is the work
        # between two loop timings, keyed by the index of the second.
        ctx.calibrate()
        setup_brackets = []
        for _ in range(workload.setup_repeats):
            start = time.perf_counter()
            state = workload.setup(ctx)
            elapsed = time.perf_counter() - start
            ctx.calibrate()
            setup_brackets.append((len(ctx.host_loops) - 1, elapsed))
        if tamper is not None:
            tamper(state)
        min_passes = ctx.scale["min_passes"]
        if trace:
            min_passes = max(2, min_passes)
        plain, traced, brackets, pending = [], [], [], []
        deadline = time.perf_counter() + seconds
        checked = time.perf_counter()
        op = 0
        while op < min_passes or time.perf_counter() < deadline:
            # With tracing on, odd passes are traced and even ones are
            # not, so one run measures both and their difference.
            ctx.tracer.enabled = bool(trace) and op % 2 == 1
            ctx.tracer.op = op
            rec = workload.run_pass(ctx, state, op)
            (traced if ctx.tracer.enabled else plain).append(rec)
            pending.append(rec)
            op += 1
            if time.perf_counter() - checked >= CALIBRATE_EVERY_S:
                ctx.calibrate()
                brackets.append((len(ctx.host_loops) - 1, pending))
                pending, checked = [], time.perf_counter()
        ctx.tracer.enabled = False
        ctx.calibrate()
        brackets.append((len(ctx.host_loops) - 1, pending))

    loops = ctx.host_loops

    def to_ref(after):
        return 2 * HOST_LOOP_REF_S / (loops[after - 1] + loops[after])

    setup_times = [elapsed * to_ref(after) for after, elapsed in setup_brackets]
    if not workload.self_scaled:
        for after, records in brackets:
            _scale(records, to_ref(after))
    host_loop_s = statistics.median(loops)
    primary, secondary = workload.end_to_end(plain)
    end_to_end = {
        "setup_s": statistics.median(setup_times),
        "primary_s": primary,
        "secondary_s": secondary,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    report = {
        label: (value * factor, unit)
        for (label, unit, factor), value in zip(workload.labels, (primary, secondary))
    }
    layers = workload.per_layer(state, traced if trace else plain)
    if "sim.makespan_ms" in layers:
        report["makespan_ms"] = (layers["sim.makespan_ms"], "sim_ms")
    checks = ctx.checks
    report["failed_ratio"] = (checks.failed / max(1, checks.attempted), "ratio")
    report.update({k: (v, END_TO_END[k]) for k, v in end_to_end.items()})
    report["passes"] = (len(plain) + len(traced), "count")
    report["host_loop_ms"] = (host_loop_s * 1e3, "ms")

    if trace:
        metrics = dict.fromkeys(PER_LAYER, 0.0)
        metrics.update(layers)
        metrics["host.loop_ms"] = host_loop_s * 1e3
        # Tracing overhead: traced minus untraced primary_s, each taken
        # from its own passes of this run.
        untraced = primary
        overhead = workload.end_to_end(traced)[0] - untraced
        metrics["trace.overhead_s"] = overhead
        metrics["trace.overhead_ratio"] = overhead / untraced
        primary_share = _uncovered(ctx.tracer, "primary")
        metrics["trace.primary.uncovered_ratio"] = primary_share
        has_secondary = any(s.name == "secondary" for s in ctx.tracer.spans)
        metrics["trace.secondary.uncovered_ratio"] = (
            _uncovered(ctx.tracer, "secondary") if has_secondary else primary_share
        )
        unknown = set(metrics) - set(PER_LAYER)
        if unknown:
            raise RuntimeError(f"undeclared per-layer metrics: {sorted(unknown)}")
        units = {name: unit for name, (unit, _better) in PER_LAYER.items()}
        trace_meta = {
            "workload": workload_name, "seed": seed, "scale": scale, "host": host(),
        }
        os.makedirs(OUT_ROOT, exist_ok=True)
        trace_path = os.path.join(OUT_ROOT, f"trace-{workload_name}-seed{seed}.json")
        ctx.tracer.write(trace_path, trace_meta)
        print(ctx.tracer.format_summary(), file=sys.stderr)
        print(f"trace written to {os.path.relpath(trace_path, ROOT)}", file=sys.stderr)
    else:
        metrics = end_to_end
        units = END_TO_END
    return {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
        "report": report,
        "failures": checks.failures,
    }


def confine():
    """Keep every file the program and its workers write inside the checkout.

    Temporary files go to ``.perfbench_work/``, and so does ``$HOME``:
    the eval engine caches its trained cost models under
    ``~/.cache/repro``.  Must run before ``repro`` is imported, which
    reads ``$HOME`` at import time.
    """
    home = os.path.join(WORK_ROOT, f"home-{os.getpid()}")
    os.makedirs(home, exist_ok=True)
    os.environ["TMPDIR"] = WORK_ROOT
    os.environ["HOME"] = home
    tempfile.tempdir = WORK_ROOT
    return home


def _child_pids():
    """Pids of this process's children, read from ``/proc``."""
    me, pids = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        # the fields after the parenthesised command: state, ppid, ...
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            pids.append(int(entry))
    return pids


def stop_children():
    """Stop every process this run started and wait for each to end.

    The workloads call the program in this process.  Should it start a
    multiprocessing pool, the spawn context also starts a resource
    tracker, which would outlive this process by a moment; it ends when
    its pipe is closed.  Any other child left over is killed.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()
    for pid in _child_pids():
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    home = confine()
    # A SIGTERM unwinds through the finally below, so the children
    # are still stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        result = measure(args.workload, args.seed, args.seconds, args.trace)
    finally:
        stop_children()
        shutil.rmtree(home, ignore_errors=True)
    for failure in result.pop("failures"):
        print(f"FAILED: {failure}", file=sys.stderr)
    for name, (value, unit) in result.pop("report").items():
        print(f"{args.workload:<9} {name:<14} {value:>14.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
