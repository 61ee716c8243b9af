"""The benchmark's four workloads: refine, run, maintain and sweep.

Each workload has a set-up step, repeated to time it, and a timed pass
that run.py repeats until the run length is used up.  A pass is a
closed loop: one caller waits for every call.  Every graph is a
directed Chung-Lu power-law graph (exponent 2.1, average degree 8) cut
into 8 fragments and generated from the run's seed; the program only
sees the generated graph, partitions and mutation batches.

Every timed call goes through :func:`timed`, which appends the call's
wall time to the pass record and, when tracing, opens a span for the
layer it calls into.  Outputs are checked after each pass, outside the
timed sections; a failed check is counted in :class:`Checks`, never
raised.

Times are scaled to a reference host speed.  On a shared host the speed
of the same code can swing by half or more for seconds to minutes at a
time (measured on a 2-vCPU VM).  So run.py also times a fixed loop that
uses nothing from the program (:func:`host_loop`) around every set-up
and between passes (every ``run.CALIBRATE_EVERY_S``), and multiplies the
times taken between two loop timings by ``HOST_LOOP_REF_S`` over their
mean: a time reads as the seconds the work would take on a host where
that loop takes ``HOST_LOOP_REF_S``.  The sweep, whose passes are too
long for that, times the loop around each of its two sweeps instead.
Timings are lists of samples in the pass records, and everything else is
a plain number.  A timing is the median of its samples.  The refine and
run workloads each use several graphs and report the mean over graphs,
which damps what one seed's graph would add to the spread between seeds.
The maintain workload reports percentiles over its stream of distinct
batches, each replayed once per round.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
import re
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple

import numpy

from repro.algorithms import reference
from repro.algorithms.registry import get_algorithm
from repro.core import E2H, ME2H, V2H, MutationBatch, apply_mutations
from repro.costmodel.library import builtin_cost_model
from repro.graph.generators import chung_lu_power_law
from repro.graph.io import read_edge_list, write_edge_list
from repro.partition.validation import (
    PartitionInvariantError,
    check_partition,
    vertex_violations,
)
from repro.partitioners.base import get_partitioner
from repro.runtime.plan import plan_for, plan_stats

from tracing import Tracer

FRAGMENTS = 8
AVG_DEGREE = 8.0
EXPONENT = 2.1
#: absolute tolerance for PageRank against the single-machine reference
PR_TOLERANCE = 1e-9
ALGORITHMS = ("pr", "wcc", "sssp", "cn")
#: graph ``k`` of seed ``s`` is generated with seed ``s * stride + k``
GRAPH_SEED_STRIDE = 1000
CUTS = ("e2h", "v2h")
#: the counters of repro.runtime.plan.plan_stats(), in snapshot order
PLAN_COUNTS = ("recompiled", "patched", "revalidated")

#: per-layer metrics: name -> (unit, better).  Every workload reports
#: every name; a layer that a workload's timed section never calls
#: reads 0 there.
PER_LAYER: Dict[str, Tuple[str, str]] = {}


def _declare(names, unit: str, better: str) -> None:
    for name in names:
        PER_LAYER[name] = (unit, better)


_declare(["graph.load_s", "partitioners.fennel_s", "partitioners.hdrf_s"], "s", "lower")
_declare([f"core.{r}_s" for r in ("e2h", "v2h", "me2h")], "s", "lower")
REFINER_PHASES = {
    "e2h": ("emigrate", "esplit", "massign"),
    "v2h": ("vmigrate", "vmerge", "massign"),
    "me2h": ("init", "vassign", "eassign", "massign"),
}
for _r, _phases in REFINER_PHASES.items():
    _declare([f"core.{_r}.{p}_s" for p in _phases + ("setup",)], "s", "lower")
_declare([f"core.{r}.rescoring_calls" for r in ("e2h", "v2h")], "count", "lower")
_declare([f"core.{r}.gain_cache_hit_ratio" for r in REFINER_PHASES], "ratio", "higher")
_declare([f"core.{r}.moves" for r in REFINER_PHASES], "count", "lower")
_declare([f"core.{r}.cost_ratio" for r in ("e2h", "v2h")], "ratio", "lower")
_declare(["plan.compile_s"], "s", "lower")
_declare(["plan.recompiled"], "count", "lower")
_declare(["plan.patched", "plan.revalidated"], "count", "higher")
_declare(["plan.patch_ratio"], "ratio", "higher")
for _alg in ALGORITHMS + ("tc",):
    for _cut in CUTS:
        _base = f"run.{_alg}.{_cut}"
        _declare([f"{_base}.cold_s"], "s", "lower")
        if _alg != "tc":
            _declare([f"{_base}.warm_s"], "s", "lower")
        _declare([f"{_base}.makespan_ms"], "sim_ms", "lower")
        _declare([f"{_base}.supersteps"], "count", "lower")
        _declare([f"{_base}.total_bytes"], "bytes", "lower")
MAINTAIN_STEPS = ("apply", "e2h", "v2h", "plan")
for _step in MAINTAIN_STEPS:
    _declare([f"maintain.{_step}_p50_ms", f"maintain.{_step}_p90_ms"], "ms", "lower")
_declare([f"maintain.{c}.frontier_ratio" for c in CUTS], "ratio", "lower")
_declare(["maintain.seeded_ratio"], "ratio", "higher")
_declare([f"maintain.{c}.rescoring_calls" for c in CUTS], "count", "lower")
_declare(["engine.cells", "engine.cached", "engine.hits"], "count", "higher")
_declare(["engine.computed", "engine.misses"], "count", "lower")
_declare(["engine.cache_mb"], "MB", "lower")
_declare(["sim.makespan_ms"], "sim_ms", "lower")
_declare(["host.loop_ms"], "ms", "lower")
_declare(["trace.overhead_s"], "s", "lower")
_declare(
    ["trace.overhead_ratio", "trace.primary.uncovered_ratio",
     "trace.secondary.uncovered_ratio"],
    "ratio",
    "lower",
)


# ----------------------------------------------------------------------
# Shared machinery
# ----------------------------------------------------------------------
class Checks:
    """Counts output checks; a failure is recorded, never raised."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    def partition(self, partition, what: str) -> None:
        try:
            check_partition(partition)
            ok = True
        except PartitionInvariantError:
            ok = False
        self.expect(ok, f"{what}: partition invariants")

    def values(self, alg: str, got: Any, want: Any, what: str) -> None:
        if alg == "pr":
            ok = got.keys() == want.keys() and all(
                abs(got[v] - want[v]) <= PR_TOLERANCE for v in want
            )
        else:
            ok = got == want
        self.expect(ok, f"{what}: {alg} values differ from the reference")


#: host_loop() seconds on the reference host; timings are scaled to it
HOST_LOOP_REF_S = 0.005


def host_loop() -> float:
    """Seconds one fixed loop of dict, sort and NumPy work takes.

    The loop uses nothing from the program, so it tracks only the host's
    current speed.
    """
    start = time.perf_counter()
    table: Dict[int, int] = {}
    for i in range(24000):
        table[i % 700] = table.get(i % 700, 0) + i
    sorted(table, key=table.get)
    values = numpy.arange(80000) % 997
    numpy.argsort(values, kind="stable")
    numpy.cumsum(values)
    return time.perf_counter() - start


@dataclass
class Context:
    seed: int
    scale: Dict[str, Any]
    workdir: str
    tracer: Tracer
    checks: Checks = field(default_factory=Checks)
    #: every host_loop() time measured
    host_loops: List[float] = field(default_factory=list)

    def calibrate(self) -> float:
        """Time the host loop (best of 3), record and return it."""
        loop = min(host_loop() for _ in range(3))
        self.host_loops.append(loop)
        return loop


@contextlib.contextmanager
def timed(ctx: Context, rec: Dict[str, Any], key: str, layer: str):
    """Append the block's wall time to ``rec[key]``; a span when tracing."""
    with ctx.tracer.span(key, layer):
        start = time.perf_counter()
        try:
            yield
        finally:
            rec.setdefault(key, []).append(time.perf_counter() - start)


def median_of(records: List[Dict[str, Any]], key: str) -> float:
    return statistics.median(r[key] for r in records)


def sample_median(records: List[Dict[str, Any]], key: str) -> float:
    """Median of every sample of timing ``key`` over ``records``."""
    return statistics.median(x for r in records for x in r[key])


def per_graph(records: List[Dict[str, Any]], value: Callable[[List[Dict]], float]) -> float:
    """Mean over the run's graphs of ``value`` of each graph's pass records.

    Averaging over several graphs damps the spread that one seed's graph
    (and the partitions refined from it) would add; every graph weighs
    the same however many passes it got.
    """
    by_graph: Dict[int, List[Dict[str, Any]]] = {}
    for rec in records:
        by_graph.setdefault(rec["graph"], []).append(rec)
    return statistics.mean(value(recs) for recs in by_graph.values())


def graph_median(records: List[Dict[str, Any]], key: str) -> float:
    """Per-graph median of ``key``, averaged over the run's graphs."""
    return per_graph(records, lambda recs: median_of(recs, key))


def graph_timing(records: List[Dict[str, Any]], key: str) -> float:
    """Per-graph median sample of timing ``key``, averaged over graphs."""
    return per_graph(records, lambda recs: sample_median(recs, key))


def percentile(values: List[float], q: int) -> float:
    """The ``q``-th percentile (1..99) of ``values``, exclusive method."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def geomean(values: List[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def power_law_graph(ctx: Context, k: int = 0):
    """The run's ``k``-th input graph, generated from the run's seed."""
    return chung_lu_power_law(
        ctx.scale["vertices"], AVG_DEGREE, exponent=EXPONENT, directed=True,
        seed=ctx.seed * GRAPH_SEED_STRIDE + k,
    )


def sim_figures(result) -> Dict[str, float]:
    """The simulated CostClock figures of one run; deterministic."""
    profile = result.profile
    return {
        "makespan_ms": profile.makespan * 1e3,
        "supersteps": profile.num_supersteps,
        "total_bytes": profile.total_bytes,
    }


def simulate(alg: str, partition) -> Tuple[Any, Dict[str, float]]:
    """One algorithm run: its values and its simulated figures."""
    result = get_algorithm(alg).run(partition)
    return result.values, sim_figures(result)


REFERENCES = {
    "pr": reference.reference_pagerank,
    "wcc": reference.reference_wcc,
    "sssp": lambda graph: reference.reference_sssp(graph, 0),
    "cn": reference.reference_common_neighbors,
    "tc": reference.reference_triangle_count,
}


def references(graph, algs=tuple(REFERENCES)) -> Dict[str, Any]:
    """Single-machine answers that every run's values must match."""
    return {alg: REFERENCES[alg](graph) for alg in algs}


class Workload:
    """Interface run.py drives; see the module docstring."""

    name = ""
    #: end-to-end names that ``primary_s`` / ``secondary_s`` stand for,
    #: with the factor that converts seconds into their unit
    labels: Tuple[Tuple[str, str, float], Tuple[str, str, float]]
    #: set-up runs this often; setup_s is the median
    setup_repeats = 5
    #: True if run_pass scales its own timings, which run.py then leaves
    self_scaled = False

    def setup(self, ctx: Context) -> Any:
        raise NotImplementedError

    def run_pass(self, ctx: Context, state: Any, op: int) -> Dict[str, Any]:
        """One timed pass; returns its timings, incl. ``primary``."""
        raise NotImplementedError

    def end_to_end(self, records: List[Dict[str, Any]]) -> Tuple[float, float]:
        """(primary_s, secondary_s) over untraced pass records."""
        raise NotImplementedError

    def per_layer(self, state: Any, records: List[Dict[str, Any]]) -> Dict[str, float]:
        raise NotImplementedError


# ----------------------------------------------------------------------
# refine: read the graph file, partition, refine, compose
# ----------------------------------------------------------------------
#: the timed calls that make up partition_s
PARTITION_CALLS = (
    "graph.load", "partitioners.fennel", "core.e2h", "partitioners.hdrf", "core.v2h",
)


@dataclass
class RefineState:
    paths: List[str]
    refs: List[Dict[str, Any]]
    pr: Any
    cn: Any
    #: per graph: simulated makespan of each refined output
    sims: Dict[int, Dict[str, float]] = field(default_factory=dict)


class RefineWorkload(Workload):
    """Full refinement: the partition core and the refiners.

    Set-up writes ``graphs`` edge-list files; pass ``op`` reads file
    ``op % graphs`` back and refines it.
    """

    name = "refine"
    labels = (("partition_s", "s", 1.0), ("composite_s", "s", 1.0))

    def setup(self, ctx: Context) -> RefineState:
        paths, refs = [], []
        for k in range(ctx.scale["graphs"]):
            graph = power_law_graph(ctx, k)
            path = os.path.join(ctx.workdir, f"refine-graph-{k}.txt")
            write_edge_list(graph, path)
            paths.append(path)
            refs.append(references(graph, ("pr", "cn")))
        return RefineState(
            paths=paths,
            refs=refs,
            pr=builtin_cost_model("pr"),
            cn=builtin_cost_model("cn"),
        )

    def run_pass(self, ctx: Context, state: RefineState, op: int) -> Dict[str, Any]:
        k = op % len(state.paths)
        rec: Dict[str, Any] = {"graph": k}
        e2h, v2h, me2h = E2H(state.pr), V2H(state.cn), ME2H({"pr": state.pr, "cn": state.cn})
        with timed(ctx, rec, "primary", "perfbench"):
            with timed(ctx, rec, "graph.load", "graph"):
                graph = read_edge_list(state.paths[k])
            with timed(ctx, rec, "partitioners.fennel", "partitioners"):
                edge_cut = get_partitioner("fennel").partition(graph, FRAGMENTS)
            with timed(ctx, rec, "core.e2h", "core"):
                e2h_out = e2h.refine(edge_cut)
            with timed(ctx, rec, "partitioners.hdrf", "partitioners"):
                vertex_cut = get_partitioner("hdrf").partition(graph, FRAGMENTS)
            with timed(ctx, rec, "core.v2h", "core"):
                v2h_out = v2h.refine(vertex_cut, in_place=True)
        with timed(ctx, rec, "secondary", "perfbench"):
            with timed(ctx, rec, "core.me2h", "core"):
                composite = me2h.refine(edge_cut)

        outputs = [
            ("e2h", "pr", e2h_out),
            ("v2h", "cn", v2h_out),
            ("me2h.pr", "pr", composite.partitions["pr"]),
            ("me2h.cn", "cn", composite.partitions["cn"]),
        ]
        sims = {}
        for label, alg, partition in outputs:
            what = f"refine graph {k} {label}"
            ctx.checks.partition(partition, what)
            values, sim = simulate(alg, partition)
            ctx.checks.values(alg, values, state.refs[k][alg], what)
            sims[label] = sim["makespan_ms"]
        expected = state.sims.setdefault(k, sims)
        ctx.checks.expect(
            sims == expected, f"refine graph {k}: simulated makespans differ between passes"
        )
        rec.update(_refine_stats("e2h", e2h.last_stats, rec["core.e2h"][0]))
        rec.update(_refine_stats("v2h", v2h.last_stats, rec["core.v2h"][0]))
        rec.update(_composite_stats(me2h.last_stats, rec["core.me2h"][0]))
        return rec

    def end_to_end(self, records) -> Tuple[float, float]:
        """(partition_s, composite_s): per call, the median repeat."""
        partition_s = per_graph(
            records, lambda recs: sum(sample_median(recs, key) for key in PARTITION_CALLS)
        )
        return partition_s, graph_timing(records, "core.me2h")

    def per_layer(self, state: RefineState, records) -> Dict[str, float]:
        out = {
            "graph.load_s": graph_timing(records, "graph.load"),
            "partitioners.fennel_s": graph_timing(records, "partitioners.fennel"),
            "partitioners.hdrf_s": graph_timing(records, "partitioners.hdrf"),
            "sim.makespan_ms": geomean(
                [m for sims in state.sims.values() for m in sims.values()]
            ),
        }
        for name in PER_LAYER:
            if name.startswith("core."):
                timing = isinstance(records[0][name], list)
                out[name] = (graph_timing if timing else graph_median)(records, name)
        return out


def _gain_ratio(stats_list) -> float:
    hits = sum(s.hits for s in stats_list)
    lookups = hits + sum(s.misses for s in stats_list)
    return hits / lookups if lookups else 0.0


def _phase_times(r: str, stats, total: float) -> Dict[str, Any]:
    """Refiner ``r``'s total and per-phase seconds, as one-sample timings."""
    phases = stats.phase_seconds
    out = {f"core.{r}_s": [total]}
    for phase in REFINER_PHASES[r]:
        out[f"core.{r}.{phase}_s"] = [phases.get(phase, 0.0)]
    out[f"core.{r}.setup_s"] = [total - sum(phases.values())]
    return out


def _refine_stats(r: str, stats, total: float) -> Dict[str, Any]:
    out = _phase_times(r, stats, total)
    out[f"core.{r}.rescoring_calls"] = stats.rescoring_calls
    out[f"core.{r}.gain_cache_hit_ratio"] = _gain_ratio([stats.gain_cache])
    if r == "e2h":
        moves = stats.emigrated + stats.split_vertices + stats.master_moves
    else:
        moves = stats.vmigrated + stats.vmerged + stats.master_moves
    out[f"core.{r}.moves"] = moves
    out[f"core.{r}.cost_ratio"] = stats.cost_after / stats.cost_before
    return out


def _composite_stats(stats, total: float) -> Dict[str, Any]:
    out = _phase_times("me2h", stats, total)
    out["core.me2h.gain_cache_hit_ratio"] = _gain_ratio(stats.gain_cache.values())
    out["core.me2h.moves"] = stats.vassign_units + stats.eassign_units
    return out


# ----------------------------------------------------------------------
# run: plan compile and the BSP algorithm kernels on refined hybrids
# ----------------------------------------------------------------------
@dataclass
class RunState:
    #: per graph: cut -> refined hybrid
    hybrids: List[Dict[str, Any]]
    refs: List[Dict[str, Any]]
    #: per graph: "<alg>.<cut>" -> simulated figures
    sims: Dict[int, Dict[str, Dict[str, float]]] = field(default_factory=dict)


class RunWorkload(Workload):
    """Refinement in set-up; times plan compile and algorithm runs.

    Set-up refines ``graphs`` graphs; pass ``op`` runs on graph
    ``op % graphs``.
    """

    name = "run"
    labels = (("run_s", "s", 1.0), ("tc_s", "s", 1.0))
    setup_repeats = 2  # each refines two hybrids per graph

    def setup(self, ctx: Context) -> RunState:
        hybrids, refs = [], []
        for k in range(ctx.scale["graphs"]):
            graph = power_law_graph(ctx, k)
            edge_cut = get_partitioner("fennel").partition(graph, FRAGMENTS)
            vertex_cut = get_partitioner("hdrf").partition(graph, FRAGMENTS)
            hybrids.append({
                "e2h": E2H(builtin_cost_model("pr")).refine(edge_cut, in_place=True),
                "v2h": V2H(builtin_cost_model("cn")).refine(vertex_cut, in_place=True),
            })
            refs.append(references(graph))
        return RunState(hybrids=hybrids, refs=refs)

    def run_pass(self, ctx: Context, state: RunState, op: int) -> Dict[str, Any]:
        k = op % len(state.hybrids)
        rec: Dict[str, Any] = {"graph": k}
        # Fresh copies carry no compiled plan, so every pass runs cold.
        parts = {cut: h.copy() for cut, h in state.hybrids[k].items()}
        warm_runs = ctx.scale["warm_runs"]
        results: List[Tuple[str, str, str, Any]] = []

        def call(alg: str, cut: str, kind: str) -> None:
            with timed(ctx, rec, f"run.{alg}.{cut}.{kind}", "algorithms"):
                result = get_algorithm(alg).run(parts[cut])
            results.append((alg, cut, kind, result))

        before = plan_stats().snapshot()
        with timed(ctx, rec, "primary", "perfbench"):
            for cut, part in parts.items():
                with timed(ctx, rec, f"plan.compile.{cut}", "runtime.plan"):
                    plan_for(part)
            for cut in CUTS:
                for alg in ALGORITHMS:
                    call(alg, cut, "cold")
                    for _ in range(warm_runs):
                        call(alg, cut, "warm")
        after = plan_stats().snapshot()
        with timed(ctx, rec, "secondary", "perfbench"):
            for cut in CUTS:
                call("tc", cut, "cold")
        for name, a, b in zip(PLAN_COUNTS, before, after):
            rec[f"plan.{name}"] = b - a
        rec["warm_runs"] = warm_runs

        sims: Dict[str, Dict[str, float]] = {}
        for alg, cut, kind, result in results:
            what = f"run graph {k} {alg} on {cut} ({kind})"
            ctx.checks.values(alg, result.values, state.refs[k][alg], what)
            sim = sim_figures(result)
            key = f"{alg}.{cut}"
            sims.setdefault(key, sim)
            ctx.checks.expect(sim == sims[key], f"{what}: simulated figures changed")
        expected = state.sims.setdefault(k, sims)
        ctx.checks.expect(
            sims == expected, f"run graph {k}: simulated figures differ between passes"
        )
        return rec

    def end_to_end(self, records) -> Tuple[float, float]:
        """(run_s, tc_s): per call, the median repeat; summed over a pass.

        A pass is some fifty calls of 5-100 ms, so every call has many
        repeats in a run even though the pass has few.
        """
        warm_runs = records[0]["warm_runs"]

        def run_s(recs):
            return sum(sample_median(recs, f"plan.compile.{cut}") for cut in CUTS) + sum(
                sample_median(recs, f"run.{alg}.{cut}.cold")
                + warm_runs * sample_median(recs, f"run.{alg}.{cut}.warm")
                for alg in ALGORITHMS
                for cut in CUTS
            )

        def tc_s(recs):
            return sum(sample_median(recs, f"run.tc.{cut}.cold") for cut in CUTS)

        return per_graph(records, run_s), per_graph(records, tc_s)

    def per_layer(self, state: RunState, records) -> Dict[str, float]:
        out = {
            "plan.compile_s": sum(graph_timing(records, f"plan.compile.{cut}") for cut in CUTS)
        }
        for name in PLAN_COUNTS:
            out[f"plan.{name}"] = graph_median(records, f"plan.{name}")
        out["plan.patch_ratio"] = _patch_ratio(out)
        # simulated figures: per graph, averaged over the run's graphs
        for key in state.sims[0]:
            for fig in state.sims[0][key]:
                out[f"run.{key}.{fig}"] = statistics.mean(
                    sims[key][fig] for sims in state.sims.values()
                )
        for alg in ALGORITHMS + ("tc",):
            for cut in CUTS:
                for kind in ("cold", "warm"):
                    key = f"run.{alg}.{cut}.{kind}"
                    if key in records[0]:
                        out[f"{key}_s"] = graph_timing(records, key)
        out["sim.makespan_ms"] = geomean(
            [sim["makespan_ms"] for sims in state.sims.values() for sim in sims.values()]
        )
        return out


def _patch_ratio(counts: Dict[str, float]) -> float:
    done = counts["plan.patched"] + counts["plan.recompiled"]
    return counts["plan.patched"] / done if done else 0.0


# ----------------------------------------------------------------------
# maintain: a stream of small mutation batches on two live hybrids
# ----------------------------------------------------------------------
@dataclass
class MaintainState:
    stream: List[MutationBatch]
    #: (graph, hybrids, refiners) of the round in progress
    live: Tuple[Any, Dict[str, Any], Dict[str, Any]]
    #: simulated makespans after the first round's last batch
    sims: Dict[str, float] = field(default_factory=dict)


def mutation_stream(graph, rnd: random.Random, batches: int, size: int):
    """Batches of ``size`` mutations, half deletions and half insertions.

    Generated against a shadow edge set, so every deletion names an edge
    present at that point of the stream and every insertion a new one.
    """
    n = graph.num_vertices
    present = list(graph.edges())
    index = {e: i for i, e in enumerate(present)}
    stream = []
    for _ in range(batches):
        lines = []
        for _ in range(size // 2):
            i = rnd.randrange(len(present))
            edge = present[i]
            last = present.pop()
            if i < len(present):
                present[i] = last
                index[last] = i
            del index[edge]
            lines.append(f"- {edge[0]} {edge[1]}")
        while len(lines) < size:
            edge = (rnd.randrange(n), rnd.randrange(n))
            if edge[0] != edge[1] and edge not in index:
                index[edge] = len(present)
                present.append(edge)
                lines.append(f"+ {edge[0]} {edge[1]}")
        stream.append(MutationBatch.parse("\n".join(lines)))
    return stream


class MaintainWorkload(Workload):
    """Incremental maintenance of two hybrids under a mutation stream.

    Pass ``op`` applies batch ``op % batches`` of the stream.  Each round
    of ``batches`` passes starts from freshly refined hybrids, built
    outside the timed sections, so every round times each batch on the
    same input and a batch's time is its median round.  The stream
    length is odd, so that a traced run, which traces every other pass,
    traces each batch in every other round.
    """

    name = "maintain"
    labels = (("batch_p50_ms", "ms", 1e3), ("batch_p90_ms", "ms", 1e3))

    def _build(self, ctx: Context):
        """The E2H(pr) and V2H(cn) hybrids of one graph, refined afresh."""
        graph = power_law_graph(ctx)
        refiners = {"e2h": E2H(builtin_cost_model("pr")), "v2h": V2H(builtin_cost_model("cn"))}
        hybrids = {
            "e2h": refiners["e2h"].refine(
                get_partitioner("fennel").partition(graph, FRAGMENTS),
                in_place=True, capture_seed=True,
            ),
            "v2h": refiners["v2h"].refine(
                get_partitioner("hdrf").partition(graph, FRAGMENTS),
                in_place=True, capture_seed=True,
            ),
        }
        for hybrid in hybrids.values():
            plan_for(hybrid)
        return graph, hybrids, refiners

    def setup(self, ctx: Context) -> MaintainState:
        live = self._build(ctx)
        stream = mutation_stream(
            live[0], random.Random(ctx.seed), ctx.scale["batches"], ctx.scale["batch_size"]
        )
        return MaintainState(stream, live)

    def run_pass(self, ctx: Context, state: MaintainState, op: int) -> Dict[str, Any]:
        batch = op % len(state.stream)
        if batch == 0 and op > 0:
            state.live = self._build(ctx)
        graph, hybrids, refiners = state.live
        rec: Dict[str, Any] = {"batch": batch}
        before = plan_stats().snapshot()
        with timed(ctx, rec, "primary", "perfbench"):
            with timed(ctx, rec, "apply", "core.incremental"):
                dirty = apply_mutations(list(hybrids.values()), state.stream[batch])
            for cut, refiner in refiners.items():
                with timed(ctx, rec, cut, "core"):
                    refiner.refine_incremental(hybrids[cut], dirty)
            for hybrid in hybrids.values():
                with timed(ctx, rec, "plan", "runtime.plan"):
                    plan_for(hybrid)
        after = plan_stats().snapshot()
        for name, a, b in zip(PLAN_COUNTS, before, after):
            rec[f"plan.{name}"] = b - a
        n = graph.num_vertices
        for cut, refiner in refiners.items():
            inc = refiner.last_stats.incremental
            rec[f"{cut}.frontier_ratio"] = inc.frontier / n
            rec[f"{cut}.seeded"] = float(inc.seeded)
            rec[f"{cut}.rescoring_calls"] = refiner.last_stats.rescoring_calls

        what = f"maintain pass {op} (batch {batch})"
        for cut, hybrid in hybrids.items():
            bad = [v for v in dirty if v < n and vertex_violations(hybrid, v)]
            ctx.checks.expect(not bad, f"{what} {cut}: invariants at {bad[:5]}")
            if (batch + 1) % 10 == 0:
                ctx.checks.partition(hybrid, f"{what} {cut}")
        if batch + 1 == len(state.stream):
            refs = references(graph, ("pr", "cn"))
            sims = {}
            for cut, alg in (("e2h", "pr"), ("v2h", "cn")):
                values, sim = simulate(alg, hybrids[cut])
                ctx.checks.values(alg, values, refs[alg], f"{what} {cut}")
                sims[cut] = sim["makespan_ms"]
            if not state.sims:
                state.sims = sims
            ctx.checks.expect(sims == state.sims, f"{what}: makespans differ between rounds")
        return rec

    def end_to_end(self, records) -> Tuple[float, float]:
        """(batch_p50, batch_p90) in seconds over the stream's batches."""
        batches = _batch_median(records, "primary")
        return statistics.median(batches), percentile(batches, 90)

    def per_layer(self, state: MaintainState, records) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for step in MAINTAIN_STEPS:
            values = [t * 1e3 for t in _batch_median(records, step)]
            out[f"maintain.{step}_p50_ms"] = statistics.median(values)
            out[f"maintain.{step}_p90_ms"] = percentile(values, 90)
        for cut in CUTS:
            out[f"maintain.{cut}.frontier_ratio"] = median_of(records, f"{cut}.frontier_ratio")
            out[f"maintain.{cut}.rescoring_calls"] = median_of(records, f"{cut}.rescoring_calls")
        out["maintain.seeded_ratio"] = statistics.mean(
            r[f"{cut}.seeded"] for r in records for cut in CUTS
        )
        # plan_stats() counts per batch, averaged over the stream
        for name in PLAN_COUNTS:
            out[f"plan.{name}"] = statistics.mean(r[f"plan.{name}"] for r in records)
        out["plan.patch_ratio"] = _patch_ratio(out)
        out["sim.makespan_ms"] = geomean(list(state.sims.values()))
        return out


def _batch_median(records: List[Dict[str, Any]], key: str) -> List[float]:
    """Per batch of the stream: the median over rounds of timing ``key``.

    A pass may time ``key`` more than once (two plans per batch); their
    sum is the pass's figure.
    """
    rounds: Dict[int, List[float]] = {}
    for rec in records:
        rounds.setdefault(rec["batch"], []).append(sum(rec[key]))
    return [statistics.median(times) for times in rounds.values()]


# ----------------------------------------------------------------------
# sweep: the eval engine, cold then warm, in this process
# ----------------------------------------------------------------------
SWEEP_SECTION = "exp3"
_CACHE_LINE = re.compile(r"\[cache\] \S+: (\d+) hits / (\d+) misses")


@dataclass
class SweepState:
    datasets: Tuple[str, ...]


class SweepWorkload(Workload):
    """``run_all`` over a fresh artifact cache: a cold and a warm sweep."""

    name = "sweep"
    labels = (("sweep_cold_s", "s", 1.0), ("sweep_warm_s", "s", 1.0))
    setup_repeats = 2  # each trains the cost models
    # A pass takes 8-12 s, too long for the loop timings around it to
    # speak for the 2 s warm sweep inside it; run_pass brackets each sweep
    # with loop timings of its own.
    self_scaled = True

    def setup(self, ctx: Context) -> SweepState:
        # The sweep's datasets are fixed by repro.eval.datasets (the seed
        # does not vary them), and its refiners use cost models trained
        # on first use and cached under $HOME, which run.confine() points
        # at an empty directory.  Set-up trains the models and builds the
        # datasets, so that no timed pass pays for either.
        from repro.costmodel.trained import DEFAULT_CACHE, trained_cost_models
        from repro.eval.datasets import load_dataset

        trained_cost_models.cache_clear()
        if os.path.exists(DEFAULT_CACHE):
            os.remove(DEFAULT_CACHE)
        trained_cost_models()
        datasets = ("twitter_like",)
        load_dataset.cache_clear()
        for name in datasets:
            load_dataset(name)
        return SweepState(datasets)

    def run_pass(self, ctx: Context, state: SweepState, op: int) -> Dict[str, Any]:
        from repro.eval import run_all

        rec: Dict[str, Any] = {}
        cache_dir = tempfile.mkdtemp(prefix="sweep-cache-", dir=ctx.workdir)
        # Serial, so the sweep computes in this process.  With --jobs 2 the
        # cold sweep ran in pool workers whose speed the host loop, timed
        # here, did not follow, and it spread by over 0.2 between runs.
        argv = ["--quick", "--only", SWEEP_SECTION, "--jobs", "1", "--cache-dir", cache_dir]
        outputs = []
        try:
            for key in ("primary", "secondary"):
                out, err = io.StringIO(), io.StringIO()
                before = ctx.calibrate()
                with timed(ctx, rec, key, "perfbench"):
                    with timed(ctx, rec, f"run_all.{key}", "eval.engine"):
                        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                            code = run_all.main(argv)
                to_ref = 2 * HOST_LOOP_REF_S / (before + ctx.calibrate())
                for name in (key, f"run_all.{key}"):
                    rec[name] = [t * to_ref for t in rec[name]]
                outputs.append((code, out.getvalue(), err.getvalue()))
                if key == "primary":
                    rec["cache_mb"] = _tree_bytes(cache_dir) / 1e6
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        (cold_code, cold_out, cold_err), (warm_code, warm_out, warm_err) = outputs
        cold = [(int(h), int(m)) for h, m in _CACHE_LINE.findall(cold_err)]
        warm = [(int(h), int(m)) for h, m in _CACHE_LINE.findall(warm_err)]
        ctx.checks.expect(cold_code == 0, f"sweep {op}: cold exit code {cold_code}")
        if ctx.checks.expect(bool(cold_out) and bool(cold), f"sweep {op}: no cold output"):
            rec["cells"] = sum(h + m for h, m in cold)
            rec["computed"] = sum(m for _, m in cold)
        what = f"sweep {op} warm"
        ctx.checks.expect(warm_code == 0, f"{what}: exit code {warm_code}")
        ctx.checks.expect(warm_out == cold_out, f"{what}: stdout differs from the cold sweep's")
        if ctx.checks.expect(bool(warm), f"{what}: no [cache] line"):
            rec["cached"] = sum(h for h, _ in warm)
            ctx.checks.expect(rec["cached"] == rec.get("cells"), f"{what}: recomputed cells")
        rec["hits"] = sum(h for h, _ in cold + warm)
        rec["misses"] = sum(m for _, m in cold + warm)
        return rec

    def end_to_end(self, records) -> Tuple[float, float]:
        """(sweep_cold_s, sweep_warm_s): median cold and warm sweep."""
        return sample_median(records, "primary"), sample_median(records, "secondary")

    def per_layer(self, state: SweepState, records) -> Dict[str, float]:
        out = {"engine.cache_mb": median_of(records, "cache_mb")}
        for name in ("cells", "computed", "cached", "hits", "misses"):
            if all(name in r for r in records):
                out[f"engine.{name}"] = median_of(records, name)
        return out


def _tree_bytes(root: str) -> int:
    return sum(
        os.path.getsize(os.path.join(dirpath, name))
        for dirpath, _dirs, files in os.walk(root)
        for name in files
    )


WORKLOADS: Dict[str, Callable[[], Workload]] = {
    "refine": RefineWorkload,
    "run": RunWorkload,
    "maintain": MaintainWorkload,
    "sweep": SweepWorkload,
}
