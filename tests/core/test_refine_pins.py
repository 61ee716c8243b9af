"""Pinned outputs of every refiner's full and dirty-region passes.

Each scenario runs a refiner's ``refine(capture_seed=True)``, applies a
fixed :class:`~repro.core.incremental.MutationBatch`, and runs
``refine_incremental`` twice (the second pass warm-starts from the
first pass's seed).  Every run records its partition digest, the
comparable :class:`~repro.core.e2h.RefineStats` fields, the
rescoring-call count, the dirty-region scope, the gain-cache and guard
counters and, for the parallel refiners, the simulated per-phase
timing.  The result is compared against ``golden/refine_pins.json``.

The differential suites compare two paths that share one driver, so a
driver bug shows on both sides; this fixture pins the driver's output
itself.  Scenarios cover {E2H, V2H, ParE2H, ParV2H} x {plain, guarded
with chaos and a step budget, skewed cluster}, a locality-preserving
grid input whose dirty frontier touches few fragments, a copy-based
(cold, unseeded) incremental pass, a lapsed mutation journal, and the
composite ME2H/MV2H maintenance passes.

The Table 5 builtin cost models are pure-Python deterministic, so
values are compared exactly up to 1e-9 relative tolerance on floats.
Regenerate after an *intentional* behaviour change with::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/core/test_refine_pins.py
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import pytest

from repro.core import E2H, ME2H, MV2H, ParE2H, ParV2H, V2H
from repro.core.incremental import MutationBatch, apply_mutations
from repro.costmodel.library import builtin_cost_model, builtin_cost_models
from repro.graph.generators import chung_lu_power_law, road_grid
from repro.integrity.chaos import ChaosPlan
from repro.integrity.guard import GuardConfig
from repro.partition import hybrid
from repro.partition.hybrid import HybridPartition
from repro.partition.serialize import partition_to_dict
from repro.runtime.clusterspec import ClusterSpec

from tests.conftest import make_edge_cut, make_vertex_cut

FIXTURE = Path(__file__).parent / "golden" / "refine_pins.json"
REL_TOL = 1e-9
N = 4

CONFIGS = {
    "plain": {},
    "guarded": {
        "guard_config": GuardConfig(
            check_interval=4,
            chaos=ChaosPlan(seed=5, corrupt_rate=0.2),
            max_steps=150,
        )
    },
    "skewed": {
        "cluster_spec": ClusterSpec(
            speeds=(0.25, 1.0, 1.0, 1.0),
            bandwidths=(1.0, 1.0, 1.0, 0.5),
            links=((1, 2, 0.25),),
        )
    },
}

#: refiner class and input cut per single-partition refiner
SINGLE = {
    "E2H": (E2H, "edge"),
    "V2H": (V2H, "vertex"),
    "ParE2H": (ParE2H, "edge"),
    "ParV2H": (ParV2H, "vertex"),
}
COMPOSITE = {"ME2H": (ME2H, "edge"), "MV2H": (MV2H, "vertex")}

#: two fixed mutation batches: deletions, insertions, and graph growth
BATCHES = (
    "- 0 1\n- 8 3\n- 43 42\n+ 1 150\n+ 7 90\n+ 42 3\n",
    "- 159 0\n+ 100 2\n+ 5 160\n",
)

#: mutations local to one stripe of the grid input
GRID_BATCH = "+ 14 40\n- 26 27\n"


def _graph():
    return chung_lu_power_law(160, 5.0, exponent=2.1, directed=True, seed=11)


def _input(cut):
    make = make_edge_cut if cut == "edge" else make_vertex_cut
    return make(_graph(), N, seed=3)


def _stripe(v):
    """Unbalanced row stripes of a 12x12 grid: 6, 3, 2 and 1 rows."""
    row = v // 12
    return 0 if row < 6 else 1 if row < 9 else 2 if row < 11 else 3


def _grid_input(cut):
    graph = road_grid(12, 12)
    if cut == "edge":
        assignment = [_stripe(v) for v in range(graph.num_vertices)]
        return HybridPartition.from_vertex_assignment(graph, assignment, N)
    assignment = {e: _stripe(min(e)) for e in graph.edges()}
    return HybridPartition.from_edge_assignment(graph, assignment, N)


def _digest(partition):
    payload = partition_to_dict(partition)
    payload["roles"] = sorted(
        (v, fid, partition.role(v, fid).value)
        for v, hosts in partition.vertex_fragments()
        for fid in hosts
        if partition.fragments[fid].has_vertex(v)
    )
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _cache(stats):
    if stats is None:
        return None
    return {"hits": stats.hits, "misses": stats.misses, **stats.as_dict()}


def _guard(stats):
    if stats is None:
        return None
    record = dict(vars(stats))
    record.pop("overhead_seconds")
    return record


def _incremental(inc):
    return None if inc is None else dict(vars(inc))


def _single_record(partition, stats, profile=None):
    record = {
        "digest": _digest(partition),
        "stats": {
            key: getattr(stats, key)
            for key in (
                "budget",
                "overloaded",
                "candidates",
                "emigrated",
                "split_vertices",
                "split_edges",
                "vmigrated",
                "vmerged",
                "master_moves",
                "cost_before",
                "cost_after",
            )
        },
        "phases": sorted(stats.phase_seconds),
        "rescoring_calls": stats.rescoring_calls,
        "incremental": _incremental(stats.incremental),
        "gain_cache": _cache(stats.gain_cache),
        "guard": _guard(stats.guard),
    }
    if profile is not None:
        record["phase_times"] = profile.phase_times
        record["phase_supersteps"] = profile.phase_supersteps
        record["total_time"] = profile.total_time
    return record


def _run_single(refiner, call):
    """Normalize the sequential / parallel return shapes into a record."""
    result = call()
    if isinstance(result, tuple):
        partition, profile = result
        return partition, _single_record(partition, profile.stats, profile)
    return result, _single_record(result, refiner.last_stats)


def _single_scenario(name, config):
    cls, cut = SINGLE[name]
    refiner = cls(builtin_cost_model("pr"), **CONFIGS[config])
    records = {}
    partition, records["refine"] = _run_single(
        refiner,
        lambda: refiner.refine(_input(cut), capture_seed=True),
    )
    for i, text in enumerate(BATCHES):
        dirty = apply_mutations(partition, MutationBatch.parse(text))
        partition, records[f"incremental_{i}"] = _run_single(
            refiner, lambda: refiner.refine_incremental(partition, dirty)
        )
    return records


def _grid_scenario(name):
    """Locality-preserving input: the dirty frontier touches few fragments."""
    cls, cut = SINGLE[name]
    refiner = cls(builtin_cost_model("pr"))
    records = {}
    partition, records["refine"] = _run_single(
        refiner, lambda: refiner.refine(_grid_input(cut), capture_seed=True)
    )
    dirty = apply_mutations(partition, MutationBatch.parse(GRID_BATCH))
    _part, records["incremental"] = _run_single(
        refiner, lambda: refiner.refine_incremental(partition, dirty)
    )
    return records


def _copy_scenario(name):
    """Out-of-place pass: the copy cannot replay the seed, so it is cold."""
    cls, cut = SINGLE[name]
    refiner = cls(builtin_cost_model("pr"))
    partition, _ = _run_single(
        refiner, lambda: refiner.refine(_input(cut), capture_seed=True)
    )
    dirty = apply_mutations(partition, MutationBatch.parse(BATCHES[0]))
    _copy, record = _run_single(
        refiner,
        lambda: refiner.refine_incremental(partition, dirty, in_place=False),
    )
    return record


def _lapsed_scenario(name, monkeypatch):
    """A tiny journal lapses mid-pass: cold tracker, whole-frontier MAssign."""
    monkeypatch.setattr(hybrid, "JOURNAL_CAP", 8)
    cls, cut = SINGLE[name]
    refiner = cls(builtin_cost_model("pr"))
    partition, _ = _run_single(
        refiner, lambda: refiner.refine(_input(cut), capture_seed=True)
    )
    dirty = apply_mutations(partition, MutationBatch.parse(BATCHES[0]))
    _part, record = _run_single(
        refiner, lambda: refiner.refine_incremental(partition, dirty)
    )
    return record


def _composite_record(composite, stats):
    return {
        "digests": {
            name: _digest(composite.partition_for(name))
            for name in composite.names
        },
        "budgets": stats.budgets,
        "units": [stats.core_units, stats.vassign_units, stats.eassign_units],
        "rescoring_calls": stats.rescoring_calls,
        "incremental": {
            name: _incremental(inc) for name, inc in stats.incremental.items()
        },
        "gain_cache": {
            name: _cache(cs) for name, cs in stats.gain_cache.items()
        },
        "guard": {name: _guard(gs) for name, gs in stats.guard.items()},
    }


def _composite_scenario(name, config):
    cls, cut = COMPOSITE[name]
    refiner = cls(builtin_cost_models(("pr", "cn")), **CONFIGS[config])
    records = {}
    composite = refiner.refine(_input(cut))
    records["refine"] = _composite_record(composite, refiner.last_stats)
    for i, text in enumerate(BATCHES):
        dirty = apply_mutations(composite, MutationBatch.parse(text))
        composite = refiner.refine_incremental(composite, dirty)
        records[f"incremental_{i}"] = _composite_record(
            composite, refiner.last_stats
        )
    return records


def _compute(monkeypatch):
    pins = {}
    for name in SINGLE:
        for config in CONFIGS:
            pins[f"{name}/{config}"] = _single_scenario(name, config)
        pins[f"{name}/copy"] = _copy_scenario(name)
        pins[f"{name}/grid"] = _grid_scenario(name)
    for name in COMPOSITE:
        for config in CONFIGS:
            pins[f"{name}/{config}"] = _composite_scenario(name, config)
    # Last: the patched journal cap stays in force until teardown.
    for name in SINGLE:
        pins[f"{name}/lapsed"] = _lapsed_scenario(name, monkeypatch)
    return pins


def _assert_close(expected, actual, path=""):
    if isinstance(expected, dict):
        assert isinstance(actual, dict), f"{path}: not a dict"
        assert sorted(expected) == sorted(actual), f"{path}: key mismatch"
        for key in expected:
            _assert_close(expected[key], actual[key], f"{path}/{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list), f"{path}: not a list"
        assert len(expected) == len(actual), f"{path}: length mismatch"
        for i, (e, a) in enumerate(zip(expected, actual)):
            _assert_close(e, a, f"{path}[{i}]")
    elif isinstance(expected, float):
        assert actual == pytest.approx(expected, rel=REL_TOL), (
            f"{path}: {actual!r} != pinned {expected!r}"
        )
    else:
        assert expected == actual, f"{path}: {actual!r} != pinned {expected!r}"


def test_refine_outputs_match_pins(monkeypatch):
    monkeypatch.delenv("REPRO_CHAOS_SEED", raising=False)
    actual = json.loads(json.dumps(_compute(monkeypatch)))
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        FIXTURE.parent.mkdir(exist_ok=True)
        FIXTURE.write_text(json.dumps(actual, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"regenerated {FIXTURE.name}")
    assert FIXTURE.exists(), (
        f"missing pin fixture {FIXTURE}; regenerate with REPRO_REGEN_GOLDEN=1"
    )
    _assert_close(json.loads(FIXTURE.read_text()), actual, path="pins")
