"""Algorithm MV2H: composite vertex-cut → hybrid refinement (Section 6.3).

The vertex-cut counterpart of ME2H: candidate units are the input's
v-cut node copies ``(v, E^v_i)`` (each input edge belongs to exactly one
unit, so every output partition keeps the vertex-cut's disjoint edge
sets); Init builds large shared cores, VAssign routes the leftovers
through the set-cover heuristic, then a VMerge pass per output partition
promotes v-cut nodes to e-cut nodes where budget allows (reducing the
communication cost exactly as V2H does), and MAssign finishes the master
mappings.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Set, Tuple

from repro.core.budget import compute_budget
from repro.core.candidates import bfs_order
from repro.core.gaincache import GainCache
from repro.core.getdest import get_dest
from repro.core.massign import massign
from repro.core.me2h import CompositeStats, Unit, _GuardSet
from repro.core.tracker import CostTracker
from repro.core.v2h import V2H
from repro.costmodel.features import vertex_features
from repro.costmodel.guarded import guard_cost_model
from repro.costmodel.model import CostModel
from repro.integrity.guard import (
    GuardConfig,
    GuardStats,
    RefinementBudgetExceeded,
)
from repro.partition.composite import CompositePartition
from repro.partition.hybrid import HybridPartition
from repro.runtime.clusterspec import (
    ClusterSpec,
    coerce_cluster_spec,
    effective_spec,
)


class MV2H:
    """Composite vertex-cut refiner for a batch of algorithms."""

    def __init__(
        self,
        cost_models: Dict[str, CostModel],
        budget_slack: float = 1.2,
        vmerge_passes: int = 1,
        guard_config: Optional[GuardConfig] = None,
        use_gain_cache: bool = True,
        cluster_spec: Optional[ClusterSpec] = None,
    ) -> None:
        if not cost_models:
            raise ValueError("MV2H needs at least one cost model")
        self.cost_models = dict(cost_models)
        self.budget_slack = budget_slack
        self.vmerge_passes = vmerge_passes
        self.guard_config = guard_config
        self.use_gain_cache = use_gain_cache
        self.cluster_spec = effective_spec(coerce_cluster_spec(cluster_spec))
        self.last_stats: Optional[CompositeStats] = None
        # Persistent per-algorithm dirty-region workers (DESIGN §15).
        self._maintainers: Dict[str, V2H] = {}

    # ------------------------------------------------------------------
    def refine_incremental(
        self, composite: CompositePartition, dirty_vertices
    ) -> CompositePartition:
        """Dirty-region maintenance of a composite's outputs (DESIGN §15).

        The vertex-cut counterpart of
        :meth:`~repro.core.me2h.ME2H.refine_incremental`: each output
        gets an in-place incremental V2H pass from a persistent
        per-algorithm worker, then the composite index is rebuilt once.
        """
        stats = CompositeStats()
        for name in composite.names:
            worker = self._maintainers.get(name)
            if worker is None:
                worker = V2H(
                    self.cost_models[name],
                    budget_slack=self.budget_slack,
                    vmerge_passes=self.vmerge_passes,
                    guard_config=self.guard_config,
                    use_gain_cache=self.use_gain_cache,
                    cluster_spec=self.cluster_spec,
                )
                self._maintainers[name] = worker
            worker.refine_incremental(
                composite.partitions[name], dirty_vertices
            )
            stats.absorb(name, worker.last_stats)
        composite.rebuild_index()
        self.last_stats = stats
        return composite

    # ------------------------------------------------------------------
    def refine(self, partition: HybridPartition) -> CompositePartition:
        """Produce a composite partition from a vertex-cut input."""
        graph = partition.graph
        n = partition.num_fragments
        names = list(self.cost_models)
        stats = CompositeStats()

        for name, model in self.cost_models.items():
            input_tracker = CostTracker(partition, model, spec=self.cluster_spec)
            stats.budgets[name] = compute_budget(input_tracker, self.budget_slack)
            input_tracker.detach()

        outputs: Dict[str, HybridPartition] = {
            name: HybridPartition(graph, n) for name in names
        }
        models = dict(self.cost_models)
        if self.guard_config is not None:
            for name in names:
                stats.guard[name] = GuardStats()
                models[name] = guard_cost_model(
                    models[name],
                    on_intervention=stats.guard[name].note_cost_model_intervention,
                )
        caches: Dict[str, GainCache] = {}
        if self.use_gain_cache:
            for name in names:
                caches[name] = GainCache(outputs[name], models[name])
                stats.gain_cache[name] = caches[name].stats
                models[name] = caches[name].model
        trackers: Dict[str, CostTracker] = {
            name: CostTracker(outputs[name], models[name], spec=self.cluster_spec)
            for name in names
        }
        for name, cache in caches.items():
            cache.bind(trackers[name])
        guards = _GuardSet(outputs, self.guard_config, stats)

        units_by_fragment = self._units(partition)

        start = time.perf_counter()
        leftovers = self._phase_init(units_by_fragment, trackers, stats, guards)
        stats.phase_seconds["init"] = time.perf_counter() - start

        start = time.perf_counter()
        self._phase_vassign(leftovers, trackers, stats, guards, caches)
        stats.phase_seconds["vassign"] = time.perf_counter() - start

        start = time.perf_counter()
        for name in names:
            if guards.exhausted:
                break
            merger = V2H(
                models[name],
                enable_vmigrate=False,
                enable_vmerge=True,
                enable_massign=False,
                vmerge_passes=self.vmerge_passes,
                use_gain_cache=self.use_gain_cache,
                cluster_spec=self.cluster_spec,
            )
            merger.refine(outputs[name], in_place=True)
        stats.phase_seconds["vmerge"] = time.perf_counter() - start

        start = time.perf_counter()
        for name in names:
            if guards.exhausted:
                break
            try:
                massign(
                    trackers[name],
                    guard=guards.guards.get(name),
                    cache=caches.get(name),
                )
            except RefinementBudgetExceeded:
                guards.exhausted = True
        stats.phase_seconds["massign"] = time.perf_counter() - start

        guards.finish()
        for tracker in trackers.values():
            tracker.detach()
        for cache in caches.values():
            cache.detach()
        self.last_stats = stats
        return CompositePartition(outputs)

    # ------------------------------------------------------------------
    def _units(self, partition: HybridPartition) -> List[List[Tuple[int, Unit]]]:
        """Per input fragment: disjoint ``(v, edges)`` units in BFS order.

        Each input edge is claimed by the unit of its first endpoint in
        BFS order, so units partition the fragment's edge set and the
        output partitions inherit the vertex-cut's disjointness.
        """
        per_fragment: List[List[Tuple[int, Unit]]] = []
        for fragment in partition.fragments:
            fid = fragment.fid
            order = bfs_order(partition, fid)
            claimed = set()
            units: List[Tuple[int, Unit]] = []
            for v in order:
                # Sorted: incident() is a frozenset; unit edge order must
                # be stable across builds for reproducible assignment.
                edges = tuple(
                    e for e in sorted(fragment.incident(v)) if e not in claimed
                )
                claimed.update(edges)
                if edges or fragment.incident_count(v) == 0:
                    units.append((fid, (v, edges)))
            per_fragment.append(units)
        return per_fragment

    def _price(self, tracker: CostTracker, output: HybridPartition, unit: Unit, fid: int) -> float:
        """h_A of the unit's copy if placed at ``fid`` of the output."""
        v, edges = unit
        graph = output.graph
        d_in = sum(1 for e in edges if e[1] == v or not graph.directed)
        d_out = sum(1 for e in edges if e[0] == v or not graph.directed)
        if output.fragments[fid].has_vertex(v):
            base = vertex_features(output, v, fid, tracker.avg_degree)
        else:
            base = {
                "d_in_L": 0.0,
                "d_out_L": 0.0,
                "d_in_G": float(graph.in_degree(v)),
                "d_out_G": float(graph.out_degree(v)),
                "r": float(output.mirrors(v)),
                "D": float(tracker.avg_degree),
                "I": 1.0,
                "d_L": 0.0,
                "d_G": float(output.global_incident_count(v)),
                "M": 0.0,
            }
        features = dict(base)
        features["d_in_L"] += d_in
        features["d_out_L"] += d_out
        features["d_L"] += len(edges)
        features["I"] = 0.0 if features["d_L"] >= features["d_G"] else 1.0
        return tracker.cost_model.h_value(features)

    @staticmethod
    def _assign_unit(output: HybridPartition, unit: Unit, fid: int) -> None:
        v, edges = unit
        if edges:
            for edge in edges:
                output.add_edge_to(fid, edge)
        else:
            output.add_vertex_to(fid, v)

    def _phase_init(
        self,
        units_by_fragment: List[List[Tuple[int, Unit]]],
        trackers: Dict[str, CostTracker],
        stats: CompositeStats,
        guards: Optional[_GuardSet] = None,
    ) -> List[Tuple[int, Unit, Set[str]]]:
        """Shared BFS prefixes become the cores (Section 6.3 VAssign init)."""
        if guards is None:
            guards = _GuardSet({}, None, stats)
        leftovers: List[Tuple[int, Unit, Set[str]]] = []
        for units in units_by_fragment:
            for fid, unit in units:
                if guards.exhausted:
                    leftovers.append((fid, unit, set(trackers)))
                    continue
                pending: Set[str] = set()
                accepted_all = True
                for name, tracker in trackers.items():
                    price = self._price(tracker, tracker.partition, unit, fid)
                    old = tracker.copy_comp_cost(unit[0], fid)
                    if (
                        tracker.projected_load(
                            fid, tracker.comp_cost(fid) - old + price
                        )
                        <= stats.budgets[name]
                    ):
                        self._assign_unit(tracker.partition, unit, fid)
                        guards.step(name)
                    else:
                        pending.add(name)
                        accepted_all = False
                if accepted_all:
                    stats.core_units += 1
                if pending:
                    leftovers.append((fid, unit, pending))
        return leftovers

    def _phase_vassign(
        self,
        leftovers: List[Tuple[int, Unit, Set[str]]],
        trackers: Dict[str, CostTracker],
        stats: CompositeStats,
        guards: Optional[_GuardSet] = None,
        caches: Optional[Dict[str, GainCache]] = None,
    ) -> None:
        """Route leftover units through GetDest; split-free fallback.

        Unlike ME2H, a vertex-cut unit can always be absorbed somewhere
        (its edges are private to the unit), so units that fit nowhere
        under budget go to the currently cheapest fragment directly —
        there is no separate EAssign stage in Section 6.3.
        """
        if guards is None:
            guards = _GuardSet({}, None, stats)
        n = next(iter(trackers.values())).partition.num_fragments
        underloaded: Dict[str, Set[int]] = {
            name: {
                fid
                for fid in range(n)
                if tracker.load(fid) < stats.budgets[name]
            }
            for name, tracker in trackers.items()
        }
        for _origin, unit, pending in leftovers:
            def fits(name: str, fid: int) -> bool:
                tracker = trackers[name]
                price = self._price(tracker, tracker.partition, unit, fid)
                old = tracker.copy_comp_cost(unit[0], fid)
                return (
                    tracker.projected_load(
                        fid, tracker.comp_cost(fid) - old + price
                    )
                    <= stats.budgets[name]
                )

            if guards.exhausted:
                # Budget gone: cheapest-fragment fallback keeps every
                # unit placed (the outputs must still cover the graph).
                destinations = {}
            else:
                destinations = get_dest(pending, underloaded, fits)
            for name in pending:
                tracker = trackers[name]
                cache = caches.get(name) if caches else None
                fid = destinations.get(name)
                if fid is None:
                    if cache is not None:
                        fid = cache.index.cheapest()
                    else:
                        fid = min(range(n), key=tracker.load)
                    stats.eassign_units += 1
                else:
                    stats.vassign_units += 1
                self._assign_unit(tracker.partition, unit, fid)
                guards.step(name)
                if tracker.load(fid) >= stats.budgets[name]:
                    underloaded[name].discard(fid)
