"""Algorithm ME2H: composite edge-cut → hybrid refinement (Section 6.2, Fig. 6).

Given one edge-cut partition and the cost models of ``k`` algorithms,
ME2H produces ``k`` hybrid partitions at once — represented compactly as
a :class:`~repro.partition.composite.CompositePartition` — while keeping
the composite replication ratio ``f_c`` low:

* **Init** (Fig. 7) walks each input fragment in BFS order and keeps the
  longest affordable prefix *simultaneously* for every algorithm — those
  shared prefixes become the cores ``C_i``, stored once;
* **VAssign** routes each leftover candidate through
  :func:`~repro.core.getdest.get_dest`, covering as many algorithms per
  placed copy as possible (greedy set cover);
* **EAssign** splits candidates that fit nowhere whole — the super-nodes
  — edge by edge onto the cheapest fragments of each algorithm's
  partition;
* **MAssign** finishes each partition's master mapping as in E2H.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.budget import compute_budget
from repro.core.candidates import bfs_order
from repro.core.dirty import IncrementalStats
from repro.core.e2h import E2H, RefineStats
from repro.core.gaincache import GainCache, GainCacheStats
from repro.core.getdest import get_dest
from repro.core.massign import massign
from repro.core.tracker import CostTracker
from repro.costmodel.guarded import guard_cost_model
from repro.costmodel.model import CostModel
from repro.integrity.guard import (
    GuardConfig,
    GuardStats,
    RefinementBudgetExceeded,
    RefinementGuard,
)
from repro.partition.composite import CompositePartition
from repro.partition.fragment import Edge
from repro.partition.hybrid import HybridPartition
from repro.runtime.clusterspec import (
    ClusterSpec,
    coerce_cluster_spec,
    effective_spec,
)

Unit = Tuple[int, Tuple[Edge, ...]]  # (vertex, incident edges) candidate


@dataclass
class CompositeStats:
    """Bookkeeping of one composite refinement run (feeds Exp-4)."""

    budgets: Dict[str, float] = field(default_factory=dict)
    core_units: int = 0
    vassign_units: int = 0
    eassign_units: int = 0
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    guard: Dict[str, GuardStats] = field(default_factory=dict)
    gain_cache: Dict[str, GainCacheStats] = field(default_factory=dict)
    #: Summed h/g funnel requests across outputs (incremental passes).
    rescoring_calls: int = 0
    #: Per-output dirty-region scopes (incremental passes only).
    incremental: Dict[str, "IncrementalStats"] = field(default_factory=dict)

    def absorb(self, name: str, wstats: RefineStats) -> None:
        """Fold one output's incremental-pass stats in under ``name``."""
        self.budgets[name] = wstats.budget
        if wstats.guard is not None:
            self.guard[name] = wstats.guard
        if wstats.gain_cache is not None:
            self.gain_cache[name] = wstats.gain_cache
        self.phase_seconds[name] = sum(wstats.phase_seconds.values())
        self.rescoring_calls += wstats.rescoring_calls
        self.incremental[name] = wstats.incremental


class _GuardSet:
    """Per-output guards of a composite refinement.

    The composite refiners build ``k`` output partitions *up* from
    empty, so two semantics differ from the single-partition guard:
    coverage invariants are deferred to the final check
    (``coverage_checks=False``), and a budget exhaustion must not abort
    — the remaining units still need homes for the outputs to be valid.
    Exhaustion instead flips :attr:`exhausted`, which the phases read to
    fall back to cheapest-fragment assignment (the degraded-but-valid
    "best so far" of a constructive algorithm).
    """

    def __init__(
        self,
        outputs: Dict[str, HybridPartition],
        config: Optional[GuardConfig],
        stats: CompositeStats,
    ) -> None:
        self.guards: Dict[str, RefinementGuard] = {}
        self.exhausted = False
        if config is None:
            return
        config = dataclasses.replace(config, coverage_checks=False)
        for name, output in outputs.items():
            gstats = stats.guard.setdefault(name, GuardStats())
            self.guards[name] = RefinementGuard(
                output, config, stats=gstats, chaos_salt=name
            )

    def step(self, name: str) -> None:
        guard = self.guards.get(name)
        if guard is None or self.exhausted:
            return
        try:
            guard.step()
        except RefinementBudgetExceeded:
            self.exhausted = True

    def finish(self) -> None:
        for guard in self.guards.values():
            guard.finish(early_stopped=self.exhausted)


class ME2H:
    """Composite edge-cut refiner for a batch of algorithms."""

    def __init__(
        self,
        cost_models: Dict[str, CostModel],
        budget_slack: float = 1.2,
        use_getdest: bool = True,
        guard_config: Optional[GuardConfig] = None,
        use_gain_cache: bool = True,
        cluster_spec: Optional[ClusterSpec] = None,
    ) -> None:
        if not cost_models:
            raise ValueError("ME2H needs at least one cost model")
        self.cost_models = dict(cost_models)
        self.budget_slack = budget_slack
        # Ablation switch: with GetDest disabled, VAssign places each
        # algorithm's leftover independently (first feasible fragment),
        # forfeiting the set-cover sharing that keeps f_c low.
        self.use_getdest = use_getdest
        self.guard_config = guard_config
        self.use_gain_cache = use_gain_cache
        self.cluster_spec = effective_spec(coerce_cluster_spec(cluster_spec))
        self.last_stats: Optional[CompositeStats] = None
        # Persistent per-algorithm dirty-region workers: their tracker
        # seeds survive across mutation batches (DESIGN §15).
        self._maintainers: Dict[str, E2H] = {}

    # ------------------------------------------------------------------
    def refine_incremental(
        self, composite: CompositePartition, dirty_vertices
    ) -> CompositePartition:
        """Dirty-region maintenance of a composite's outputs (DESIGN §15).

        Each output partition gets an in-place incremental E2H pass over
        the dirty frontier, run by a persistent per-algorithm worker so
        tracker seeds carry over from batch to batch (the first pass on
        a given composite is cold).  The composite core/residual index
        is rebuilt once at the end.  Per-output bookkeeping lands in
        :attr:`last_stats`.
        """
        stats = CompositeStats()
        for name in composite.names:
            worker = self._maintainers.get(name)
            if worker is None:
                worker = E2H(
                    self.cost_models[name],
                    budget_slack=self.budget_slack,
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
        """Produce a composite partition from an edge-cut input."""
        graph = partition.graph
        n = partition.num_fragments
        names = list(self.cost_models)
        stats = CompositeStats()

        # Budgets from the *input* partition's per-model costs (Fig. 6 l.1).
        # Capacity-aware: per-unit-speed budget when a spec is active.
        for name, model in self.cost_models.items():
            input_tracker = CostTracker(partition, model, spec=self.cluster_spec)
            stats.budgets[name] = compute_budget(input_tracker, self.budget_slack)
            input_tracker.detach()

        # Fresh output partitions and trackers, one per algorithm.
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
        leftovers = self._phase_init(
            units_by_fragment, trackers, stats, guards, caches
        )
        stats.phase_seconds["init"] = time.perf_counter() - start

        start = time.perf_counter()
        residue = self._phase_vassign(leftovers, trackers, stats, guards, caches)
        stats.phase_seconds["vassign"] = time.perf_counter() - start

        start = time.perf_counter()
        self._phase_eassign(residue, trackers, stats, guards, caches)
        stats.phase_seconds["eassign"] = time.perf_counter() - start

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
    def _units(self, partition: HybridPartition) -> List[List[Unit]]:
        """Candidate units per input fragment: e-cut homes + full edges."""
        graph = partition.graph
        per_fragment: List[List[Unit]] = [[] for _ in range(partition.num_fragments)]
        for v in graph.vertices:
            home = partition.designated_home(v)
            if home is None:
                home = partition.master(v)
            per_fragment[home].append((v, tuple(graph.incident_edges(v))))
        # BFS order within each fragment preserves locality (procedure Init).
        ordered: List[List[Unit]] = []
        for fid, units in enumerate(per_fragment):
            rank = {v: pos for pos, v in enumerate(bfs_order(partition, fid))}
            units.sort(key=lambda unit: rank.get(unit[0], len(rank)))
            ordered.append(units)
        return ordered

    @staticmethod
    def _assign_unit(
        output: HybridPartition, unit: Unit, fid: int
    ) -> None:
        v, edges = unit
        if edges:
            for edge in edges:
                output.add_edge_to(fid, edge)
        else:
            output.add_vertex_to(fid, v)
        output.set_master(v, fid)

    def _price(self, trackers, name: str, unit: Unit, caches=None) -> float:
        if caches:
            cache = caches.get(name)
            if cache is not None:
                return cache.price_as_ecut(unit[0])
        return trackers[name].price_as_ecut(unit[0])

    def _phase_init(
        self,
        units_by_fragment: List[List[Unit]],
        trackers: Dict[str, CostTracker],
        stats: CompositeStats,
        guards: Optional[_GuardSet] = None,
        caches: Optional[Dict[str, GainCache]] = None,
    ) -> List[Tuple[int, Unit, Set[str]]]:
        """Procedure Init: shared BFS prefixes become the cores C_i.

        Returns leftovers as ``(origin fragment, unit, algorithms still
        needing a destination)``.
        """
        if guards is None:
            guards = _GuardSet({}, None, stats)
        leftovers: List[Tuple[int, Unit, Set[str]]] = []
        for fid, units in enumerate(units_by_fragment):
            for unit in units:
                if guards.exhausted:
                    # Budget gone: defer everything to the fast path.
                    leftovers.append((fid, unit, set(trackers)))
                    continue
                pending: Set[str] = set()
                accepted_all = True
                for name, tracker in trackers.items():
                    price = self._price(trackers, name, unit, caches)
                    if (
                        tracker.projected_load(
                            fid, tracker.comp_cost(fid) + price
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
    ) -> List[Tuple[Unit, Set[str]]]:
        """VAssign (Fig. 6 lines 8-13): set-cover destinations for leftovers."""
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
        residue: List[Tuple[Unit, Set[str]]] = []
        for _origin, unit, pending in leftovers:
            if guards.exhausted:
                residue.append((unit, set(pending)))
                continue
            prices = {
                name: self._price(trackers, name, unit, caches)
                for name in pending
            }

            def fits(name: str, fid: int) -> bool:
                tracker = trackers[name]
                return (
                    tracker.projected_load(
                        fid, tracker.comp_cost(fid) + prices[name]
                    )
                    <= stats.budgets[name]
                )

            if self.use_getdest:
                destinations = get_dest(pending, underloaded, fits)
            else:
                destinations = {}
                for name in pending:
                    for fid in sorted(underloaded.get(name, ())):
                        if fits(name, fid):
                            destinations[name] = fid
                            break
            for name, fid in destinations.items():
                self._assign_unit(trackers[name].partition, unit, fid)
                stats.vassign_units += 1
                guards.step(name)
                if trackers[name].load(fid) >= stats.budgets[name]:
                    underloaded[name].discard(fid)
            unplaced = pending - set(destinations)
            if unplaced:
                residue.append((unit, unplaced))
        return residue

    def _phase_eassign(
        self,
        residue: List[Tuple[Unit, Set[str]]],
        trackers: Dict[str, CostTracker],
        stats: CompositeStats,
        guards: Optional[_GuardSet] = None,
        caches: Optional[Dict[str, GainCache]] = None,
    ) -> None:
        """EAssign (Fig. 6 lines 14-18): split leftover units edge by edge."""
        for unit, names in residue:
            v, edges = unit
            for name in names:
                tracker = trackers[name]
                cache = caches.get(name) if caches else None
                output = tracker.partition
                n = output.num_fragments
                stats.eassign_units += 1
                if not edges:
                    if cache is not None:
                        target = cache.index.cheapest()
                    else:
                        target = min(range(n), key=tracker.load)
                    output.add_vertex_to(target, v)
                    if guards is not None:
                        guards.step(name)
                    continue
                for edge in edges:
                    if cache is not None:
                        target = cache.index.cheapest()
                    else:
                        target = min(range(n), key=tracker.load)
                    output.add_edge_to(target, edge)
                    if guards is not None:
                        guards.step(name)
