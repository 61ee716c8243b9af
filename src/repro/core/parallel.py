"""Parallel refiners ParE2H / ParV2H / ParME2H / ParMV2H (Section 5.3, 6.4).

The parallel refiners execute the same phases as their sequential
counterparts, restructured into BSP supersteps on the runtime simulator:

* **parallel EMigrate** — each overloaded worker ships a small batch of
  migration candidates to the underloaded workers round-robin; receivers
  accept within budget or bounce the candidate to the next worker;
* **parallel ESplit / VMerge** — overloaded (resp. underloaded) workers
  process batches of edges (resp. v-cut promotions) per superstep against
  the shared cost state, synchronized at each barrier;
* **parallel MAssign** — each worker assigns batches of the border
  vertices it masters by Eq. 5 against shared accumulators.

Because the simulator executes supersteps on one machine, intra-superstep
updates are serialized (the shared state a worker sees is at most one
batch stale, never a full superstep stale); the cost clock still charges
genuine per-superstep maxima, which is what the Exp-3/4/5 timing figures
measure.  Charges: ``c1``/``c2`` abstract ops per h/g evaluation and the
per-candidate message sizes of the Section 5.3 analysis.

``ParME2H`` / ``ParMV2H`` run the composite logic of ME2H / MV2H (whose
Init/GetDest procedures are fragment-local, Section 6.4) and charge the
cluster from each phase's per-worker unit counts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.gaincache import GainCache
from repro.core.me2h import ME2H, CompositeStats
from repro.core.mv2h import MV2H
from repro.core.operations import emigrate, split_migrate_edge, vmerge, vmigrate
from repro.core.session import Phase, RefineSession, RefineStats, SessionRefiner
from repro.core.tracker import CostTracker, TrackerSeed
from repro.core.v2h import merged_price
from repro.costmodel.model import CostModel
from repro.integrity.guard import GuardConfig, RefinementGuard
from repro.partition.composite import CompositePartition
from repro.partition.hybrid import HybridPartition, NodeRole
from repro.runtime.bsp import Cluster
from repro.runtime.clusterspec import (
    ClusterSpec,
    coerce_cluster_spec,
    effective_spec,
)
from repro.runtime.costclock import CostClock

C1_OPS = 4.0  # abstract ops per h_A evaluation (Section 5.3's c1)
C2_OPS = 4.0  # abstract ops per g_A evaluation (c2)
STATE_SYNC_BYTES = 8.0  # shared-state delta per worker per superstep (c3)


@dataclass
class RefinementProfile:
    """Per-phase simulated timing of one parallel refinement."""

    phase_times: Dict[str, float] = field(default_factory=dict)
    phase_supersteps: Dict[str, int] = field(default_factory=dict)
    total_time: float = 0.0
    wall_seconds: float = 0.0
    stats: Optional[RefineStats] = None
    composite_stats: Optional[CompositeStats] = None


class _PhaseMeter:
    """Tracks makespan/superstep deltas per named phase of a cluster."""

    def __init__(self, cluster: Cluster, profile: RefinementProfile) -> None:
        self.cluster = cluster
        self.profile = profile

    def _snapshot(self) -> Tuple[float, int]:
        return self.cluster.profile.makespan, self.cluster.profile.num_supersteps

    def run(self, name: str, body):
        """Execute ``body``, record its makespan/superstep deltas.

        Returns whatever ``body`` returns.
        """
        before = self._snapshot()
        result = body()
        after = self._snapshot()
        self.profile.phase_times[name] = after[0] - before[0]
        self.profile.phase_supersteps[name] = after[1] - before[1]
        return result


def _sync_state(cluster: Cluster) -> None:
    """Charge the shared-state synchronization of one superstep barrier."""
    n = cluster.num_workers
    for src in range(n):
        for dst in range(n):
            if src != dst:
                cluster.send(src, dst, None, nbytes=STATE_SYNC_BYTES)
    cluster.deliver()


class _ParallelSession(RefineSession):
    """A :class:`RefineSession` run as supersteps on the BSP simulator.

    Adds the simulated cluster and the per-phase meter: candidate
    selection becomes the charged ``setup`` superstep, every phase is
    metered by simulated makespan instead of wall time, and MAssign is
    the batched variant.  Phase timings land in :attr:`profile`.
    """

    def __init__(self, refiner, *args, **kw) -> None:
        super().__init__(refiner, *args, **kw)
        self.batch_size = refiner.batch_size
        self.cluster = Cluster(
            self.partition, clock=refiner.clock, spec=refiner.cluster_spec
        )
        self.profile = RefinementProfile(stats=self.stats)
        self.meter = _PhaseMeter(self.cluster, self.profile)

    def setup(self, role: NodeRole) -> Dict[int, List]:
        """Candidate selection as one charged superstep."""
        fragments = self.partition.fragments

        def body() -> Dict[int, List]:
            candidates = self.candidates(
                role,
                charge=lambda fid: self.cluster.charge(
                    fid, fragments[fid].num_vertices
                ),
            )
            _sync_state(self.cluster)
            return candidates

        return self.meter.run("setup", body)

    def massign(self) -> None:
        # A set, not a sorted list: the batched pass tests membership
        # while scanning every vertex, and sorts each worker's share.
        vertices = None
        if self.scope is not None:
            vertices = self.scope.reassign(self.partition)
        _parallel_massign_impl(
            self.cluster,
            self.tracker,
            self.stats,
            self.batch_size,
            self.guard,
            self.cache,
            vertices=vertices,
            residual=self.scope is not None,
        )

    def finish(
        self, phases: List[Phase], capture_seed: bool
    ) -> Tuple[HybridPartition, RefinementProfile]:
        """Run the metered phases; return ``(partition, profile)``."""
        self.run(phases, capture_seed, timed=self.meter.run)
        self.profile.total_time = self.cluster.profile.makespan
        self.profile.wall_seconds = time.perf_counter() - self.wall_start
        return self.partition, self.profile


class ParE2H(SessionRefiner):
    """Parallel E2H on the BSP simulator."""

    _session = _ParallelSession

    def __init__(
        self,
        cost_model: CostModel,
        batch_size: int = 32,
        clock: Optional[CostClock] = None,
        enable_emigrate: bool = True,
        enable_esplit: bool = True,
        enable_massign: bool = True,
        budget_slack: float = 1.0,
        guard_config: Optional[GuardConfig] = None,
        use_gain_cache: bool = True,
        cluster_spec: Optional[ClusterSpec] = None,
    ) -> None:
        self.cost_model = cost_model
        self.batch_size = batch_size
        self.clock = clock or CostClock()
        self.enable_emigrate = enable_emigrate
        self.enable_esplit = enable_esplit
        self.enable_massign = enable_massign
        self.budget_slack = budget_slack
        self.guard_config = guard_config
        self.use_gain_cache = use_gain_cache
        self.cluster_spec = effective_spec(coerce_cluster_spec(cluster_spec))
        self.last_seed: Optional[TrackerSeed] = None

    def _refine(
        self, session: _ParallelSession, capture_seed: bool = False
    ) -> Tuple[HybridPartition, RefinementProfile]:
        """Batched EMigrate → ESplit → MAssign over the session's scope."""
        candidates = session.setup(NodeRole.ECUT)
        return session.finish(
            [
                (
                    "emigrate",
                    self.enable_emigrate,
                    lambda: self._parallel_emigrate(session, candidates),
                ),
                (
                    "esplit",
                    self.enable_esplit,
                    lambda: self._parallel_esplit(session, candidates),
                ),
                ("massign", self.enable_massign, session.massign),
            ],
            capture_seed,
        )

    # ------------------------------------------------------------------
    def _parallel_emigrate(
        self, session: _ParallelSession, candidates: Dict[int, List]
    ) -> None:
        """Round-robin batched candidate shipping (Section 5.3)."""
        partition, tracker, guard, cache = (
            session.partition, session.tracker, session.guard, session.cache
        )
        cluster, budget, underloaded = (
            session.cluster, session.budget, session.underloaded
        )
        if not underloaded:
            return
        # Per-source queues of (vertex, edges, attempts).
        queues: Dict[int, List] = {
            src: [(v, edges, 0) for v, edges in cand_list]
            for src, cand_list in candidates.items()
        }
        leftovers: Dict[int, List] = {src: [] for src in candidates}
        k = len(underloaded)
        while any(queues.values()):
            for src, queue in queues.items():
                batch, queues[src] = queue[: self.batch_size], queue[self.batch_size :]
                for v, edges, attempts in batch:
                    if (
                        not partition.fragments[src].has_vertex(v)
                        or partition.role(v, src) is not NodeRole.ECUT
                    ):
                        continue
                    dst = underloaded[attempts % k]
                    cluster.send(src, dst, None, nbytes=16.0 + 8.0 * len(edges))
                    cluster.charge(dst, C1_OPS)
                    if cache is not None:
                        # Bounced candidates re-price on every retry;
                        # the cache serves repeats until v is mutated.
                        price = cache.price_as_ecut(v)
                    else:
                        price = tracker.price_as_ecut(v)
                    if (
                        tracker.projected_load(
                            dst, tracker.comp_cost(dst) + price
                        )
                        <= budget
                    ):
                        emigrate(partition, v, src, dst)
                        session.stats.emigrated += 1
                        if guard is not None:
                            guard.step()
                    elif attempts + 1 < k:
                        queues[src].append((v, edges, attempts + 1))
                    else:
                        leftovers[src].append((v, edges))
            _sync_state(cluster)
        for src in candidates:
            candidates[src] = leftovers.get(src, [])

    def _parallel_esplit(
        self, session: _ParallelSession, candidates: Dict[int, List]
    ) -> None:
        """Batched greedy edge splitting against shared cost state."""
        partition, tracker, guard, cache = (
            session.partition, session.tracker, session.guard, session.cache
        )
        cluster, stats = session.cluster, session.stats
        n = partition.num_fragments
        pending: Dict[int, List] = {}
        for src, cand_list in candidates.items():
            edges = []
            for v, _snapshot in cand_list:
                fragment = partition.fragments[src]
                if fragment.has_vertex(v):
                    local = sorted(fragment.incident(v))
                    if local:
                        stats.split_vertices += 1
                    edges.extend((v, e) for e in local)
            pending[src] = edges
            candidates[src] = []
        while any(pending.values()):
            for src, edges in pending.items():
                batch, pending[src] = (
                    edges[: self.batch_size],
                    edges[self.batch_size :],
                )
                for v, edge in batch:
                    cluster.charge(src, C1_OPS)
                    if cache is not None:
                        target = cache.index.cheapest()
                    else:
                        target = min(range(n), key=tracker.load)
                    if target == src:
                        continue
                    if not partition.fragments[src].has_edge(edge):
                        continue
                    cluster.send(src, target, None, nbytes=24.0)
                    split_migrate_edge(partition, v, edge, src, target)
                    stats.split_edges += 1
                    if guard is not None:
                        guard.step()
            _sync_state(cluster)


def _parallel_massign_impl(
    cluster: Cluster,
    tracker: CostTracker,
    stats: RefineStats,
    batch_size: int,
    guard: Optional[RefinementGuard] = None,
    cache: Optional[GainCache] = None,
    vertices=None,
    residual: bool = False,
) -> None:
    """Batched Eq. 5 master assignment with shared accumulators."""
    partition = tracker.partition
    model = tracker.cost_model
    avg = tracker.avg_degree
    # Each worker is responsible for the border vertices it currently
    # masters; comp snapshot is shared, comm accumulators persist.
    # ``vertices`` restricts the pass to the dirty region (DESIGN §15);
    # ``residual`` then starts the communication accumulators from the
    # standing C_g of the untouched masters (see massign()).
    work: Dict[int, List[int]] = {fid: [] for fid in range(partition.num_fragments)}
    for v, hosts in partition.vertex_fragments():
        if len(hosts) > 1 and (vertices is None or v in vertices):
            master = partition.master(v)
            # A corrupted master pointing outside [0, n) still needs a
            # worker; fall back to the lowest host until repair runs.
            if master not in work:
                master = min(hosts)
            work[master].append(v)
    for fid in work:
        work[fid].sort()
    comp = tracker.comp_costs()
    comm = [0.0] * partition.num_fragments
    if residual:
        comm = tracker.comm_costs()
        for batch_list in work.values():
            for v in batch_list:
                standing = tracker.comm_contribution(v)
                if standing is not None:
                    comm[standing[0]] -= standing[1]
    caps = tracker.capacities
    bws = tracker.bandwidths
    while any(work.values()):
        for fid in range(partition.num_fragments):
            batch, work[fid] = work[fid][:batch_size], work[fid][batch_size:]
            for v in batch:
                # Only fragments actually holding a copy can be scored
                # (ghost placement entries await the guard's repair).
                hosts = sorted(
                    h
                    for h in partition.placement(v)
                    if partition.fragments[h].has_vertex(v)
                )
                if len(hosts) < 2:
                    continue
                cluster.charge(fid, (C1_OPS + C2_OPS) * len(hosts))
                current = partition.master(v)
                best_fid, best_score = hosts[0], float("inf")
                best_gain, best_delta = 0.0, 0.0
                for host in hosts:
                    if cache is not None:
                        g_here, h_delta = cache.massign_scores(v, host)
                    else:
                        g_here = model.comm_cost_if_master_at(partition, v, host, avg)
                        h_delta = model.comp_master_delta(partition, v, host, avg)
                    if caps is None:
                        score = comp[host] + comm[host] + g_here + h_delta
                    else:
                        score = (comp[host] + h_delta) / caps[host] + (
                            comm[host] + g_here
                        ) / bws[host]
                    if score < best_score:
                        best_score, best_fid = score, host
                        best_gain, best_delta = g_here, h_delta
                if current != best_fid:
                    if (
                        0 <= current < partition.num_fragments
                        and partition.fragments[current].has_vertex(v)
                    ):
                        if cache is not None:
                            # Scored pre-mutation above: a cache hit with
                            # the identical value.
                            comp[current] -= cache.massign_scores(v, current)[1]
                        else:
                            comp[current] -= model.comp_master_delta(
                                partition, v, current, avg
                            )
                    comp[best_fid] += best_delta
                    cluster.send(fid, best_fid, None, nbytes=12.0)
                    partition.set_master(v, best_fid)
                    stats.master_moves += 1
                    if guard is not None:
                        guard.step()
                comm[best_fid] += best_gain
        _sync_state(cluster)


class ParV2H(SessionRefiner):
    """Parallel V2H on the BSP simulator."""

    _session = _ParallelSession

    def __init__(
        self,
        cost_model: CostModel,
        batch_size: int = 32,
        clock: Optional[CostClock] = None,
        enable_vmigrate: bool = True,
        enable_vmerge: bool = True,
        enable_massign: bool = True,
        budget_slack: float = 1.0,
        vmerge_passes: int = 2,
        guard_config: Optional[GuardConfig] = None,
        use_gain_cache: bool = True,
        cluster_spec: Optional[ClusterSpec] = None,
    ) -> None:
        self.cost_model = cost_model
        self.batch_size = batch_size
        self.clock = clock or CostClock()
        self.enable_vmigrate = enable_vmigrate
        self.enable_vmerge = enable_vmerge
        self.enable_massign = enable_massign
        self.budget_slack = budget_slack
        self.vmerge_passes = vmerge_passes
        self.guard_config = guard_config
        self.use_gain_cache = use_gain_cache
        self.cluster_spec = effective_spec(coerce_cluster_spec(cluster_spec))
        self.last_seed: Optional[TrackerSeed] = None

    def _refine(
        self, session: _ParallelSession, capture_seed: bool = False
    ) -> Tuple[HybridPartition, RefinementProfile]:
        """Batched VMigrate → VMerge → MAssign over the session's scope."""
        candidates = session.setup(NodeRole.VCUT)
        return session.finish(
            [
                (
                    "vmigrate",
                    self.enable_vmigrate,
                    lambda: self._parallel_vmigrate(session, candidates),
                ),
                (
                    "vmerge",
                    self.enable_vmerge,
                    lambda: self._parallel_vmerge(session),
                ),
                ("massign", self.enable_massign, session.massign),
            ],
            capture_seed,
        )

    # ------------------------------------------------------------------
    def _parallel_vmigrate(
        self, session: _ParallelSession, candidates: Dict[int, List]
    ) -> None:
        """Batched VMigrate: ship v-cut copies to co-hosting workers in turn."""
        partition, tracker, guard, cache = (
            session.partition, session.tracker, session.guard, session.cache
        )
        cluster, budget, underloaded = (
            session.cluster, session.budget, session.underloaded
        )
        queues: Dict[int, List] = {
            src: [(v, edges, 0) for v, edges in cand_list]
            for src, cand_list in candidates.items()
        }
        while any(queues.values()):
            for src, queue in queues.items():
                batch, queues[src] = queue[: self.batch_size], queue[self.batch_size :]
                for v, edges, attempts in batch:
                    if (
                        not partition.fragments[src].has_vertex(v)
                        or partition.role(v, src) is not NodeRole.VCUT
                    ):
                        continue
                    # Destinations must be underloaded AND co-host v.
                    hosts = [
                        fid
                        for fid in underloaded
                        if partition.fragments[fid].has_vertex(v)
                    ]
                    if attempts >= len(hosts):
                        continue
                    dst = hosts[attempts]
                    cluster.send(src, dst, None, nbytes=16.0 + 8.0 * len(edges))
                    cluster.charge(dst, C1_OPS)
                    if cache is not None:
                        new_price = cache.merged_price(
                            v,
                            src,
                            dst,
                            lambda: merged_price(tracker, v, src, dst),
                        )
                    else:
                        new_price = merged_price(tracker, v, src, dst)
                    old_price = tracker.copy_comp_cost(v, dst)
                    if (
                        tracker.projected_load(
                            dst, tracker.comp_cost(dst) - old_price + new_price
                        )
                        <= budget
                    ):
                        vmigrate(partition, v, src, dst)
                        session.stats.vmigrated += 1
                        if guard is not None:
                            guard.step()
                    else:
                        queues[src].append((v, edges, attempts + 1))
            _sync_state(cluster)

    def _parallel_vmerge(self, session: _ParallelSession) -> None:
        """Batched VMerge: underloaded workers promote their v-cut nodes."""
        partition, tracker, guard, cache = (
            session.partition, session.tracker, session.guard, session.cache
        )
        cluster, budget, scope = session.cluster, session.budget, session.scope
        frontier = None if scope is None else scope.frontier
        fragments = None if scope is None else scope.touched
        graph = partition.graph
        for _pass in range(self.vmerge_passes):
            merged_any = False
            # Each underloaded worker scans its own v-cut nodes in batches;
            # the dirty scope narrows the scan (DESIGN §15).
            work: Dict[int, List[int]] = {}
            for fid in range(partition.num_fragments):
                if fragments is not None and fid not in fragments:
                    continue
                if tracker.load(fid) > budget:
                    continue
                fragment = partition.fragments[fid]
                vcuts = [
                    v
                    for v in fragment.vertices()
                    if (frontier is None or v in frontier)
                    and partition.role(v, fid) is NodeRole.VCUT
                ]
                # Ties by vertex id: fragment insertion order is not
                # stable across builds.
                vcuts.sort(
                    key=lambda v: (
                        partition.global_incident_count(v)
                        - fragment.incident_count(v),
                        v,
                    )
                )
                work[fid] = vcuts
            while any(work.values()):
                for fid in list(work):
                    batch, work[fid] = (
                        work[fid][: self.batch_size],
                        work[fid][self.batch_size :],
                    )
                    fragment = partition.fragments[fid]
                    for v in batch:
                        # Earlier merges may have pruned or promoted this
                        # copy; only still-present v-cut copies qualify.
                        if (
                            not fragment.has_vertex(v)
                            or partition.role(v, fid) is not NodeRole.VCUT
                        ):
                            continue
                        missing = [
                            edge
                            for edge in graph.incident_edges(v)
                            if not fragment.has_edge(edge)
                        ]
                        cluster.charge(fid, C1_OPS)
                        if cache is not None:
                            new_price = cache.price_as_ecut(v)
                        else:
                            new_price = tracker.price_as_ecut(v)
                        old_price = tracker.copy_comp_cost(v, fid)
                        if (
                            tracker.projected_load(
                                fid,
                                tracker.comp_cost(fid) - old_price + new_price,
                            )
                            > budget
                        ):
                            continue
                        for edge in missing:
                            cluster.send(
                                partition.master(v), fid, None, nbytes=16.0
                            )
                        vmerge(partition, v, fid, missing)
                        session.stats.vmerged += 1
                        merged_any = True
                        if guard is not None:
                            guard.step()
                _sync_state(cluster)
            if not merged_any:
                break


class _CompositeParallelMixin:
    """Shared timing synthesis for the composite parallel refiners.

    ME2H/MV2H's extra procedures (Init, GetDest) are fragment-local
    (Section 6.4), so the parallel variants run the composite logic and
    charge the cluster per phase from its per-worker unit counts.
    """

    batch_size: int
    clock: CostClock
    cluster_spec: Optional[ClusterSpec]

    def _charge_phases(
        self,
        composite: CompositePartition,
        stats: CompositeStats,
        profile: RefinementProfile,
    ) -> None:
        cluster = Cluster(
            next(iter(composite.partitions.values())),
            clock=self.clock,
            spec=self.cluster_spec,
        )
        meter = _PhaseMeter(cluster, profile)
        n = composite.num_fragments
        k = composite.num_algorithms

        def simulate(total_units: int, ops_per_unit: float, nbytes: float) -> None:
            per_worker = (total_units + n - 1) // n
            remaining = per_worker
            while remaining > 0:
                batch = min(self.batch_size, remaining)
                for fid in range(n):
                    cluster.charge(fid, ops_per_unit * batch)
                    cluster.send(fid, (fid + 1) % n, None, nbytes=nbytes * batch)
                _sync_state(cluster)
                remaining -= batch

        meter.run(
            "init",
            lambda: simulate(stats.core_units + stats.vassign_units, C1_OPS * k, 8.0),
        )
        meter.run("vassign", lambda: simulate(stats.vassign_units, C1_OPS * k, 24.0))
        meter.run("eassign", lambda: simulate(stats.eassign_units, C1_OPS, 24.0))
        borders = sum(
            1
            for part in composite.partitions.values()
            for _v, hosts in part.vertex_fragments()
            if len(hosts) > 1
        )
        meter.run("massign", lambda: simulate(borders, C1_OPS + C2_OPS, 12.0))
        profile.total_time = cluster.profile.makespan
        profile.composite_stats = stats


class ParME2H(_CompositeParallelMixin):
    """Parallel composite edge-cut refiner."""

    def __init__(
        self,
        cost_models: Dict[str, CostModel],
        batch_size: int = 32,
        clock: Optional[CostClock] = None,
        budget_slack: float = 1.2,
        guard_config: Optional[GuardConfig] = None,
        use_gain_cache: bool = True,
        cluster_spec: Optional[ClusterSpec] = None,
    ) -> None:
        self.cluster_spec = effective_spec(coerce_cluster_spec(cluster_spec))
        self.inner = ME2H(
            cost_models,
            budget_slack=budget_slack,
            guard_config=guard_config,
            use_gain_cache=use_gain_cache,
            cluster_spec=self.cluster_spec,
        )
        self.batch_size = batch_size
        self.clock = clock or CostClock()

    def refine(
        self, partition: HybridPartition
    ) -> Tuple[CompositePartition, RefinementProfile]:
        """Refine; returns ``(composite partition, timing profile)``."""
        wall_start = time.perf_counter()
        composite = self.inner.refine(partition)
        profile = RefinementProfile()
        self._charge_phases(composite, self.inner.last_stats, profile)
        profile.wall_seconds = time.perf_counter() - wall_start
        return composite, profile


class ParMV2H(_CompositeParallelMixin):
    """Parallel composite vertex-cut refiner."""

    def __init__(
        self,
        cost_models: Dict[str, CostModel],
        batch_size: int = 32,
        clock: Optional[CostClock] = None,
        budget_slack: float = 1.2,
        vmerge_passes: int = 1,
        guard_config: Optional[GuardConfig] = None,
        use_gain_cache: bool = True,
        cluster_spec: Optional[ClusterSpec] = None,
    ) -> None:
        self.cluster_spec = effective_spec(coerce_cluster_spec(cluster_spec))
        self.inner = MV2H(
            cost_models,
            budget_slack=budget_slack,
            vmerge_passes=vmerge_passes,
            guard_config=guard_config,
            use_gain_cache=use_gain_cache,
            cluster_spec=self.cluster_spec,
        )
        self.batch_size = batch_size
        self.clock = clock or CostClock()

    def refine(
        self, partition: HybridPartition
    ) -> Tuple[CompositePartition, RefinementProfile]:
        """Refine; returns ``(composite partition, timing profile)``."""
        wall_start = time.perf_counter()
        composite = self.inner.refine(partition)
        profile = RefinementProfile()
        self._charge_phases(composite, self.inner.last_stats, profile)
        profile.wall_seconds = time.perf_counter() - wall_start
        return composite, profile
