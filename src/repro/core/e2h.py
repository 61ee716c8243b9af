"""Algorithm E2H: edge-cut → hybrid refinement (Section 5.1, Fig. 3).

Given an edge-cut partition and the cost model of an algorithm ``A``,
E2H reduces the parallel cost ``max_i C_A(F_i)`` in two stages:

1. **Balance computational cost** guided by ``h_A``:

   * *EMigrate* moves whole e-cut nodes (with all incident edges) from
     overloaded to underloaded fragments, keeping each destination under
     the budget ``B = Σ C_h / n``;
   * *ESplit* cuts the leftover candidates — typically super-nodes whose
     own cost exceeds any destination's headroom — into v-cut nodes,
     migrating their edges one by one to the currently cheapest fragment.

2. **Redistribute communication cost** guided by ``g_A`` via *MAssign*.

Phases can be individually disabled to reproduce the appendix ablation
(ParE2H₁/₂/₃, Fig. 11(a)).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.operations import emigrate, split_migrate_edge
from repro.core.session import RefineSession, RefineStats, SessionRefiner
from repro.core.tracker import TrackerSeed
from repro.costmodel.model import CostModel
from repro.integrity.guard import GuardConfig
from repro.partition.hybrid import HybridPartition, NodeRole
from repro.runtime.clusterspec import (
    ClusterSpec,
    coerce_cluster_spec,
    effective_spec,
)

__all__ = ["E2H", "RefineStats"]


class E2H(SessionRefiner):
    """Edge-cut → hybrid refiner driven by a cost model.

    ``refine`` and ``refine_incremental`` (from
    :class:`~repro.core.session.SessionRefiner`) both run the one
    driver :meth:`_refine`, over the full scope or the dirty frontier.

    Parameters
    ----------
    cost_model:
        The algorithm's learned (or built-in) cost model.
    enable_emigrate / enable_esplit / enable_massign:
        Phase switches for the appendix ablation.
    budget_slack:
        Multiplier on the average-cost budget (1.0 = the paper's B).
    use_gain_cache:
        Route candidate scoring through :class:`~repro.core.gaincache.
        GainCache` (memoized cost-model evaluations, cached per-vertex
        prices, bucketed fragment queue).  Bit-identical to the uncached
        reference path; disable to run the reference oracle.
    guard_config:
        Optional :class:`~repro.integrity.guard.GuardConfig` enabling the
        guarded pipeline: invariant watchdog + repair/rollback at the
        configured cadence, cost-model guardrails, and step/wall-clock
        budgets with best-so-far early stop.  ``None`` (default) runs
        unguarded with zero overhead.
    cluster_spec:
        Optional heterogeneous :class:`~repro.runtime.clusterspec.
        ClusterSpec` (or its dict payload / file path).  When given and
        non-uniform, balance targets become capacity shares: the budget
        is per unit of compute speed and fragments are compared by
        normalized load ``C_h/speed``.  ``None`` or the uniform spec
        keeps the homogeneous path bit-identical.
    """

    phases = ("emigrate", "esplit", "massign")

    def __init__(
        self,
        cost_model: CostModel,
        enable_emigrate: bool = True,
        enable_esplit: bool = True,
        enable_massign: bool = True,
        budget_slack: float = 1.0,
        candidate_order: str = "bfs",
        guard_config: Optional[GuardConfig] = None,
        use_gain_cache: bool = True,
        cluster_spec: Optional[ClusterSpec] = None,
    ) -> None:
        if candidate_order not in ("bfs", "arbitrary"):
            raise ValueError("candidate_order must be 'bfs' or 'arbitrary'")
        self.cost_model = cost_model
        self.enable_emigrate = enable_emigrate
        self.enable_esplit = enable_esplit
        self.enable_massign = enable_massign
        self.budget_slack = budget_slack
        self.candidate_order = candidate_order
        self.guard_config = guard_config
        self.use_gain_cache = use_gain_cache
        self.cluster_spec = effective_spec(coerce_cluster_spec(cluster_spec))
        self.last_stats: Optional[RefineStats] = None
        self.last_seed: Optional[TrackerSeed] = None

    def _refine(
        self, session: RefineSession, capture_seed: bool = False
    ) -> HybridPartition:
        """EMigrate → ESplit → MAssign over the session's scope."""
        order = None
        if self.candidate_order == "arbitrary":
            # Ablation: fragment-internal order instead of the
            # locality-preserving BFS traversal (GetCandidates).
            fragments = session.partition.fragments
            order = lambda fid: sorted(fragments[fid].vertices())
        candidates = session.candidates(NodeRole.ECUT, order=order)
        session.run(
            [
                (
                    "emigrate",
                    self.enable_emigrate,
                    lambda: self._phase_emigrate(session, candidates),
                ),
                (
                    "esplit",
                    self.enable_esplit,
                    lambda: self._phase_esplit(session, candidates),
                ),
                ("massign", self.enable_massign, session.massign),
            ],
            capture_seed,
        )
        self.last_stats = session.stats
        return session.partition

    # ------------------------------------------------------------------
    def _phase_emigrate(
        self, session: RefineSession, candidates: Dict[int, List]
    ) -> None:
        """Fig. 3 lines 6-10: ship whole candidates to underloaded fragments."""
        partition, tracker, guard, cache = (
            session.partition, session.tracker, session.guard, session.cache
        )
        budget, underloaded = session.budget, session.underloaded
        for src, cand_list in candidates.items():
            remaining = []
            for v, _edges in cand_list:
                # The candidate may have been restructured by earlier
                # moves; only still-local e-cut copies are movable whole.
                if (
                    not partition.fragments[src].has_vertex(v)
                    or partition.role(v, src) is not NodeRole.ECUT
                ):
                    remaining.append((v, _edges))
                    continue
                if cache is not None:
                    price = cache.price_as_ecut(v)
                    destinations = cache.index.ascending(underloaded)
                else:
                    price = tracker.price_as_ecut(v)
                    destinations = sorted(underloaded, key=tracker.load)
                placed = False
                for dst in destinations:
                    if (
                        tracker.projected_load(
                            dst, tracker.comp_cost(dst) + price
                        )
                        <= budget
                    ):
                        emigrate(partition, v, src, dst)
                        session.stats.emigrated += 1
                        placed = True
                        if guard is not None:
                            guard.step()
                        break
                if not placed:
                    remaining.append((v, _edges))
            candidates[src] = remaining

    def _phase_esplit(
        self, session: RefineSession, candidates: Dict[int, List]
    ) -> None:
        """Fig. 3 lines 11-14: split leftovers edge by edge to argmin C_h."""
        partition, tracker, guard, cache = (
            session.partition, session.tracker, session.guard, session.cache
        )
        stats = session.stats
        n = partition.num_fragments
        for src, cand_list in candidates.items():
            for v, _snapshot in cand_list:
                fragment = partition.fragments[src]
                if not fragment.has_vertex(v):
                    continue
                edges = sorted(fragment.incident(v))
                if edges:
                    stats.split_vertices += 1
                for edge in edges:
                    if cache is not None:
                        target = cache.index.cheapest()
                    else:
                        target = min(range(n), key=tracker.load)
                    if target == src:
                        continue
                    split_migrate_edge(partition, v, edge, src, target)
                    stats.split_edges += 1
                    if guard is not None:
                        guard.step()
            candidates[src] = []
