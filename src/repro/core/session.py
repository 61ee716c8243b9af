"""One refinement run's setup stack, scope and teardown (DESIGN §2, §15).

E2H, V2H, ParE2H and ParV2H each run one phase sequence (Fig. 3,
Fig. 4, Section 5.3) inside the same scaffolding, over one of two
scopes: *full* (every vertex, cold tracker) or *dirty* (the frontier of
a mutation batch, warm tracker; DESIGN §15).  :class:`RefineSession`
owns the scaffolding, so each refiner keeps one driver for both scopes.

The layers are built in a fixed order, and the order is what keeps
every path bit-identical:

1. the guarded cost model, when a guard is configured;
2. the gain cache's memo around it (``use_gain_cache``);
3. the outermost :class:`~repro.core.dirty.RescoringModel`, which counts
   every h/g request before memoization can hide repeats;
4. the :class:`~repro.core.tracker.CostTracker`, cold or seeded, then
   ``cache.bind``;
5. ``cost_before``, read before the guard exists: the guard's
   ``cost_fn`` evaluates the uncounted model from scratch.

Teardown runs ``guard.finish``, ``cost_after``, the seed snapshot, the
rescoring count, then tracker and cache detach.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.budget import classify_fragments, compute_budget
from repro.core.candidates import get_candidates
from repro.core.dirty import DirtyScope, IncrementalStats, RescoringModel
from repro.core.gaincache import GainCache, GainCacheStats
from repro.core.massign import massign
from repro.core.tracker import CostTracker, TrackerSeed
from repro.costmodel.guarded import guard_cost_model
from repro.integrity.guard import (
    GuardStats,
    RefinementBudgetExceeded,
    RefinementGuard,
)
from repro.partition.hybrid import HybridPartition, NodeRole

#: ``(name, enabled, body)``: one entry of a refiner's phase table
Phase = Tuple[str, bool, Callable[[], None]]


@dataclass
class RefineStats:
    """Bookkeeping of one refinement run (feeds Exp-3 and Fig. 11)."""

    budget: float = 0.0
    overloaded: int = 0
    candidates: int = 0
    emigrated: int = 0
    split_vertices: int = 0
    split_edges: int = 0
    vmigrated: int = 0
    vmerged: int = 0
    master_moves: int = 0
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    cost_before: float = 0.0
    cost_after: float = 0.0
    guard: Optional[GuardStats] = None
    gain_cache: Optional[GainCacheStats] = None
    #: h/g funnel requests reaching the cost model (tracker rebuild,
    #: candidate pricing, Eq. 5 scoring) — the incremental path's currency.
    rescoring_calls: int = 0
    #: Set on dirty-region passes only (``refine_incremental``).
    incremental: Optional[IncrementalStats] = None


class RefineSession:
    """Setup stack, budget, candidates and teardown of one refinement run.

    ``refiner`` supplies the configuration: ``cost_model``,
    ``guard_config``, ``use_gain_cache``, ``cluster_spec`` and
    ``budget_slack``; :meth:`run` stores the final tracker snapshot in
    its ``last_seed``.  ``wall_start`` is when the public call began.
    ``seed`` warm-starts the tracker.  Passing ``dirty_vertices``
    selects the dirty scope: candidates are narrowed to the frontier
    inside the touched fragments and MAssign runs as a residual pass.
    The budget ``B`` and the overloaded / underloaded split are
    computed on construction.
    """

    def __init__(
        self,
        refiner,
        partition: HybridPartition,
        wall_start: float,
        seed: Optional[TrackerSeed] = None,
        dirty_vertices=None,
    ) -> None:
        self.refiner = refiner
        self.partition = partition
        self.wall_start = wall_start
        self.stats = stats = RefineStats()
        model = refiner.cost_model
        if refiner.guard_config is not None:
            stats.guard = GuardStats()
            model = guard_cost_model(
                model, on_intervention=stats.guard.note_cost_model_intervention
            )
        self.cache: Optional[GainCache] = None
        if refiner.use_gain_cache:
            # The memo wraps the (possibly guarded) model: values are
            # identical either way, and guardrail checks still apply to
            # every distinct evaluation.
            self.cache = GainCache(partition, model)
            stats.gain_cache = self.cache.stats
            model = self.cache.model
        # Outermost counting layer: tallies the h/g requests the run
        # demands (values pass through untouched).
        self.counted = RescoringModel(model)
        self.tracker = CostTracker(
            partition, self.counted, spec=refiner.cluster_spec, seed=seed
        )
        if self.cache is not None:
            self.cache.bind(self.tracker)
        stats.cost_before = self.tracker.parallel_cost()
        self.guard: Optional[RefinementGuard] = None
        if refiner.guard_config is not None:
            self.guard = RefinementGuard(
                partition,
                refiner.guard_config,
                stats=stats.guard,
                # From-scratch evaluation: querying the tracker here
                # would change its lazy-flush boundaries and perturb
                # float accumulation order in the cached costs.
                cost_fn=lambda: model.parallel_cost(partition),
            )
        self.scope: Optional[DirtyScope] = None
        if dirty_vertices is not None:
            stats.incremental = IncrementalStats(seeded=self.tracker.seeded)
            self.scope = DirtyScope(partition, dirty_vertices, stats.incremental)
        self.budget = stats.budget = compute_budget(
            self.tracker, refiner.budget_slack
        )
        self.overloaded, self.underloaded = classify_fragments(
            self.tracker, self.budget
        )
        stats.overloaded = len(self.overloaded)

    def candidates(
        self,
        role: NodeRole,
        order: Optional[Callable[[int], List[int]]] = None,
        charge: Optional[Callable[[int], None]] = None,
    ) -> Dict[int, List]:
        """GetCandidates of every overloaded fragment in scope.

        ``order(fid)`` replaces the BFS walk order (E2H's ablation);
        ``charge(fid)`` bills the fragment's scan to a parallel cluster.
        """
        tracker, scope = self.tracker, self.scope
        candidates: Dict[int, List] = {}
        for fid in self.overloaded:
            if scope is not None and fid not in scope.touched:
                continue
            units = get_candidates(
                tracker,
                fid,
                tracker.keep_budget(fid, self.budget),
                role,
                order=None if order is None else order(fid),
            )
            if scope is not None:
                # The BFS walk itself prices nothing (cached per-copy
                # sums); only frontier members may move.
                units = [unit for unit in units if unit[0] in scope.frontier]
            candidates[fid] = units
            self.stats.candidates += len(units)
            if charge is not None:
                charge(fid)
        return candidates

    def massign(self) -> None:
        """MAssign over the scope: every border vertex, or the residual pass.

        The dirty scope rescores only vertices whose Eq. 5 inputs
        changed; the residual pass keeps the untouched masters' standing
        communication in the accumulators.
        """
        vertices = None
        if self.scope is not None:
            # Sorted: the visiting order decides the result.
            vertices = sorted(self.scope.reassign(self.partition))
        self.stats.master_moves = massign(
            self.tracker,
            vertices=vertices,
            guard=self.guard,
            cache=self.cache,
            residual=self.scope is not None,
        )

    def run(
        self,
        phases: Sequence[Phase],
        capture_seed: bool = False,
        timed: Optional[Callable[[str, Callable[[], None]], None]] = None,
    ) -> None:
        """Run the enabled phases in order, then tear the stack down.

        A :class:`~repro.integrity.guard.RefinementBudgetExceeded` from
        the guard stops the sequence early with the best partition seen.
        ``timed(name, body)`` runs one phase (default: wall seconds into
        ``stats.phase_seconds``).  The tracker snapshot goes to the
        refiner's ``last_seed`` when ``capture_seed`` is set and always
        on the dirty scope, so consecutive incremental passes stay warm.
        """
        timed = timed or self._timed
        early_stopped = False
        try:
            for name, enabled, body in phases:
                if enabled:
                    timed(name, body)
        except RefinementBudgetExceeded:
            early_stopped = True
        if self.guard is not None:
            self.guard.finish(early_stopped=early_stopped)
        self.stats.cost_after = self.tracker.parallel_cost()
        if capture_seed or self.scope is not None:
            self.refiner.last_seed = self.tracker.snapshot()
        self.stats.rescoring_calls = self.counted.calls
        self.tracker.detach()
        if self.cache is not None:
            self.cache.detach()

    def _timed(self, name: str, body: Callable[[], None]) -> None:
        start = time.perf_counter()
        body()
        self.stats.phase_seconds[name] = time.perf_counter() - start


class SessionRefiner:
    """Public entry points of the single-partition refiners.

    Both open a session over their scope and hand it to the subclass's
    one driver, ``_refine(session, capture_seed)``, which returns the
    refined partition (the parallel refiners: ``(partition,
    RefinementProfile)``).  ``_session`` is the session class; the
    parallel refiners swap in one that adds the simulated cluster.
    """

    _session = RefineSession
    last_seed: Optional[TrackerSeed] = None

    def refine(
        self,
        partition: HybridPartition,
        in_place: bool = False,
        capture_seed: bool = False,
    ):
        """Refine ``partition`` into a hybrid one.

        Returns a new partition unless ``in_place`` is set.  With
        ``capture_seed`` the final tracker state is snapshotted into
        :attr:`last_seed` so a later :meth:`refine_incremental` can
        warm-start instead of rebuilding the tracker cold.
        """
        wall_start = time.perf_counter()
        if not in_place:
            partition = partition.copy()
        session = self._session(self, partition, wall_start)
        return self._refine(session, capture_seed)

    def refine_incremental(
        self,
        partition: HybridPartition,
        dirty_vertices,
        in_place: bool = True,
        seed="auto",
    ):
        """Dirty-region refinement after a small mutation batch (DESIGN §15).

        Runs the same phases as :meth:`refine` with their scope narrowed
        to the dirty frontier — ``dirty_vertices`` plus their graph
        neighbors — inside the fragments hosting any frontier vertex:
        candidates outside the frontier are skipped, VMerge scans only
        frontier v-cuts of touched fragments, and MAssign revisits only
        the dirty vertices and those the pass moved.  The cost tracker
        is seeded from ``seed`` (default: :attr:`last_seed`, captured by
        a prior ``refine(..., capture_seed=True)`` or incremental pass)
        when the partition's mutation journal still covers it,
        replacing the cold per-copy rebuild with a delta replay.  A
        fresh snapshot is stored in :attr:`last_seed` afterwards so
        consecutive incremental passes stay warm.

        Defaults to in-place: a copied partition has its own journal and
        generation counter, against which a seed captured on the
        original cannot be replayed, so a copy starts cold.
        """
        wall_start = time.perf_counter()
        if not in_place:
            partition, seed = partition.copy(), None
        elif seed == "auto":
            seed = self.last_seed
        session = self._session(
            self, partition, wall_start, seed=seed, dirty_vertices=dirty_vertices
        )
        return self._refine(session)

    def _refine(self, session: RefineSession, capture_seed: bool = False):
        raise NotImplementedError
