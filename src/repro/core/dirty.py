"""Dirty-region bookkeeping for incremental refinement (DESIGN §15).

After a small mutation batch, re-running a full refinement pass rebuilds
the cost tracker from scratch — one cost-model evaluation per placed
copy before the first candidate is even scored.  The incremental path
(``refine_incremental`` on every refiner) instead:

* seeds the tracker from the previous run's
  :class:`~repro.core.tracker.TrackerSeed` snapshot, repricing only the
  journalled delta, and
* restricts candidate selection, the v-merge scan, and MAssign to the
  *dirty frontier* inside the fragments hosting any frontier vertex.

The frontier — the mutated vertices plus their graph neighbors — is the
exact influence set of a mutation batch: a copy's features (degree,
incident counts, border flag, role) can only change when the vertex
itself or one of its incident edges was touched, and every mutated edge
dirties both endpoints, so every copy whose price changed lies within
one hop of a dirty vertex.

:class:`RescoringModel` is the accounting layer for the speedup claim.
Installed *outermost* (the tracker evaluates through it), it counts
every ``h``/``g`` request before memoization by an inner
:class:`~repro.core.gaincache.MemoizedCostModel` could hide repeats —
so ``rescoring_calls`` measures work demanded of the cost model, which
is the currency the incremental acceptance bar is stated in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Set

from repro.costmodel.model import CostModel
from repro.graph.digraph import Graph
from repro.partition.hybrid import HybridPartition


@dataclass
class IncrementalStats:
    """Scope of one dirty-region refinement pass."""

    dirty: int = 0  #: mutated vertices handed in by the caller
    frontier: int = 0  #: dirty vertices plus their graph neighbors
    fragments: int = 0  #: fragments hosting at least one frontier vertex
    seeded: bool = False  #: tracker restored from a snapshot (no cold rebuild)


class RescoringModel(CostModel):
    """Counting passthrough: tallies every ``h``/``g`` funnel request.

    Values are delegated untouched, so installing the wrapper is
    bit-identical to evaluating the wrapped model directly.
    """

    def __init__(self, base: CostModel) -> None:
        super().__init__(name=base.name, h=base.h, g=base.g, gate=base.gate)
        self.base = base
        self.calls = 0

    def h_value(self, features: Mapping[str, float]) -> float:
        self.calls += 1
        return self.base.h_value(features)

    def g_value(self, features: Mapping[str, float]) -> float:
        self.calls += 1
        return self.base.g_value(features)


def dirty_frontier(graph: Graph, dirty_vertices: Iterable[int]) -> Set[int]:
    """Dirty vertices plus their (in- and out-) neighbors.

    Out-of-range ids are dropped rather than rejected: a mutation batch
    may journal a vertex that a later rollback removed again.
    """
    n = graph.num_vertices
    frontier = {v for v in dirty_vertices if 0 <= v < n}
    for v in tuple(frontier):
        frontier.update(int(u) for u in graph.out_neighbors(v))
        if graph.directed:
            frontier.update(int(u) for u in graph.in_neighbors(v))
    return frontier


def touched_fragments(
    partition: HybridPartition, frontier: Iterable[int]
) -> Set[int]:
    """Fragments hosting at least one frontier vertex."""
    touched: Set[int] = set()
    for v in frontier:
        touched.update(partition.placement(v))
    return touched


class DirtyScope:
    """The dirty-region scope of one incremental refinement pass.

    Computed once, before the budget: the in-range ``dirty_in`` set, its
    ``frontier``, the ``touched`` fragments hosting any frontier vertex,
    and the partition's ``entry_generation`` (so MAssign can ask the
    journal what the movement phases churned).  The counts land in
    ``stats``.
    """

    def __init__(
        self,
        partition: HybridPartition,
        dirty_vertices: Iterable[int],
        stats: IncrementalStats,
    ) -> None:
        n = partition.graph.num_vertices
        self.dirty_in = {v for v in dirty_vertices if 0 <= v < n}
        self.frontier = dirty_frontier(partition.graph, self.dirty_in)
        self.touched = touched_fragments(partition, self.frontier)
        stats.dirty = len(self.dirty_in)
        stats.frontier = len(self.frontier)
        stats.fragments = len(self.touched)
        self.entry_generation = partition.generation

    def reassign(self, partition: HybridPartition) -> Set[int]:
        """Vertices whose Eq. 5 inputs may have changed since entry.

        The batch's dirty vertices plus everything the movement phases
        just churned: a vertex's h/g features depend solely on its own
        placement and incident edges, all of which notify the journal.
        When the journal has lapsed, the whole frontier.
        """
        moved = partition.mutations_since(self.entry_generation)
        if moved is None:
            return self.frontier
        return self.dirty_in | moved
