"""Exact radio numbers by branch and bound over vertex orderings.

Any radio labeling, sorted by label, is a vertex ordering, and relabeling
that ordering greedily (each vertex gets the smallest label above its
predecessor's that satisfies the radio condition against all earlier
vertices) never increases the span: smaller earlier labels only weaken
later constraints.  So the radio number is the least greedy span over all
orderings, and the search runs over orderings, not label assignments.

Every lower bound comes from one climb table (_ClimbTable): m[w] is the
least greedy climb f(x_w) - f(x_1) over w distinct vertices, and any s
vertices consecutive in label order climb at least C(s).  The run search
gives m[w] = w - 1 for w <= r and m[r + 1] >= r + 1, so 1 + C(N) is at least
the jump bound N + ceil(N / r) - 1; search_orderings fills w = r + 1, r + 2,
... exactly.  The first incumbent labels build_ordering (label_walk), and its
span is reported as construction_span; one of span 1 + C(N) is optimal with
no search nodes, and one of span N needs no run search.  Below the root, the
branch and bound is the same search at w = N: a vertex at depth d is kept
only when its label is below bound - C(N - d), and children are tried best
label first, so 2x2x2x3 meets its root bound 35 in 253 nodes and 2x2x2x2x2
its 62 in 433.  Every search of size vertices stops at a leaf
labeled 1 + C(size), which no ordering undercuts, so the branch and bound
ends as soon as its incumbent meets the root bound.  It is not started once
the deadline has passed, and a result that is not optimal carries 1 + C(N)
as its proven lower_bound.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .exceptional import (
    SEARCH_COMPLETE,
    RunSearchBudgetError,
    max_consecutive_run,
    search_orderings,
)
from .graphs import HammingGraph
from .labeling import RadioLabeling, label_walk, validate

_RUN_SEARCH_CAP = 200_000


class SolverError(RuntimeError):
    """The witness solve() found fails validate(): an internal error."""


@dataclass
class SolverConfig:
    node_budget: int = 5_000_000
    time_budget: float = 300.0

    def __post_init__(self):
        if self.node_budget < 1:
            raise ValueError(f"node_budget must be positive, got {self.node_budget}")
        if not self.time_budget > 0:  # NaN too: no clock reading passes it
            raise ValueError(f"time_budget must be positive, got {self.time_budget}")


@dataclass
class SolveResult:
    rn: int
    witness: RadioLabeling
    optimal: bool
    lower_bound: int  # proven: lower_bound <= rn(g), equal to rn when optimal
    nodes_explored: int
    elapsed: float
    construction_span: int  # of the first incumbent, build_ordering's: rn <= it


class _ClimbTable:
    """Least climbs m[w] of a graph whose longest run is run_length: m[w] = w - 1
    for w <= run is not stored, so C(s) costs O(len(past_run)), not O(run)."""

    def __init__(self, vertex_count: int, run_length: int):
        if not 1 <= run_length <= vertex_count:
            raise ValueError(f"run length must be in 1..{vertex_count}, got {run_length}")
        self.run = run_length
        self.past_run = [run_length + 1]  # m[run + 1], m[run + 2], ...; no run is longer

    def least(self, w: int) -> int:
        return w - 1 if w <= self.run else self.past_run[w - self.run - 1]

    def climb(self, s: int) -> int:
        """C(s) = max_w q * m[w] + m[rem + 1], q, rem = divmod(s - 1, w - 1): s vertices
        are q stretches of w and one of rem + 1 (w = run + 1 gives s - 1 or more)."""
        return max((s - 1) // (w - 1) * m + self.least((s - 1) % (w - 1) + 1)
                   for w, m in enumerate(self.past_run, self.run + 1))


def _least_last_label(g, table, size, best, **search):
    """Least last label below best of size vertices: search_orderings under the
    ceiling best - C(size - d) at depth d, ended by a leaf labeled 1 + C(size),
    the least any ordering can reach.  Returns (best, its labeling or None,
    nodes, reason)."""
    floor = 1 + table.climb(size)
    ceiling = [best - table.climb(size - d) for d in range(size)]
    found = None

    def on_leaf(order, labels):
        nonlocal best, found
        ceiling[:] = [c - (best - labels[-1]) for c in ceiling]
        best, found = labels[-1], dict(zip(order, labels))
        return best <= floor

    nodes, _, stop = search_orderings(g, ceiling, on_leaf, **search)
    return best, found, nodes, stop


def _climb_table(g: HammingGraph, bound: float, deadline: float):
    """Climb table of g under an incumbent of span bound: r from the run search
    (N if it runs out), then m[w] for w = r + 1, r + 2, ..., until 1 + C(N)
    meets bound, an entry runs out of time or nodes (it is dropped) or an
    entry past r + 1 leaves C(N) unchanged."""
    n = g.vertex_count
    run = n
    if bound > n:
        try:
            run = max_consecutive_run(g, cap=_RUN_SEARCH_CAP, deadline=deadline)
        except RunSearchBudgetError:
            pass  # weakest sound choice: no forced jumps assumed
    table = _ClimbTable(n, run)
    for w in range(run + 1, n + 1):
        lower = table.climb(n)
        if 1 + lower >= bound:
            break
        # m[w] <= m[w - 1] + diam, and no w vertices climb less than C(w)
        best, _, _, stop = _least_last_label(
            g, table, w, table.least(w - 1) + g.diameter + 2,
            node_budget=_RUN_SEARCH_CAP, deadline=deadline)
        if stop not in SEARCH_COMPLETE:
            break
        table.past_run[w - run - 1 :] = [best - 1]
        if w > run + 1 and table.climb(n) == lower:
            break
    return table


def solve(g: HammingGraph, config: SolverConfig | None = None) -> SolveResult:
    """Exact radio number of g, with a labeling of that span as witness.

    optimal is True only when, within the configured budgets, the search
    space was exhausted under the pruning bound or an ordering met the root
    bound 1 + C(N); on budget exhaustion the incumbent is still a valid
    labeling, so rn is never under-reported, and lower_bound is the proven
    root bound.  node_budget caps the branch-and-bound nodes (nodes_explored);
    the run search and each climb-table entry stop at _RUN_SEARCH_CAP nodes
    apiece.  time_budget stops neither the first incumbent nor validate().
    """
    cfg = config or SolverConfig()
    started = time.perf_counter()
    n = g.vertex_count
    deadline = started + cfg.time_budget
    best_lab: RadioLabeling = {}
    for *columns, labels in label_walk(g):
        best_lab.update(zip(zip(*columns), labels))
    bound = construction_span = labels[-1]

    # Root certificate: rn >= 1 + C(N) >= N
    table = _climb_table(g, bound, deadline)
    lower_bound = 1 + table.climb(n)
    nodes, stop = 0, "exhausted"
    if bound > lower_bound and time.perf_counter() > deadline:
        stop = "time_budget"  # the run search or the table used up the time budget
    elif bound > lower_bound:
        bound, found, nodes, stop = _least_last_label(
            g, table, n, bound, node_budget=cfg.node_budget, deadline=deadline)
        best_lab = found or best_lab
    report = validate(g, best_lab)
    if not report.valid or report.span != bound:
        raise SolverError(f"internal error: witness invalid for {g}")
    optimal = stop in SEARCH_COMPLETE
    return SolveResult(
        rn=bound,
        witness=best_lab,
        optimal=optimal,
        lower_bound=bound if optimal else lower_bound,
        nodes_explored=nodes,
        elapsed=time.perf_counter() - started,
        construction_span=construction_span,
    )
