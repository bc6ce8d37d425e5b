"""Exact radio numbers by branch and bound over vertex orderings.

Any radio labeling, sorted by label, is a vertex ordering, and relabeling
that ordering greedily (each vertex gets the smallest label above its
predecessor's that satisfies the radio condition against all earlier
vertices) never increases the span: smaller earlier labels only weaken
later constraints.  So the radio number is the least greedy span over all
orderings, and the search runs over orderings, not label assignments.

Root certificate: rn(G) >= N = |V(G)|, and rn(G) >= N + ceil(N / r) - 1
when no r + 1 vertices carry consecutive labels.  An incumbent that meets
these bounds is returned as optimal with no search nodes; one of span N
(every radio graceful graph, complete graphs included) needs no
run-length search.

Below the root, exceptional.search_orderings (the search that also finds
r) keeps a vertex placed at depth d only when its label is below
bound + 1 - jump_lower_bound(s, min(r, s)), where s = N - d: the s
vertices from depth d on climb at least jump_lower_bound(s, min(r, s)) - 1
labels by the same count of forced jumps.  Every complete ordering lowers
the bound.  The random incumbents and the run-length search share the
solve deadline; past that or its node cap r = N is used (no forced
jumps), and once the deadline has passed the branch and bound is not
started.  A result that is not optimal carries jump_lower_bound(N, r) as
its proven lower_bound.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from .exceptional import FormulaDomainError, RunSearchBudgetError, constructive_ordering
from .exceptional import jump_lower_bound, max_consecutive_run, search_orderings
from .graphs import HammingGraph
from .labeling import RadioLabeling, span_of_ordering, validate

_RUN_SEARCH_CAP = 200_000
_HEURISTIC_TRIES = 64


class SolverError(RuntimeError):
    """The witness solve() found fails validate(): an internal error."""


@dataclass
class SolverConfig:
    node_budget: int = 5_000_000
    time_budget: float = 300.0
    symmetry_reduction: bool = True

    def __post_init__(self):
        if self.node_budget < 1:
            raise ValueError(f"node_budget must be positive, got {self.node_budget}")
        if self.time_budget <= 0:
            raise ValueError(f"time_budget must be positive, got {self.time_budget}")


@dataclass
class SolveResult:
    rn: int
    witness: RadioLabeling
    optimal: bool
    lower_bound: int  # proven: lower_bound <= rn(g), equal to rn when optimal
    nodes_explored: int
    elapsed: float


def _min_remaining_increment(count: int, run_length: int) -> int:
    """Least climb from the first to the last label of count vertices placed
    one after another when no run_length + 1 labels are consecutive."""
    return jump_lower_bound(count, min(run_length, count)) - 1


def _initial_incumbent(g: HammingGraph, deadline: float) -> tuple[RadioLabeling, int]:
    """A valid labeling to start from: constructive for the diameter-3
    families, otherwise the best of the lexicographic ordering and a few
    random ones, tried only until the deadline (perf_counter time) or until
    one has span N, which no labeling undercuts."""
    try:
        return span_of_ordering(g, constructive_ordering(g.factor_sizes))
    except FormulaDomainError:
        pass

    rng = random.Random(1729)
    verts = g.vertices()
    best_lab, best_span = span_of_ordering(g, verts)
    for _ in range(_HEURISTIC_TRIES):
        if best_span == len(verts) or time.perf_counter() > deadline:
            break
        rng.shuffle(verts)
        lab, span = span_of_ordering(g, verts)
        if span < best_span:
            best_lab, best_span = lab, span
    return best_lab, best_span


def solve(g: HammingGraph, config: SolverConfig | None = None) -> SolveResult:
    """Exact radio number of g, with a labeling of that span as witness.

    optimal is True only when the search space was exhausted under the
    pruning bound within the configured budgets; on budget exhaustion the
    incumbent is still a valid labeling, so rn is never under-reported, and
    lower_bound is the proven root bound.
    """
    cfg = config or SolverConfig()
    started = time.perf_counter()
    n = g.vertex_count
    deadline = started + cfg.time_budget
    best_lab, bound = _initial_incumbent(g, deadline)

    # Root certificate: rn >= N always, and rn >= N + ceil(N / r) - 1 when no
    # run of r + 1 consecutive labels exists.  An incumbent that meets this
    # bound is optimal without search; one of span N needs no run search.
    run_length = n
    if bound > n:
        try:
            run_length = max_consecutive_run(g, cap=_RUN_SEARCH_CAP, deadline=deadline)
        except RunSearchBudgetError:
            pass  # weakest sound choice: no forced jumps assumed
    lower_bound = jump_lower_bound(n, run_length)
    nodes, stop = 0, "exhausted"
    if bound > lower_bound and time.perf_counter() > deadline:
        stop = "time_budget"  # the run search used up the time budget
    elif bound > lower_bound:
        # ceiling[d]: the bound less the least climb of the last s = n - d vertices
        ceiling = [bound - _min_remaining_increment(s, run_length) for s in range(n, 0, -1)]

        def on_leaf(order, labels):
            nonlocal bound, best_lab
            ceiling[:] = [c - (bound - labels[-1]) for c in ceiling]
            bound = labels[-1]
            best_lab = dict(zip(order, labels))

        nodes, _, stop = search_orderings(
            g,
            ceiling,
            on_leaf,
            node_budget=cfg.node_budget,
            deadline=deadline,
            symmetry=cfg.symmetry_reduction,
        )
    report = validate(g, best_lab)
    if not report.valid or report.span != bound:
        raise SolverError(f"internal error: witness invalid for {g}")
    optimal = stop == "exhausted"
    return SolveResult(
        rn=bound,
        witness=best_lab,
        optimal=optimal,
        lower_bound=bound if optimal else lower_bound,
        nodes_explored=nodes,
        elapsed=time.perf_counter() - started,
    )
