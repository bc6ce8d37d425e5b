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
(every radio graceful graph) needs no run-length search.

Below the root, exceptional.search_orderings (the search that also finds
r) keeps a vertex placed at depth d only when its label is below
bound - minimal_remaining_increment(N - d, r), and every complete ordering
lowers the bound.  The random incumbents and the run-length search share
the solve deadline; past that or its node cap r = N is used (no forced
jumps), and once the deadline has passed the branch and bound is not
started.  A result that is not optimal carries jump_lower_bound(N, r) as
its proven lower_bound.
"""

from __future__ import annotations

import math
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
    """Search finished without producing a witness (see solve())."""


@dataclass
class SolverConfig:
    node_budget: int = 5_000_000
    time_budget: float = 300.0
    symmetry_reduction: bool = True
    initial_upper_bound: int | None = None

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


def minimal_remaining_increment(remaining: int, run_length: int) -> int:
    """Lower bound on (final label - current label) over any valid completion.

    remaining counts the suffix including the vertex just labeled.  The
    suffix needs remaining - 1 unit steps, and its consecutive-label runs
    have length at most run_length, forcing ceil(remaining / run_length) - 1
    additional jumps of at least one extra unit.
    """
    if remaining < 1 or run_length < 1:
        raise ValueError(
            f"remaining and run length must be >= 1, got {remaining}, {run_length}"
        )
    return (remaining - 1) + (math.ceil(remaining / run_length) - 1)


def _initial_incumbent(g: HammingGraph, deadline: float) -> tuple[RadioLabeling, int]:
    """A valid labeling to start from: constructive for the diameter-3
    families, otherwise the best of the lexicographic ordering and a few
    random ones, tried only until the deadline (perf_counter time)."""
    try:
        return span_of_ordering(g, constructive_ordering(g.factor_sizes))
    except FormulaDomainError:
        pass

    rng = random.Random(1729)
    verts = g.vertices()
    best_lab, best_span = span_of_ordering(g, verts)
    for _ in range(_HEURISTIC_TRIES):
        if time.perf_counter() > deadline:
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
    incumbent is still a valid labeling, so rn is never under-reported.  If
    config.initial_upper_bound is below every labeling the search can find,
    no witness exists and SolverError is raised (this still proves that the
    radio number is at least that bound).
    """
    cfg = config or SolverConfig()
    started = time.perf_counter()
    n = g.vertex_count

    def finish(rn, witness, optimal, lower_bound, nodes):
        report = validate(g, witness)
        if not report.valid or report.span != rn:
            raise SolverError(f"internal error: witness invalid for {g}")
        return SolveResult(
            rn=rn,
            witness=witness,
            optimal=optimal,
            lower_bound=rn if optimal else lower_bound,
            nodes_explored=nodes,
            elapsed=time.perf_counter() - started,
        )

    if g.diameter <= 1:
        # Complete graph (or a single vertex): any injective labeling works.
        return finish(n, {v: i + 1 for i, v in enumerate(g.vertices())}, True, n, 0)

    deadline = started + cfg.time_budget
    best_lab, best_span = _initial_incumbent(g, deadline)
    bound = best_span
    if cfg.initial_upper_bound is not None and cfg.initial_upper_bound < bound:
        bound = cfg.initial_upper_bound
        if best_span > bound:
            best_lab = None  # no witness below the user's bound yet

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
        # ceiling[d]: the bound less the least climb from depth d to the end
        ceiling = [bound - minimal_remaining_increment(n - d, run_length) for d in range(n)]

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

    if best_lab is None:
        raise SolverError(
            f"no radio labeling of {g} with span below "
            f"{cfg.initial_upper_bound} found; rn({g}) >= {cfg.initial_upper_bound}"
        )
    return finish(bound, best_lab, stop == "exhausted", lower_bound, nodes)
