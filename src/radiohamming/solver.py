"""Exact radio numbers by branch and bound over vertex orderings.

Any radio labeling, sorted by label, is a vertex ordering, and relabeling
that ordering greedily (each vertex gets the smallest label above its
predecessor's that satisfies the radio condition against all earlier
vertices) never increases the span.  The minimum over all orderings of the
greedy span is therefore the radio number, and the search runs over
orderings with greedy labels instead of over label assignments.  Smaller
earlier labels only weaken later constraints, so fixing the greedy label at
every prefix loses nothing.

Root certificate: rn(G) >= N = |V(G)| for every graph, and rn(G) >=
N + ceil(N / r) - 1 when no r + 1 vertices carry consecutive labels.  The
solver first compares its incumbent with these bounds and returns it as
optimal, with no search nodes, whenever it meets them.  An incumbent of
span N (the constructive labeling of every radio graceful graph) is
certified before the run-length search is even started; for the
exceptional families the run length r meets the constructive labeling.

Pruning below the root combines the incumbent with the same run-length
bound: labels of the remaining S vertices (counting the one just placed)
must climb by at least S - 1 unit steps plus ceil(S / r) - 1 forced jumps.
The run-length search shares the solve deadline; when it passes that or
its node cap, r = N is used, which assumes no forced jumps.  The search is
depth first on an explicit stack, so its depth is not limited by the
interpreter's recursion limit.

Symmetry reduction exploits that Hamming graphs are vertex transitive and
that coordinate values within a factor are interchangeable: the first
vertex is (1, ..., 1) and a coordinate value may appear only after all
smaller values of its factor (canonical first use).  Both reductions
preserve the optimum.
"""

from __future__ import annotations

import math
import operator
import random
import time
from dataclasses import dataclass

from .exceptional import FormulaDomainError, RunSearchBudgetError
from .exceptional import constructive_ordering, jump_lower_bound, max_consecutive_run
from .graphs import HammingGraph, hamming
from .labeling import RadioLabeling, next_label, span_of_ordering, validate

_RUN_SEARCH_CAP = 200_000
_HEURISTIC_TRIES = 64
_TIME_CHECK_INTERVAL = 256


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


def _initial_incumbent(g: HammingGraph) -> tuple[RadioLabeling, int]:
    """A valid labeling to start from: constructive for the diameter-3
    families, best-of-a-few random greedy orderings otherwise."""
    try:
        return span_of_ordering(g, constructive_ordering(g.factor_sizes))
    except FormulaDomainError:
        pass

    rng = random.Random(1729)
    verts = g.vertices()
    best_lab, best_span = span_of_ordering(g, verts)
    for _ in range(_HEURISTIC_TRIES):
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
    diam = g.diameter

    def finish(rn, witness, optimal, nodes):
        report = validate(g, witness)
        if not report.valid or report.span != rn:
            raise SolverError(f"internal error: witness invalid for {g}")
        return SolveResult(
            rn=rn,
            witness=witness,
            optimal=optimal,
            nodes_explored=nodes,
            elapsed=time.perf_counter() - started,
        )

    verts = g.vertices()
    if diam <= 1:
        # Complete graph (or a single vertex): any injective labeling works.
        return finish(n, {v: i + 1 for i, v in enumerate(verts)}, True, 0)

    best_lab, best_span = _initial_incumbent(g)
    bound = best_span
    if cfg.initial_upper_bound is not None and cfg.initial_upper_bound < bound:
        bound = cfg.initial_upper_bound
        if best_span > bound:
            best_lab = None  # no witness below the user's bound yet

    # Root certificate: rn >= N always, and rn >= N + ceil(N / r) - 1 when no
    # run of r + 1 consecutive labels exists.  An incumbent that meets this
    # bound is optimal without search; one of span N needs no run search.
    deadline = started + cfg.time_budget
    run_length = n
    if bound > n:
        try:
            run_length = max_consecutive_run(g, cap=_RUN_SEARCH_CAP, deadline=deadline)
        except RunSearchBudgetError:
            pass  # weakest sound choice: no forced jumps assumed
    nodes = 0
    exhausted = True
    if bound > jump_lower_bound(n, run_length):
        dist = [[hamming(a, b) for b in verts] for a in verts]
        # increments[d]: least climb from a label placed at depth d to the end
        increments = [minimal_remaining_increment(n - d, run_length) for d in range(n)]
        placed: list[int] = []  # vertex indices in label order
        labels: list[int] = []
        used = [False] * n
        # Canonical first use: a coordinate value is allowed only once all
        # smaller values of its factor appeared, so the first vertex is all
        # ones.  limits[d][i] is the largest value factor i may take at
        # depth d.
        limits = [[1] * len(g.factor_sizes)]
        symmetry = cfg.symmetry_reduction
        # Depth-first search on an explicit stack: cursors[d] is the index
        # of the next candidate to try at depth d.
        cursors = [0]
        while cursors and exhausted:
            depth = len(placed)
            limit = limits[-1]
            increment = increments[depth]
            for ci in range(cursors[-1], n):
                if used[ci]:
                    continue
                cand = verts[ci]
                if symmetry and any(map(operator.gt, cand, limit)):
                    continue
                nodes += 1
                if nodes > cfg.node_budget or (
                    nodes % _TIME_CHECK_INTERVAL == 0 and time.perf_counter() > deadline
                ):
                    exhausted = False
                    break
                drow = dist[ci]
                label = next_label(labels, lambda j: drow[placed[j]], diam)
                if label + increment >= bound:
                    continue
                if depth + 1 == n:
                    bound = label
                    best_lab = {verts[i]: f for i, f in zip(placed, labels)}
                    best_lab[cand] = label
                    continue
                cursors[-1] = ci + 1
                cursors.append(0)
                placed.append(ci)
                labels.append(label)
                used[ci] = True
                limits.append([c + 1 if c >= m else m for m, c in zip(limit, cand)])
                break
            else:
                cursors.pop()
                if placed:
                    used[placed.pop()] = False
                    labels.pop()
                    limits.pop()

    if best_lab is None:
        raise SolverError(
            f"no radio labeling of {g} with span below "
            f"{cfg.initial_upper_bound} found; rn({g}) >= {cfg.initial_upper_bound}"
        )
    return finish(bound, best_lab, exhausted, nodes)
