"""Exact radio numbers by branch and bound over vertex orderings.

Any radio labeling, sorted by label, is a vertex ordering, and relabeling
that ordering greedily (each vertex gets the smallest label above its
predecessor's that satisfies the radio condition against all earlier
vertices) never increases the span.  The minimum over all orderings of the
greedy span is therefore the radio number, and the search runs over
orderings with greedy labels instead of over label assignments.  Smaller
earlier labels only weaken later constraints, so fixing the greedy label at
every prefix loses nothing.

Pruning combines the incumbent with a run-length bound: labels of the
remaining S vertices (counting the one just placed) must climb by at least
S - 1 unit steps plus ceil(S / r) - 1 forced jumps, where r is the longest
consecutive run the graph admits.  For the exceptional families this bound
already meets the constructive labeling at the root, so those instances
certify instantly; for radio graceful graphs the same happens with r = N.

Symmetry reduction exploits that Hamming graphs are vertex transitive and
that coordinate values within a factor are interchangeable: the first
vertex is (1, ..., 1) and a coordinate value may appear only after all
smaller values of its factor (canonical first use).  Both reductions
preserve the optimum.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass

from .exceptional import FormulaDomainError, RunSearchBudgetError
from .exceptional import constructive_ordering, max_consecutive_run
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

    try:
        run_length = max_consecutive_run(g, cap=_RUN_SEARCH_CAP)
    except RunSearchBudgetError:
        run_length = n  # weakest sound choice: no forced jumps assumed

    dist = [[hamming(a, b) for b in verts] for a in verts]
    factor_count = len(g.factor_sizes)

    placed: list[int] = []  # vertex indices in label order
    labels: list[int] = []
    used = [False] * n
    # Canonical first use: a coordinate value is allowed only once all
    # smaller values of its factor appeared, so the first vertex is all ones.
    max_used = [0] * factor_count
    nodes = 0
    exhausted = True
    deadline = started + cfg.time_budget

    def out_of_budget() -> bool:
        nonlocal exhausted
        if nodes > cfg.node_budget:
            exhausted = False
            return True
        if nodes % _TIME_CHECK_INTERVAL == 0 and time.perf_counter() > deadline:
            exhausted = False
            return True
        return False

    def descend() -> bool:
        """Extend the current prefix; returns False once budgets ran out."""
        nonlocal nodes, best_lab, bound
        depth = len(placed)
        for ci in range(n):
            if used[ci]:
                continue
            cand = verts[ci]
            if cfg.symmetry_reduction and any(
                c > m + 1 for c, m in zip(cand, max_used)
            ):
                continue
            nodes += 1
            if out_of_budget():
                return False
            drow = dist[ci]
            label = next_label(labels, lambda j: drow[placed[j]], diam)
            if label + minimal_remaining_increment(n - depth, run_length) >= bound:
                continue
            if depth + 1 == n:
                bound = label
                best_lab = {verts[i]: f for i, f in zip(placed, labels)}
                best_lab[cand] = label
                continue
            placed.append(ci)
            labels.append(label)
            used[ci] = True
            saved = None
            if cfg.symmetry_reduction:
                saved = max_used.copy()
                for i, c in enumerate(cand):
                    if c > max_used[i]:
                        max_used[i] = c
            ok = descend()
            used[ci] = False
            placed.pop()
            labels.pop()
            if saved is not None:
                max_used[:] = saved
            if not ok:
                return False
        return True

    descend()

    if best_lab is None:
        raise SolverError(
            f"no radio labeling of {g} with span below "
            f"{cfg.initial_upper_bound} found; rn({g}) >= {cfg.initial_upper_bound}"
        )
    return finish(bound, best_lab, exhausted, nodes)
