"""The two exceptional families and closed-form radio numbers.

Every diameter-3 Hamming graph K_l x K_m x K_n (2 <= l <= m <= n) is radio
graceful, so its radio number is lmn, except for two families:

* K_2 x K_2 x K_n has radio number 6n - 1.  No three vertices admit
  consecutive labels, so among 4n labels at least 2n - 1 gaps of size >= 2
  are forced; the block construction's tight labels skip every multiple of 3.
* K_2 x K_3 x K_3 has radio number 20.  No seven vertices admit consecutive
  labels (a six-step chain of pairwise constraints forces the seventh vertex
  to equal the first), so two label jumps are forced among 18 vertices; the
  block construction's three blocks take the labels 1..6, 8..13 and 15..20.

For both families the tight labeling (span_of_ordering) of the block
construction, ordering.build_ordering, is optimal.  This module is the one
place that maps factor sizes to their family (radio_number_formula).  Its
search_orderings, the one depth-first search over vertex orderings with
greedy labels, finds the longest run of consecutive labels, fills the
solver's climb table and runs its branch and bound, where a run length
becomes a lower bound.
"""

from __future__ import annotations

import math
import operator
import time
from array import array
from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Callable

from .graphs import HammingGraph, Vertex
from .labeling import next_label
from .ordering import build_ordering

_DEADLINE_CHECK_INTERVAL = 256  # search nodes between clock reads


class FormulaDomainError(ValueError):
    """Factor sizes outside the closed-form radio number's domain."""


class RunSearchBudgetError(RuntimeError):
    """Run-length search exceeded its node cap or passed its deadline.

    best_found is the longest run seen before giving up, a valid lower
    bound on the true maximum run length.
    """

    def __init__(self, best_found: int, cap: int, timed_out: bool = False):
        limit = "passed its deadline" if timed_out else f"exceeded {cap} nodes"
        super().__init__(f"run search {limit}; best run found so far: {best_found}")
        self.best_found = best_found
        self.cap = cap
        self.timed_out = timed_out


@dataclass(frozen=True)
class RnFormulaResult:
    value: int
    case_tag: str  # "graceful", "two_two_n", or "two_three_three"
    sizes: tuple[int, int, int]  # the closed form's (n1, n2, n3)


def radio_number_formula(*sizes: int) -> RnFormulaResult:
    """Radio number of K_{n1} x ... x K_{nk} by the closed form.

    Factors may come in any order; factors of size 1 do not change the
    graph and are dropped.  The result's sizes are the ascending factors
    >= 2, and the degenerate 2x2 is (2, 2, 1): K_2 x K_2 x K_1, the 6n - 1
    family with n = 1.  Raises GraphError for sizes that are no graph and
    FormulaDomainError unless the graph is diameter-3 or 2x2.
    """
    g = HammingGraph(sizes)
    nontrivial = sorted(s for s in sizes if s >= 2)
    if nontrivial == [2, 2]:
        nontrivial.append(1)
    if len(nontrivial) != 3:
        raise FormulaDomainError(
            f"{g} is not a diameter-3 Hamming graph "
            "(need three factors >= 2, or the degenerate 2x2)"
        )
    n1, n2, n3 = nontrivial
    if (n1, n2) == (2, 2):
        value, case_tag = 6 * n3 - 1, "two_two_n"
    elif (n1, n2, n3) == (2, 3, 3):
        value, case_tag = 20, "two_three_three"
    else:
        value, case_tag = n1 * n2 * n3, "graceful"
    return RnFormulaResult(value, case_tag, (n1, n2, n3))


def ordering_233() -> list[Vertex]:
    """build_ordering(2, 3, 3), kept only because bench/workloads._pipeline calls it."""
    return build_ordering(2, 3, 3)


def ordering_22n(n: int) -> list[Vertex]:
    """build_ordering(2, 2, n), kept only because bench/workloads._pipeline
    calls it and bench/run.py traces exceptional.ordering_22n."""
    return build_ordering(2, 2, n)


SEARCH_COMPLETE = ("exhausted", "stopped")  # search_orderings ran to its end


def search_orderings(
    g: HammingGraph,
    ceiling: list[int],
    on_leaf: Callable[[list[Vertex], list[int]], bool | None],
    *,
    node_budget: int,
    deadline: float,
) -> tuple[int, int, str]:
    """Depth-first search over vertex orderings of g with greedy labels.

    A vertex placed at depth d gets next_label against the vertices before
    it and is kept only when that label is below ceiling[d].  Each node's
    children are entered in increasing (label, vertex index) order, so the
    best labels are tried first.  This is lazy: a child labeled one above
    its parent, the least possible, is entered as soon as the scan of
    candidates meets it, and the scan resumes after it on backtrack; the
    other children are kept in the frame, 8 bytes each, sorted when the
    scan ends and checked against ceiling again as they are entered.  A
    leaf has len(ceiling) vertices (all N for a complete ordering) and is
    passed to on_leaf(order, labels), which may lower ceiling in place; a
    true return stops the search.  The first vertex is (1, ..., 1), and a
    coordinate value appears only after all smaller values of its factor,
    which loses nothing: Hamming graphs are vertex transitive and values
    within a factor are interchangeable.

    Each unused candidate that passes the symmetry filter is a node.
    The search stops after node_budget nodes or past deadline (perf_counter
    time) and returns (nodes, most vertices placed, reason), the reason
    being "exhausted", "node_budget", "time_budget" or "stopped"; the
    reasons in SEARCH_COMPLETE mean that it was not cut short.
    """
    verts = g.vertices()
    n = len(verts)
    diam = g.diameter
    sizes = list(g.factor_sizes)
    k = len(sizes)
    leaf_depth = len(ceiling) - 1
    # One-hot coordinate masks, made on a vertex's first use: the distance is
    # the number of coordinates minus the bits two masks share.
    offsets = [sum(sizes[:i]) - 1 for i in range(k)]
    masks: list[int | None] = [None] * n
    placed: list[int] = []  # vertex indices in label order
    labels: list[int] = []
    free = list(range(n))  # the unused vertex indices, ascending
    # a frame per depth: [position in free of the next candidate (None once
    # scanned), value limits (None if none bind), children not yet entered as
    # label * n + index]; a frame resumes on the free list it left
    stack = [[0, [1] * k, array("q")]]
    nodes = deepest = 0
    while stack:
        depth = len(placed)
        frame = stack[-1]
        limit, later = frame[1], frame[2]
        least = labels[-1] + 1 if labels else 1
        child = None
        if frame[0] is not None:
            for p in range(frame[0], len(free)):
                ci = free[p]
                cand = verts[ci]
                if limit is not None and any(map(operator.gt, cand, limit)):
                    continue
                nodes += 1
                if nodes > node_budget:
                    return nodes, deepest, "node_budget"
                if nodes % _DEADLINE_CHECK_INTERVAL == 0 and time.perf_counter() > deadline:
                    return nodes, deepest, "time_budget"
                mask = masks[ci]
                if mask is None:
                    mask = masks[ci] = sum(1 << (o + c) for o, c in zip(offsets, cand))
                label = next_label(
                    labels, lambda j: k - (mask & masks[placed[j]]).bit_count(), diam
                )
                if label >= ceiling[depth]:
                    continue
                if depth >= deepest:
                    deepest = depth + 1
                if label > least:
                    later.append(label * n + ci)
                    continue
                frame[0], child = p + 1, ci
                break
            else:
                frame[0] = None
                later = frame[2] = array("q", sorted(later, reverse=True))
        # the least waiting child, unless on_leaf has lowered ceiling below it
        if child is None and later and later[-1] // n < ceiling[depth]:
            label, child = divmod(later.pop(), n)
        if child is None:
            stack.pop()
            if placed:
                insort(free, placed.pop())
                labels.pop()
        elif depth == leaf_depth:
            if on_leaf([verts[i] for i in placed] + [verts[child]], labels + [label]):
                return nodes, deepest, "stopped"
        else:
            placed.append(child)
            labels.append(label)
            del free[bisect_left(free, child)]
            if limit is not None:
                limit = [c + 1 if c == m < s else m for m, c, s in zip(limit, verts[child], sizes)]
            stack.append([0, None if limit == sizes else limit, array("q")])
    return nodes, deepest, "exhausted"


def max_consecutive_run(
    g: HammingGraph, cap: int = 1_000_000, *, deadline: float = math.inf
) -> int:
    """Longest sequence of distinct vertices that could carry consecutive
    labels in some radio labeling of g.

    A sequence y_1, ..., y_r qualifies when d(y_i, y_{i+D}) >= diam - D + 1
    for every window width D < diam.  Found by search_orderings with the
    ceiling d + 2 at depth d, which keeps only the label d + 1; it stops at
    a run through all N vertices, since none can be longer.  cap bounds the
    search nodes: every candidate tried, not only the run's extensions.
    Raises RunSearchBudgetError, carrying the best length found, once more
    than cap nodes were counted or time.perf_counter() has passed deadline.
    """
    if cap < 1:
        raise ValueError(f"cap must be positive, got {cap}")
    _, deepest, stop = search_orderings(
        g,
        [d + 2 for d in range(g.vertex_count)],
        lambda order, labels: True,
        node_budget=cap,
        deadline=deadline,
    )
    if stop in SEARCH_COMPLETE:
        return deepest
    raise RunSearchBudgetError(deepest, cap, timed_out=stop == "time_budget")
