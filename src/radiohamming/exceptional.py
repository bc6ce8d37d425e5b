"""The two exceptional families and closed-form radio numbers.

Every diameter-3 Hamming graph K_l x K_m x K_n (2 <= l <= m <= n) is radio
graceful, so its radio number is lmn, except for two families:

* K_2 x K_2 x K_n has radio number 6n - 1.  No three vertices admit
  consecutive labels, so among 4n labels at least 2n - 1 gaps of size >= 2
  are forced.
* K_2 x K_3 x K_3 has radio number 20.  No seven vertices admit consecutive
  labels (a six-step chain of pairwise constraints forces the seventh vertex
  to equal the first), so two label jumps are forced among 18 vertices.

For both families this module holds a vertex ordering whose tight labeling
(span_of_ordering) is optimal, and it is the one place that maps factor
sizes to their family and that family's ordering (formula_sizes,
constructive_ordering).  Its search_orderings, the one depth-first search
over vertex orderings with greedy labels, finds the longest run of
consecutive labels, fills the solver's climb table and runs its branch and
bound, where a run length becomes a lower bound.
"""

from __future__ import annotations

import math
import operator
import time
from array import array
from dataclasses import dataclass
from typing import Callable, Sequence

from .graphs import HammingGraph, Vertex, check_materializable
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


def radio_number_formula(n1: int, n2: int, n3: int) -> RnFormulaResult:
    """Radio number of K_{n1} x K_{n2} x K_{n3} for sorted sizes.

    Requires 2 <= n1 <= n2 <= n3.  The degenerate (2, 2, 1) is also
    accepted: K_2 x K_2 x K_1 is K_2 x K_2, covered by the 6n - 1 family
    with n = 1.
    """
    if (n1, n2, n3) == (2, 2, 1):
        return RnFormulaResult(value=5, case_tag="two_two_n")
    if not (2 <= n1 <= n2 <= n3):
        raise FormulaDomainError(
            f"factor sizes must satisfy 2 <= n1 <= n2 <= n3, got {(n1, n2, n3)}"
        )
    if (n1, n2) == (2, 2):
        return RnFormulaResult(value=6 * n3 - 1, case_tag="two_two_n")
    if (n1, n2, n3) == (2, 3, 3):
        return RnFormulaResult(value=20, case_tag="two_three_three")
    return RnFormulaResult(value=n1 * n2 * n3, case_tag="graceful")


def formula_sizes(sizes: Sequence[int]) -> tuple[int, int, int]:
    """The closed form's (n1, n2, n3) for a graph with these factor sizes.

    Factors may come in any order; factors of size 1 do not change the
    graph and are dropped, and the degenerate 2x2 maps to (2, 2, 1).
    Raises FormulaDomainError unless the graph is diameter-3 or 2x2.
    """
    HammingGraph(tuple(sizes))  # rejects sizes that are no graph
    nontrivial = tuple(sorted(s for s in sizes if s >= 2))
    if nontrivial == (2, 2):
        return (2, 2, 1)
    if len(nontrivial) != 3:
        raise FormulaDomainError(
            f"{'x'.join(map(str, sizes))} is not a diameter-3 Hamming graph "
            "(need three factors >= 2, or the degenerate 2x2)"
        )
    return nontrivial  # type: ignore[return-value]


def constructive_ordering(sizes: Sequence[int]) -> list[Vertex]:
    """Vertex ordering whose tight labeling has the formula's span: the block
    construction, or the ordering of the exceptional family.

    Vertices are in the caller's coordinates (coordinate i ranges over
    1..sizes[i]).  Raises FormulaDomainError like formula_sizes.
    """
    n1, n2, n3 = formula_sizes(sizes)
    if (n1, n2) == (2, 2):
        order = ordering_22n(n3)
    elif (n1, n2, n3) == (2, 3, 3):
        order = ordering_233()
    else:
        order = build_ordering(n1, n2, n3)
    # Pad the family's vertices with the size-1 factors, which sort first,
    # then move every coordinate back to its factor's place in sizes.
    pad = (1,) * (len(sizes) - len(order[0]))
    by_size = sorted(range(len(sizes)), key=sizes.__getitem__)
    back = operator.itemgetter(*(by_size.index(i) for i in range(len(sizes))))
    return [back(pad + v) for v in order]


# Optimal ordering of K_2 x K_3 x K_3.  Its tight labels are 1..6, 8..13 and
# 15..20: the first six are consecutive (the longest run this graph admits)
# and each later group of six starts after a forced jump.
_ORDER_233: tuple[Vertex, ...] = (
    (1, 1, 1), (2, 2, 2), (1, 3, 3), (2, 1, 1), (1, 2, 2), (2, 3, 3),
    (1, 1, 2), (2, 2, 3), (1, 3, 1), (2, 1, 2), (1, 2, 3), (2, 3, 1),
    (1, 1, 3), (2, 2, 1), (1, 3, 2), (2, 1, 3), (1, 2, 1), (2, 3, 2),
)


def ordering_233() -> list[Vertex]:
    """Ordering of K_2 x K_3 x K_3 whose tight labeling (span_of_ordering)
    has span 20."""
    return list(_ORDER_233)


# Base orderings for K_2 x K_2 x K_n.  n = 1 degenerates to K_2 x K_2 with
# two-coordinate vertices.  Even n starts from nothing: the first appended
# block is the n = 2 ordering.  The n = 3 base induces the tight labels
# 1,2,4,5,...,16,17; even-n orderings end with (1,1,n),(2,2,n-1) and the
# n = 3 ordering ends with (1,2,3), which is what the append step relies on.
_ORDER_2X2: tuple[Vertex, ...] = ((1, 1), (2, 2), (2, 1), (1, 2))

_ORDER_2X2X3: tuple[Vertex, ...] = (
    (1, 1, 1),
    (2, 2, 2),
    (2, 1, 1),
    (1, 2, 2),
    (2, 2, 1),
    (1, 1, 3),
    (1, 2, 1),
    (2, 1, 3),
    (1, 1, 2),
    (2, 2, 3),
    (2, 1, 2),
    (1, 2, 3),
)


def _append_block(n_prev: int) -> list[Vertex]:
    """Eight vertices extending an ordering of K_2 x K_2 x K_{n_prev} by two
    new last-coordinate values; their tight labels are 6*n_prev + 1, +2, +4,
    +5, +7, +8, +10, +11."""
    a, b = n_prev + 1, n_prev + 2
    return [
        (1, 1, a),
        (2, 2, b),
        (2, 1, a),
        (1, 2, b),
        (2, 1, b),
        (1, 2, a),
        (1, 1, b),
        (2, 2, a),
    ]


def ordering_22n(n: int) -> list[Vertex]:
    """Vertex ordering of K_2 x K_2 x K_n whose tight labeling has span 6n-1.

    For n = 1 the graph degenerates to K_2 x K_2 and the vertices are
    two-coordinate.  Otherwise the ordering grows from nothing (even n) or
    the n = 3 base (odd n) by appending one eight-vertex block per two new
    K_n values.  Its tight labeling (span_of_ordering) gives position i the
    i-th positive integer not divisible by 3 (1, 2, 4, 5, 7, 8, ...).
    Raises GraphError above graphs.MAX_MATERIALIZED_VERTICES vertices.
    """
    if n < 1:
        raise FormulaDomainError(f"need n >= 1, got {n}")
    check_materializable(4 * n, f"2x2x{n}")
    if n == 1:
        return list(_ORDER_2X2)
    order = list(_ORDER_2X2X3) if n % 2 else []
    for n_prev in range(3 if n % 2 else 0, n, 2):
        order.extend(_append_block(n_prev))
    return order


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

    Each candidate that passes the used and symmetry filters is a node.
    The search stops after node_budget nodes or past deadline (perf_counter
    time) and returns (nodes, most vertices placed, reason), the reason
    being "exhausted", "node_budget", "time_budget" or "stopped".
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
    used = [False] * n
    # a frame per depth: [next candidate index (None once scanned), value limits
    # or None if none bind, children not yet entered as label * n + index]
    stack = [[0, [1] * k, array("q")]]
    nodes = deepest = 0
    while stack:
        depth = len(placed)
        frame = stack[-1]
        limit, later = frame[1], frame[2]
        least = labels[-1] + 1 if labels else 1
        child = None
        if frame[0] is not None:
            for ci in range(frame[0], n):
                if used[ci]:
                    continue
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
                frame[0], child = ci + 1, ci
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
                used[placed.pop()] = False
                labels.pop()
        elif depth == leaf_depth:
            if on_leaf([verts[i] for i in placed] + [verts[child]], labels + [label]):
                return nodes, deepest, "stopped"
        else:
            placed.append(child)
            labels.append(label)
            used[child] = True
            if limit is not None:
                limit = [c + 1 if c == m < s else m for m, c, s in zip(limit, verts[child], sizes)]
            stack.append([0, None if limit == sizes else limit, array("q")])
    return nodes, deepest, "exhausted"


def max_consecutive_run(
    g: HammingGraph, cap: int = 1_000_000, *, deadline: float | None = None
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
        deadline=math.inf if deadline is None else deadline,
    )
    if stop in ("exhausted", "stopped"):
        return deepest
    raise RunSearchBudgetError(deepest, cap, timed_out=stop == "time_budget")
