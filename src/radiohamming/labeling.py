"""Radio labelings and their validation.

A radio labeling of a graph G assigns a positive integer f(v) to every
vertex so that |f(u) - f(v)| >= diam(G) + 1 - d(u,v) for all distinct u, v.
The span of a labeling is its largest label, and the radio number of G is
the minimum span over all radio labelings.  G is radio graceful when some
ordering x_1, ..., x_N of its vertices makes f(x_i) = i a radio labeling,
which holds exactly when d(x_i, x_{i+D}) >= diam(G) - D + 1 for every
window width D < diam(G).

Only pairs whose labels differ by less than diam(G) can violate the radio
condition, so validation scans the label-sorted vertices for pairs one, two,
... places apart and stops at the first distance with no gap below diam(G);
with distinct labels that is O(N * diam) after the sort.  The per-vertex
and per-pair work runs in C-level streams (map, zip, itemgetter, islice)
column by column: a bulk vertex check, and one window scan that adds the
label gap to per-column coordinate mismatches and yields the pairs it flags.

check_graceful is the one yes/no graceful test: the window scan on the
consecutive labels, stopped at the first flagged pair.  span_of_ordering
starts from it and, on a graceful ordering, returns the labels 1..N without
the greedy loop.  This is exact: by induction, the greedy gives position i
the label i for every i iff the consecutive labeling is a radio labeling.
Violation objects are built only for validate's reports.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from itertools import chain, compress, count, islice, repeat
from operator import add, itemgetter, le, lt, ne, sub
from typing import Callable, Collection, Iterable, Iterator, Sequence, TextIO, Union

from .graphs import GraphError, HammingGraph, Vertex, format_vertex, hamming, parse_vertex

RadioLabeling = dict[Vertex, int]
Ordering = Sequence[Vertex]


class LabelingError(ValueError):
    """Labeling or ordering that does not meet an operation's contract."""


@dataclass(frozen=True)
class Violation:
    """One vertex pair whose label gap is below the radio condition."""

    u: Vertex
    v: Vertex
    required_gap: int
    actual_gap: int

    def to_json(self) -> dict:
        return {
            "u": format_vertex(self.u),
            "v": format_vertex(self.v),
            "required_gap": self.required_gap,
            "actual_gap": self.actual_gap,
        }


@dataclass
class ValidationReport:
    valid: bool
    span: int
    violations: list[Violation]

    def to_json(self) -> dict:
        return {
            "valid": self.valid,
            "span": self.span,
            "violations": [v.to_json() for v in self.violations],
        }


@dataclass
class GracefulReport:
    graceful: bool


def validate(g: HammingGraph, labeling: RadioLabeling) -> ValidationReport:
    """Check the radio condition for every vertex pair.

    The labeling must cover every vertex of g exactly once with positive
    integer labels; anything else raises LabelingError.  Every violating
    unordered pair is reported once, sorted by (smaller label, larger
    label), which makes reports deterministic.
    """
    if not isinstance(labeling, dict):
        raise LabelingError("labeling must map vertices to labels")
    labels = labeling.values()
    if not (_are_vertices(g, labeling) and _are_ints(labels) and min(labels, default=1) >= 1):
        # find the first bad item, in dict order, to name it in the error
        for v, label in labeling.items():
            g.check_vertex(v)
            if isinstance(label, bool) or not isinstance(label, int) or label < 1:
                raise LabelingError(f"label {label!r} for vertex {v} is not a positive integer")
    if len(labeling) != g.vertex_count:
        raise LabelingError(
            f"labeling covers {len(labeling)} of {g.vertex_count} vertices of {g}"
        )

    labels, vertices = zip(*sorted(zip(labeling.values(), labeling)))
    diam = g.diameter
    # position order is (smaller label, vertex, larger label, vertex) order,
    # because the vertices are sorted by (label, vertex)
    violations = []
    for i, j in sorted(_window_violations(vertices, labels, diam)):
        u, v = vertices[i], vertices[j]
        violations.append(Violation(u, v, diam + 1 - hamming(u, v), labels[j] - labels[i]))
    return ValidationReport(valid=not violations, span=labels[-1], violations=violations)


def _are_ints(values: Iterable) -> bool:
    """True iff every value is an int and none is a bool (as graphs._is_int)."""
    return all(issubclass(t, int) and not issubclass(t, bool) for t in set(map(type, values)))


def _are_vertices(g: HammingGraph, items: Collection[Vertex]) -> bool:
    """True iff every item is a vertex of g: g.check_vertex's test, column
    by column."""
    sizes = g.factor_sizes
    if not (
        all(map(isinstance, items, repeat(tuple)))
        and set(map(len, items)) <= {len(sizes)}
        and _are_ints(chain.from_iterable(items))
    ):
        return False
    for c, size in enumerate(sizes):
        values = set(map(itemgetter(c), items))
        if min(values, default=1) < 1 or max(values, default=1) > size:
            return False
    return True


def _window_violations(
    vertices: Sequence[Vertex], labels: Sequence[int], diam: int
) -> Iterator[tuple[int, int]]:
    """Positions i < j of the violating pairs among vertices sorted by
    (label, vertex), one offset j - i at a time.

    A pair violates iff its label gap plus its distance is at most diam;
    the distance is summed over lazy per-column mismatch streams.  Distinct
    vertices are at distance >= 1, so only gaps below diam can violate, and
    labels never decrease, so once no pair at some offset has a gap below
    diam, no pair further apart has either.
    """
    for delta in range(1, len(vertices)):
        if not any(map(lt, map(sub, islice(labels, delta, None), labels), repeat(diam))):
            return
        total = map(sub, islice(labels, delta, None), labels)
        for c in range(len(vertices[0])):
            column = itemgetter(c)
            differs = map(ne, map(column, islice(vertices, delta, None)), map(column, vertices))
            total = map(add, total, differs)
        for i in compress(count(), map(le, total, repeat(diam))):
            yield i, i + delta


def verify_bijection(g: HammingGraph, ordering: Ordering) -> bool:
    """True iff ordering lists every vertex of g exactly once."""
    return (
        len(ordering) == g.vertex_count
        and _are_vertices(g, ordering)
        and len(set(ordering)) == len(ordering)
    )


def check_graceful(g: HammingGraph, ordering: Ordering) -> GracefulReport:
    """Check whether the consecutive labeling f(x_i) = i is a radio labeling.

    Equivalent to validate() on that labeling: the only pairs that can fail
    are those within a window of diam(G) - 1 positions, and the scan stops
    at the first pair that fails.  Raises LabelingError if the ordering is
    not a bijection onto V(g).
    """
    if not verify_bijection(g, ordering):
        raise LabelingError(f"ordering is not a bijection onto the vertices of {g}")
    flagged = _window_violations(ordering, range(1, len(ordering) + 1), g.diameter)
    return GracefulReport(graceful=next(flagged, None) is None)


def next_label(labels: Sequence[int], dist_back: Callable[[int], int], diam: int) -> int:
    """Smallest label above labels[-1] that meets the radio condition.

    labels are those of the vertices placed so far, in increasing order, and
    dist_back(j) is the distance from the new vertex to the one labeled
    labels[j].  Scans back from the last label and stops at the first one
    at least diam below the candidate: that gap and every earlier one
    already satisfy the condition.  With nothing placed the label is 1.
    """
    if not labels:
        return 1
    label = labels[-1] + 1
    for j in range(len(labels) - 1, -1, -1):
        prev = labels[j]
        if prev <= label - diam:
            break
        need = prev + diam + 1 - dist_back(j)
        if need > label:
            label = need
    return label


def span_of_ordering(g: HammingGraph, ordering: Ordering) -> tuple[RadioLabeling, int]:
    """Tightest labeling that respects the given vertex order.

    Assigns f(x_1) = 1 and then gives each vertex the smallest label above
    its predecessor's that satisfies the radio condition against all earlier
    vertices (next_label).  No labeling that is monotone in this order can
    have a smaller span: lowering any label breaks a constraint with an
    earlier vertex.  A radio graceful ordering (check_graceful) gets the
    labels 1..N without the greedy loop, which would assign them too.
    Raises LabelingError if the ordering is not a bijection onto V(g).
    Returns (labeling, span).
    """
    if check_graceful(g, ordering).graceful:
        return dict(zip(ordering, range(1, len(ordering) + 1))), len(ordering)
    diam = g.diameter
    labels: list[int] = []
    for v in ordering:
        labels.append(next_label(labels, lambda j: hamming(ordering[j], v), diam))
    return dict(zip(ordering, labels)), labels[-1]


def read_labeling_csv(source: Union[str, TextIO]) -> RadioLabeling:
    """Read a labeling from CSV with header "vertex,label".

    Vertices use the "(i,j,k)" text form.  Raises LabelingError on any
    malformed content; whether the labeling is total over a graph is checked
    later by validate().
    """
    if isinstance(source, str):
        with open(source, newline="") as fh:
            return read_labeling_csv(fh)
    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        raise LabelingError("empty labeling file") from None
    if [h.strip().lower() for h in header] != ["vertex", "label"]:
        raise LabelingError(f"expected header 'vertex,label', got {header!r}")
    labeling: RadioLabeling = {}
    for row in reader:
        if not row:
            continue
        if len(row) != 2:
            raise LabelingError(f"malformed labeling row {row!r}")
        try:
            vertex = parse_vertex(row[0])
        except GraphError as exc:
            raise LabelingError(str(exc)) from None
        try:
            label = int(row[1])
        except ValueError:
            raise LabelingError(f"malformed label {row[1]!r}") from None
        if vertex in labeling:
            raise LabelingError(f"vertex {format_vertex(vertex)} labeled twice")
        labeling[vertex] = label
    return labeling


def write_labeling_csv(target: Union[str, TextIO], labeling: RadioLabeling) -> None:
    """Write a labeling as CSV rows sorted by label."""
    if isinstance(target, str):
        with open(target, "w", newline="") as fh:
            write_labeling_csv(fh, labeling)
        return
    writer = csv.writer(target, lineterminator="\n")
    writer.writerow(["vertex", "label"])
    for vertex, label in sorted(labeling.items(), key=lambda kv: (kv[1], kv[0])):
        writer.writerow([format_vertex(vertex), label])
