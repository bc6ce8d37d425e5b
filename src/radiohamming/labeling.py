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
with distinct labels that is O(N * diam) after the sort.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Callable, Sequence, TextIO, Union

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
    violations: list[Violation]


def validate(g: HammingGraph, labeling: RadioLabeling) -> ValidationReport:
    """Check the radio condition for every vertex pair.

    The labeling must cover every vertex of g exactly once with positive
    integer labels; anything else raises LabelingError.  Every violating
    unordered pair is reported once, sorted by (smaller label, larger
    label), which makes reports deterministic.
    """
    if not isinstance(labeling, dict):
        raise LabelingError("labeling must map vertices to labels")
    for v, label in labeling.items():
        g.check_vertex(v)
        if isinstance(label, bool) or not isinstance(label, int) or label < 1:
            raise LabelingError(f"label {label!r} for vertex {v} is not a positive integer")
    if len(labeling) != g.vertex_count:
        raise LabelingError(
            f"labeling covers {len(labeling)} of {g.vertex_count} vertices of {g}"
        )

    items = sorted(labeling.items(), key=lambda kv: (kv[1], kv[0]))
    vertices, labels = zip(*items)
    violations = _window_violations(vertices, labels, g.diameter)
    return ValidationReport(valid=not violations, span=labels[-1], violations=violations)


def _window_violations(
    vertices: Sequence[Vertex], labels: Sequence[int], diam: int
) -> list[Violation]:
    """Violating pairs among vertices sorted by (label, vertex), in the order
    validate() reports them.  Labels never decrease, so once no pair delta
    places apart has a gap below diam, no pair further apart has either."""
    found = []
    for delta in range(1, len(vertices)):
        near = False
        for u, v, fu, fv in zip(vertices, vertices[delta:], labels, labels[delta:]):
            gap = fv - fu
            if gap < diam:
                near = True
                required = diam + 1 - hamming(u, v)
                if gap < required:
                    found.append((fu, u, fv, v, Violation(u, v, required, gap)))
        if not near:
            break
    return [pair[-1] for pair in sorted(found)]


def verify_bijection(g: HammingGraph, ordering: Ordering) -> bool:
    """True iff ordering lists every vertex of g exactly once."""
    if len(ordering) != g.vertex_count:
        return False
    seen = set()
    for v in ordering:
        if not g.is_vertex(v) or v in seen:
            return False
        seen.add(v)
    return True


def check_graceful(g: HammingGraph, ordering: Ordering) -> GracefulReport:
    """Check whether the consecutive labeling f(x_i) = i is a radio labeling.

    Equivalent to validate() on that labeling: the only pairs that can fail
    are those within a window of diam(G) - 1 positions.  Raises
    LabelingError if the ordering is not a bijection onto V(g).
    """
    if not verify_bijection(g, ordering):
        raise LabelingError(f"ordering is not a bijection onto the vertices of {g}")
    violations = _window_violations(ordering, range(1, len(ordering) + 1), g.diameter)
    return GracefulReport(graceful=not violations, violations=violations)


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
    earlier vertex.  Returns (labeling, span).
    """
    if not verify_bijection(g, ordering):
        raise LabelingError(f"ordering is not a bijection onto the vertices of {g}")
    diam = g.diameter
    labels: list[int] = []
    for v in ordering:
        labels.append(next_label(labels, lambda j: hamming(ordering[j], v), diam))
    return dict(zip(ordering, labels)), labels[-1] if labels else 0


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
