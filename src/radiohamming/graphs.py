"""Hamming graphs: finite Cartesian products of complete graphs.

A Hamming graph is stored as its tuple of factor sizes (n1, ..., nd).  The
vertices are the coordinate tuples with 1 <= v[i] <= n[i], and the distance
between two vertices is the number of coordinates in which they differ, so
every factor of size >= 2 contributes exactly one to the diameter.  Factors
of size 1 are allowed; they never affect distances.

All operations here are pure functions of immutable values and are safe to
call concurrently.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from array import array
from dataclasses import dataclass
from typing import Collection, Iterable

Vertex = tuple[int, ...]

# Refuse to materialize vertex lists or orderings beyond this many vertices.
MAX_MATERIALIZED_VERTICES = 10_000_000

_VERTEX_RE = re.compile(r"^\(\s*\d+\s*(,\s*\d+\s*)*\)$")


class GraphError(ValueError):
    """Invalid graph description, or a vertex outside the graph."""


def _int_type(t: type) -> bool:
    # bool is an int subclass, but True is no factor size, coordinate or label
    return issubclass(t, int) and not issubclass(t, bool)


def are_ints(values: Iterable) -> bool:
    """True iff every value is an int and none is a bool; one test per type."""
    return all(map(_int_type, set(map(type, values))))


def check_materializable(graph: HammingGraph) -> None:
    """Raise GraphError if graph has too many vertices to list."""
    if graph.vertex_count > MAX_MATERIALIZED_VERTICES:
        raise GraphError(f"refusing to materialize {graph.vertex_count} vertices of {graph}")


def hamming(a: Vertex, b: Vertex) -> int:
    """Distance of a and b, the number of coordinates in which they differ,
    for vertices already checked to belong to one graph
    (HammingGraph.check_vertex)."""
    return sum(map(operator.ne, a, b))


@dataclass(frozen=True)
class HammingGraph:
    """Product of complete graphs K_{n1} x K_{n2} x ... x K_{nd}."""

    factor_sizes: tuple[int, ...]

    def __post_init__(self):
        sizes = tuple(self.factor_sizes)
        object.__setattr__(self, "factor_sizes", sizes)
        if not sizes:
            raise GraphError("a Hamming graph needs at least one factor")
        if not are_ints(sizes) or min(sizes) < 1:
            raise GraphError(f"factor sizes must be integers >= 1, got {sizes!r}")

    def __str__(self) -> str:
        return "x".join(str(s) for s in self.factor_sizes)

    @property
    def vertex_count(self) -> int:
        return math.prod(self.factor_sizes)

    @property
    def diameter(self) -> int:
        # Each nontrivial complete factor has diameter 1; distances add up.
        return sum(1 for s in self.factor_sizes if s >= 2)

    def check_vertex(self, v: Vertex) -> None:
        """Raise GraphError unless v is a vertex of this graph."""
        if not isinstance(v, tuple) or len(v) != len(self.factor_sizes):
            raise GraphError(
                f"vertex {v!r} has wrong dimension for graph {self} "
                f"(expected {len(self.factor_sizes)} coordinates)"
            )
        for coord, size in zip(v, self.factor_sizes):
            if not _int_type(type(coord)) or not 1 <= coord <= size:
                raise GraphError(f"coordinate {coord!r} of vertex {v!r} outside 1..{size}")

    def vertex_columns(self, items: Collection[Vertex]) -> list[array] | None:
        """The items' coordinates, one array('I') per coordinate in item order,
        if every item is a vertex of this graph by check_vertex's test; None
        otherwise."""
        sizes = self.factor_sizes
        if not (
            all(map(isinstance, items, itertools.repeat(tuple)))
            and set(map(len, items)) <= {len(sizes)}
            and are_ints(itertools.chain.from_iterable(items))
        ):
            return None
        try:
            columns = [array("I", map(operator.itemgetter(c), items)) for c in range(len(sizes))]
        except OverflowError:  # a coordinate below 0 or of 32 bits or more
            return None
        for column, size in zip(columns, sizes):
            values = set(column)
            if min(values, default=1) < 1 or max(values, default=1) > size:
                return None
        return columns

    def vertices(self) -> list[Vertex]:
        """All vertices in lexicographic order."""
        check_materializable(self)
        return list(itertools.product(*(range(1, s + 1) for s in self.factor_sizes)))


def parse_graph(text: str) -> HammingGraph:
    """Parse a factor-size spec such as "2x3x3" into a HammingGraph."""
    parts = text.strip().lower().split("x")
    # isdigit() would pass superscripts such as "³", which int() rejects
    if not all(p.isdecimal() for p in parts):
        raise GraphError(f"malformed graph spec {text!r}, expected e.g. '2x3x3'")
    try:
        sizes = tuple(map(int, parts))
    except ValueError:  # more digits than sys.get_int_max_str_digits() allows
        raise GraphError(f"factor size too long in graph spec {text[:40]!r}...") from None
    return HammingGraph(sizes)


def parse_vertex(text: str) -> Vertex:
    """Parse a vertex such as "(1,2,3)" into a coordinate tuple."""
    s = text.strip()
    if not _VERTEX_RE.match(s):
        raise GraphError(f"malformed vertex {text!r}, expected e.g. '(1,2,3)'")
    try:
        return tuple(int(p) for p in s[1:-1].split(","))
    except ValueError:  # more digits than sys.get_int_max_str_digits() allows
        raise GraphError(f"coordinate too long in vertex {text[:40]!r}...") from None


def format_vertex(v: Vertex) -> str:
    return "(" + ",".join(str(c) for c in v) + ")"


def vertex_template(dimension: int) -> str:
    """format_vertex as a %-template: template % v == format_vertex(v) for
    every vertex v of the given dimension, and TypeError for any other."""
    return "(" + ",".join(["%s"] * dimension) + ")"
