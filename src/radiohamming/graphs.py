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
from dataclasses import dataclass

Vertex = tuple[int, ...]

# Refuse to materialize vertex lists or orderings beyond this many vertices.
MAX_MATERIALIZED_VERTICES = 10_000_000

_VERTEX_RE = re.compile(r"^\(\s*\d+\s*(,\s*\d+\s*)*\)$")


class GraphError(ValueError):
    """Invalid graph description, or a vertex outside the graph."""


def _is_int(x) -> bool:
    # bool is an int subclass, but True is no factor size, coordinate or label
    return isinstance(x, int) and not isinstance(x, bool)


def check_materializable(count: int, graph) -> None:
    """Raise GraphError if count vertices of graph are too many to list."""
    if count > MAX_MATERIALIZED_VERTICES:
        raise GraphError(f"refusing to materialize {count} vertices of {graph}")


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
        if any(not _is_int(s) or s < 1 for s in sizes):
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
            if not _is_int(coord) or not 1 <= coord <= size:
                raise GraphError(
                    f"coordinate {coord!r} of vertex {v!r} outside 1..{size}"
                )

    def vertices(self) -> list[Vertex]:
        """All vertices in lexicographic order."""
        check_materializable(self.vertex_count, self)
        return list(itertools.product(*(range(1, s + 1) for s in self.factor_sizes)))


def parse_graph(text: str) -> HammingGraph:
    """Parse a factor-size spec such as "2x3x3" into a HammingGraph."""
    parts = text.strip().lower().split("x")
    if not parts or any(not p.isdigit() for p in parts):
        raise GraphError(f"malformed graph spec {text!r}, expected e.g. '2x3x3'")
    return HammingGraph(tuple(int(p) for p in parts))


def parse_vertex(text: str) -> Vertex:
    """Parse a vertex such as "(1,2,3)" into a coordinate tuple."""
    s = text.strip()
    if not _VERTEX_RE.match(s):
        raise GraphError(f"malformed vertex {text!r}, expected e.g. '(1,2,3)'")
    return tuple(int(p) for p in s[1:-1].split(","))


def format_vertex(v: Vertex) -> str:
    return "(" + ",".join(str(c) for c in v) + ")"
