"""Consecutive vertex orderings of Hamming graphs in diagonal-orbit blocks.

For K_{n1} x ... x K_{nk} with all sizes >= 2, each block is one orbit of
the diagonal shift v -> v + (1, ..., 1): L = lcm(n1, ..., nk) rows, each
row the previous one +1 cyclically in every coordinate, so a block is
determined by its first row, its seed.  Block 1 is seeded at (1, ..., 1),
and each next seed is the previous one +1 in the last coordinate whose
orbit is not yet placed.  This walk places every orbit: it finishes the
orbits that steps in the coordinates after j reach before it steps j.  For
three factors it is the paper's recurrence, and away from the exceptional
families (2,2,n) and (2,3,3) the flattened blocks' consecutive labeling is
a radio labeling, making the graph radio graceful.
"""

from __future__ import annotations

import math

from .graphs import Vertex, check_materializable


class ConstructionError(ValueError):
    """The ordering construction needs factor sizes, all >= 2."""


def build_blocks(*sizes: int) -> list[list[Vertex]]:
    """All N / L blocks in order, each as its L rows, by the orbit walk.
    Raises ConstructionError without a size or for a size below 2, and
    GraphError above graphs.MAX_MATERIALIZED_VERTICES vertices."""
    if not sizes or min(sizes) < 2:
        raise ConstructionError(f"construction needs all factor sizes >= 2, got {sizes}")
    count = math.prod(sizes)
    check_materializable(count, "x".join(map(str, sizes)))
    rows = math.lcm(*sizes)
    columns = [[r % n + 1 for r in range(rows)] for n in sizes]
    blocks = [list(zip(*columns))]
    placed = set(blocks[0][:: sizes[0]])  # each placed orbit's rows with first coordinate 1
    for _ in range(1, count // rows):
        # the seed is row 0, so columns[c][1] is its coordinate c plus 1
        seed, c = blocks[-1][0], len(sizes) - 1
        while seed[:c] + (columns[c][1],) + seed[c + 1 :] in placed:
            c -= 1  # that orbit is placed: try the coordinate before
        # L is a multiple of every size, so the +1 shift of a column's
        # values is the rotation of the column by one row
        columns[c] = columns[c][1:] + columns[c][:1]
        blocks.append(list(zip(*columns)))
        placed.update(blocks[-1][:: sizes[0]])
    return blocks


def build_ordering(*sizes: int) -> list[Vertex]:
    """The full vertex ordering: blocks flattened row-major.

    Always a bijection onto the vertex set; for three factors the induced
    consecutive labeling is a radio labeling except for the families
    (2,2,n) and (2,3,3).
    """
    return [v for block in build_blocks(*sizes) for v in block]
