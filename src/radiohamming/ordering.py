"""Consecutive vertex orderings of Hamming graphs in diagonal-orbit blocks.

For K_{n1} x ... x K_{nk}, factors in any order and of size 1 too, each
block is one orbit of the diagonal shift v -> v + (1, ..., 1): L = lcm(n1,
..., nk) rows, each row the previous one +1 cyclically in every coordinate,
so a block is determined by its first row, its seed.  Block 1 is seeded at
(1, ..., 1).  The walk takes the coordinates in ascending size order, and
each next seed is the previous one +1 in the last of them whose orbit is
not yet placed; a size-1 coordinate is constant and never stepped.  This
walk places every orbit: it finishes the orbits that steps in the
coordinates after j reach before it steps j.  For three factors it is the
paper's recurrence, and away from the exceptional families (2,2,n) and
(2,3,3) the flattened blocks' consecutive labeling is a radio labeling,
making the graph radio graceful.
"""

from __future__ import annotations

import math
from typing import Iterator

from .graphs import HammingGraph, Vertex, check_materializable


def build_blocks(*sizes: int) -> Iterator[list[Vertex]]:
    """The N / L blocks in order, each as its L rows, by the orbit walk, in
    the caller's coordinates, one block at a time.

    Raises GraphError at the call, before any block, for sizes that are no
    graph and above graphs.MAX_MATERIALIZED_VERTICES vertices.  The walk
    holds one block and the N / n_min placed rows whose smallest factor
    n_min >= 2 is at 1: O(L + N / n_min) rows, which saves little where L
    is near N, as for coprime sizes or 24x25x26 (L = N / 2).  Each seed is
    checked to lie on an unplaced orbit, so the blocks are distinct orbits
    of L distinct rows: a bijection onto the vertices.
    """
    g = HammingGraph(sizes)
    check_materializable(g)
    return _walk(sizes, g.vertex_count)


def _walk(sizes: tuple[int, ...], vertex_count: int) -> Iterator[list[Vertex]]:
    rows = math.lcm(*sizes)
    columns = [[r % n + 1 for r in range(rows)] for n in sizes]
    by_size = [c for c in sorted(range(len(sizes)), key=sizes.__getitem__) if sizes[c] > 1]
    # the smallest factor >= 2 stays at 1 in every seed: the walk never steps it
    steps = by_size[:0:-1]
    stride = sizes[by_size[0]] if by_size else 1
    block = list(zip(*columns))
    # each placed orbit's rows with that coordinate at 1
    placed = set(block[::stride])
    yield block
    for _ in range(1, vertex_count // rows):
        # the seed is row 0, so columns[c][1] is its coordinate c plus 1
        seed = block[0]
        for c in steps:
            if seed[:c] + (columns[c][1],) + seed[c + 1 :] not in placed:
                break
        else:
            raise AssertionError(f"orbit walk of {sizes} ran out of unplaced orbits")
        # L is a multiple of every size, so the +1 shift of a column's
        # values is the rotation of the column by one row
        columns[c] = columns[c][1:] + columns[c][:1]
        block = list(zip(*columns))
        placed.update(block[::stride])
        yield block


def build_ordering(*sizes: int) -> list[Vertex]:
    """The full vertex ordering: blocks flattened row-major.

    Always a bijection onto the vertex set.  Its tight labeling
    (span_of_ordering) has the closed form's span wherever
    exceptional.radio_number_formula applies, 2x2 and 2x2xn included;
    elsewhere it is the solver's first incumbent.  For three factors the
    consecutive labeling is a radio labeling except for the families
    (2,2,n) and (2,3,3).
    """
    return [v for block in build_blocks(*sizes) for v in block]
