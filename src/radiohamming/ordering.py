"""Consecutive vertex orderings of Hamming graphs in diagonal-orbit blocks.

For K_{n1} x ... x K_{nk}, factors in any order and of size 1 too, each
block is one orbit of the diagonal shift v -> v + (1, ..., 1): L = lcm(n1,
..., nk) rows, each row the previous one +1 cyclically in every coordinate,
so a block is determined by its first row, its seed.  Block 1 is seeded at
(1, ..., 1), and the walk from seed to seed is an odometer.  Its step
coordinates, steps, are the factors of size >= 2 in descending size (a
stable sort) without the smallest, n_min, which stays at 1; a size-1
coordinate is constant.  Digit i, the fastest first, has the radix
r_i = gcd(n_{steps[i]}, lcm(n_min, n_{steps[i+1]}, n_{steps[i+2]}, ...)),
and each next seed is the previous one +1 in the coordinate of the digit
that carries, the one that goes up while the faster ones wrap.

Why this is a bijection: in the group Q of orbits, Z_{n1} x ... x Z_{nk}
modulo (1, ..., 1), let Q_i be generated by the unit steps in steps[0],
..., steps[i-1].  m e_{steps[i]} lies in Q_i iff m = t (mod n_{steps[i]})
for a t that n_min, n_{steps[i+1]}, ... all divide, so r_i, the least such
m > 0, is the index [Q_{i+1} : Q_i].  By induction on i, each run of
r_0 ... r_i blocks that starts with digits 0..i at 0 lists one coset
x + Q_{i+1}, each orbit once: its j-th run of the faster digits lists
x + j e_{steps[i]} + Q_i, and these r_i cosets are distinct.  The unit
steps and (1, ..., 1) span Q, so the prod r_i = N / L blocks list every
orbit once.  A step in a faster digit would return to the coset just
finished, and the carrying step enters a new one, so this is also the walk
that takes the fastest step whose orbit is unplaced: for three factors,
the paper's recurrence.

The walk keeps each block as its k columns, each a rotation of the last
block's.  block_columns(g) yields them as they are, for labeling.label_walk
and for chunked writers, and build_blocks(*sizes) zips them into rows.
"""

from __future__ import annotations

import math
from itertools import accumulate
from operator import mul
from typing import Iterator

from .graphs import HammingGraph, Vertex, check_materializable


def block_columns(g: HammingGraph) -> Iterator[list[list[int]]]:
    """The N / L blocks of g in order, each as its k columns of L values, by
    the orbit walk, in g's coordinates, one block at a time: O(L) rows held,
    which saves little where L is near N (coprime sizes, or 24x25x26).

    Raises GraphError at the call above graphs.MAX_MATERIALIZED_VERTICES
    vertices, before any block.  The blocks are distinct orbits, a bijection
    onto the vertices by the index argument of the module docstring.
    """
    check_materializable(g)
    return _walk(g.factor_sizes)


def build_blocks(*sizes: int) -> Iterator[list[Vertex]]:
    """block_columns(HammingGraph(sizes)) with each block as its L rows."""
    return (list(zip(*columns)) for columns in block_columns(HammingGraph(sizes)))


def _odometer(sizes: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """The walk's step coordinates, fastest digit first, and their radices."""
    ascending = [c for c in sorted(range(len(sizes)), key=sizes.__getitem__) if sizes[c] > 1]
    ordered = [sizes[c] for c in ascending]
    radices = list(map(math.gcd, ordered, accumulate(ordered, math.lcm, initial=1)))
    return ascending[:0:-1], radices[:0:-1]


def _walk(sizes: tuple[int, ...]) -> Iterator[list[list[int]]]:
    rows = math.lcm(*sizes)
    columns = [[r % n + 1 for r in range(rows)] for n in sizes]
    steps, radices = _odometer(sizes)
    places = list(accumulate(radices, mul))
    yield list(columns)
    for b in range(1, math.prod(radices)):
        c = next(c for c, place in zip(steps, places) if b % place)
        # n_c divides L, so +1 on the column's values rotates it by one row
        columns[c] = columns[c][1:] + columns[c][:1]
        yield list(columns)


def walk_is_graceful(g: HammingGraph) -> bool:
    """Whether f(x_i) = i is a radio labeling of g's walk, from its sizes
    alone, in O(k^2 diam) for k factors.

    Pairs fewer than diam labels apart inside a block pass iff, for each
    D < min(diam, L), more than diam - D sizes do not divide D.  Pairs D
    labels apart across a step in coordinate c, with D < diam <= L, pass
    iff more than diam - D of the x != c have n_x not dividing D, counting
    c too when n_c does not divide D + 1.  With one block no coordinate is
    stepped.  With blocks shorter than diam, the count at D = L is 1, for
    row i of two consecutive blocks, and fails as that pair does.
    """
    sizes, diam = g.factor_sizes, g.diameter

    def differing(d: int) -> int:
        return sum(d % n != 0 for n in sizes)

    if any(differing(d) <= diam - d for d in range(1, min(diam, math.lcm(*sizes)))):
        return False
    steps, radices = _odometer(sizes)
    return all(
        differing(d) - (d % sizes[c] != 0) + ((d + 1) % sizes[c] != 0) > diam - d
        for c, radix in zip(steps, radices)
        if radix > 1
        for d in range(1, diam)
    )


def build_ordering(*sizes: int) -> list[Vertex]:
    """The full vertex ordering: blocks flattened row-major.

    Always a bijection onto the vertex set.  Its tight labeling
    (labeling.label_walk) has the closed form's span wherever
    exceptional.radio_number_formula applies, 2x2 and 2x2xn included;
    elsewhere it is the solver's first incumbent.  For three factors the
    consecutive labeling is a radio labeling except for the families
    (2,2,n) and (2,3,3).
    """
    return [v for block in build_blocks(*sizes) for v in block]
