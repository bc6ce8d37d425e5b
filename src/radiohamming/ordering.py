"""Consecutive vertex orderings of Hamming graphs in diagonal-orbit blocks.

For K_{n1} x ... x K_{nk}, factors in any order and of size 1 too, each
block is one orbit of the diagonal shift v -> v + (1, ..., 1): L = lcm(n1,
..., nk) rows, each row the previous one +1 cyclically in every coordinate,
so a block is determined by its first row, its seed.  Block 1 is seeded at
(1, ..., 1), and the walk from seed to seed is an odometer.  Take the
coordinates c_0, c_1, ... in descending size (ties by descending index):
c_j has the radix r_j = gcd(n_{c_j}, lcm(n_{c_{j+1}}, n_{c_{j+2}}, ...)),
1 for the last.  The odometer's digits, the fastest first, are the c_j of
radix above 1, its steps, so the smallest factor and a size-1 coordinate
stay at 1; each next seed is the previous one +1 in the coordinate of the
digit that carries, the one that goes up while the faster ones wrap.

Why this is a bijection: in the group Q of orbits, Z_{n1} x ... x Z_{nk}
modulo (1, ..., 1), let Q_j be generated by the unit steps in c_0, ...,
c_{j-1}.  m e_{c_j} lies in Q_j iff m = t (mod n_{c_j}) for a t that
n_{c_{j+1}}, n_{c_{j+2}}, ... all divide, so r_j, the least such m > 0, is
the index [Q_{j+1} : Q_j], and a digit of radix 1 would never carry.  By
induction on j, each run of r_0 ... r_j blocks that starts with digits
0..j at 0 lists one coset x + Q_{j+1}, each orbit once: its i-th run of
the faster digits lists x + i e_{c_j} + Q_j, and these r_j cosets are
distinct.  The unit steps and (1, ..., 1) span Q, so the prod r_j = N / L
blocks list every orbit once.  A step in a faster digit would return to
the coset just finished, and the carrying step enters a new one, so this
is also the walk that takes the fastest step whose orbit is unplaced: for
three factors, the paper's recurrence.

The walk keeps each block as its k columns, each a rotation of the last
block's, and its positions.  block_columns(g) yields them as they are for
label_walk and chunked writers; build_blocks(*sizes) zips the k into rows.
walk_is_graceful(g) tests from the sizes alone, on the difference of two
rows' seeds, whether the labels 1..N along the walk are a radio labeling.
"""

from __future__ import annotations

import math
from itertools import accumulate, cycle, islice
from operator import mul
from typing import Iterator, Sequence

from .graphs import HammingGraph, Vertex, check_materializable


def block_columns(g: HammingGraph) -> Iterator[list[Sequence[int]]]:
    """The N / L blocks of g by the orbit walk, one at a time, block b as its
    k columns of L values in g's coordinates and its positions b L + 1 ..
    (b + 1) L: O(L) rows held, little saved where L is near N (24x25x26).

    Raises GraphError at the call above graphs.MAX_MATERIALIZED_VERTICES
    vertices, before any block.  The blocks are distinct orbits, a bijection
    onto the vertices by the index argument of the module docstring.
    """
    check_materializable(g)
    return _walk(g.factor_sizes)


def build_blocks(*sizes: int) -> Iterator[list[Vertex]]:
    """block_columns(HammingGraph(sizes)), each block's k columns as rows."""
    return (list(zip(*columns)) for *columns, _ in block_columns(HammingGraph(sizes)))


def _odometer(sizes: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """The walk's step coordinates, fastest digit first, and their radices,
    each above 1."""
    ascending = sorted(range(len(sizes)), key=sizes.__getitem__)
    ordered = [sizes[c] for c in ascending]
    radices = list(map(math.gcd, ordered, accumulate(ordered, math.lcm, initial=1)))
    digits = [j for j in reversed(range(len(sizes))) if radices[j] > 1]
    return [ascending[j] for j in digits], [radices[j] for j in digits]


def _walk(sizes: tuple[int, ...]) -> Iterator[list[Sequence[int]]]:
    rows = math.lcm(*sizes)
    columns = [list(islice(cycle(range(1, n + 1)), rows)) for n in sizes]
    steps, radices = _odometer(sizes)
    places = list(accumulate(radices, mul))
    for b in range(math.prod(radices)):
        if b:
            c = next(c for c, place in zip(steps, places) if b % place)
            # n_c divides L, so +1 on the column's values rotates it by one row
            columns[c] = columns[c][1:] + columns[c][:1]
        yield [*columns, range(b * rows + 1, (b + 1) * rows + 1)]


def walk_is_graceful(g: HammingGraph) -> bool:
    """Whether f(x_i) = i is a radio labeling of g's walk, in O(k^2 diam)
    for k factors from the sizes alone: rows D < diam labels apart whose
    seeds differ by delta, 0 inside one block and e_c across a step in
    coordinate c, differ in the x with n_x not dividing D + delta_x, and
    pass iff more than diam - D do.  Blocks shorter than diam fail at
    D = L with delta = 0, as row i of two consecutive blocks does.
    """
    sizes, diam = g.factor_sizes, g.diameter
    steps, _ = _odometer(sizes)
    return all(
        sum((d + (x == c)) % n != 0 for x, n in enumerate(sizes)) > diam - d
        for c in [None, *steps]  # None: no coordinate stepped, delta = 0
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
