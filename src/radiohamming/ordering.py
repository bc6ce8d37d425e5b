"""Consecutive vertex orderings for 3-factor Hamming graphs.

For K_{n1} x K_{n2} x K_{n3} with all sizes >= 2, the ordering is generated
in blocks of L = lcm(n1,n2,n3) rows, whose rows advance all three coordinates
simultaneously by the cyclic shifts rho, sigma, tau (the +1 cycles on 1..n1,
1..n2, 1..n3).  A block is therefore determined by its first row, its seed.
Block 1 is seeded at (1,1,1); block k keeps the first column fixed and
either advances the whole middle column by sigma (whenever k = 1 mod lambda)
or the whole last column by tau, where lambda = n3 * lcm(n1,n2) / L.
Flattening the blocks row-major lists every vertex exactly once, and away
from the two exceptional families (2,2,n) and (2,3,3) the resulting
consecutive labeling is a radio labeling, making the graph radio graceful.
"""

from __future__ import annotations

import math

from .graphs import Vertex, check_materializable


class ConstructionError(ValueError):
    """The ordering construction needs three factor sizes, all >= 2."""


def build_blocks(n1: int, n2: int, n3: int) -> list[list[Vertex]]:
    """All n1 * n2 * n3 / L blocks in order, each as its L rows, by the
    column recurrence.  Raises ConstructionError for a size below 2, and
    GraphError above graphs.MAX_MATERIALIZED_VERTICES vertices."""
    if min(n1, n2, n3) < 2:
        raise ConstructionError(
            f"construction needs all factor sizes >= 2, got {(n1, n2, n3)}"
        )
    check_materializable(n1 * n2 * n3, f"{n1}x{n2}x{n3}")
    rows = math.lcm(n1, n2, n3)
    lam = n3 * math.lcm(n1, n2) // rows
    first, mid, last = ([r % n + 1 for r in range(rows)] for n in (n1, n2, n3))
    blocks = [list(zip(first, mid, last))]
    for k in range(1, n1 * n2 * n3 // rows):
        # L is a multiple of every size, so the +1 shift of a column's
        # values is the rotation of the column by one row
        if k % lam == 0:
            mid = mid[1:] + mid[:1]
        else:
            last = last[1:] + last[:1]
        blocks.append(list(zip(first, mid, last)))
    return blocks


def build_ordering(n1: int, n2: int, n3: int) -> list[Vertex]:
    """The full vertex ordering: blocks flattened row-major.

    Always a bijection onto the vertex set; the induced consecutive labeling
    is a radio labeling except for the families (2,2,n) and (2,3,3).
    """
    return [v for block in build_blocks(n1, n2, n3) for v in block]
