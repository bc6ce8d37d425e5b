"""Independent checks and input generators for the benchmark.

Written from the definitions and the paper's closed forms, separately from
the library it measures, so a wrong answer from the library cannot also be
the expected answer.  Vertices are 1-indexed coordinate tuples, as in the
library.
"""

from __future__ import annotations

import itertools
import math
import operator
import random


def distance(a, b) -> int:
    return sum(map(operator.ne, a, b))


def diameter(sizes) -> int:
    return sum(1 for s in sizes if s >= 2)


def all_vertices(sizes) -> list:
    return list(itertools.product(*(range(1, s + 1) for s in sizes)))


def radio_number(sizes) -> int | None:
    """Known radio number of the Hamming graph with these factor sizes.

    Complete graphs K_n have rn = n.  With two nontrivial factors the
    diameter is 2, and any Hamiltonian path of the complement gives a
    consecutive labeling, so rn = mn except for K_2 x K_2 = C_4 (rn 5).
    With three, the paper's closed form: lmn, 6n - 1 for 2x2xn, 20 for
    2x3x3.  None where no closed form is known (four or more factors).
    """
    s = sorted(x for x in sizes if x >= 2)
    if len(s) <= 1:
        return math.prod(s)
    if len(s) == 2:
        return 5 if s == [2, 2] else s[0] * s[1]
    if len(s) == 3:
        if s[:2] == [2, 2]:
            return 6 * s[2] - 1
        if s == [2, 3, 3]:
            return 20
        return math.prod(s)
    return None


def is_bijection(sizes, ordering) -> bool:
    if len(ordering) != math.prod(sizes) or len(set(ordering)) != len(ordering):
        return False
    return all(
        len(v) == len(sizes) and all(1 <= c <= n for c, n in zip(v, sizes))
        for v in ordering
    )


def is_graceful(ordering, diam: int) -> bool:
    """True iff f(x_i) = i is a radio labeling: positions D < diam apart
    must be at distance >= diam + 1 - D."""
    return all(
        distance(u, v) >= diam + 1 - delta
        for delta in range(1, diam)
        for u, v in zip(ordering, ordering[delta:])
    )


def violations(labeling: dict, diam: int) -> list:
    """Every pair breaking the radio condition, as (u, v, required, actual).

    Pairs come in the order the library promises: vertices sorted by
    (label, vertex), each pair once with the lower-labelled vertex first.
    """
    items = sorted(labeling.items(), key=lambda kv: (kv[1], kv[0]))
    found = []
    for i, (u, fu) in enumerate(items):
        j = i + 1
        while j < len(items):
            v, fv = items[j]
            gap = fv - fu
            if gap >= diam:
                break
            required = diam + 1 - distance(u, v)
            if gap < required:
                found.append((u, v, required, gap))
            j += 1
    return found


def covers(sizes, labeling: dict) -> bool:
    """True iff the labeling gives every vertex one positive integer label."""
    return (
        is_bijection(sizes, list(labeling))
        and all(isinstance(f, int) and f >= 1 for f in labeling.values())
    )


def greedy_labels(ordering, diam: int) -> list:
    """Tightest increasing labels along the ordering that satisfy the radio
    condition; only the diam - 1 previous labels can constrain the next."""
    labels = []
    for t, v in enumerate(ordering):
        label = labels[-1] + 1 if labels else 1
        for j in range(t - 1, -1, -1):
            if labels[j] <= label - diam:
                break
            need = labels[j] + diam + 1 - distance(ordering[j], v)
            if need > label:
                label = need
        labels.append(label)
    return labels


def random_labeling(sizes, rng: random.Random) -> dict:
    """A valid labeling with irregular gaps: greedy labels along a random
    vertex order."""
    order = all_vertices(sizes)
    rng.shuffle(order)
    return dict(zip(order, greedy_labels(order, diameter(sizes))))


def corrupt(labeling: dict, rng: random.Random, count: int) -> dict:
    """Copy of the labeling with count vertices given another vertex's
    label; a repeated label always breaks the radio condition."""
    bad = dict(labeling)
    vertices = sorted(bad)
    for _ in range(count):
        u, v = rng.sample(vertices, 2)
        bad[u] = bad[v]
    return bad


def format_vertex(v) -> str:
    return "(" + ",".join(str(c) for c in v) + ")"


def parse_vertex(text: str):
    return tuple(int(c) for c in text.strip()[1:-1].split(","))
