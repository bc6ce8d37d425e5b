"""Independent reference implementations used only by the tests.

Everything here is written from the definitions, separately from the
library code it checks: distances are recomputed inline, the greedy
labeling is re-derived, and radio numbers come from full enumeration.
"""

from __future__ import annotations

import itertools
import math


def mismatch(a, b):
    return sum(1 for x, y in zip(a, b) if x != y)


def all_vertices(sizes):
    return list(itertools.product(*(range(1, s + 1) for s in sizes)))


def is_bijection(sizes, ordering):
    """Every item a tuple of len(sizes) ints (no bools) in 1..size, each
    vertex listed once, checked item by item."""

    def is_vertex(v):
        return (
            type(v) is tuple
            and len(v) == len(sizes)
            and all(type(c) is int and 1 <= c <= s for c, s in zip(v, sizes))
        )

    seen = set()
    for v in ordering:
        if not is_vertex(v) or v in seen:
            return False
        seen.add(v)
    return len(seen) == math.prod(sizes)


def diameter(sizes):
    return sum(1 for s in sizes if s >= 2)


def radio_valid(sizes, labeling):
    """Check the radio condition over every pair, no shortcuts."""
    diam = diameter(sizes)
    items = list(labeling.items())
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            (u, fu), (v, fv) = items[i], items[j]
            if abs(fu - fv) < diam + 1 - mismatch(u, v):
                return False
    return True


def violating_pairs(sizes, labeling):
    """Every pair that breaks the radio condition, as (u, v, required gap,
    actual gap), with u before v and the pairs in (label, vertex) order.
    Labels diam or more apart meet the condition at any distance >= 1, so
    the inner loop stops there."""
    diam = diameter(sizes)
    items = sorted((label, v) for v, label in labeling.items())
    pairs = []
    for i, (fu, u) in enumerate(items):
        for fv, v in items[i + 1:]:
            if fv - fu >= diam:
                break
            required = diam + 1 - mismatch(u, v)
            if fv - fu < required:
                pairs.append((u, v, required, fv - fu))
    return pairs


def greedy_labels(sizes, ordering):
    """Tightest monotone labeling for the order, recomputed from scratch."""
    diam = diameter(sizes)
    labels: list[int] = []
    for t, v in enumerate(ordering):
        lab = 1 if t == 0 else labels[-1] + 1
        for j in range(t):
            need = labels[j] + diam + 1 - mismatch(ordering[j], v)
            if need > lab:
                lab = need
        labels.append(lab)
    return labels


def naive_radio_number(sizes):
    """Minimum greedy span over every ordering of the vertex set."""
    verts = all_vertices(sizes)
    diam = diameter(sizes)
    n = len(verts)
    dist = [[mismatch(a, b) for b in verts] for a in verts]
    best = None
    for perm in itertools.permutations(range(n)):
        labels: list[int] = []
        pruned = False
        for t, vi in enumerate(perm):
            lab = 1 if t == 0 else labels[-1] + 1
            for j in range(t):
                need = labels[j] + diam + 1 - dist[perm[j]][vi]
                if need > lab:
                    lab = need
            labels.append(lab)
            if best is not None and lab >= best:
                pruned = True
                break
        if not pruned:
            span = labels[-1]
            if best is None or span < best:
                best = span
    return best


def min_monotone_span(sizes, ordering, span_cap):
    """Minimum span over all labelings increasing along the ordering.

    Enumerates every increasing label sequence starting at 1 with values
    up to span_cap, checks the radio condition in full, and returns the
    smallest valid span (or None).  A minimal monotone labeling can always
    be shifted to start at 1, so this misses nothing.
    """
    n = len(ordering)
    best = None
    for rest in itertools.combinations(range(2, span_cap + 1), n - 1):
        labels = (1, *rest)
        if best is not None and labels[-1] >= best:
            continue
        labeling = dict(zip(ordering, labels))
        if radio_valid(sizes, labeling):
            if best is None or labels[-1] < best:
                best = labels[-1]
    return best


def naive_max_run(sizes, limit=None):
    """Longest consecutive-labelable sequence, by plain DFS over all
    distinct-vertex sequences (no symmetry tricks)."""
    verts = all_vertices(sizes)
    diam = diameter(sizes)
    if diam <= 1:
        return len(verts)
    cap = limit if limit is not None else len(verts)
    best = 1

    def extend(seq, used):
        nonlocal best
        best = max(best, len(seq))
        if len(seq) >= cap:
            return
        for v in verts:
            if v in used:
                continue
            ok = True
            for delta in range(1, min(diam - 1, len(seq)) + 1):
                if mismatch(seq[-delta], v) < diam - delta + 1:
                    ok = False
                    break
            if ok:
                seq.append(v)
                used.add(v)
                extend(seq, used)
                used.remove(v)
                seq.pop()

    for start in verts:
        extend([start], {start})
    return best


def jump_lower_bound(vertex_count, run_length):
    """rn >= N + ceil(N / r) - 1 for a graph with no run of more than r
    consecutive labels: the N labels split into at least ceil(N / r) runs,
    and each gap between two runs is at least 2."""
    return vertex_count + math.ceil(vertex_count / run_length) - 1


def least_climbs(sizes, largest):
    """[m[1], ..., m[largest]]: m[w] is the least greedy climb
    labels[-1] - labels[0] over every sequence of w distinct vertices.
    Hamming graphs are vertex transitive, so the first vertex is fixed at
    (1, ..., 1) and only the other w - 1 are enumerated."""
    first, *rest = all_vertices(sizes)
    return [
        min(greedy_labels(sizes, (first, *tail))[-1] - 1
            for tail in itertools.permutations(rest, w - 1))
        for w in range(1, largest + 1)
    ]


def block_seed(sizes, k):
    """First row of block k (1-based) of the block construction for sorted
    sizes (n1, n2, n3), by its closed form: with L = lcm(n1, n2, n3),
    lambda = n3 * lcm(n1, n2) / L and k = (b - 1) * lambda + c for
    1 <= c <= lambda, the seed is (1, b, tau^((b - 1)(lambda - 1) + c - 1)(1)),
    tau being the +1 cycle on 1..n3."""
    n1, n2, n3 = sizes
    lam = n3 * math.lcm(n1, n2) // math.lcm(n1, n2, n3)
    b, c = divmod(k - 1, lam)
    return (1, b + 1, (b * (lam - 1) + c) % n3 + 1)


def placed_set_walk(sizes):
    """The blocks of the orbit walk by its greedy rule: each block is the
    orbit of v -> v + (1, ..., 1) from its seed, block 1 is seeded at
    (1, ..., 1), and each next seed is the last one +1 in the first
    coordinate whose step reaches an unplaced orbit, the coordinates taken
    in descending size order (ties by descending index) without the
    smallest factor of size >= 2.  Every placed vertex is remembered, and
    the walk stops when no step reaches an unplaced orbit."""
    rows = math.lcm(*sizes)
    ascending = sorted((s, c) for c, s in enumerate(sizes) if s > 1)
    moving = [c for _, c in reversed(ascending[1:])]
    seed = (1,) * len(sizes)
    placed = set()
    blocks = []
    while True:
        columns = [[(x - 1 + t) % s + 1 for t in range(rows)] for x, s in zip(seed, sizes)]
        block = list(zip(*columns))
        blocks.append(block)
        placed.update(block)
        for c in moving:
            step = seed[:c] + (seed[c] % sizes[c] + 1,) + seed[c + 1 :]
            if step not in placed:
                seed = step
                break
        else:
            return blocks
