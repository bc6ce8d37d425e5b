import csv
import itertools
import math
import tracemalloc
from pathlib import Path

import pytest

from radiohamming import (
    GraphError,
    HammingGraph,
    build_blocks,
    build_ordering,
    check_graceful,
    parse_vertex,
    span_of_ordering,
    verify_bijection,
)
from radiohamming.labeling import label_walk
from radiohamming.ordering import _odometer, block_columns, walk_is_graceful

import oracles

DATA = Path(__file__).parent / "data"

# every sorted factor triple up to 6; the full box up to 10 runs in the
# acceptance suite
SMALL_TRIPLES = [
    (a, b, c)
    for a in range(2, 7)
    for b in range(a, 7)
    for c in range(b, 7)
]

# every spec of 1-4 factors with sizes 1..5 and at most 1,000 vertices, and
# every spec of 5 or 6 factors with sizes 1..3
WALK_SPECS = [
    sizes
    for k, top in [(1, 5), (2, 5), (3, 5), (4, 5), (5, 3), (6, 3)]
    for sizes in itertools.product(range(1, top + 1), repeat=k)
    if math.prod(sizes) <= 1000
]


def golden_ordering_3x3x6():
    with open(DATA / "ordering_3x3x6.csv", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        return [parse_vertex(row[1]) for row in reader]


def is_exceptional(a, b, c):
    return (a, b) == (2, 2) or (a, b, c) == (2, 3, 3)


def middle_runs(blocks):
    """Lengths of the runs of consecutive blocks whose seeds share a middle
    value: each run is lambda long, and there are gcd(n1, n2) of them."""
    return [len(list(run)) for _, run in itertools.groupby(b[0][1] for b in blocks)]


def test_params_3x3x6():
    blocks = list(build_blocks(3, 3, 6))
    assert {len(b) for b in blocks} == {6}
    assert len(blocks) == 9
    assert middle_runs(blocks) == [3, 3, 3]


def test_params_2x3x4():
    blocks = list(build_blocks(2, 3, 4))
    assert {len(b) for b in blocks} == {12}
    assert len(blocks) == 2
    assert middle_runs(blocks) == [2]


def test_params_2x2x2():
    blocks = list(build_blocks(2, 2, 2))
    assert {len(b) for b in blocks} == {2}
    assert len(blocks) == 4
    assert middle_runs(blocks) == [2, 2]


def test_params_rejects_small_factors():
    # a size-1 factor is a constant coordinate; sizes below 1 are no graph
    assert list(build_blocks(2, 2, 1)) == [[v + (1,) for v in b] for b in build_blocks(2, 2)]
    with pytest.raises(GraphError):
        build_blocks()
    with pytest.raises(GraphError):
        build_blocks(0, 3)


def test_seed_examples_3x3x6():
    blocks = list(build_blocks(3, 3, 6))
    assert blocks[0][0] == oracles.block_seed((3, 3, 6), 1) == (1, 1, 1)
    assert blocks[3][0] == oracles.block_seed((3, 3, 6), 4) == (1, 2, 3)
    assert blocks[6][0] == oracles.block_seed((3, 3, 6), 7) == (1, 3, 5)


def test_block_entries_3x3x6():
    blocks = list(build_blocks(3, 3, 6))
    assert blocks[1][0] == (1, 1, 2)
    assert blocks[0][1] == (2, 2, 2)
    assert blocks[8][5] == (3, 2, 6)


def test_ordering_matches_golden_table():
    assert build_ordering(3, 3, 6) == golden_ordering_3x3x6()


def test_ordering_2x3x4_prefix_and_graceful():
    ordering = build_ordering(2, 3, 4)
    assert ordering[:4] == [(1, 1, 1), (2, 2, 2), (1, 3, 3), (2, 1, 4)]
    g = HammingGraph((2, 3, 4))
    assert verify_bijection(g, ordering)
    assert check_graceful(g, ordering).graceful


def test_ordering_2x2x2_bijective_but_not_graceful():
    ordering = build_ordering(2, 2, 2)
    g = HammingGraph((2, 2, 2))
    assert verify_bijection(g, ordering)
    assert not check_graceful(g, ordering).graceful


def test_ordering_rejects_small_factors():
    assert build_ordering(2, 2, 1) == [v + (1,) for v in build_ordering(2, 2)]
    with pytest.raises(GraphError):
        build_ordering()
    with pytest.raises(GraphError):
        build_ordering(0, 3)


def test_ordering_refuses_huge_sizes_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(GraphError, match="27000000 vertices of 300x300x300"):
            build_ordering(300, 300, 300)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_blocks_refuse_huge_sizes_at_the_call():
    # before the first block is asked for, so the CLI writes nothing
    with pytest.raises(GraphError, match="27000000 vertices of 300x300x300"):
        build_blocks(300, 300, 300)


def test_walk_matches_the_placed_set_walk():
    # the odometer's carries against the greedy walk that remembers every
    # placed vertex, on every spec of 1-5 factors with sizes 1..6 and at
    # most 1,000 vertices: no orbit is placed twice and none is left out
    specs = 0
    for k in range(1, 6):
        for sizes in itertools.product(range(1, 7), repeat=k):
            if math.prod(sizes) > 1000:
                continue
            blocks = list(build_blocks(*sizes))
            assert blocks == oracles.placed_set_walk(sizes), sizes
            assert len({v for block in blocks for v in block}) == math.prod(sizes), sizes
            specs += 1
    assert specs == 8177


@pytest.mark.parametrize("triple", SMALL_TRIPLES)
def test_structural_properties(triple):
    a, b, c = triple
    rows_per_block = math.lcm(a, b, c)
    block_count = a * b * c // rows_per_block
    blocks_per_middle = c * math.lcm(a, b) // rows_per_block
    assert blocks_per_middle * math.gcd(a, b) == block_count
    assert blocks_per_middle <= c

    blocks = list(build_blocks(a, b, c))
    assert len(blocks) == block_count
    assert middle_runs(blocks) == [blocks_per_middle] * math.gcd(a, b)

    seeds = [oracles.block_seed(triple, k) for k in range(1, block_count + 1)]
    # seeds are pairwise distinct
    assert len(set(seeds)) == len(seeds)

    gcd_ab = math.gcd(a, b)
    seed_set = set(seeds)
    for k, rows in enumerate(blocks, start=1):
        # the block recurrence and the closed-form seed agree
        assert rows[0] == seeds[k - 1]
        # all rows within one block are distinct
        assert len(rows) == len(set(rows)) == rows_per_block
        # the first column never changes across blocks
        assert [r[0] for r in rows] == [r[0] for r in blocks[0]]
        # rows follow the simultaneous-shift structure of the first row
        r0 = rows[0]
        for r, row in enumerate(rows):
            assert row == (
                (r0[0] + r - 1) % a + 1,
                (r0[1] + r - 1) % b + 1,
                (r0[2] + r - 1) % c + 1,
            )
        # no row other than the first is a seed of any block
        assert not (set(rows[1:]) & seed_set)
        # rows starting with coordinate 1 keep the seed's middle residue
        for row in rows:
            if row[0] == 1:
                assert row[1] % gcd_ab == rows[0][1] % gcd_ab

    ordering = [row for rows in blocks for row in rows]
    g = HammingGraph(triple)
    assert verify_bijection(g, ordering)

    graceful = check_graceful(g, ordering).graceful
    assert graceful == (not is_exceptional(a, b, c))
    if graceful:
        _, span = span_of_ordering(g, ordering)
        assert span == a * b * c


def test_lambda_one_case():
    # coprime middle pair: every block advances the middle column
    blocks = list(build_blocks(2, 4, 5))
    assert middle_runs(blocks) == [1, 1]
    assert [bl[0] for bl in blocks] == [(1, 1, 1), (1, 2, 1)]
    g = HammingGraph((2, 4, 5))
    ordering = build_ordering(2, 4, 5)
    assert verify_bijection(g, ordering)
    assert check_graceful(g, ordering).graceful


@pytest.mark.parametrize("factors", [1, 2, 3, 4, 5])
def test_orbit_walk_is_a_bijection_for_any_number_of_factors(factors):
    # each block is one diagonal orbit, every row the one before it +1 in
    # every coordinate, and together the blocks list every vertex once
    for sizes in itertools.product(range(2, 5), repeat=factors):
        if math.prod(sizes) > 1000:
            continue
        blocks = build_blocks(*sizes)
        assert oracles.is_bijection(sizes, build_ordering(*sizes)), sizes
        for rows in blocks:
            assert len(rows) == math.lcm(*sizes), sizes
            assert all(
                nxt == tuple(c % s + 1 for c, s in zip(row, sizes))
                for row, nxt in zip(rows, rows[1:])
            ), sizes


@pytest.mark.parametrize("sizes", [(4, 2), (3, 4, 2, 2), (2, 1, 2, 5), (1, 2, 3, 3), (3, 4, 5)])
def test_one_walk_serves_every_factor_order(sizes):
    # the walk of the ascending sizes with coordinate j moved back to the
    # factor that a stable ascending sort puts at place j
    for perm in set(itertools.permutations(sizes)):
        by_size = sorted(range(len(perm)), key=perm.__getitem__)
        expected = [
            tuple(v[by_size.index(i)] for i in range(len(perm)))
            for v in build_ordering(*sorted(perm))
        ]
        ordering = build_ordering(*perm)
        assert ordering == expected, perm
        assert oracles.is_bijection(perm, ordering), perm


def test_orbit_walk_seeds_are_the_papers_up_to_12():
    for triple in itertools.combinations_with_replacement(range(2, 13), 3):
        seeds = [rows[0] for rows in build_blocks(*triple)]
        assert seeds == [oracles.block_seed(triple, k) for k in range(1, len(seeds) + 1)], triple


def test_walk_is_graceful_agrees_with_check_graceful():
    graceful = {}
    for sizes in WALK_SPECS:
        g = HammingGraph(sizes)
        graceful[sizes] = check_graceful(g, build_ordering(*sizes)).graceful
        assert walk_is_graceful(g) == graceful[sizes], sizes
    # 780 specs of 1-4 factors (595 graceful), 972 of 5 or 6 (129 graceful)
    assert (len(graceful), sum(graceful.values())) == (1752, 724)
    # blocks shorter than the diameter, and one block
    for sizes in [(2,) * 5, (2,) * 6, (3,) * 5, (2, 2, 2, 2, 4), (5, 6, 7)]:
        g = HammingGraph(sizes)
        graceful = check_graceful(g, build_ordering(*sizes)).graceful
        assert walk_is_graceful(g) == graceful == (sizes == (5, 6, 7)), sizes


def test_each_block_of_the_walk_ends_with_its_positions():
    # block k ends with positions k L + 1 .. (k + 1) L, so the walk numbers
    # its rows 1..N; its other columns are build_blocks' rows, and a
    # graceful walk is its own tight labeling
    for sizes in [*WALK_SPECS, (3, 3, 6), (6, 5, 7), (2, 2, 300)]:
        g, rows = HammingGraph(sizes), math.lcm(*sizes)
        blocks = list(block_columns(g))
        positions = [list(block[-1]) for block in blocks]
        assert positions == [
            list(range(k * rows + 1, (k + 1) * rows + 1)) for k in range(len(blocks))
        ], sizes
        assert sum(positions, []) == list(range(1, g.vertex_count + 1)), sizes
        assert [list(zip(*block[:-1])) for block in blocks] == list(build_blocks(*sizes)), sizes
        if walk_is_graceful(g):
            assert list(label_walk(g)) == blocks, sizes


def test_odometer_digits_all_carry():
    # a digit of radix 1 would never carry, as its place equals the place
    # of the digit before it, so the odometer lists none
    for sizes in WALK_SPECS:
        steps, radices = _odometer(sizes)
        assert all(radix > 1 for radix in radices), sizes
        assert len(set(steps)) == len(steps), sizes
        assert all(sizes[c] >= 2 for c in steps), sizes
        assert math.prod(radices) == math.prod(sizes) // math.lcm(*sizes), sizes


def test_walk_of_2x3x3_fails_only_across_its_boundaries():
    # rows D < 3 apart in an orbit differ in the coordinates whose size does
    # not divide D: 3 at D = 1 and 2 at D = 2, so each block passes alone.
    # The walk steps coordinate 3 only, and two rows two labels apart on
    # either side of a boundary differ in coordinate 2 alone, as 3 divides
    # 2 + 1
    sizes = (2, 3, 3)
    blocks = list(build_blocks(*sizes))
    assert [block[0] for block in blocks] == [(1, 1, 1), (1, 1, 2), (1, 1, 3)]
    for block in blocks:
        assert oracles.radio_valid(sizes, dict(zip(block, range(1, 7))))
    ordering = [v for block in blocks for v in block]
    flagged = [
        (i, j)
        for i, j in itertools.combinations(range(len(ordering)), 2)
        if j - i < 3 and oracles.mismatch(ordering[i], ordering[j]) < 4 - (j - i)
    ]
    assert flagged[0] == (4, 6)  # (1,2,2) and (1,1,2)
    assert all(i // 6 != j // 6 and j - i == 2 for i, j in flagged)
    assert not walk_is_graceful(HammingGraph(sizes))
    assert walk_is_graceful(HammingGraph((3, 3, 6)))


@pytest.mark.parametrize("n", [3, 4, 7, 5000])
def test_walk_of_2x2xn_fails_inside_its_blocks(n):
    # rows two apart in an orbit differ only in coordinate 3, as 2 divides
    # 2: distance 1, below the 3 + 1 - 2 = 2 that the radio condition asks
    block = next(build_blocks(2, 2, n))
    assert oracles.mismatch(block[0], block[2]) == 1
    assert not walk_is_graceful(HammingGraph((2, 2, n)))


def test_walk_is_graceful_reads_only_the_sizes():
    # graphs far too large to build
    assert not walk_is_graceful(HammingGraph((2, 2, 10**12)))
    assert walk_is_graceful(HammingGraph((1000, 1000, 1001)))
    with pytest.raises(GraphError):
        build_blocks(1000, 1000, 1001)


@pytest.mark.parametrize("sizes", [(0, 3), (2, -1), ()], ids=str)
def test_walk_is_graceful_refuses_sizes_that_are_no_graph(sizes):
    # walk_is_graceful and block_columns take a graph, and HammingGraph
    # refuses these sizes before either is reached, as build_blocks does
    with pytest.raises(GraphError):
        walk_is_graceful(HammingGraph(sizes))
    with pytest.raises(GraphError):
        build_blocks(*sizes)
