import csv
import itertools
import math
import tracemalloc
from pathlib import Path

import pytest

from radiohamming import (
    ConstructionError,
    GraphError,
    HammingGraph,
    build_blocks,
    build_ordering,
    check_graceful,
    parse_vertex,
    span_of_ordering,
    verify_bijection,
)

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
    blocks = build_blocks(3, 3, 6)
    assert {len(b) for b in blocks} == {6}
    assert len(blocks) == 9
    assert middle_runs(blocks) == [3, 3, 3]


def test_params_2x3x4():
    blocks = build_blocks(2, 3, 4)
    assert {len(b) for b in blocks} == {12}
    assert len(blocks) == 2
    assert middle_runs(blocks) == [2]


def test_params_2x2x2():
    blocks = build_blocks(2, 2, 2)
    assert {len(b) for b in blocks} == {2}
    assert len(blocks) == 4
    assert middle_runs(blocks) == [2, 2]


def test_params_rejects_small_factors():
    with pytest.raises(ConstructionError):
        build_blocks(1, 3, 3)
    with pytest.raises(ConstructionError):
        build_blocks(2, 2, 1)


def test_seed_examples_3x3x6():
    blocks = build_blocks(3, 3, 6)
    assert blocks[0][0] == oracles.block_seed((3, 3, 6), 1) == (1, 1, 1)
    assert blocks[3][0] == oracles.block_seed((3, 3, 6), 4) == (1, 2, 3)
    assert blocks[6][0] == oracles.block_seed((3, 3, 6), 7) == (1, 3, 5)


def test_block_entries_3x3x6():
    blocks = build_blocks(3, 3, 6)
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
    with pytest.raises(ConstructionError):
        build_ordering(2, 2, 1)


def test_ordering_refuses_huge_sizes_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(GraphError, match="27000000 vertices of 300x300x300"):
            build_ordering(300, 300, 300)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000


@pytest.mark.parametrize("triple", SMALL_TRIPLES)
def test_structural_properties(triple):
    a, b, c = triple
    rows_per_block = math.lcm(a, b, c)
    block_count = a * b * c // rows_per_block
    blocks_per_middle = c * math.lcm(a, b) // rows_per_block
    assert blocks_per_middle * math.gcd(a, b) == block_count
    assert blocks_per_middle <= c

    blocks = build_blocks(a, b, c)
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
    blocks = build_blocks(2, 4, 5)
    assert middle_runs(blocks) == [1, 1]
    assert [bl[0] for bl in blocks] == [(1, 1, 1), (1, 2, 1)]
    g = HammingGraph((2, 4, 5))
    ordering = build_ordering(2, 4, 5)
    assert verify_bijection(g, ordering)
    assert check_graceful(g, ordering).graceful
