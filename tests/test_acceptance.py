"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (visible with pytest -s or -v via
the test outcome) and enforces the criterion's tolerance exactly; runtime
ceilings are asserted where a criterion carries one.
"""

import math
import time
from contextlib import contextmanager
from pathlib import Path

from radiohamming import (
    HammingGraph,
    build_blocks,
    build_ordering,
    check_graceful,
    max_consecutive_run,
    ordering_22n,
    ordering_233,
    radio_number_formula,
    solve,
    span_of_ordering,
    validate,
    verify_bijection,
)
from radiohamming.cli import main as cli_main
from radiohamming.solver import _ClimbTable

import oracles

DATA = Path(__file__).parent / "data"

SWEEP_TRIPLES = [
    (a, b, c)
    for a in range(2, 11)
    for b in range(a, 11)
    for c in range(b, 11)
]

NON_EXCEPTIONAL = [
    t for t in SWEEP_TRIPLES if not (t[:2] == (2, 2) or t == (2, 3, 3))
]


@contextmanager
def criterion(capsys, number, description, time_limit=None):
    def emit(line):
        with capsys.disabled():
            print(line, flush=True)

    started = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - started
        emit(f"ACCEPTANCE {number} FAIL: {description} ({elapsed:.2f} s)")
        raise
    elapsed = time.perf_counter() - started
    emit(f"ACCEPTANCE {number} PASS: {description} ({elapsed:.2f} s)")
    if time_limit is not None:
        assert elapsed < time_limit, (
            f"criterion {number} exceeded its {time_limit} s budget: {elapsed:.2f} s"
        )


def test_criterion_1_table_reproduction(tmp_path, capsys):
    with criterion(capsys, 1, "order 3x3x6 reproduces the 54-vertex table byte-exactly", 1.0):
        out_path = tmp_path / "order.csv"
        code = cli_main(["order", "3x3x6", "-o", str(out_path)])
        assert code == 0
        golden = (DATA / "ordering_3x3x6.csv").read_bytes()
        assert out_path.read_bytes() == golden


def test_criterion_2_gracefulness_sweep(capsys):
    with criterion(
        capsys,
        2,
        f"construction graceful on all {len(NON_EXCEPTIONAL)} "
        "non-exceptional triples up to 10",
        30.0,
    ):
        for a, b, c in NON_EXCEPTIONAL:
            g = HammingGraph((a, b, c))
            ordering = build_ordering(a, b, c)
            assert verify_bijection(g, ordering), (a, b, c)
            report = check_graceful(g, ordering)
            assert report.graceful, (a, b, c)
            _, span = span_of_ordering(g, ordering)
            assert span == a * b * c, (a, b, c)


def test_criterion_3_structural_properties(capsys):
    with criterion(
        capsys,
        3,
        f"block structure invariants hold on all {len(SWEEP_TRIPLES)} triples up to 10",
    ):
        for triple in SWEEP_TRIPLES:
            a, b, c = triple
            rows_per_block = math.lcm(a, b, c)
            block_count = a * b * c // rows_per_block
            blocks = build_blocks(a, b, c)
            assert len(blocks) == block_count, triple
            seeds = [oracles.block_seed(triple, k) for k in range(1, block_count + 1)]
            assert len(set(seeds)) == block_count, triple
            seed_set = set(seeds)
            gcd_ab = math.gcd(a, b)
            all_rows = []
            for k, rows in enumerate(blocks, start=1):
                assert rows[0] == seeds[k - 1], (triple, k)
                assert len(rows) == len(set(rows)) == rows_per_block, (triple, k)
                assert [r[0] for r in rows] == [r[0] for r in blocks[0]], (triple, k)
                assert not (set(rows[1:]) & seed_set), (triple, k)
                for row in rows:
                    if row[0] == 1:
                        assert row[1] % gcd_ab == rows[0][1] % gcd_ab, (triple, k)
                all_rows.extend(rows)
            assert verify_bijection(HammingGraph(triple), all_rows), triple


def test_criterion_4_exceptional_exact_values(capsys):
    with criterion(
        capsys,
        4,
        "solver certifies rn: 2x3x3=20, 2x2x2=11, 2x2x3=17, 2x2x4=23, 2x2=5",
        300.0,
    ):
        for sizes, expected in [
            ((2, 3, 3), 20),
            ((2, 2, 2), 11),
            ((2, 2, 3), 17),
            ((2, 2, 4), 23),
            ((2, 2), 5),
        ]:
            result = solve(HammingGraph(sizes))
            assert result.optimal, sizes
            assert result.rn == expected, (sizes, result.rn)
            report = validate(HammingGraph(sizes), result.witness)
            assert report.valid and report.span == expected, sizes


def test_criterion_5_constructive_labelings(capsys):
    with criterion(
        capsys, 5, "explicit labelings: 2x3x3 span 20; 2x2xn span 6n-1 for n in 1..50", 5.0
    ):
        g = HammingGraph((2, 3, 3))
        report = validate(g, span_of_ordering(g, ordering_233())[0])
        assert report.valid and report.span == 20
        for n in range(1, 51):
            g = HammingGraph((2, 2) if n == 1 else (2, 2, n))
            rep = validate(g, span_of_ordering(g, ordering_22n(n))[0])
            assert rep.valid and rep.span == 6 * n - 1, n


def test_criterion_6_run_length_claims(capsys):
    with criterion(
        capsys, 6, "max runs: 2x3x3 -> 6, 2x2xn -> 2; jump bound gives 20 and 6n-1"
    ):
        assert max_consecutive_run(HammingGraph((2, 3, 3))) == 6
        for n in range(2, 7):
            assert max_consecutive_run(HammingGraph((2, 2, n))) == 2, n
        # the solver's root bound from a run length alone is the jump bound
        assert 1 + _ClimbTable(18, 6).climb(18) == oracles.jump_lower_bound(18, 6) == 20
        for n in range(1, 13):
            root = 1 + _ClimbTable(4 * n, 2).climb(4 * n)
            assert root == oracles.jump_lower_bound(4 * n, 2) == 6 * n - 1, n


def test_criterion_7_oracle_consistency(capsys):
    with criterion(
        capsys,
        7,
        "solver matches the closed form up to 18 vertices and "
        "full enumeration up to 8 vertices",
    ):
        formula_instances = [(2, 2, 1)] + [
            t for t in SWEEP_TRIPLES if t[0] * t[1] * t[2] <= 18
        ]
        for a, b, c in formula_instances:
            g = HammingGraph((2, 2) if (a, b, c) == (2, 2, 1) else (a, b, c))
            result = solve(g)
            assert result.optimal, (a, b, c)
            assert result.rn == radio_number_formula(a, b, c).value, (a, b, c)

        for sizes in [(2,), (3,), (4,), (5,), (6,), (7,), (8,),
                      (2, 2), (2, 3), (2, 4), (2, 2, 2)]:
            expected = oracles.naive_radio_number(sizes)
            result = solve(HammingGraph(sizes))
            assert result.optimal, sizes
            assert result.rn == expected, (sizes, result.rn, expected)


def test_criterion_8_repaired_base_orderings(capsys):
    with criterion(
        capsys,
        8,
        "2x2x2 and 2x2x3 base orderings carry labels 1,2,4,5,7,8,10,11(,...,17) "
        "and the stated endings",
    ):
        g2 = HammingGraph((2, 2, 2))
        order2 = ordering_22n(2)
        labeling2, span2 = span_of_ordering(g2, order2)
        assert validate(g2, labeling2).valid
        assert [labeling2[v] for v in order2] == [1, 2, 4, 5, 7, 8, 10, 11]
        assert span2 == 11
        assert order2[-2:] == [(1, 1, 2), (2, 2, 1)]

        g3 = HammingGraph((2, 2, 3))
        order3 = ordering_22n(3)
        labeling3, span3 = span_of_ordering(g3, order3)
        assert validate(g3, labeling3).valid
        assert [labeling3[v] for v in order3] == [
            1, 2, 4, 5, 7, 8, 10, 11, 13, 14, 16, 17,
        ]
        assert span3 == 17
        assert order3[-1] == (1, 2, 3)
