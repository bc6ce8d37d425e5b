import csv
import io
import json
import math
import subprocess
import sys
import time
from pathlib import Path

import pytest

from radiohamming import (
    HammingGraph,
    SolverConfig,
    build_blocks,
    build_ordering,
    ordering_22n,
    parse_vertex,
    read_labeling_csv,
    span_of_ordering,
    validate,
)
from radiohamming.cli import main

import oracles

DATA = Path(__file__).parent / "data"
GOLDEN_ORDER = DATA / "ordering_3x3x6.csv"
GOLDEN_LABELING = DATA / "labeling_2x3x3.csv"


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# (spec, sorted sizes, block count): a permuted spec and a single block
BLOCK_SPECS = [("3x3x6", (3, 3, 6), 9), ("6x3x3", (3, 3, 6), 9), ("2x3x5", (2, 3, 5), 1)]
BLOCK_IDS = [spec for spec, *_ in BLOCK_SPECS]


def expected_blocks(sizes, block_count):
    """build_ordering sliced every lcm rows; these are build_blocks, and each
    block starts at its seed."""
    ordering = build_ordering(*sizes)
    rows = math.lcm(*sizes)
    blocks = [ordering[i : i + rows] for i in range(0, len(ordering), rows)]
    assert blocks == build_blocks(*sizes)
    assert len(blocks) == block_count
    assert [b[0] for b in blocks] == [
        oracles.block_seed(sizes, k) for k in range(1, block_count + 1)
    ]
    return blocks


class TestOrder:
    def test_golden_csv_byte_exact(self, tmp_path, capsys):
        out_path = tmp_path / "order.csv"
        code, _, err = run_cli(["order", "3x3x6", "-o", str(out_path)], capsys)
        assert code == 0
        assert out_path.read_bytes() == GOLDEN_ORDER.read_bytes()

    def test_row_19(self, capsys):
        code, out, _ = run_cli(["order", "3x3x6"], capsys)
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["position", "vertex"]
        assert rows[19] == ["19", "(1,2,3)"]
        assert len(rows) == 55

    def test_two_factor_spec_is_usage_error(self, capsys):
        code, _, err = run_cli(["order", "2x2"], capsys)
        assert code == 2
        assert "three factors" in err

    def test_exceptional_warns_but_emits(self, capsys):
        code, out, err = run_cli(["order", "2x2x4"], capsys)
        assert code == 0
        assert "not graceful" in err
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == 17  # header + 16 vertices

    def test_unsorted_spec_notes_permutation(self, capsys):
        code, out, err = run_cli(["order", "6x3x3"], capsys)
        assert code == 0
        assert "sorted" in err
        rows = list(csv.reader(io.StringIO(out)))
        assert [parse_vertex(r[1]) for r in rows[1:]] == build_ordering(3, 3, 6)

    @pytest.mark.parametrize("spec,sizes,block_count", BLOCK_SPECS, ids=BLOCK_IDS)
    def test_blocks_csv_separators(self, spec, sizes, block_count, capsys):
        sorted_spec = "x".join(map(str, sizes))
        code, out, err = run_cli(["order", spec, "--blocks"], capsys)
        assert code == 0
        assert ("note: factors sorted to" in err) == (spec != sorted_spec)
        if spec != sorted_spec:
            assert out == run_cli(["order", sorted_spec, "--blocks"], capsys)[1]
        lines = out.splitlines()
        assert lines[0] == "position,vertex"
        blocks, separators = [[]], []
        for line in lines[1:]:
            if line.startswith("#"):
                separators.append(line)
                blocks.append([])
            else:
                blocks[-1].append(next(csv.reader([line])))
        # block_count - 1 separators: a rule between consecutive blocks
        assert separators == [f"# block {k}" for k in range(2, block_count + 1)]
        vertices = [[parse_vertex(v) for _, v in b] for b in blocks]
        assert vertices == expected_blocks(sizes, block_count)
        positions = [int(p) for b in blocks for p, _ in b]
        assert positions == list(range(1, math.prod(sizes) + 1))

    @pytest.mark.parametrize("spec,sizes,block_count", BLOCK_SPECS, ids=BLOCK_IDS)
    def test_json_blocks(self, spec, sizes, block_count, capsys):
        code, out, _ = run_cli(["order", spec, "--format", "json", "--blocks"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["sorted_spec"] == "x".join(map(str, sizes))
        assert payload["vertex_count"] == math.prod(sizes)
        assert payload["graceful"] is True
        assert "ordering" not in payload
        blocks = [[parse_vertex(v) for v in b] for b in payload["blocks"]]
        assert blocks == expected_blocks(sizes, block_count)

    def test_json_flat(self, capsys):
        code, out, _ = run_cli(["order", "2x3x4", "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["graceful"] is True
        assert payload["ordering"][:4] == ["(1,1,1)", "(2,2,2)", "(1,3,3)", "(2,1,4)"]

    def test_malformed_spec(self, capsys):
        code, _, err = run_cli(["order", "3xx6"], capsys)
        assert code == 2


class TestSizeGuard:
    @pytest.mark.parametrize(
        "args",
        [
            ["order", "1000x1000x1001"],
            ["label", "2x2x10000000"],
            ["rn", "1000x1000x1001", "--certify"],
            ["solve", "1000x1000x1001"],
        ],
        ids=" ".join,
    )
    def test_huge_spec_is_usage_error(self, args, capsys):
        # each of these would allocate 10^7 to 10^9 vertex tuples
        started = time.perf_counter()
        code, out, err = run_cli(args, capsys)
        assert time.perf_counter() - started < 0.5
        assert code == 2
        assert out == ""
        assert err.startswith("error: refusing to materialize")


class TestVerify:
    def test_golden_labeling_is_valid(self, capsys):
        code, out, _ = run_cli(["verify", "2x3x3", str(GOLDEN_LABELING)], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["valid"] is True
        assert payload["span"] == 20
        assert payload["violations"] == []

    def test_tampered_label_collides(self, tmp_path, capsys):
        labeling = read_labeling_csv(str(GOLDEN_LABELING))
        labeling[(2, 3, 2)] = 19  # now collides with (1,2,1) at label 19
        path = tmp_path / "bad.csv"
        with open(path, "w") as fh:
            fh.write("vertex,label\n")
            for v, lab in labeling.items():
                fh.write(f'"({v[0]},{v[1]},{v[2]})",{lab}\n')
        code, out, _ = run_cli(["verify", "2x3x3", str(path)], capsys)
        assert code == 1
        payload = json.loads(out)
        assert payload["valid"] is False
        pairs = {(v["u"], v["v"]) for v in payload["violations"]}
        assert ("(1,2,1)", "(2,3,2)") in pairs

    def test_empty_file_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("")
        code, _, err = run_cli(["verify", "2x3x3", str(path)], capsys)
        assert code == 2

    def test_missing_file_is_usage_error(self, tmp_path, capsys):
        code, _, err = run_cli(["verify", "2x3x3", str(tmp_path / "nope.csv")], capsys)
        assert code == 2

    def test_partial_labeling_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "partial.csv"
        path.write_text('vertex,label\n"(1,1,1)",1\n')
        code, _, err = run_cli(["verify", "2x3x3", str(path)], capsys)
        assert code == 2


class TestRn:
    def test_certified_233(self, capsys):
        code, out, _ = run_cli(["rn", "2x3x3", "--certify"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["rn"] == 20
        assert payload["case"] == "two_three_three"
        assert payload["certified"] is True

    def test_two_two_seven(self, capsys):
        code, out, _ = run_cli(["rn", "2x2x7"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["rn"] == 41
        assert payload["case"] == "two_two_n"

    def test_graceful_case(self, capsys):
        code, out, _ = run_cli(["rn", "4x5x6"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["rn"] == 120
        assert payload["case"] == "graceful"

    def test_sorts_factors(self, capsys):
        code, out, _ = run_cli(["rn", "3x2x3"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["normalized"] == "2x3x3"
        assert payload["rn"] == 20

    def test_degenerate_square(self, capsys):
        code, out, _ = run_cli(["rn", "2x2"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["rn"] == 5
        assert payload["case"] == "two_two_n"

    def test_out_of_domain(self, capsys):
        code, _, err = run_cli(["rn", "3x3"], capsys)
        assert code == 2

    def test_size_one_factors_are_dropped(self, capsys):
        code, out, _ = run_cli(["rn", "1x2x3x3"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["normalized"] == "2x3x3"
        assert payload["rn"] == 20

    def test_certify_budget_exhaustion_exits_3(self, capsys, monkeypatch):
        # every in-domain instance certifies at the root, so exhaustion is
        # simulated to pin down the exit code contract
        import radiohamming.cli as cli_mod
        from radiohamming import SolveResult

        witness, _ = span_of_ordering(HammingGraph((2, 2, 5)), ordering_22n(5))
        fake = SolveResult(
            rn=31, witness=witness, optimal=False, lower_bound=29,
            nodes_explored=1, elapsed=0.0,
        )
        monkeypatch.setattr(cli_mod, "solve", lambda g, cfg: fake)
        code, out, _ = run_cli(["rn", "2x2x5", "--certify"], capsys)
        payload = json.loads(out)
        assert code == 3
        assert payload["certified"] is None

    def test_certify_mismatch_exits_1(self, capsys, monkeypatch):
        import radiohamming.cli as cli_mod
        from radiohamming import SolveResult

        witness, _ = span_of_ordering(HammingGraph((2, 2, 5)), ordering_22n(5))
        fake = SolveResult(
            rn=30, witness=witness, optimal=True, lower_bound=30,
            nodes_explored=1, elapsed=0.0,
        )
        monkeypatch.setattr(cli_mod, "solve", lambda g, cfg: fake)
        code, out, _ = run_cli(["rn", "2x2x5", "--certify"], capsys)
        payload = json.loads(out)
        assert code == 1
        assert payload["certified"] is False


class TestSolve:
    def test_solve_square_writes_witness(self, tmp_path, capsys):
        witness = tmp_path / "w.csv"
        code, out, _ = run_cli(
            ["solve", "2x2", "--witness-out", str(witness)], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["rn"] == 5
        assert payload["optimal"] is True
        labeling = read_labeling_csv(str(witness))
        report = validate(HammingGraph((2, 2)), labeling)
        assert report.valid
        assert report.span == 5

    def test_solve_budget_exit(self, tmp_path, capsys):
        code, out, _ = run_cli(
            [
                "solve", "2x2x2x2",
                "--node-budget", "100",
                "--witness-out", str(tmp_path / "w.csv"),
            ],
            capsys,
        )
        assert code == 3
        payload = json.loads(out)
        assert payload["optimal"] is False

    def test_solve_stops_at_the_root_bound(self, tmp_path, capsys):
        # 303 nodes reach a span-12 ordering of 3x4, which meets rn >= N
        code, out, _ = run_cli(
            ["solve", "3x4", "--node-budget", "303", "--witness-out", str(tmp_path / "w.csv")],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["rn"] == payload["lower_bound"] == 12
        assert payload["optimal"] is True
        assert payload["nodes_explored"] == 303

    def test_solve_10x10x11_certifies_at_root(self, tmp_path, capsys):
        witness = tmp_path / "w.csv"
        code, out, _ = run_cli(
            ["solve", "10x10x11", "--time-budget", "5", "--witness-out", str(witness)],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["rn"] == 1100
        assert payload["optimal"] is True
        assert payload["lower_bound"] == 1100
        code, out, _ = run_cli(["verify", "10x10x11", str(witness)], capsys)
        assert code == 0
        assert json.loads(out)["span"] == 1100

    def test_solve_6x6x6x6_stops_at_time_budget(self, tmp_path):
        # no closed form, and the searches cannot finish within the budget
        witness = tmp_path / "w.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "radiohamming", "solve", "6x6x6x6",
             "--time-budget", "2", "--witness-out", str(witness)],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["optimal"] is False
        assert 1296 <= payload["lower_bound"] <= payload["rn"]
        report = validate(HammingGraph((6, 6, 6, 6)), read_labeling_csv(str(witness)))
        assert report.valid
        assert report.span == payload["rn"]


class TestLabel:
    def test_label_233_matches_golden(self, capsys):
        code, out, _ = run_cli(["label", "2x3x3"], capsys)
        assert code == 0
        labeling = read_labeling_csv(io.StringIO(out))
        assert labeling == read_labeling_csv(str(GOLDEN_LABELING))

    def test_label_unsorted_233_is_golden_csv(self, capsys):
        code, out, _ = run_cli(["label", "3x2x3"], capsys)
        assert code == 0
        assert out.encode() == GOLDEN_LABELING.read_bytes()

    def test_label_22n(self, capsys):
        code, out, _ = run_cli(["label", "2x2x6", "--certify"], capsys)
        assert code == 0
        labeling = read_labeling_csv(io.StringIO(out))
        report = validate(HammingGraph((2, 2, 6)), labeling)
        assert report.valid
        assert report.span == 35

    def test_label_graceful(self, capsys):
        code, out, _ = run_cli(["label", "3x3x4"], capsys)
        assert code == 0
        labeling = read_labeling_csv(io.StringIO(out))
        report = validate(HammingGraph((3, 3, 4)), labeling)
        assert report.valid
        assert report.span == 36

    def test_label_square(self, capsys):
        code, out, _ = run_cli(["label", "2x2"], capsys)
        assert code == 0
        labeling = read_labeling_csv(io.StringIO(out))
        assert validate(HammingGraph((2, 2)), labeling).span == 5

    def test_label_out_of_domain(self, capsys):
        code, _, err = run_cli(["label", "5x5"], capsys)
        assert code == 2


class TestSweep:
    def test_sweep_box_rows_and_agreements(self, tmp_path, capsys):
        out_path = tmp_path / "sweep.csv"
        code, _, err = run_cli(["sweep", "4", "-o", str(out_path)], capsys)
        assert code == 0
        with open(out_path, newline="") as fh:
            rows = {(r["l"], r["m"], r["n"]): r for r in csv.DictReader(fh)}
        assert len(rows) == 10
        r233 = rows[("2", "3", "3")]
        assert r233["rn_formula"] == "20"
        assert r233["graceful"] == "False"
        assert r233["solver_rn"] == "20"
        r333 = rows[("3", "3", "3")]
        assert r333["rn_formula"] == "27"
        assert r333["graceful"] == "True"
        assert r333["solver_rn"] == "27"
        r224 = rows[("2", "2", "4")]
        assert r224["rn_formula"] == "23"
        assert r224["graceful"] == "False"
        assert r224["solver_rn"] == "23"
        # the solver certifies every row of the box
        assert all(r["solver_rn"] == r["rn_formula"] for r in rows.values())

    def test_sweep_bad_bounds(self, capsys):
        code, _, err = run_cli(["sweep", "1"], capsys)
        assert code == 2


def test_budget_defaults_come_from_solver_config():
    from radiohamming.cli import build_parser

    args = build_parser().parse_args(["solve", "2x2"])
    assert args.node_budget == SolverConfig.node_budget
    assert args.time_budget == SolverConfig.time_budget
    args = build_parser().parse_args(["solve", "2x2", "--node-budget", "9"])
    assert args.node_budget == 9


def test_permutation_recorded_in_json(capsys):
    code, out, err = run_cli(["order", "4x2x3", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["sorted_spec"] == "2x3x4"
    assert payload["factor_permutation"] == [1, 2, 0]


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "radiohamming", "rn", "2x3x3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["rn"] == 20
