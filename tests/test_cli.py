import contextlib
import csv
import errno
import io
import json
import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radiohamming import (
    HammingGraph,
    SolverConfig,
    build_blocks,
    build_ordering,
    format_vertex,
    parse_vertex,
    read_labeling_csv,
    span_of_ordering,
    validate,
    write_labeling_csv,
)
import radiohamming.labeling as labeling_mod
from radiohamming.cli import main

import oracles

DATA = Path(__file__).parent / "data"
GOLDEN_ORDER = DATA / "ordering_3x3x6.csv"
GOLDEN_LABELING = DATA / "labeling_2x3x3.csv"


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def budget_exhausted(monkeypatch):
    """Every in-domain instance certifies at the root, so the CLI's solve is
    replaced by one whose budget ran out at 2x2x5's constructive span 29."""
    import radiohamming.cli as cli_mod
    from radiohamming import SolveResult

    witness, _ = span_of_ordering(HammingGraph((2, 2, 5)), build_ordering(2, 2, 5))
    fake = SolveResult(
        rn=29, witness=witness, optimal=False, lower_bound=28,
        nodes_explored=1, elapsed=0.0, construction_span=29,
    )
    monkeypatch.setattr(cli_mod, "solve", lambda g, cfg: fake)


@pytest.fixture
def solver_disagrees(monkeypatch):
    """The CLI's solve replaced by one that proves 2x2x5's rn is 30, one
    above its closed form and its labeling's span 29; its construction_span
    is 30 too, since rn never exceeds it."""
    import radiohamming.cli as cli_mod
    from radiohamming import SolveResult

    witness, _ = span_of_ordering(HammingGraph((2, 2, 5)), build_ordering(2, 2, 5))
    fake = SolveResult(
        rn=30, witness=witness, optimal=True, lower_bound=30,
        nodes_explored=1, elapsed=0.0, construction_span=30,
    )
    monkeypatch.setattr(cli_mod, "solve", lambda g, cfg: fake)


# (spec, sorted sizes, block count): a permuted spec and a single block
BLOCK_SPECS = [("3x3x6", (3, 3, 6), 9), ("6x3x3", (3, 3, 6), 9), ("2x3x5", (2, 3, 5), 1)]
BLOCK_IDS = [spec for spec, *_ in BLOCK_SPECS]


def expected_blocks(sizes, block_count):
    """build_ordering sliced every lcm rows; these are build_blocks, and each
    block starts at its seed."""
    ordering = build_ordering(*sizes)
    rows = math.lcm(*sizes)
    blocks = [ordering[i : i + rows] for i in range(0, len(ordering), rows)]
    assert blocks == list(build_blocks(*sizes))
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

    def test_two_factor_spec_warns_but_emits(self, capsys):
        code, out, err = run_cli(["order", "2x2"], capsys)
        assert code == 0
        assert "warning: this ordering of 2x2 is a bijection but not graceful" in err
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == 5  # header + 4 vertices

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

    def test_order_holds_one_block_at_a_time(self, capsys):
        # 27,000 rows in 900 blocks of 30: holding the whole ordering and a
        # set of its tuples peaks at 4.9 MB; one block and its columns fit
        # well under 1 MB
        tracemalloc.start()
        try:
            code = main(["order", "30x30x30", "-o", os.devnull])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert capsys.readouterr().err == ""
        assert peak < 1_000_000

    def test_label_holds_one_block_at_a_time(self, capsys):
        # 20,000 greedy labels in 4 blocks of 5,000 rows, measured after a
        # first label has filled the parser's caches: one block at a time
        # peaks at 0.46 MB, all four blocks held at once at 0.66 MB, and a
        # dict of the whole labeling alone takes 2.8 MB
        tracemalloc.start()
        try:
            assert main(["label", "2x3x3", "-o", os.devnull]) == 0
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            code = main(["label", "2x2x5000", "-o", os.devnull])
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert code == 0
        assert capsys.readouterr().err == ""
        assert peak < 560_000

    @pytest.mark.parametrize("blocks", [False, True], ids=["flat", "blocks"])
    @pytest.mark.parametrize("sizes", [(7,), (2, 2), (1, 2, 3, 3), (2, 2, 4)], ids=str)
    def test_csv_is_csv_writer_output(self, sizes, blocks, capsys):
        # a vertex of one coordinate, "(7)", is the one that csv leaves unquoted
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(["position", "vertex"])
        position = 1
        for k, block in enumerate(build_blocks(*sizes)):
            if blocks and k:
                expected.write(f"# block {k + 1}\n")
            for v in block:
                writer.writerow([position, format_vertex(v)])
                position += 1
        spec = "x".join(map(str, sizes))
        code, out, _ = run_cli(["order", spec, *(["--blocks"] if blocks else [])], capsys)
        assert code == 0
        assert out == expected.getvalue()

    @pytest.mark.parametrize("blocks", [False, True], ids=["flat", "blocks"])
    def test_csv_chunks_across_block_seams(self, blocks, capsys, monkeypatch):
        # 2x2x4 has 4 blocks of 4 rows: chunks of 3 rows end inside blocks
        # and, without --blocks, run across their seams
        args = ["order", "2x2x4", *(["--blocks"] if blocks else [])]
        whole = run_cli(args, capsys)
        monkeypatch.setattr(labeling_mod, "_CSV_ROWS", 3)
        assert run_cli(args, capsys) == whole

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

    @staticmethod
    def assert_one_error_line(path, number, code, out, err):
        # main's one OSError handler: exit 2 and the path named once
        assert code == 2
        assert out == ""
        assert err == f"error: [Errno {number}] {os.strerror(number)}: {str(path)!r}\n"

    def test_missing_file_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "nope.csv"
        self.assert_one_error_line(path, errno.ENOENT, *run_cli(["verify", "2x3x3", str(path)], capsys))

    def test_directory_is_usage_error(self, tmp_path, capsys):
        self.assert_one_error_line(
            tmp_path, errno.EISDIR, *run_cli(["verify", "2x3x3", str(tmp_path)], capsys))

    def test_undecodable_file_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "binary.csv"
        path.write_bytes(b'vertex,label\n"(1,1)",1\xff\xfe\n')
        code, out, err = run_cli(["verify", "2x2", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert "is not utf-8 text" in err

    def test_byte_order_mark_is_read_as_utf8(self, tmp_path, capsys):
        # spreadsheet programs save CSV with a leading byte-order mark
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + GOLDEN_LABELING.read_bytes())
        code, out, err = run_cli(["verify", "2x3x3", str(path)], capsys)
        assert (code, err) == (0, "")
        assert out == run_cli(["verify", "2x3x3", str(GOLDEN_LABELING)], capsys)[1]
        assert read_labeling_csv(str(path)) == read_labeling_csv(str(GOLDEN_LABELING))

    def test_field_above_the_csv_limit_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "long.csv"
        path.write_text(f'vertex,label\n"({"1," * 70_000}1)",1\n')  # a 140,003-character field
        code, out, err = run_cli(["verify", "2x2", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    def test_coordinate_above_the_int_digit_limit_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "long.csv"
        path.write_text(f'vertex,label\n"({"1" * 5000},1)",1\n')  # int() takes 4,300 digits
        code, out, err = run_cli(["verify", "2x2", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert "Traceback" not in err

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
    def test_pipe_is_read_once(self, capsys):
        # rows the csv reader parses, which a regular file would be read
        # twice for
        read_end, write_end = os.pipe()
        os.write(write_end, b'vertex,label\n"( 1, 1 )",1\n"(2,2)",2\n"(2,1)",4\n"(1,2)",5\n')
        os.close(write_end)
        try:
            code, out, err = run_cli(["verify", "2x2", f"/dev/fd/{read_end}"], capsys)
        finally:
            os.close(read_end)
        assert (code, err) == (0, "")
        assert json.loads(out)["span"] == 5

    def test_partial_labeling_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "partial.csv"
        path.write_text('vertex,label\n"(1,1,1)",1\n')
        code, _, err = run_cli(["verify", "2x3x3", str(path)], capsys)
        assert code == 2


def run_verify(spec, path):
    """verify's exit code, stdout and stderr, outside pytest's capture."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", spec, str(path)])
    return code, out.getvalue(), err.getvalue()


def golden_rows():
    return GOLDEN_LABELING.read_text().splitlines(keepends=True)[1:]


def walk_rows(sizes):
    labeling, _ = span_of_ordering(HammingGraph(sizes), build_ordering(*sizes))
    return [f'"{format_vertex(v)}",{label}\n' for v, label in labeling.items()]


def labeling_text(rows, replace=(), header="vertex,label\n"):
    """The header and rows, with row i replaced by line for each (i, line)
    in replace."""
    rows = list(rows)
    for i, line in replace:
        rows[i] = line
    return header + "".join(rows)


def big_labels(*offsets):
    """Rows of K_2 x K_2 labeled 10^20 plus the offsets, above 2^63."""
    vertices = ["(1,1)", "(2,2)", "(2,1)", "(1,2)"]
    return [f'"{v}",{10**20 + offset}\n' for v, offset in zip(vertices, offsets)]


# (id, spec, file text, whether verify reads it without read_labeling_csv)
VERIFY_FILES = [
    ("valid", "2x3x3", labeling_text(golden_rows()), True),
    ("violating", "2x3x3", labeling_text(golden_rows(), [(17, '"(2,3,2)",19\n')]), True),
    ("random order", "2x3x3", labeling_text(golden_rows()[i] for i in (
        5, 0, 17, 3, 9, 1, 12, 2, 16, 4, 11, 6, 15, 7, 14, 8, 13, 10)), True),
    ("repeated labels", "2x2",
     labeling_text(['"(1,1)",3\n', '"(2,2)",3\n', '"(1,2)",3\n', '"(2,1)",1\n']), True),
    ("unsorted spec", "3x2x2", labeling_text(walk_rows((3, 2, 2))), True),
    ("two chunks", "2x2x100", labeling_text(walk_rows((2, 2, 100))), True),
    ("repeated vertex", "2x3x3", labeling_text(golden_rows(), [(17, golden_rows()[0])]), False),
    ("repeated vertex added", "2x3x3", labeling_text(golden_rows() + golden_rows()[:1]), False),
    ("repeated vertex outside g", "2x3x3",
     labeling_text(golden_rows() + ['"(3,1,1)",30\n'] * 2), False),
    ("outside g then malformed", "2x2x100",
     labeling_text(walk_rows((2, 2, 100)), [(1, '"(3,1,1)",2\n'), (300, '"(1,1,1)",x\n')]), False),
    ("outside g in a later chunk", "2x2x100",
     labeling_text(walk_rows((2, 2, 100)), [(300, '"(1,1,101)",2\n')]), False),
    ("wrong dimension", "2x3x3", labeling_text(['"(1,1)",1\n', '"(2,2)",2\n']), False),
    ("one coordinate too many", "2x2", labeling_text(
        ['"(1,1,1)",1\n', '"(2,2,1)",2\n', '"(2,1,1)",4\n', '"(1,2,1)",5\n']), False),
    ("one coordinate too few", "2x2x1",
     labeling_text(['"(1,1)",1\n', '"(2,2)",2\n', '"(2,1)",4\n', '"(1,2)",5\n']), False),
    ("coordinate 0", "2x2",
     labeling_text(['"(1,1)",1\n', '"(0,2)",2\n', '"(2,1)",4\n', '"(1,2)",5\n']), False),
    ("label 0", "2x3x3", labeling_text(golden_rows(), [(0, '"(1,1,1)",0\n')]), False),
    ("missing vertex", "2x3x3", labeling_text(golden_rows()[:-1]), False),
    ("header only", "2x3x3", labeling_text([]), False),
    ("labels beyond 64 bits", "2x2", labeling_text(big_labels(0, 1, 3, 4)), True),
    ("labels beyond 64 bits violating", "2x2", labeling_text(big_labels(0, 1, 2, 4)), True),
    ("CRLF", "2x3x3", labeling_text(row.replace("\n", "\r\n") for row in golden_rows()), True),
    ("no last newline", "2x3x3", labeling_text(golden_rows()).rstrip(), True),
    ("CRLF, spaces and a blank line", "2x2", labeling_text(
        ['"( 1, 1 )",1\r\n', "\r\n", '"(2, 2)",2\r\n', '"(2,1)",4\r\n', '"(1 ,2)",5\r\n']), False),
    ("byte-order mark", "2x3x3", labeling_text(golden_rows(), header="\ufeffvertex,label\n"), True),
    ("leading zero", "2x3x3", labeling_text(golden_rows(), [(0, '"(01,1,1)",1\n')]), False),
    ("a spaced row in a later chunk", "2x2x100", labeling_text(
        walk_rows((2, 2, 100)), [(300, walk_rows((2, 2, 100))[300].replace(",", ", "))]), False),
]


@pytest.mark.parametrize("spec, text, compact", [case[1:] for case in VERIFY_FILES],
                         ids=[case[0] for case in VERIFY_FILES])
def test_verify_is_validate_of_read_labeling_csv(spec, text, compact, tmp_path, monkeypatch):
    import radiohamming.cli as cli_mod
    import radiohamming.labeling as labeling_mod

    path = tmp_path / "labeling.csv"
    path.write_bytes(text.encode())
    with monkeypatch.context() as m:
        m.setattr(cli_mod, "verify_labeling_csv", lambda g, p: validate(g, read_labeling_csv(p)))
        expected = run_verify(spec, path)
    if compact:
        def unread(source):
            raise AssertionError("verify read the file with read_labeling_csv")

        monkeypatch.setattr(labeling_mod, "read_labeling_csv", unread)
    assert run_verify(spec, path) == expected


@settings(max_examples=100, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 5), min_size=1, max_size=4).map(tuple)
    .filter(lambda s: math.prod(s) <= 60),
    data=st.data(),
)
def test_verify_reports_the_oracles_violations(tmp_path_factory, sizes, data):
    vertices = oracles.all_vertices(sizes)
    ordering = data.draw(st.permutations(vertices))
    labeling = dict(zip(ordering, oracles.greedy_labels(sizes, ordering)))
    if len(vertices) > 1:
        # a vertex given another's label, as the benchmark corrupts its files
        pairs = st.lists(st.sampled_from(vertices), min_size=2, max_size=2, unique=True)
        for u, v in data.draw(st.lists(pairs, max_size=3)):
            labeling[u] = labeling[v]
    rows = data.draw(st.permutations(list(labeling.items())))
    path = tmp_path_factory.mktemp("verify") / "labeling.csv"
    path.write_text("vertex,label\n" + "".join(f'"{format_vertex(v)}",{f}\n' for v, f in rows))
    violations = oracles.violating_pairs(sizes, labeling)
    code, out, err = run_verify("x".join(map(str, sizes)), path)
    assert (code, err) == (1 if violations else 0, "")
    assert json.loads(out) == {
        "valid": not violations,
        "span": max(labeling.values()),
        "violations": [
            {"u": format_vertex(u), "v": format_vertex(v), "required_gap": need, "actual_gap": gap}
            for u, v, need, gap in violations
        ],
    }


def test_verify_holds_one_int_per_row(tmp_path):
    # 27,000 rows in random order, three of them given another row's label,
    # as the benchmark writes them: the dict of the labeling and validate's
    # sort took 7.4 MB; one key per row, its label and coordinate arrays
    # and a window of the scan take 1.7 MB
    vertices = HammingGraph((30, 30, 30)).vertices()
    rng = random.Random(0)
    rng.shuffle(vertices)
    labels = list(range(3, 3 * len(vertices) + 1, 3))  # any order of them is valid
    for u, v in (rng.sample(range(len(vertices)), 2) for _ in range(3)):
        labels[u] = labels[v]
    path = tmp_path / "labeling.csv"
    path.write_text("vertex,label\n" + "".join(
        f'"{format_vertex(v)}",{f}\n' for v, f in zip(vertices, labels)))
    tracemalloc.start()
    try:
        run_verify("2x3x3", GOLDEN_LABELING)  # fills the parser's caches
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        code, out, err = run_verify("30x30x30", path)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert (code, err) == (1, "")
    assert len(json.loads(out)["violations"]) >= 3
    assert peak < 2_500_000


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

    def test_unsorted_size_one_spec_normalizes(self, capsys):
        code, out, _ = run_cli(["rn", "3x1x2x2"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["normalized"] == "2x2x3"
        assert payload["rn"] == 17

    def test_certify_budget_exhaustion_exits_3(self, capsys, budget_exhausted):
        code, out, _ = run_cli(["rn", "2x2x5", "--certify"], capsys)
        payload = json.loads(out)
        assert code == 3
        assert payload["certified"] is None

    def test_certify_mismatch_exits_1(self, capsys, solver_disagrees):
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
                "solve", "2x2x2x3",
                "--node-budget", "100",
                "--witness-out", str(tmp_path / "w.csv"),
            ],
            capsys,
        )
        assert code == 3
        payload = json.loads(out)
        assert payload["optimal"] is False

    def test_solve_stops_at_the_root_bound(self, tmp_path, capsys):
        # 253 nodes reach a span-35 ordering of 2x2x2x3, which meets its root
        # bound 1 + C(N)
        code, out, _ = run_cli(
            ["solve", "2x2x2x3", "--node-budget", "253", "--witness-out", str(tmp_path / "w.csv")],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["rn"] == payload["lower_bound"] == 35
        assert payload["optimal"] is True
        assert payload["nodes_explored"] == 253

    def test_superscript_spec_is_usage_error(self, tmp_path, capsys):
        code, out, err = run_cli(["solve", "2x³", "--witness-out", str(tmp_path / "w.csv")], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

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

    def test_solve_6x6x6x6_certifies_at_root(self, tmp_path, capsys):
        # no closed form, but the diagonal orbits are graceful: span N
        witness = tmp_path / "w.csv"
        code, out, _ = run_cli(["solve", "6x6x6x6", "--witness-out", str(witness)], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["rn"] == payload["lower_bound"] == 1296
        assert payload["optimal"] is True
        assert payload["nodes_explored"] == 0
        report = validate(HammingGraph((6, 6, 6, 6)), read_labeling_csv(str(witness)))
        assert report.valid
        assert report.span == 1296

    def test_solve_3x3x3x3_stops_at_time_budget(self, tmp_path):
        # no closed form, the orbit incumbent is not graceful, and the
        # searches cannot finish within the budget
        witness = tmp_path / "w.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "radiohamming", "solve", "3x3x3x3",
             "--time-budget", "2", "--witness-out", str(witness)],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["optimal"] is False
        assert 81 <= payload["lower_bound"] <= payload["rn"]
        report = validate(HammingGraph((3, 3, 3, 3)), read_labeling_csv(str(witness)))
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

    @pytest.mark.parametrize(
        "spec,sizes",
        [("2x3x4", (2, 3, 4)), ("3x3x6", (3, 3, 6)), ("1x2x3x3", (1, 2, 3, 3)),
         ("30x30x30", (30, 30, 30)), ("6x3x3", (3, 3, 6))],
    )
    def test_label_writes_the_tight_labeling_csv(self, spec, sizes, capsys):
        # graceful orderings are written straight from the blocks, the
        # others (1x2x3x3) through span_of_ordering: the bytes are the same
        labeling, _ = span_of_ordering(HammingGraph(sizes), build_ordering(*sizes))
        expected = io.StringIO()
        write_labeling_csv(expected, labeling)
        code, out, _ = run_cli(["label", spec], capsys)
        assert code == 0
        assert out == expected.getvalue()

    def test_label_square(self, capsys):
        code, out, _ = run_cli(["label", "2x2"], capsys)
        assert code == 0
        labeling = read_labeling_csv(io.StringIO(out))
        assert validate(HammingGraph((2, 2)), labeling).span == 5

    def test_label_of_unsorted_spec_verifies_against_the_sorted_spec(self, tmp_path, capsys):
        # README's route: label writes the sorted spec's coordinates and
        # names that spec on stderr, and verify accepts the file against it
        path = tmp_path / "l.csv"
        code, _, err = run_cli(["label", "3x2x2", "-o", str(path)], capsys)
        assert code == 0
        assert err == "note: factors sorted to 2x2x3 (isomorphic to 3x2x2)\n"
        code, out, _ = run_cli(["verify", "2x2x3", str(path)], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["valid"] is True
        assert payload["span"] == 17

    def test_label_keeps_size_one_factors(self, tmp_path, capsys):
        path = tmp_path / "l.csv"
        code, _, _ = run_cli(["label", "1x2x3x3", "-o", str(path)], capsys)
        assert code == 0
        code, out, _ = run_cli(["verify", "1x2x3x3", str(path)], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["valid"] is True
        assert payload["span"] == 20

    def test_certify_budget_exhaustion_exits_3(self, capsys, budget_exhausted):
        code, out, err = run_cli(["label", "2x2x5", "--certify"], capsys)
        assert code == 3
        assert out.startswith("vertex,label\n")
        assert err == "certification incomplete: solver budget exhausted at rn <= 29\n"

    def test_certify_mismatch_exits_1(self, capsys, solver_disagrees):
        code, out, err = run_cli(["label", "2x2x5", "--certify"], capsys)
        assert code == 1
        assert out.startswith("vertex,label\n")
        assert err == "certification FAILED: labeling span 29 but exact radio number is 30\n"

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

    def test_sweep_budget_exhaustion_exits_3(self, capsys, budget_exhausted):
        code, out, err = run_cli(["sweep", "2"], capsys)
        assert code == 3
        # the construction span is the fake solve's, 29, not 2x2x2's 11
        assert out.splitlines()[1] == "2,2,2,8,11,two_two_n,False,29,29"
        assert err == "warning: solver budget exhausted on some instances\n"

    @pytest.mark.parametrize(
        "rn,construction_span,row,mismatch",
        [(11, 8, "2,2,2,8,11,two_two_n,True,8,11", "graceful=True but case=two_two_n"),
         (12, 12, "2,2,2,8,11,two_two_n,False,12,12", "solver rn 12 != formula 11")],
        ids=["graceful", "solver_rn"],
    )
    def test_sweep_mismatch_exits_1(self, rn, construction_span, row, mismatch,
                                    capsys, monkeypatch):
        import radiohamming.cli as cli_mod
        from radiohamming import SolveResult

        witness, _ = span_of_ordering(HammingGraph((2, 2, 2)), build_ordering(2, 2, 2))
        fake = SolveResult(
            rn=rn, witness=witness, optimal=True, lower_bound=rn,
            nodes_explored=0, elapsed=0.0, construction_span=construction_span,
        )
        monkeypatch.setattr(cli_mod, "solve", lambda g, cfg: fake)
        code, out, err = run_cli(["sweep", "2"], capsys)
        assert code == 1
        assert out.splitlines()[1] == row
        assert err == f"MISMATCH: 2x2x2: {mismatch}\n"

    @pytest.mark.parametrize("lmax,rows", [("4", 10), ("10", 165)])
    def test_sweep_builds_each_ordering_once(self, lmax, rows, capsys, monkeypatch):
        import radiohamming.labeling as labeling_mod
        import radiohamming.ordering as ordering_mod

        calls = 0
        block_columns = ordering_mod.block_columns

        def counting_walk(g):
            nonlocal calls
            calls += 1
            return block_columns(g)

        monkeypatch.setattr(ordering_mod, "block_columns", counting_walk)
        monkeypatch.setattr(labeling_mod, "block_columns", counting_walk)
        code, out, _ = run_cli(["sweep", lmax], capsys)
        assert code == 0
        assert len(out.splitlines()) == rows + 1
        assert calls == rows

    def test_sweep_box_with_mmax_and_nmax(self, capsys):
        code, out, err = run_cli(["sweep", "3", "4", "6"], capsys)
        assert code == 0
        assert err == ""
        rows = list(csv.DictReader(io.StringIO(out)))
        triples = [(int(r["l"]), int(r["m"]), int(r["n"])) for r in rows]
        assert triples == [
            (l, m, n) for l in range(2, 4) for m in range(l, 5) for n in range(m, 7)
        ]
        assert len(triples) == 19
        assert all(r["solver_rn"] == r["rn_formula"] for r in rows)

    def test_sweep_bad_bounds(self, capsys):
        code, _, err = run_cli(["sweep", "1"], capsys)
        assert code == 2


def test_invalid_witness_is_internal_error(capsys, monkeypatch):
    import radiohamming.solver as solver_mod
    from radiohamming import ValidationReport

    monkeypatch.setattr(
        solver_mod, "validate", lambda g, labeling: ValidationReport(False, 20, [])
    )
    code, out, err = run_cli(["rn", "2x3x3", "--certify"], capsys)
    assert code == 1
    assert out == ""
    assert err == "error: internal error: witness invalid for 2x3x3\n"


def test_budget_defaults_come_from_solver_config():
    from radiohamming.cli import build_parser

    args = build_parser().parse_args(["solve", "2x2"])
    assert args.node_budget == SolverConfig.node_budget
    assert args.time_budget == SolverConfig.time_budget
    args = build_parser().parse_args(["solve", "2x2", "--node-budget", "9"])
    assert args.node_budget == 9


@pytest.mark.parametrize(
    "args",
    [
        ["solve", "2x2", "--node-budget", "0"],
        ["solve", "2x2", "--time-budget", "0"],
        ["solve", "2x2", "--time-budget", "nan"],
        ["rn", "2x3x3", "--certify", "--time-budget", "-1"],
        ["label", "2x3x3", "--certify", "--node-budget", "-5"],
    ],
)
def test_bad_budget_is_usage_error(args, capsys):
    with pytest.raises(SystemExit) as exc:
        main(args)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "error: argument --" in captured.err
    assert "must be positive" in captured.err


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


# at most four factors of at most one character each, so no spec lists more
# than 9^4 vertices; "--" keeps a spec that starts with "-" a positional
FUZZ_SPECS = st.builds(
    str.join,
    st.sampled_from(["x", "X", "xx", " x ", "*"]),
    st.lists(st.text(alphabet="0123456789²+- ", max_size=1), max_size=4),
)


@settings(max_examples=150, deadline=None)
@given(command=st.sampled_from(["order", "label", "rn"]), spec=FUZZ_SPECS)
def test_any_spec_exits_0_or_2(command, spec):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main([command, "--", spec]) in (0, 2)
