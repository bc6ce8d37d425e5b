import collections
import csv
import dataclasses
import io
import itertools
import json
import math
import operator
import os
import tracemalloc
from array import array
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import radiohamming.labeling as labeling_mod
from radiohamming import (
    GracefulReport,
    GraphError,
    HammingGraph,
    LabelingError,
    build_blocks,
    build_ordering,
    check_graceful,
    format_vertex,
    read_labeling_csv,
    span_of_ordering,
    validate,
    verify_bijection,
    write_labeling_csv,
)
from radiohamming.cli import main
from radiohamming.ordering import walk_is_graceful

import oracles

DATA = Path(__file__).parent / "data"


def tight_233():
    """The tight labeling of build_ordering(2, 3, 3), span 20."""
    return span_of_ordering(HammingGraph((2, 3, 3)), build_ordering(2, 3, 3))[0]


def test_validate_explicit_233_labeling():
    g = HammingGraph((2, 3, 3))
    report = validate(g, tight_233())
    assert report.valid
    assert report.span == 20
    assert report.violations == []


def test_validate_golden_csv_matches_library_constant():
    assert read_labeling_csv(str(DATA / "labeling_2x3x3.csv")) == tight_233()


def test_validate_flags_adjacent_pair_with_small_gap():
    g = HammingGraph((2, 3, 3))
    labeling = tight_233()
    # going to force labels 1 and 2 onto vertices at distance 1
    labeling[(1, 1, 2)] = 2
    labeling[(2, 2, 2)] = 8
    report = validate(g, labeling)
    assert not report.valid
    pairs = {(v.u, v.v): v for v in report.violations}
    bad = pairs[((1, 1, 1), (1, 1, 2))]
    assert bad.required_gap == 3
    assert bad.actual_gap == 1


def test_validate_square_with_labels_1_2_4_5():
    g = HammingGraph((2, 2))
    labeling = {(1, 1): 1, (2, 2): 2, (2, 1): 4, (1, 2): 5}
    report = validate(g, labeling)
    assert report.valid
    assert report.span == 5


def test_validate_rejects_partial_and_nonpositive():
    g = HammingGraph((2, 2))
    with pytest.raises(LabelingError):
        validate(g, {(1, 1): 1})
    with pytest.raises(LabelingError):
        validate(g, {(1, 1): 0, (1, 2): 2, (2, 1): 3, (2, 2): 4})
    with pytest.raises(LabelingError):
        validate(HammingGraph((2,)), {(1,): True, (2,): 3})


def test_validate_rejects_a_labeling_that_is_not_a_dict():
    g = HammingGraph((2, 2))
    with pytest.raises(LabelingError, match=r"^labeling must map vertices to labels$"):
        validate(g, [((1, 1), 1), ((1, 2), 2), ((2, 1), 3), ((2, 2), 4)])


def test_validate_duplicate_labels_are_violations_not_errors():
    g = HammingGraph((2, 2))
    report = validate(g, {(1, 1): 1, (2, 2): 1, (2, 1): 4, (1, 2): 7})
    assert not report.valid
    assert any(v.actual_gap == 0 for v in report.violations)


def test_violations_sorted_by_label_pair():
    g = HammingGraph((2, 2, 2))
    labeling = {v: i + 1 for i, v in enumerate(g.vertices())}
    report = validate(g, labeling)
    assert not report.valid
    keys = [(min(labeling[v.u], labeling[v.v]), max(labeling[v.u], labeling[v.v]))
            for v in report.violations]
    assert keys == sorted(keys)


def test_verify_bijection():
    g = HammingGraph((2, 2))
    assert verify_bijection(g, [(1, 1), (2, 2), (2, 1), (1, 2)])
    assert not verify_bijection(g, [(1, 1), (1, 1), (2, 1), (2, 2)])
    assert not verify_bijection(g, [(1, 1), (2, 1), (2, 2)])
    assert not verify_bijection(g, [(1, 1), (2, 2), (2, 1), (3, 1)])


def test_check_graceful_rejects_non_bijection():
    g = HammingGraph((2, 2))
    with pytest.raises(LabelingError):
        check_graceful(g, [(1, 1), (1, 1), (2, 1), (2, 2)])


def test_table_order_without_gaps_is_not_graceful():
    g = HammingGraph((2, 3, 3))
    report = check_graceful(g, build_ordering(2, 3, 3))
    assert not report.graceful


@pytest.mark.parametrize("n", [4, 9, 200])
def test_check_graceful_is_a_yes_no_test(monkeypatch, n):
    def no_violations(*args):
        raise AssertionError("check_graceful built a Violation")

    monkeypatch.setattr(labeling_mod, "Violation", no_violations)
    g = HammingGraph((2, 2, n))
    assert check_graceful(g, build_ordering(2, 2, n)) == GracefulReport(graceful=False)


def test_graceful_report_is_only_the_answer():
    assert [f.name for f in dataclasses.fields(GracefulReport)] == ["graceful"]


@pytest.mark.parametrize("sizes", [(2, 2), (4,), (2, 3)])
def test_graceful_equivalent_to_validating_consecutive_labels(sizes):
    g = HammingGraph(sizes)
    verts = g.vertices()
    for perm in itertools.permutations(verts):
        consecutive = {v: i + 1 for i, v in enumerate(perm)}
        report = validate(g, consecutive)
        graceful = check_graceful(g, list(perm)).graceful
        assert graceful == report.valid
        assert report.span == g.vertex_count


@pytest.mark.parametrize("sizes", [(2, 4), (2, 2, 2)])
def test_graceful_equivalence_exhaustive_eight_vertices(sizes):
    g = HammingGraph(sizes)
    verts = g.vertices()
    diam = g.diameter
    mismatches = 0
    for count, perm in enumerate(itertools.permutations(verts)):
        graceful = check_graceful(g, perm).graceful
        # independent re-check straight from the window inequality
        ok = True
        for i in range(len(perm)):
            for delta in range(1, diam):
                if i + delta < len(perm) and oracles.mismatch(perm[i], perm[i + delta]) < diam - delta + 1:
                    ok = False
                    break
            if not ok:
                break
        if graceful != ok:
            mismatches += 1
        if count % 67 == 0:  # sampled: full validate() on the consecutive labels
            consecutive = {v: i + 1 for i, v in enumerate(perm)}
            report = validate(g, consecutive)
            assert graceful == report.valid
            assert report.span == g.vertex_count
    assert mismatches == 0


def test_greedy_labels_of_233_order_match_printed_gaps():
    g = HammingGraph((2, 3, 3))
    order = build_ordering(2, 3, 3)
    labeling, span = span_of_ordering(g, order)
    assert span == 20
    assert [labeling[v] for v in order] == [
        1, 2, 3, 4, 5, 6, 8, 9, 10, 11, 12, 13, 15, 16, 17, 18, 19, 20,
    ]
    assert labeling == dict(zip(order, oracles.greedy_labels((2, 3, 3), order)))


def test_greedy_labels_square_order():
    g = HammingGraph((2, 2))
    labeling, span = span_of_ordering(g, [(1, 1), (2, 2), (2, 1), (1, 2)])
    assert span == 5
    assert [labeling[v] for v in [(1, 1), (2, 2), (2, 1), (1, 2)]] == [1, 2, 4, 5]


def test_greedy_labels_single_edge():
    g = HammingGraph((2,))
    _, span = span_of_ordering(g, [(1,), (2,)])
    assert span == 2


def test_greedy_rejects_non_bijection():
    g = HammingGraph((2, 2))
    with pytest.raises(LabelingError):
        span_of_ordering(g, [(1, 1), (2, 2), (2, 1), (2, 1)])


@pytest.mark.parametrize("sizes,stride", [((2, 2), 1), ((2, 3), 7), ((5,), 1)])
def test_greedy_is_optimal_among_monotone_labelings(sizes, stride):
    g = HammingGraph(sizes)
    verts = g.vertices()
    # every increasing label assignment is tried per ordering; orderings of
    # the 6-vertex graph are strided to keep the test quick
    for perm in list(itertools.permutations(verts))[::stride]:
        labeling, span = span_of_ordering(g, perm)
        assert validate(g, labeling).valid
        best = oracles.min_monotone_span(sizes, list(perm), span)
        assert best == span


@settings(max_examples=150, deadline=None)
@given(
    sizes=st.sampled_from([(2, 2), (2, 3), (2, 2, 2), (3, 3)]),
    data=st.data(),
)
def test_valid_random_labelings_are_injective(sizes, data):
    g = HammingGraph(sizes)
    n = g.vertex_count
    labels = data.draw(
        st.lists(st.integers(min_value=1, max_value=3 * n), min_size=n, max_size=n)
    )
    labeling = dict(zip(g.vertices(), labels))
    report = validate(g, labeling)
    if report.valid:
        assert len(set(labeling.values())) == n
    # and the validator agrees with the pair-by-pair definition
    assert report.valid == oracles.radio_valid(sizes, labeling)


@settings(max_examples=80, deadline=None)
@given(
    sizes=st.sampled_from([(2, 2), (2, 3), (2, 2, 2)]),
    data=st.data(),
)
def test_greedy_output_always_validates(sizes, data):
    g = HammingGraph(sizes)
    perm = data.draw(st.permutations(g.vertices()))
    labeling, span = span_of_ordering(g, perm)
    report = validate(g, labeling)
    assert report.valid
    assert report.span == span
    assert [labeling[v] for v in perm] == oracles.greedy_labels(sizes, list(perm))


SIZES = st.lists(st.integers(1, 5), min_size=1, max_size=4).map(tuple)
BAD_ITEMS = ["bool", "float", "zero", "size+1", "negative", "huge", "length", "list", "duplicate"]
# items that check_vertex accepts, though oracles.is_bijection wants exact types
ACCEPTED_ITEMS = ["namedtuple", "int subclass"]
ROWS = {k: collections.namedtuple(f"Row{k}", [f"c{c}" for c in range(k)]) for k in range(1, 5)}


class Coordinate(int):
    """An int subclass other than bool."""


def _odd_item(ordering, pos, kind, sizes):
    v = list(ordering[pos])
    c = pos % len(v)
    if kind == "list":
        return v
    if kind == "length":
        return tuple(v + [1]) if pos % 2 else tuple(v[:-1])
    if kind == "duplicate":
        return ordering[pos - 1]  # the last item when pos is 0
    if kind == "namedtuple":
        return ROWS[len(v)](*v)
    v[c] = {"bool": True, "float": 1.0, "zero": 0, "size+1": sizes[c] + 1, "negative": -1,
            "huge": 2**32 + v[c], "int subclass": Coordinate(v[c])}[kind]
    return tuple(v)


def _passes_check_vertex(g, v):
    try:
        g.check_vertex(v)
    except GraphError:
        return False
    return True


@settings(max_examples=300, deadline=None)
@given(sizes=SIZES, data=st.data())
def test_verify_bijection_matches_item_by_item_check(sizes, data):
    # verify_bijection, check_graceful and span_of_ordering share one check:
    # the two raise exactly where it fails, and an accepted item gives the
    # results of the plain vertex it stands for
    g = HammingGraph(sizes)
    plain = data.draw(st.permutations(g.vertices()))
    assert verify_bijection(g, plain)
    pos = data.draw(st.sampled_from([0, len(plain) // 2, len(plain) - 1]))
    kind = data.draw(st.sampled_from(BAD_ITEMS + ACCEPTED_ITEMS))
    ordering = list(plain)
    ordering[pos] = _odd_item(ordering, pos, kind, sizes)
    bijection = verify_bijection(g, ordering)
    if kind in ACCEPTED_ITEMS:
        assert bijection
    else:
        assert bijection == oracles.is_bijection(sizes, ordering)
    assert g.are_vertices(ordering) == all(_passes_check_vertex(g, v) for v in ordering)
    if kind in BAD_ITEMS and (kind != "duplicate" or len(ordering) > 1):
        assert not bijection
    refusal = f"^ordering is not a bijection onto the vertices of {g}$"
    for check in (check_graceful, span_of_ordering):
        if bijection:
            assert check(g, ordering) == check(g, plain)
        else:
            with pytest.raises(LabelingError, match=refusal):
                check(g, ordering)


def test_validate_names_the_first_bad_item():
    g = HammingGraph((2, 2))
    with pytest.raises(LabelingError, match=r"^label 0 for vertex \(1, 1\) is not a positive integer$"):
        validate(g, {(1, 1): 0, (1, 2): 2, (2, 1): 3, (3, 1): 4})
    with pytest.raises(GraphError, match=r"^coordinate 3 of vertex \(3, 1\) outside 1..2$"):
        validate(g, {(3, 1): 1, (1, 2): 2, (2, 1): 3, (1, 1): 0})
    with pytest.raises(LabelingError, match=r"^label 2.0 for vertex \(1, 2\) is not a positive integer$"):
        validate(g, {(1, 1): 1, (1, 2): 2.0, (2, 1): 3, (2, 2): 4})


@settings(max_examples=200, deadline=None)
@given(sizes=SIZES.filter(lambda s: math.prod(s) <= 100), data=st.data())
def test_window_scan_and_shortcut_match_the_definitions(sizes, data):
    g = HammingGraph(sizes)
    ordering = data.draw(st.permutations(g.vertices()))
    labeling, span = span_of_ordering(g, ordering)
    labels = oracles.greedy_labels(sizes, ordering)
    assert [labeling[v] for v in ordering] == labels
    assert span == labels[-1]
    graceful = check_graceful(g, ordering).graceful
    consecutive = {v: i for i, v in enumerate(ordering, 1)}
    assert graceful == oracles.radio_valid(sizes, consecutive)
    assert graceful == (span == len(ordering))


def _report_rows(report):
    return [(v.u, v.v, v.required_gap, v.actual_gap) for v in report.violations]


# label offsets around 2^31, where the window scan starts to rebase, and
# around 2^63 and 2^64
LABEL_BASES = [0, 2**31 - 9, 2**32, 2**63 - 9, 2**64, 10**20]


@settings(max_examples=300, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 4), min_size=1, max_size=5).map(tuple)
    .filter(lambda s: math.prod(s) <= 96),
    chunk=st.sampled_from([1, 2, 3, 7, 64]),
    base=st.sampled_from(LABEL_BASES),
    data=st.data(),
)
def test_validate_matches_the_violating_pairs(sizes, chunk, base, data):
    # few distinct labels give duplicates, and jumps of 2^31 and 2^64 put
    # labels more than 31 and 64 bits apart in one window
    g = HammingGraph(sizes)
    n = g.vertex_count
    offsets = st.integers(0, data.draw(st.sampled_from([n // 3, 2 * n, 4 * n])))
    jumped = st.builds(operator.add, offsets, st.sampled_from([2**31, 2**64]))
    labels = data.draw(st.lists(offsets | jumped, min_size=n, max_size=n))
    labeling = {v: base + 1 + x for v, x in zip(g.vertices(), labels)}
    with mock.patch.object(labeling_mod, "_CHUNK", chunk):
        report = validate(g, labeling)
    expected = oracles.violating_pairs(sizes, labeling)
    assert _report_rows(report) == expected
    assert report.valid == (not expected)
    assert report.span == max(labeling.values())


@pytest.mark.parametrize("base", [0, 3 * 10**9, 2**64])
def test_validate_and_check_graceful_across_a_full_chunk_seam(base):
    g = HammingGraph((2, 2, 1100))
    ordering = build_ordering(2, 2, 1100)
    assert len(ordering) > labeling_mod._CHUNK
    labeling = {v: base + i for i, v in enumerate(ordering, 1)}
    expected = oracles.violating_pairs((2, 2, 1100), labeling)
    assert _report_rows(validate(g, labeling)) == expected
    assert expected and not check_graceful(g, ordering).graceful


@pytest.mark.parametrize("base", [2**31 - 9, 2**32, 2**63 - 9])
def test_window_scan_packs_32_bit_lanes(base):
    # labels from 2^31 are rebased rather than packed in wider lanes
    sizes = (2, 3, 3)
    g = HammingGraph(sizes)
    labeling = {v: base + i for i, v in enumerate(g.vertices(), 1)}
    labeling[(1, 2, 2)] += 2**31
    codes = []

    def recording_array(code, *args):
        codes.append(code)
        return array(code, *args)

    with mock.patch.object(labeling_mod, "array", recording_array):
        report = validate(g, labeling)
    assert set(codes) == {"I"}
    assert _report_rows(report) == oracles.violating_pairs(sizes, labeling)


def test_verify_reports_labels_beyond_64_bits(tmp_path, capsys):
    path = tmp_path / "big.csv"
    base = 10**20
    rows = [("(1,1)", base), ("(2,2)", base + 1), ("(2,1)", base + 3), ("(1,2)", base + 4)]
    path.write_text("vertex,label\n" + "".join(f'"{v}",{f}\n' for v, f in rows))
    assert main(["verify", "2x2", str(path)]) == 0
    assert capsys.readouterr().out == (
        '{\n  "valid": true,\n  "span": 100000000000000000004,\n  "violations": []\n}\n'
    )
    rows[2] = ("(2,1)", base + 2)
    path.write_text("vertex,label\n" + "".join(f'"{v}",{f}\n' for v, f in rows))
    assert main(["verify", "2x2", str(path)]) == 1
    assert json.loads(capsys.readouterr().out)["violations"] == [
        {"u": "(2,2)", "v": "(2,1)", "required_gap": 2, "actual_gap": 1},
    ]


def test_check_graceful_scans_in_chunk_sized_memory(monkeypatch):
    # the bijection check's set is freed before it returns its columns, so
    # the peak after it is the scan's: chunks of 4,096 positions, not 216,000
    g = HammingGraph((60, 60, 60))
    ordering = build_ordering(60, 60, 60)
    check, held = labeling_mod._bijection_columns, []

    def check_then_reset_peak(*args):
        columns = check(*args)
        tracemalloc.reset_peak()
        held.append(tracemalloc.get_traced_memory()[0])
        return columns

    monkeypatch.setattr(labeling_mod, "_bijection_columns", check_then_reset_peak)
    tracemalloc.start()
    try:
        assert check_graceful(g, ordering).graceful
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - held[0] < 2**20


def test_order_and_label_walk_once_and_scan_no_window(monkeypatch):
    # 50x60x72: 120 blocks of 1,800 rows; whether the walk is graceful is
    # decided from the sizes, so neither command scans a window, and each
    # writes from the one walk it starts
    import radiohamming.cli as cli_mod
    import radiohamming.ordering as ordering_mod

    scans, walks = [], []
    scan, walk = labeling_mod._window_violations, ordering_mod.block_columns

    def recording_scan(*args):
        scans.append(1)
        return scan(*args)

    def recording_walk(g):
        walks.append(g.factor_sizes)
        return walk(g)

    monkeypatch.setattr(labeling_mod, "_window_violations", recording_scan)
    monkeypatch.setattr(cli_mod, "block_columns", recording_walk)
    monkeypatch.setattr(ordering_mod, "block_columns", recording_walk)
    monkeypatch.setattr(labeling_mod, "block_columns", recording_walk)
    for command in ("order", "label"):
        scans.clear()
        walks.clear()
        assert main([command, "50x60x72", "-o", os.devnull]) == 0
        assert (len(scans), walks) == (0, [(50, 60, 72)]), command


def _check_label_walk(sizes):
    # the rows of label_walk's blocks are build_ordering's, in its order, and
    # their labels the tight labels of that ordering, across every block seam
    ordering = build_ordering(*sizes)
    blocks = list(labeling_mod.label_walk(HammingGraph(sizes)))
    assert all(len(set(map(len, columns))) == 1 for columns in blocks)
    assert [v for *columns, _ in blocks for v in zip(*columns)] == ordering
    labels = [label for *_, block_labels in blocks for label in block_labels]
    assert labels == oracles.greedy_labels(sizes, ordering)
    return blocks


@settings(max_examples=60, deadline=None)
@given(sizes=SIZES)
def test_label_walk_is_the_greedy_of_build_ordering(sizes):
    _check_label_walk(sizes)


@pytest.mark.parametrize("chunk", [1, 2, 3, 256])
@pytest.mark.parametrize("sizes", [(2, 2, 7), (2, 3, 3), (3, 2, 2), (1, 2, 3, 3)])
def test_label_walk_of_walks_that_are_not_graceful(sizes, chunk):
    # label's writer cuts each block's label array into chunks of _CSV_ROWS
    # rows and writes csv.writer's text of the rows, across every chunk seam
    blocks = _check_label_walk(sizes)
    expected = io.StringIO()
    csv.writer(expected, lineterminator="\n").writerows(
        (format_vertex(v), label)
        for *columns, labels in blocks
        for v, label in zip(zip(*columns), labels)
    )
    out = io.StringIO()
    row = f"{labeling_mod.csv_vertex_template(len(sizes))},%s\n"
    with mock.patch.object(labeling_mod, "_CSV_ROWS", chunk):
        for columns in blocks:
            labeling_mod.write_csv_rows(out, row, zip(*columns))
    assert out.getvalue() == expected.getvalue()


@pytest.mark.parametrize("sizes", [(2, 2, 300), (2, 2, 5000), (2, 3, 3), (3, 3, 6)], ids=str)
def test_label_walk_yields_the_walks_blocks(sizes):
    # item k is block k of the walk, whole, with its labels: greedy on the
    # first three, the positions on 3x3x6
    g = HammingGraph(sizes)
    assert walk_is_graceful(g) == (sizes == (3, 3, 6))
    blocks = list(labeling_mod.label_walk(g))
    assert len(blocks) == math.prod(sizes) // math.lcm(*sizes)
    assert [list(zip(*columns)) for *columns, _ in blocks] == list(build_blocks(*sizes))
    assert all(len(labels) == math.lcm(*sizes) for *_, labels in blocks)


def test_label_walk_refuses_a_graph_too_large_at_the_call():
    with pytest.raises(GraphError):
        labeling_mod.label_walk(HammingGraph((1000, 1000, 1001)))


@pytest.mark.parametrize(
    "sizes",
    [(2, 2, 2), (2, 2, 2, 2), (2, 2, 7), (2, 3, 3), (1, 2, 3, 3), (2, 2, 3, 3), (3, 3, 4, 4)],
    ids=str,
)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_greedy_labeler_carries_its_rows_across_runs(sizes, data):
    # the labels of runs cut anywhere, empty runs, block seams and runs
    # shorter than diam - 1 included, are those of one run over all rows
    g = HammingGraph(sizes)
    assert not walk_is_graceful(g)
    ordering = build_ordering(*sizes)
    expected = oracles.greedy_labels(sizes, ordering)
    assert list(labeling_mod.greedy_labeler(g.diameter)(ordering)) == expected
    n, rows = len(ordering), math.lcm(*sizes)
    cuts = data.draw(st.lists(st.integers(0, n) | st.sampled_from(range(0, n + 1, rows))))
    label = labeling_mod.greedy_labeler(g.diameter)
    bounds = [0, *sorted(cuts), n]
    runs = [label(ordering[a:b]) for a, b in zip(bounds, bounds[1:])]
    assert all(isinstance(run, array) and run.typecode == "q" for run in runs)
    assert [x for run in runs for x in run] == expected


def test_label_walk_holds_one_block_of_the_greedy():
    # 2x2x2x2x2000: 16 blocks of 2,000 rows, not graceful; labeling them all
    # peaks near labeling the first, so no block is held past its turn
    g = HammingGraph((2, 2, 2, 2, 2000))
    assert not walk_is_graceful(g)

    def peak(consume):
        tracemalloc.start()
        try:
            consume(labeling_mod.label_walk(g))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    first = peak(next)
    assert peak(lambda blocks: sum(1 for _ in blocks)) < 1.4 * first


def _count_next_label(monkeypatch):
    calls = []
    next_label = labeling_mod.next_label

    def counting(*args):
        calls.append(1)
        return next_label(*args)

    monkeypatch.setattr(labeling_mod, "next_label", counting)
    return calls


def test_graceful_ordering_skips_the_greedy(monkeypatch):
    calls = _count_next_label(monkeypatch)
    g = HammingGraph((5, 6, 7))
    labeling, span = span_of_ordering(g, build_ordering(5, 6, 7))
    assert not calls
    assert span == g.vertex_count
    assert validate(g, labeling).valid


def test_ordering_with_violations_runs_the_greedy(monkeypatch):
    calls = _count_next_label(monkeypatch)
    labeling, span = span_of_ordering(HammingGraph((2, 3, 3)), build_ordering(2, 3, 3))
    assert calls
    assert span == 20
    assert labeling == read_labeling_csv(str(DATA / "labeling_2x3x3.csv"))


def test_labeling_csv_roundtrip(tmp_path):
    path = tmp_path / "lab.csv"
    labeling = tight_233()
    write_labeling_csv(str(path), labeling)
    assert read_labeling_csv(str(path)) == labeling
    blank = tmp_path / "blank.csv"
    blank.write_text('vertex,label\n"(1,1)",1\n\n"(2,2)",2\n')
    assert read_labeling_csv(str(blank)) == {(1, 1): 1, (2, 2): 2}


def test_empty_labeling_csv_is_the_header_alone(tmp_path):
    path = tmp_path / "empty.csv"
    write_labeling_csv(str(path), {})
    assert path.read_text() == "vertex,label\n"
    assert read_labeling_csv(str(path)) == {}


@pytest.mark.parametrize(
    "sizes", [(2, 2, 7), (1, 2, 3, 3), (5,), (7,), (2, 2, 5000), (1, 1, 3, 4, 5), (5, 7, 37)]
)
def test_labeling_csv_rows_are_format_vertex_and_label(sizes, tmp_path):
    # gappy (2x2x7, 2x2x5000), with size-1 factors, and one coordinate,
    # which csv writes unquoted; 2x2x5000 has blocks of 5,000 rows and
    # 5x7x37 one graceful block of 1,295, both across chunk seams: each
    # file as a per-row writer of format_vertex would write it
    labeling, _ = span_of_ordering(HammingGraph(sizes), build_ordering(*sizes))
    out, expected = io.StringIO(), io.StringIO()
    write_labeling_csv(out, labeling)
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(["vertex", "label"])
    for label, v in sorted((label, v) for v, label in labeling.items()):
        writer.writerow([format_vertex(v), label])
    assert out.getvalue() == expected.getvalue()
    spec = "x".join(map(str, sizes))
    path = tmp_path / "label.csv"
    if sum(n > 1 for n in sizes) == 3:  # label needs the closed form's three factors
        assert main(["label", spec, "-o", str(path)]) == 0
        assert path.read_text() == expected.getvalue()
    # order --blocks, with its block markers
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(["position", "vertex"])
    position = 1
    for k, block in enumerate(build_blocks(*sizes)):
        if k:
            expected.write(f"# block {k + 1}\n")
        for v in block:
            writer.writerow([position, format_vertex(v)])
            position += 1
    assert main(["order", spec, "--blocks", "-o", str(path)]) == 0
    assert path.read_text() == expected.getvalue()
    with pytest.raises(TypeError):
        write_labeling_csv(io.StringIO(), {**labeling, (1,) * (len(sizes) + 1): 99})


def test_labeling_csv_errors(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(LabelingError):
        read_labeling_csv(str(empty))
    bad_header = tmp_path / "bad.csv"
    bad_header.write_text("a,b\n")
    with pytest.raises(LabelingError):
        read_labeling_csv(str(bad_header))
    dup = tmp_path / "dup.csv"
    dup.write_text('vertex,label\n"(1,1)",1\n"(1,1)",2\n')
    with pytest.raises(LabelingError):
        read_labeling_csv(str(dup))
    bad = tmp_path / "row.csv"
    for row, message in [
        ('"(1,1)",1,2', "malformed labeling row"),
        ('"(1,x)",1', "malformed vertex"),
        ('"(1,1)",1.5', "malformed label"),
    ]:
        bad.write_text(f"vertex,label\n{row}\n")
        with pytest.raises(LabelingError, match=message):
            read_labeling_csv(str(bad))
    latin = tmp_path / "latin.csv"
    latin.write_bytes('vertex,label\n"(1,1)",1 \xe9\n'.encode("latin-1"))
    with pytest.raises(LabelingError, match="is not .* text"):
        read_labeling_csv(str(latin))


@settings(max_examples=300, deadline=None)
@given(st.text() | st.text(alphabet='(),0123456789-_ "\n\r').map("vertex,label\n".__add__))
def test_read_labeling_csv_raises_only_labeling_error(text):
    try:
        labeling = read_labeling_csv(io.StringIO(text))
    except LabelingError:
        return
    assert isinstance(labeling, dict)


# Rows that verify's compact reader leaves to read_labeling_csv, each for a reason
ODD_ROWS = [
    '"( 1, 2 )",5',  # spaces inside the vertex
    "(3),4",  # an unquoted vertex of one coordinate
    '"(1,\n2)",6',  # a quoted field across two lines
    '"(1,2,3)",7',  # another dimension
    "",  # a blank line
    '"(1,1)",5',  # a vertex that the canonical rows repeat
    '"(01,2)",8',  # a leading zero
    '"(1,' + "1" * 4301 + ')",9',  # more digits than int() takes
    '"(1,\u0663)",9',  # a non-ASCII digit
    '"(2,3)",1,2',  # three fields
    '"(2,3)"',  # one field
] + [f'"(2,3)",{label}' for label in ["+7", " 7 ", "7_0", "-1", "007", "\u0667", "1" * 4301, "x"]]


def _outcome(check):
    try:
        return check()
    except (GraphError, LabelingError) as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(
    vertices=st.permutations(HammingGraph((3, 3)).vertices()),
    labels=st.lists(st.integers(1, 12), min_size=9, max_size=9),
    odd=st.lists(st.tuples(st.integers(0, 9), st.sampled_from(ODD_ROWS)), max_size=3),
    ends=st.lists(st.sampled_from(["\n", "\n", "\r\n", "\r"]), min_size=1, max_size=4),
    last_end=st.booleans(),
    chunk=st.sampled_from([1, 2, 3, 7]),
)
def test_chunked_reader_is_the_row_by_row_reader(
    tmp_path_factory, vertices, labels, odd, ends, last_end, chunk
):
    # every vertex of 3x3 in canonical rows, odd ones among them, across
    # chunk seams: verify's report or error is validate's on the csv
    # reader's dict, and it reads canonical files without the csv reader
    g = HammingGraph((3, 3))
    rows = [f'"({a},{b})",{label}' for (a, b), label in zip(vertices, labels)]
    for i, row in odd:
        rows.insert(i, row)
    lines = ["vertex,label", *rows]
    text = "".join(line + ends[i % len(ends)] for i, line in enumerate(lines))
    if not last_end:
        text = text.rstrip("\r\n")
    path = tmp_path_factory.mktemp("verify") / "labeling.csv"
    path.write_bytes(text.encode())
    expected = _outcome(lambda: validate(g, read_labeling_csv(str(path))))
    canonical = not odd and "\r" not in ends  # then every line is a canonical row
    unread = {"read_labeling_csv": None} if canonical else {}
    with mock.patch.multiple(labeling_mod, _CSV_ROWS=chunk, **unread):
        assert _outcome(lambda: labeling_mod.verify_labeling_csv(g, str(path))) == expected
