import dataclasses
import itertools
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import radiohamming.labeling as labeling_mod
from radiohamming import (
    GracefulReport,
    GraphError,
    HammingGraph,
    LabelingError,
    build_ordering,
    check_graceful,
    ordering_22n,
    ordering_233,
    read_labeling_csv,
    span_of_ordering,
    validate,
    verify_bijection,
    write_labeling_csv,
)

import oracles

DATA = Path(__file__).parent / "data"


def tight_233():
    """The tight labeling of ordering_233(), span 20."""
    return span_of_ordering(HammingGraph((2, 3, 3)), ordering_233())[0]


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
    report = check_graceful(g, ordering_233())
    assert not report.graceful


@pytest.mark.parametrize("n", [4, 9, 200])
def test_check_graceful_is_a_yes_no_test(monkeypatch, n):
    def no_violations(*args):
        raise AssertionError("check_graceful built a Violation")

    monkeypatch.setattr(labeling_mod, "Violation", no_violations)
    g = HammingGraph((2, 2, n))
    assert check_graceful(g, build_ordering(2, 2, n)) == GracefulReport(graceful=False)
    assert check_graceful(g, ordering_22n(n)) == GracefulReport(graceful=False)


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
    order = ordering_233()
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
BAD_ITEMS = ["bool", "float", "zero", "size+1", "length", "list", "duplicate"]


def _bad_item(ordering, pos, kind, sizes):
    v = list(ordering[pos])
    c = pos % len(v)
    if kind == "list":
        return v
    if kind == "length":
        return tuple(v + [1]) if pos % 2 else tuple(v[:-1])
    if kind == "duplicate":
        return ordering[pos - 1]  # the last item when pos is 0
    v[c] = {"bool": True, "float": 1.0, "zero": 0, "size+1": sizes[c] + 1}[kind]
    return tuple(v)


@settings(max_examples=300, deadline=None)
@given(sizes=SIZES, data=st.data())
def test_verify_bijection_matches_item_by_item_check(sizes, data):
    g = HammingGraph(sizes)
    ordering = data.draw(st.permutations(g.vertices()))
    assert verify_bijection(g, ordering)
    pos = data.draw(st.sampled_from([0, len(ordering) // 2, len(ordering) - 1]))
    kind = data.draw(st.sampled_from(BAD_ITEMS))
    ordering[pos] = _bad_item(ordering, pos, kind, sizes)
    assert verify_bijection(g, ordering) == oracles.is_bijection(sizes, ordering)
    if kind != "duplicate" or len(ordering) > 1:
        assert not verify_bijection(g, ordering)


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
    labeling, span = span_of_ordering(HammingGraph((2, 3, 3)), ordering_233())
    assert calls
    assert span == 20
    assert labeling == read_labeling_csv(str(DATA / "labeling_2x3x3.csv"))


def test_labeling_csv_roundtrip(tmp_path):
    path = tmp_path / "lab.csv"
    labeling = tight_233()
    write_labeling_csv(str(path), labeling)
    assert read_labeling_csv(str(path)) == labeling


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
