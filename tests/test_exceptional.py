import math
import time
import tracemalloc

import pytest

from radiohamming import (
    FormulaDomainError,
    HammingGraph,
    RunSearchBudgetError,
    constructive_ordering,
    formula_sizes,
    max_consecutive_run,
    ordering_22n,
    ordering_233,
    radio_number_formula,
    span_of_ordering,
    validate,
    verify_bijection,
)

from radiohamming.exceptional import search_orderings

import oracles


def graph_22n(n):
    return HammingGraph((2, 2) if n == 1 else (2, 2, n))


def tight_22n(n):
    """The tight labeling of ordering_22n(n)."""
    return span_of_ordering(graph_22n(n), ordering_22n(n))[0]


def tight_233():
    """The tight labeling of ordering_233()."""
    return span_of_ordering(HammingGraph((2, 3, 3)), ordering_233())[0]


def tight_labels(count):
    """First `count` positive integers not divisible by 3."""
    labels = []
    value = 0
    while len(labels) < count:
        value += 1
        if value % 3:
            labels.append(value)
    return labels


class TestFormula:
    def test_exceptional_values(self):
        assert radio_number_formula(2, 3, 3).value == 20
        assert radio_number_formula(2, 3, 3).case_tag == "two_three_three"
        assert radio_number_formula(2, 2, 5).value == 29
        assert radio_number_formula(2, 2, 5).case_tag == "two_two_n"

    def test_graceful_value_is_vertex_count(self):
        result = radio_number_formula(3, 3, 6)
        assert result.value == 54
        assert result.case_tag == "graceful"

    def test_degenerate_two_two_one(self):
        result = radio_number_formula(2, 2, 1)
        assert result.value == 5
        assert result.case_tag == "two_two_n"

    def test_rejects_unsorted_or_small(self):
        with pytest.raises(FormulaDomainError):
            radio_number_formula(3, 2, 3)
        with pytest.raises(FormulaDomainError):
            radio_number_formula(1, 3, 3)
        with pytest.raises(FormulaDomainError):
            radio_number_formula(2, 3, 1)


@pytest.mark.parametrize(
    "sizes,rn",
    [((2, 2), 5), ((2, 1, 2), 5), ((1, 2, 2), 5), ((3, 2, 3), 20), ((6, 2, 2), 35),
     ((4, 5, 6), 120), ((1, 3, 2, 3), 20), ((3, 3), None), ((2, 2, 2, 2), None),
     ((1, 3), None)],
)
def test_constructive_ordering_meets_the_formula(sizes, rn):
    if rn is None:
        with pytest.raises(FormulaDomainError):
            formula_sizes(sizes)
        with pytest.raises(FormulaDomainError):
            constructive_ordering(sizes)
        return
    g = HammingGraph(sizes)
    order = constructive_ordering(sizes)
    assert verify_bijection(g, order)
    assert radio_number_formula(*formula_sizes(sizes)).value == rn
    assert span_of_ordering(g, order)[1] == rn


class TestLabeling233:
    def test_pinned_entries(self):
        lab = tight_233()
        assert lab[(1, 1, 1)] == 1
        assert lab[(2, 3, 2)] == 20
        assert lab[(1, 1, 2)] == 8

    def test_valid_with_span_20(self):
        report = validate(HammingGraph((2, 3, 3)), tight_233())
        assert report.valid
        assert report.span == 20

    def test_ordering_233_is_label_order(self):
        lab = tight_233()
        order = ordering_233()
        assert [lab[v] for v in order] == sorted(lab.values())


class TestLabeling22n:
    def test_n1_square(self):
        lab = tight_22n(1)
        assert lab == {(1, 1): 1, (2, 2): 2, (2, 1): 4, (1, 2): 5}
        report = validate(HammingGraph((2, 2)), lab)
        assert report.valid
        assert report.span == 5

    def test_n2_order_and_labels(self):
        order = ordering_22n(2)
        assert order == [
            (1, 1, 1), (2, 2, 2), (2, 1, 1), (1, 2, 2),
            (2, 1, 2), (1, 2, 1), (1, 1, 2), (2, 2, 1),
        ]
        lab = tight_22n(2)
        assert [lab[v] for v in order] == [1, 2, 4, 5, 7, 8, 10, 11]
        assert validate(HammingGraph((2, 2, 2)), lab).span == 11

    def test_n3_labels_and_ending(self):
        order = ordering_22n(3)
        lab = tight_22n(3)
        assert [lab[v] for v in order] == [1, 2, 4, 5, 7, 8, 10, 11, 13, 14, 16, 17]
        assert order[-1] == (1, 2, 3)
        assert validate(HammingGraph((2, 2, 3)), lab).valid

    def test_n4_append_block(self):
        order = ordering_22n(4)
        assert order[:8] == ordering_22n(2)
        assert order[8:] == [
            (1, 1, 3), (2, 2, 4), (2, 1, 3), (1, 2, 4),
            (2, 1, 4), (1, 2, 3), (1, 1, 4), (2, 2, 3),
        ]
        lab = tight_22n(4)
        assert [lab[v] for v in order[8:]] == [13, 14, 16, 17, 19, 20, 22, 23]
        report = validate(HammingGraph((2, 2, 4)), lab)
        assert report.valid
        assert report.span == 23

    @pytest.mark.parametrize("n", range(1, 51))
    def test_valid_with_span_6n_minus_1(self, n):
        report = validate(graph_22n(n), tight_22n(n))
        assert report.valid
        assert report.span == 6 * n - 1

    @pytest.mark.parametrize("n", [2, 4, 6, 7, 9, 12, 25])
    def test_even_style_ending_from_n4_on(self, n):
        # n = 3 is the only odd-style ending; one append normalizes it
        order = ordering_22n(n)
        if n == 3:
            assert order[-1] == (1, 2, 3)
        else:
            assert order[-2:] == [(1, 1, n), (2, 2, n - 1)]

    @pytest.mark.parametrize("n", range(1, 51))
    def test_greedy_reproduces_the_tight_labels(self, n):
        g = graph_22n(n)
        order = ordering_22n(n)
        labeling, span = span_of_ordering(g, order)
        assert span == 6 * n - 1
        assert [labeling[v] for v in order] == tight_labels(4 * n)
        assert labeling == dict(zip(order, tight_labels(4 * n)))

    def test_rejects_n_below_one(self):
        with pytest.raises(FormulaDomainError):
            ordering_22n(0)


class TestMaxConsecutiveRun:
    def test_233_admits_six_but_not_seven(self):
        assert max_consecutive_run(HammingGraph((2, 3, 3))) == 6

    @pytest.mark.parametrize("n", range(2, 7))
    def test_22n_admits_two_but_not_three(self, n):
        assert max_consecutive_run(HammingGraph((2, 2, n))) == 2

    @pytest.mark.parametrize("sizes", [(1,), (3,), (7,)])
    def test_complete_graph_runs_everything(self, sizes):
        # no window constraints: the search runs through every vertex
        assert max_consecutive_run(HammingGraph(sizes)) == sizes[0]

    def test_matches_plain_search_on_small_graphs(self):
        for sizes in [(2, 2), (2, 3), (2, 2, 2), (2, 2, 3), (3, 3)]:
            assert max_consecutive_run(HammingGraph(sizes)) == oracles.naive_max_run(sizes)

    @pytest.mark.parametrize("sizes", [(3, 3, 3), (4, 4)])
    def test_stops_at_a_run_through_every_vertex(self, sizes):
        # the search stops once a run covers all N vertices, far below the
        # default cap; without that stop these exceed its 1M nodes
        g = HammingGraph(sizes)
        assert max_consecutive_run(g) == g.vertex_count

    def test_budget_error_carries_best_bound(self):
        with pytest.raises(RunSearchBudgetError) as err:
            max_consecutive_run(HammingGraph((3, 3, 3)), cap=10)
        assert err.value.best_found >= 1
        assert not err.value.timed_out

    def test_passed_deadline_raises_budget_error(self):
        # 3x3x5 needs far more than the 256 nodes between clock reads
        with pytest.raises(RunSearchBudgetError) as err:
            max_consecutive_run(HammingGraph((3, 3, 5)), deadline=time.perf_counter())
        assert err.value.timed_out
        assert err.value.best_found >= 1

    def test_cap_counts_every_candidate(self):
        # the cap bounds candidates tried, not runs extended, so a capped
        # search on K_3^4 ends in well under a second
        started = time.perf_counter()
        with pytest.raises(RunSearchBudgetError) as err:
            max_consecutive_run(HammingGraph((3, 3, 3, 3)), cap=200_000)
        assert time.perf_counter() - started < 5
        assert not err.value.timed_out
        assert 1 <= err.value.best_found < 81

    def test_rejects_bad_cap(self):
        with pytest.raises(ValueError):
            max_consecutive_run(HammingGraph((2, 2)), cap=0)

    def test_capped_run_on_k6_to_the_fourth(self):
        # under the run ceiling every child that passes has the least label,
        # so entering children best label first keeps the plain-order search
        # node for node; 1197 is what that search reaches in 200,000 nodes
        with pytest.raises(RunSearchBudgetError) as err:
            max_consecutive_run(HammingGraph((6, 6, 6, 6)), cap=200_000)
        assert err.value.best_found == 1197


class TestSearchOrderings:
    @pytest.mark.parametrize("depth", [1, 3, 5])
    def test_leaf_sits_at_the_ceiling_length(self, depth):
        g = HammingGraph((2, 2, 2))
        leaves = []

        def on_leaf(order, labels):
            leaves.append((order, labels))

        _, deepest, stop = search_orderings(
            g, [math.inf] * depth, on_leaf, node_budget=10**6, deadline=math.inf
        )
        assert stop == "exhausted"
        assert deepest == depth
        assert leaves
        for order, labels in leaves:
            assert len(order) == len(set(order)) == len(labels) == depth
            assert labels == oracles.greedy_labels((2, 2, 2), order)

    @pytest.mark.parametrize("sizes", [(2, 3), (2, 2, 2)])
    def test_children_best_label_first(self, sizes):
        # every node's children come in increasing (label, vertex index)
        # order, so the leaves come in increasing lexicographic order of
        # their (label, vertex index) sequences; where two leaves part, the
        # later one's label is never lower
        g = HammingGraph(sizes)
        index = {v: i for i, v in enumerate(g.vertices())}
        keys = []

        def on_leaf(order, labels):
            keys.append([(label, index[v]) for v, label in zip(order, labels)])

        _, _, stop = search_orderings(
            g, [math.inf] * g.vertex_count, on_leaf, node_budget=10**6, deadline=math.inf
        )
        assert stop == "exhausted"
        assert all(a < b for a, b in zip(keys, keys[1:]))
        # only the order changes: every greedy ordering that passes the
        # symmetry filters is still a leaf
        assert len(keys) == {(2, 3): 60, (2, 2, 2): 5040}[sizes]

    def test_frames_take_8_bytes_per_node(self):
        # children not yet entered are packed 8 bytes each; diving best
        # label first on K_6^4 leaves most scanned children waiting in a
        # frame, so Python ints (about 40 bytes each) or a copy of N entries
        # per frame would break this bound
        g = HammingGraph((6, 6, 6, 6))
        n = g.vertex_count
        budget = 50_000
        tracemalloc.start()
        try:
            _, _, stop = search_orderings(
                g, [d + 10 for d in range(n)], lambda order, labels: True,
                node_budget=budget, deadline=math.inf,
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stop == "node_budget"
        assert peak < 8 * budget + 500 * n


class TestJumpLowerBound:
    # the run lengths the search finds, put into the jump bound of
    # tests/oracles.py, give the closed form of both exceptional families
    def test_pinned_values(self):
        assert oracles.jump_lower_bound(18, max_consecutive_run(HammingGraph((2, 3, 3)))) == 20
        assert oracles.jump_lower_bound(5, max_consecutive_run(HammingGraph((5,)))) == 5
        assert oracles.jump_lower_bound(1, max_consecutive_run(HammingGraph((1,)))) == 1

    @pytest.mark.parametrize("n", range(1, 10))
    def test_two_run_family(self, n):
        run = max_consecutive_run(graph_22n(n))
        assert oracles.jump_lower_bound(4 * n, run) == radio_number_formula(2, 2, n).value
