import inspect
import math
import operator
import sys
import time
import tracemalloc

import pytest

import radiohamming.exceptional as exceptional_mod
import radiohamming.labeling as labeling_mod
import radiohamming.solver as solver_mod
from radiohamming import (
    HammingGraph,
    SolverConfig,
    build_ordering,
    max_consecutive_run,
    radio_number_formula,
    solve,
    span_of_ordering,
    validate,
)

import oracles

# every Hamming graph on at most 8 vertices (up to factor reordering)
GRAPHS_UP_TO_8 = [
    (2,), (3,), (4,), (5,), (6,), (7,), (8,),
    (2, 2), (2, 3), (2, 4), (2, 2, 2),
]

GRAPHS_UP_TO_12 = GRAPHS_UP_TO_8 + [(9,), (10,), (11,), (12,), (2, 5), (2, 6), (3, 3), (3, 4), (2, 2, 3)]


class TestMinimalRemainingIncrement:
    # C(s) on the table seeded by the run search alone: the climb the
    # branch-and-bound ceiling subtracts from the bound at each depth
    def test_pinned_values(self):
        assert solver_mod._ClimbTable(18, 6).climb(18) == 19
        assert solver_mod._ClimbTable(1, 1).climb(1) == 0
        assert solver_mod._ClimbTable(99, 99).climb(1) == 0

    @pytest.mark.parametrize("n", range(1, 8))
    def test_two_run_family(self, n):
        assert solver_mod._ClimbTable(4 * n, 2).climb(4 * n) == 6 * n - 2

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            solver_mod._ClimbTable(4, 0)
        with pytest.raises(ValueError):
            solver_mod._ClimbTable(4, 5)

    def test_seed_is_the_jump_bound(self):
        for n in range(1, 25):
            for r in range(1, n + 1):
                table = solver_mod._ClimbTable(n, r)
                for s in range(1, n + 1):
                    assert table.climb(s) == oracles.jump_lower_bound(s, min(r, s)) - 1


class TestClimbTable:
    @pytest.mark.parametrize("sizes", GRAPHS_UP_TO_12 + [(2, 2, 2, 2)])
    def test_matches_brute_force(self, sizes):
        g = HammingGraph(sizes)
        top = min(g.vertex_count, 5)
        table = solver_mod._climb_table(g, math.inf, math.inf)
        # where the table stops early (K_2^4 after m[4]), fill the next
        # entries the way its loop does
        for w in range(table.run + len(table.past_run) + 1, top + 1):
            best, _, _, stop = solver_mod._least_last_label(
                g, table, w, table.least(w - 1) + g.diameter + 2,
                node_budget=solver_mod._RUN_SEARCH_CAP, deadline=math.inf)
            assert stop in exceptional_mod.SEARCH_COMPLETE
            table.past_run.append(best - 1)
        assert [table.least(w) for w in range(1, top + 1)] == oracles.least_climbs(sizes, top)

    def test_entry_out_of_nodes_is_dropped(self, monkeypatch):
        # 50 nodes finish the run search of K_2^4 (r = 2, 30 nodes) but not
        # the search for m[3], so the table keeps only the seed m[3] >= 3
        g = HammingGraph((2, 2, 2, 2))
        assert solver_mod._climb_table(g, math.inf, math.inf).past_run == [4, 5]
        monkeypatch.setattr(solver_mod, "_RUN_SEARCH_CAP", 50)
        table = solver_mod._climb_table(g, math.inf, math.inf)
        assert table.run == 2
        assert table.past_run == [3]

    def test_no_entry_up_to_the_run_length(self):
        # a spent deadline caps the run search, so r = N; storing m[w] for
        # every w <= r would make each C(s) cost O(N) and the ceiling O(N^2)
        g = HammingGraph((10, 10, 10, 10))
        table = solver_mod._climb_table(g, math.inf, time.perf_counter())
        assert table.run == g.vertex_count
        assert table.past_run == [g.vertex_count + 1]

    @pytest.mark.parametrize("sizes", [(2, 2, 2, 3), (2, 2, 3, 3), (2, 2, 2, 4), (2, 2, 2, 2, 2)])
    def test_lower_bound_never_below_the_jump_bound(self, sizes):
        # 200 nodes stop short of the 253 and 433 that certify 2x2x2x3 and K_2^5
        g = HammingGraph(sizes)
        result = solve(g, SolverConfig(node_budget=200))
        assert not result.optimal
        assert result.lower_bound >= oracles.jump_lower_bound(g.vertex_count, max_consecutive_run(g))
        assert validate(g, result.witness).valid

    def test_k2_to_the_fifth_bound_beats_the_jump_bound(self):
        result = solve(HammingGraph((2,) * 5), SolverConfig(node_budget=2000))
        assert result.lower_bound >= 62 > oracles.jump_lower_bound(32, 2)


class TestSolveExactValues:
    @pytest.mark.parametrize(
        "sizes,expected",
        [
            ((2, 3, 3), 20),
            ((2, 2, 2), 11),
            ((2, 2, 3), 17),
            ((2, 2, 4), 23),
            ((2, 2), 5),
            # no closed form: the branch and bound meets the climb table's
            # root bound 1 + C(N)
            ((2, 2, 2, 3), 35),
            ((2,) * 5, 62),
            ((2,) * 6, 157),
            # the diagonal orbits meet the jump bound 72 + 72 / 12 - 1
            ((2, 3, 3, 4), 77),
        ],
    )
    def test_certified_exceptional_instances(self, sizes, expected):
        result = solve(HammingGraph(sizes))
        assert result.optimal
        assert result.rn == expected
        assert result.lower_bound == expected
        report = validate(HammingGraph(sizes), result.witness)
        assert report.valid
        assert report.span == expected
        assert oracles.radio_valid(sizes, result.witness)

    def test_single_vertex(self):
        result = solve(HammingGraph((1,)))
        assert result.rn == 1
        assert result.optimal

    def test_complete_graph_short_circuits(self):
        result = solve(HammingGraph((7,)))
        assert result.rn == 7
        assert result.optimal
        assert result.nodes_explored == 0

    @pytest.mark.parametrize("sizes", [(1,), (7,), (1, 4)])
    def test_complete_graph_certifies_at_the_root(self, sizes, monkeypatch):
        # no special case: the one diagonal orbit of K_n is the
        # lexicographic ordering, of span N, which meets the root bound rn >= N
        calls = 0
        label_walk = solver_mod.label_walk

        def counting_walk(g):
            nonlocal calls
            calls += 1
            return label_walk(g)

        monkeypatch.setattr(solver_mod, "label_walk", counting_walk)
        g = HammingGraph(sizes)
        result = solve(g)
        assert result.optimal
        assert result.rn == result.lower_bound == g.vertex_count
        assert result.nodes_explored == 0
        assert calls == 1
        assert validate(g, result.witness).valid

    def test_trivial_factors_are_ignored(self):
        result = solve(HammingGraph((2, 1, 2)))
        assert result.optimal
        assert result.rn == 5


class TestK2ToTheFourth:
    def test_certified_at_30(self):
        sizes = (2, 2, 2, 2)
        started = time.perf_counter()
        result = solve(HammingGraph(sizes))
        assert time.perf_counter() - started < 5
        assert result.optimal
        assert result.rn == result.lower_bound == 30
        # best labels first: 90,462 nodes in plain vertex order
        assert result.nodes_explored <= 200
        assert max(result.witness.values()) == 30
        assert oracles.is_bijection(sizes, list(result.witness))
        assert oracles.radio_valid(sizes, result.witness)


class TestSolveAgainstEnumeration:
    @pytest.mark.parametrize("sizes", GRAPHS_UP_TO_8)
    def test_matches_naive_enumeration(self, sizes):
        expected = oracles.naive_radio_number(sizes)
        result = solve(HammingGraph(sizes))
        assert result.optimal
        assert result.rn == expected


class TestRootCertificate:
    @pytest.mark.parametrize("sizes", [(3, 3, 3), (2, 3, 4), (4, 5, 6), (10, 10, 11)])
    def test_span_n_incumbent_skips_every_search(self, sizes, monkeypatch):
        def no_run_search(*args, **kwargs):
            raise AssertionError("run search called on a span-N incumbent")

        monkeypatch.setattr(solver_mod, "max_consecutive_run", no_run_search)
        g = HammingGraph(sizes)
        result = solve(g)
        assert result.optimal
        assert result.rn == g.vertex_count
        assert result.nodes_explored == 0

    def test_orbits_certify_one_and_two_factor_graphs(self, monkeypatch):
        # the diagonal orbits are graceful on every K_n and on every K_m x K_n,
        # written in either order, but C_4 = K_2 x K_2: span N, optimal with no search
        def no_run_search(*args, **kwargs):
            raise AssertionError("run search called on a span-N incumbent")

        monkeypatch.setattr(solver_mod, "max_consecutive_run", no_run_search)
        graphs = [(n,) for n in range(1, 10)]
        graphs += [(m, n) for m in range(2, 10) for n in range(2, 10) if (m, n) != (2, 2)]
        for sizes in graphs:
            g = HammingGraph(sizes)
            result = solve(g)
            assert result.optimal, sizes
            assert result.rn == result.lower_bound == g.vertex_count, sizes
            assert result.nodes_explored == 0, sizes
            assert oracles.radio_valid(sizes, result.witness), sizes

    @pytest.mark.parametrize(
        "sizes,rn",
        [((2, 2, 2, 2), 30), ((2, 2, 3, 4), 71), ((2, 2, 4, 4), 95), ((2, 3, 3, 3), 71),
         ((2, 3, 3, 4), 77), ((2, 3, 4, 4), 96), ((2, 4, 4, 4), 128), ((3, 4, 4, 4), 192),
         ((4, 4, 4, 4), 256), ((2, 2, 6, 6, 7), 1511)],
    )
    def test_orbit_walk_certifies_at_the_root(self, sizes, rn):
        result = solve(HammingGraph(sizes))
        assert result.optimal
        assert result.rn == result.lower_bound == rn
        assert result.nodes_explored == 0
        assert oracles.radio_valid(sizes, result.witness)

    @pytest.mark.parametrize("written", [((4, 2), (2, 4)), ((2, 2, 6, 6, 7), (2, 6, 2, 7, 6))])
    def test_factor_order_does_not_change_the_solve(self, written):
        results = [solve(HammingGraph(sizes)) for sizes in written]
        assert all(r.optimal for r in results)
        assert len({(r.rn, r.nodes_explored) for r in results}) == 1

    def test_factor_order_does_not_change_a_budgeted_solve(self):
        # 2x2x3x3 is not certified in 2,000 nodes: the same incumbent, bound
        # and node count in any factor order
        results = [solve(HammingGraph(sizes), SolverConfig(node_budget=2000))
                   for sizes in [(3, 3, 2, 2), (2, 2, 3, 3), (2, 3, 2, 3)]]
        assert len({(r.rn, r.lower_bound, r.optimal, r.nodes_explored) for r in results}) == 1

    @pytest.mark.parametrize("sizes", [(2, 2, 3), (2, 3, 3), (2, 2, 2), (2, 2, 4), (2, 2, 5)])
    def test_run_length_bound_meets_incumbent(self, sizes, monkeypatch):
        # the run-seeded table meets the incumbent, so no entry is searched
        def no_search(*args, **kwargs):
            raise AssertionError("table or branch-and-bound search on a root certificate")

        monkeypatch.setattr(solver_mod, "search_orderings", no_search)
        result = solve(HammingGraph(sizes))
        assert result.optimal
        assert result.rn == radio_number_formula(*sizes).value
        assert result.nodes_explored == 0

    def test_run_search_obeys_the_time_budget(self):
        # K_3^4 has no closed form; its run search runs to the 200k-node cap
        # and the branch and bound cannot finish, so the budget binds
        g = HammingGraph((3, 3, 3, 3))
        started = time.perf_counter()
        result = solve(g, SolverConfig(time_budget=0.5))
        assert time.perf_counter() - started < 5
        assert not result.optimal
        assert validate(g, result.witness).valid

    def test_spent_time_budget_builds_no_distance_matrix(self, monkeypatch):
        # 3x3x3x6x7 has no closed form, its orbit incumbent (span 1503) is
        # above its root bound and the searches run until the budget is spent;
        # an N x N distance matrix would take N^2 distances and 8 N^2 bytes
        calls = 0

        def counting_hamming(a, b):
            nonlocal calls
            calls += 1
            return sum(map(operator.ne, a, b))

        for mod in (labeling_mod, exceptional_mod, solver_mod):
            if hasattr(mod, "hamming"):
                monkeypatch.setattr(mod, "hamming", counting_hamming)
        g = HammingGraph((3, 3, 3, 6, 7))
        n = g.vertex_count
        tracemalloc.start()
        try:
            result = solve(g, SolverConfig(time_budget=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert calls < n * n // 4
        assert peak < n * n  # bytes; a matrix of N^2 entries takes 8 N^2
        assert not result.optimal
        assert n <= result.lower_bound <= result.rn
        report = validate(g, result.witness)
        assert report.valid
        assert report.span == result.rn

    def test_spent_time_budget_keeps_only_the_first_incumbent(self, monkeypatch):
        # 3x3x3x6x7 has no closed form and its orbit incumbent is not
        # certified: one labeled ordering is the witness, however short the
        # budget
        calls = 0
        label_walk = solver_mod.label_walk

        def counting_walk(g):
            nonlocal calls
            calls += 1
            return label_walk(g)

        monkeypatch.setattr(solver_mod, "label_walk", counting_walk)
        g = HammingGraph((3, 3, 3, 6, 7))
        result = solve(g, SolverConfig(time_budget=1e-6))
        assert calls == 1
        assert not result.optimal
        report = validate(g, result.witness)
        assert report.valid
        assert report.span == result.rn


class TestConstructionSpan:
    @pytest.mark.parametrize(
        "sizes,span,rn,nodes",
        [((2, 2, 2, 3), 43, 35, 253), ((2, 2, 7), 41, 41, 0), ((3, 3, 3), 27, 27, 0),
         ((3, 1, 2, 2), 17, 17, 0)],
    )
    def test_is_the_span_of_build_ordering(self, sizes, span, rn, nodes):
        # the branch and bound lowers rn below the first incumbent, never the
        # reported construction span
        g = HammingGraph(sizes)
        result = solve(g)
        assert result.construction_span == span_of_ordering(g, build_ordering(*sizes))[1] == span
        assert result.optimal
        assert result.rn == rn
        assert result.nodes_explored == nodes

    @pytest.mark.parametrize(
        "sizes", [(7,), (2, 3, 3), (3, 2, 2), (2, 2, 7), (1, 2, 3, 3), (4, 5, 6)]
    )
    def test_certified_witness_is_the_tight_labeling_of_build_ordering(self, sizes):
        # the same labeling, in the same key order, as span_of_ordering gives
        g = HammingGraph(sizes)
        labeling, span = span_of_ordering(g, build_ordering(*sizes))
        result = solve(g)
        assert result.optimal
        assert list(result.witness.items()) == list(labeling.items())
        assert result.construction_span == result.rn == span

    def test_spent_time_budget_reports_it_as_rn(self):
        g = HammingGraph((2, 2, 2, 3))
        result = solve(g, SolverConfig(time_budget=1e-6))
        assert result.construction_span == span_of_ordering(g, build_ordering(2, 2, 2, 3))[1]
        assert result.construction_span == result.rn == 43
        assert not result.optimal


@pytest.fixture
def shallow_recursion():
    """Allow about 40 frames beyond the caller's: fewer than the searches
    below would need if they recursed once per vertex."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 40)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


class TestNoRecursionPerVertex:
    def test_branch_and_bound_64_levels_deep(self, shallow_recursion):
        g = HammingGraph((2,) * 6)
        result = solve(g, SolverConfig(node_budget=2000))
        assert result.nodes_explored == 2001
        assert not result.optimal
        assert validate(g, result.witness).valid

    def test_run_search_50_levels_deep(self, shallow_recursion):
        assert max_consecutive_run(HammingGraph((2, 25))) == 50


class TestSolverInvariants:
    @pytest.mark.parametrize("sizes", GRAPHS_UP_TO_12)
    def test_symmetry_reduction_changes_nothing(self, sizes):
        # the search fixes the first vertex and the first use of each
        # coordinate value; it still finds rn, taken from outside the
        # library: n for K_n, mn for K_m x K_n (a Hamiltonian path of the
        # complement is a consecutive labeling) except C_4, and the paper's
        # closed form for 2x2x2 and 2x2x3
        expected = {(2, 2): 5, (2, 2, 2): 11, (2, 2, 3): 17}.get(sizes, math.prod(sizes))
        g = HammingGraph(sizes)
        result = solve(g)
        assert result.optimal
        assert result.rn == expected
        assert oracles.radio_valid(sizes, result.witness)

    @pytest.mark.parametrize("sizes", [(2, 2, 2), (2, 3, 3), (3, 3), (2, 2, 4)])
    def test_formula_agreement_where_applicable(self, sizes):
        g = HammingGraph(sizes)
        result = solve(g)
        if len(sizes) == 3:
            assert result.rn == radio_number_formula(*sizes).value

    @pytest.mark.parametrize("sizes", [(2, 2), (2, 2, 2), (2, 3, 3), (2, 2, 5)])
    def test_run_bound_never_exceeds_rn(self, sizes):
        g = HammingGraph(sizes)
        run = max_consecutive_run(g)
        result = solve(g)
        assert result.optimal
        assert oracles.jump_lower_bound(g.vertex_count, run) <= result.rn

    @pytest.mark.parametrize(
        "sizes,budget,rn", [((2,) * 6, 2146, 157), ((2, 2, 2, 3), 253, 35), ((2,) * 5, 433, 62)]
    )
    def test_stops_at_the_root_bound(self, sizes, budget, rn):
        # the branch and bound ends at the first ordering that meets the root
        # bound 1 + C(N), within exactly the nodes it takes to reach one
        g = HammingGraph(sizes)
        result = solve(g, SolverConfig(node_budget=budget))
        assert result.optimal
        assert result.rn == result.lower_bound == rn
        assert result.nodes_explored == budget
        assert not solve(g, SolverConfig(node_budget=budget - 1)).optimal

    @pytest.mark.parametrize("sizes", GRAPHS_UP_TO_12 + [(2, 2, 2, 2)])
    def test_meeting_the_bound_is_optimal(self, sizes):
        g = HammingGraph(sizes)
        for budget in (1, 10, 100, 1000):
            result = solve(g, SolverConfig(node_budget=budget))
            assert result.optimal or result.rn > result.lower_bound

    def test_budget_exhaustion_returns_valid_incumbent(self):
        # 100 nodes stop short of the 253 that certify 2x2x2x3
        g = HammingGraph((2, 2, 2, 3))
        result = solve(g, SolverConfig(node_budget=100))
        assert not result.optimal
        report = validate(g, result.witness)
        assert report.valid
        assert report.span == result.rn
        assert g.vertex_count <= result.lower_bound <= result.rn

    def test_rejects_bad_budgets(self):
        with pytest.raises(ValueError):
            SolverConfig(node_budget=0)
        with pytest.raises(ValueError):
            SolverConfig(time_budget=0)
        with pytest.raises(ValueError):
            SolverConfig(time_budget=math.nan)
