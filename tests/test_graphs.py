import itertools

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from radiohamming import (
    GraphError,
    HammingGraph,
    format_vertex,
    parse_graph,
    parse_vertex,
)
from radiohamming.graphs import hamming, vertex_template

sizes_strategy = st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=4).map(tuple)


def distance(g, a, b):
    """The distance of two vertices of g, each checked first."""
    g.check_vertex(a)
    g.check_vertex(b)
    return hamming(a, b)


def test_distance_examples():
    g = HammingGraph((2, 3, 3))
    assert distance(g, (1, 1, 1), (2, 2, 2)) == 3
    assert distance(g, (1, 2, 3), (1, 2, 3)) == 0
    g2 = HammingGraph((3, 3, 6))
    assert distance(g2, (1, 1, 1), (1, 2, 3)) == 2


def test_distance_errors():
    g = HammingGraph((2, 3, 3))
    with pytest.raises(GraphError):
        distance(g, (1, 1), (1, 1, 1))
    with pytest.raises(GraphError):
        distance(g, (1, 1, 1), (1, 4, 1))
    with pytest.raises(GraphError):
        distance(g, (0, 1, 1), (1, 1, 1))


def test_diameter_examples():
    assert HammingGraph((2, 3, 3)).diameter == 3
    assert HammingGraph((2, 2)).diameter == 2
    assert HammingGraph((2, 2, 1)).diameter == 2
    assert HammingGraph((1,)).diameter == 0
    assert HammingGraph((7,)).diameter == 1


def test_vertices_lexicographic():
    assert HammingGraph((2, 2)).vertices() == [(1, 1), (1, 2), (2, 1), (2, 2)]
    assert HammingGraph((3,)).vertices() == [(1,), (2,), (3,)]
    verts = HammingGraph((2, 3, 3)).vertices()
    assert len(verts) == 18
    assert verts[0] == (1, 1, 1)
    assert verts[-1] == (2, 3, 3)


def test_invalid_graphs():
    with pytest.raises(GraphError):
        HammingGraph(())
    with pytest.raises(GraphError):
        HammingGraph((2, 0))
    with pytest.raises(GraphError):
        HammingGraph((-1,))
    with pytest.raises(GraphError):
        HammingGraph((True, 2))


def test_bool_coordinate_is_not_a_vertex():
    g = HammingGraph((2, 2))
    with pytest.raises(GraphError):
        g.check_vertex((True, 2))
    with pytest.raises(GraphError):
        distance(g, (True, 2), (1, 1))


def test_vertices_refuses_huge_materialization():
    g = HammingGraph((500, 500, 500))
    assert g.diameter == 3  # distance queries still fine
    with pytest.raises(GraphError):
        g.vertices()


@pytest.mark.parametrize("sizes", [(2,), (3,), (2, 2), (2, 3), (1, 2, 2), (2, 2, 2)])
def test_triangle_inequality_and_diameter_exhaustive(sizes):
    g = HammingGraph(sizes)
    verts = g.vertices()
    assert len(set(verts)) == g.vertex_count
    attained = 0
    for a, b in itertools.combinations_with_replacement(verts, 2):
        d = distance(g, a, b)
        assert d == distance(g, b, a)
        assert (d == 0) == (a == b)
        assert d <= g.diameter
        attained = max(attained, d)
    assert attained == g.diameter
    for a, b, c in itertools.product(verts[:6], repeat=3):
        assert distance(g, a, c) <= distance(g, a, b) + distance(g, b, c)


@given(sizes_strategy)
def test_graph_spec_roundtrip(sizes):
    g = HammingGraph(sizes)
    assert parse_graph(str(g)) == g


@given(sizes_strategy, st.data())
def test_vertex_roundtrip(sizes, data):
    g = HammingGraph(sizes)
    v = tuple(data.draw(st.integers(min_value=1, max_value=s)) for s in sizes)
    assert parse_vertex(format_vertex(v)) == v
    g.check_vertex(v)


@given(sizes_strategy, st.data())
def test_vertex_template_is_format_vertex(sizes, data):
    v = tuple(data.draw(st.integers(min_value=1, max_value=s)) for s in sizes)
    template = vertex_template(len(v))
    assert template % v == format_vertex(v)
    # a vertex of another dimension is refused, not cut or padded
    with pytest.raises(TypeError):
        template % (v + (1,))
    with pytest.raises(TypeError):
        vertex_template(len(v) + 1) % v


@given(st.text())
@example("2x³")
@example("2x" + "9" * 5000)
def test_parse_graph_raises_only_graph_error(text):
    try:
        g = parse_graph(text)
    except GraphError:
        return
    assert all(type(s) is int and s >= 1 for s in g.factor_sizes)


@given(st.text())
@example("(1,2)")
@example("(" + "1" * 5000 + ",1)")
def test_parse_vertex_raises_only_graph_error(text):
    try:
        v = parse_vertex(text)
    except GraphError:
        return
    assert v and all(type(c) is int and c >= 0 for c in v)


def test_parse_errors():
    for bad in ["", "2x", "x3", "2x-1", "2,3", "axb", "2x³", "²x3", "2x+3", "2x3_0"]:
        with pytest.raises(GraphError, match="malformed graph spec"):
            parse_graph(bad)
    for bad in ["", "1,2", "(1,2", "(1,,2)", "(a,b)"]:
        with pytest.raises(GraphError):
            parse_vertex(bad)
