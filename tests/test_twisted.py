"""The strong-product rule shared by the twisted models, and their codecs."""

import pytest
from hypothesis import given, strategies as st

from flatcert import (
    SphereGraph,
    SpottedArcGraph,
    SpottedDiskGraph,
    TwistedGraph,
    canonicalize,
)
from flatcert.cli import GRAPH_KINDS, build_graph
from flatcert.engine import (
    BudgetExceededError,
    InvalidVertexError,
    ball,
    bfs_distance,
    document_from_ball,
)
from oracles import all_slopes, neighbors_bf, raw_stern_brocot_key
from util import S

twisted_graphs = pytest.mark.parametrize(
    "graph",
    [
        SpottedDiskGraph(6),
        SpottedDiskGraph(6, twist_gap=2),
        SphereGraph(6),
        SpottedArcGraph(6),
    ],
    ids=lambda g: f"{g.name}-gap{g.twist_gap}",
)


@twisted_graphs
def test_neighbor_lists_are_the_strong_product_in_sort_key_order(graph):
    gap = graph.twist_gap
    for pq in all_slopes(6):
        bases = [pq] + neighbors_bf(pq, 6)
        for k in (-2, 0, 3):
            v = graph.vertex(S(*pq), k)
            expected = [
                graph.vertex(S(*b), k + dk)
                for b in bases
                for dk in range(-gap, gap + 1)
                if (b, dk) != (pq, 0)
            ]
            assert list(graph.neighbors(v)) == sorted(expected, key=graph.sort_key)


def test_models_keep_their_names():
    assert SpottedDiskGraph(3, twist_gap=2).name == "omega(g=2)"
    assert SphereGraph(3).name == "sphere(g=2)"
    assert SpottedArcGraph(3).name == "spotted-arc(g=2)"
    for g in (SpottedDiskGraph(3), SphereGraph(3), SpottedArcGraph(3)):
        assert isinstance(g, TwistedGraph)


def test_rejects_bad_caps():
    for make in (SpottedDiskGraph, SphereGraph, SpottedArcGraph):
        with pytest.raises(ValueError):
            make(0)
    with pytest.raises(ValueError):
        SpottedDiskGraph(3, twist_gap=0)


def test_only_the_disk_graph_takes_a_twist_gap():
    assert SphereGraph(3).twist_gap == SpottedArcGraph(3).twist_gap == 1
    for make in (SphereGraph, SpottedArcGraph):
        with pytest.raises(TypeError):
            make(3, twist_gap=2)


huge = st.integers(-(10**30), 10**30)
slopes = st.tuples(huge, st.integers(0, 10**30)).filter(lambda t: t != (0, 0)).map(
    lambda t: canonicalize(*t)
)
blanks = st.text(alphabet=" \t\n", max_size=4)


@given(st.sampled_from(GRAPH_KINDS), slopes, huge, blanks, blanks)
def test_codec_roundtrip_with_huge_values_and_whitespace(kind, arc, twist, before, after):
    g = build_graph(kind, 1)
    v = arc if kind == "farey" else g.vertex(arc, twist)
    assert g.parse_vertex(before + g.serialize_vertex(v) + after) == v


# --- distances, balls and documents from the Farey factor, against BFS -------

#: (arc, twist) of query centers, negative arcs and twists included.
CENTERS = [((0, 1), 0), ((-2, 5), -3), ((1, 0), 4), ((-3, 1), -1)]


def centers(graph):
    return [graph.vertex(S(*pq), k) for pq, k in CENTERS]


@twisted_graphs
@pytest.mark.parametrize("radius", [0, 1, 2])
def test_ball_equals_bfs(graph, radius):
    for c in centers(graph):
        assert graph.ball(c, radius) == ball(graph, c, radius)


@twisted_graphs
@pytest.mark.parametrize("radius", [0, 1, 2])
def test_document_equals_bfs(graph, radius):
    for c in centers(graph):
        assert graph.document(c, radius) == document_from_ball(graph, c, radius)


@twisted_graphs
@pytest.mark.parametrize("radius", [0, 1, 2, 3])
def test_ball_comes_in_distance_then_raw_key_then_twist_order(graph, radius):
    # The CLI prints a ball in its dict order, with no sort of its own.
    def raw_order(item):
        v, d = item
        arc, twist = graph._split(v)
        return d, raw_stern_brocot_key((arc.p, arc.q)), twist

    for c in centers(graph):
        items = list(graph.ball(c, radius).items())
        assert items == sorted(items, key=raw_order)


@twisted_graphs
def test_document_labels_are_the_vertex_texts(graph):
    # The document formats each arc once and appends "@twist" texts; each
    # label must be serialize_vertex of its vertex, which is the vertex
    # type's own text and parses back to the vertex.
    for c in centers(graph):
        doc = graph.document(c, 2)
        members = sorted(graph.ball(c, 2), key=graph.sort_key)
        assert list(doc.vertices) == [graph.serialize_vertex(v) for v in members]
        assert list(doc.vertices) == [str(v) for v in members]
        assert [graph.parse_vertex(label) for label in doc.vertices] == members
        assert {u for u, _, _ in doc.distances} == {str(c)}


@twisted_graphs
def test_distance_equals_bfs(graph):
    # Every member of each center's radius-1 ball, and targets whose twist
    # alone is 3 to 5 steps away, at caps 1-4: exact values and ">=c".
    gap = graph.twist_gap
    for pq, k in CENTERS:
        c = graph.vertex(S(*pq), k)
        targets = list(ball(graph, c, 1)) + [
            graph.vertex(S(*far), k + sign * steps * gap)
            for far in ((1, 0), (-1, 2), (5, 6))
            for sign, steps in ((1, 3), (-1, 4), (1, 5))
        ]
        for v in targets:
            for cap in (1, 2, 3, 4):
                assert graph.distance(c, v, cap) == bfs_distance(graph, c, v, cap), (c, v, cap)


@twisted_graphs
@pytest.mark.parametrize("radius", [1, 2])
def test_budget_matches_bfs(graph, radius):
    c = graph.vertex(S(-1, 2), -2)
    size = len(ball(graph, c, radius))
    with pytest.raises(BudgetExceededError):
        ball(graph, c, radius, max_visited=size - 1)
    for query in (graph.ball, graph.document):
        with pytest.raises(BudgetExceededError):
            query(c, radius, max_visited=size - 1)
    assert len(graph.ball(c, radius, max_visited=size)) == size
    assert len(graph.document(c, radius, max_visited=size).vertices) == size


@twisted_graphs
def test_bad_queries_raise_like_bfs(graph):
    inside, outside = graph.vertex(S(0, 1), 0), graph.vertex(S(1, 7), 0)
    cases = [
        (lambda: graph.distance(inside, inside, 0), lambda: bfs_distance(graph, inside, inside, 0)),
        (lambda: graph.distance(outside, outside, 0), lambda: bfs_distance(graph, outside, outside, 0)),
        (lambda: graph.distance(outside, inside, 2), lambda: bfs_distance(graph, outside, inside, 2)),
        (lambda: graph.distance(inside, outside, 2), lambda: bfs_distance(graph, inside, outside, 2)),
        (lambda: graph.ball(inside, -1), lambda: ball(graph, inside, -1)),
        (lambda: graph.ball(outside, 1), lambda: ball(graph, outside, 1)),
        (lambda: graph.document(inside, -1), lambda: document_from_ball(graph, inside, -1)),
        (lambda: graph.document(outside, 1), lambda: document_from_ball(graph, outside, 1)),
    ]
    for product, bfs in cases:
        with pytest.raises((ValueError, InvalidVertexError)) as want:
            bfs()
        with pytest.raises(type(want.value)):
            product()
