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
from oracles import all_slopes, neighbors_bf
from util import S


@pytest.mark.parametrize(
    "graph",
    [
        SpottedDiskGraph(6),
        SpottedDiskGraph(6, twist_gap=2),
        SphereGraph(6),
        SpottedArcGraph(6),
    ],
    ids=lambda g: f"{g.name}-gap{g.twist_gap}",
)
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
