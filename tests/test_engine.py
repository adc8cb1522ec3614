import json
import random

import pytest
from hypothesis import example, given, strategies as st

from flatcert import (
    INFINITY,
    AtLeast,
    BudgetExceededError,
    DistanceCapError,
    FareyGraph,
    GraphDocument,
    InvalidVertexError,
    SpottedDisk,
    SpottedDiskGraph,
    ball,
    bfs_distance,
    bidirectional_distance,
    document_from_ball,
    document_from_sample,
    farey_neighbors,
    geodesic,
    sample_distances,
)
from oracles import (
    FIB_DISTANCE_H110,
    TWISTED_BALL_R2_H3_BY_DISTANCE,
    TWISTED_BALL_R2_H3_SIZE,
    farey_distance_bf,
)
from util import S, random_slope


class TestBfsDistance:
    def test_adjacent_basis_slopes(self):
        assert bfs_distance(FareyGraph(5), S(0, 1), INFINITY, 5) == 1

    def test_distance_two(self):
        # pairing(0/1, 2/5) = 2 rules out distance <= 1; 0/1 - 1/2 - 2/5 realizes 2.
        assert bfs_distance(FareyGraph(5), S(0, 1), S(2, 5), 5) == 2

    def test_fibonacci_pair_frozen_value(self):
        g = FareyGraph(110)
        assert bfs_distance(g, S(0, 1), S(34, 55), 12) == FIB_DISTANCE_H110

    def test_matches_oracle_on_random_pairs(self):
        g = FareyGraph(12)
        rng = random.Random(5)
        for _ in range(25):
            u, v = random_slope(rng, 12), random_slope(rng, 12)
            expected = farey_distance_bf((u.p, u.q), (v.p, v.q), 12, max_d=10)
            got = bfs_distance(g, u, v, 10)
            assert got == (expected if expected is not None else AtLeast(11))

    def test_lower_bound_marker(self):
        got = bfs_distance(FareyGraph(110), S(0, 1), S(34, 55), 2)
        assert got == AtLeast(3)
        assert str(got) == ">=3"

    def test_zero_cap_rejected(self):
        with pytest.raises(ValueError):
            bfs_distance(FareyGraph(5), S(0, 1), S(1, 1), 0)

    def test_invalid_vertex_rejected(self):
        with pytest.raises(InvalidVertexError):
            bfs_distance(FareyGraph(5), S(0, 1), S(13, 21), 3)

    def test_same_vertex(self):
        assert bfs_distance(FareyGraph(5), S(1, 2), S(1, 2), 4) == 0


class TestBidirectional:
    def test_agrees_with_unidirectional_on_100_random_pairs(self):
        g = FareyGraph(8)
        rng = random.Random(17)
        for _ in range(100):
            u, v = random_slope(rng, 8), random_slope(rng, 8)
            assert bidirectional_distance(g, u, v, 8) == bfs_distance(g, u, v, 8)

    def test_cap_semantics_match(self):
        g = FareyGraph(110)
        for cap in (1, 2, 3, 4, 5, 6):
            assert bidirectional_distance(g, S(0, 1), S(34, 55), cap) == bfs_distance(
                g, S(0, 1), S(34, 55), cap
            )


class TestBall:
    def test_radius_zero(self):
        assert ball(FareyGraph(5), S(0, 1), 0) == {S(0, 1): 0}

    def test_radius_one_matches_neighbors(self):
        got = ball(FareyGraph(3), S(0, 1), 1)
        expected = {S(0, 1): 0}
        expected.update({b: 1 for b in farey_neighbors(S(0, 1), 3)})
        assert got == expected

    def test_twisted_ball_frozen_count(self):
        g = SpottedDiskGraph(3)
        dist = ball(g, SpottedDisk(S(0, 1), 0), 2)
        assert len(dist) == TWISTED_BALL_R2_H3_SIZE
        by_d = {}
        for d in dist.values():
            by_d[d] = by_d.get(d, 0) + 1
        assert by_d == TWISTED_BALL_R2_H3_BY_DISTANCE

    def test_monotone_and_parented(self):
        g = FareyGraph(6)
        previous = set()
        for r in range(4):
            members = ball(g, S(1, 1), r)
            assert previous <= set(members)
            for v, d in members.items():
                if d > 0:
                    assert any(members.get(w) == d - 1 for w in g.neighbors(v))
            previous = set(members)

    def test_budget_exceeded_reports_stats(self):
        with pytest.raises(BudgetExceededError) as info:
            ball(FareyGraph(50), S(0, 1), 3, max_visited=10)
        assert info.value.visited > 10
        assert info.value.edges > 0
        assert info.value.radius_reached >= 1


class TestGeodesic:
    def test_example_with_tie_break(self):
        # 1/3 also lies between 0/1 and 2/5; 1/2 wins in Stern-Brocot order.
        path = geodesic(FareyGraph(5), S(0, 1), S(2, 5), 5)
        assert path == [S(0, 1), S(1, 2), S(2, 5)]

    def test_trivial_paths(self):
        assert geodesic(FareyGraph(5), S(1, 2), S(1, 2), 3) == [S(1, 2)]
        assert geodesic(FareyGraph(5), S(0, 1), S(1, 1), 3) == [S(0, 1), S(1, 1)]

    def test_length_equals_distance_and_edges_real(self):
        g = FareyGraph(9)
        rng = random.Random(23)
        for _ in range(30):
            u, v = random_slope(rng, 9), random_slope(rng, 9)
            d = bfs_distance(g, u, v, 8)
            if isinstance(d, AtLeast):
                continue
            path = geodesic(g, u, v, 8)
            assert len(path) - 1 == d
            assert all(g.adjacent(a, b) for a, b in zip(path, path[1:]))

    def test_beyond_cap_raises(self):
        with pytest.raises(DistanceCapError):
            geodesic(FareyGraph(110), S(0, 1), S(34, 55), 2)

    def test_deterministic(self):
        g1 = FareyGraph(10)
        g2 = FareyGraph(10)
        assert geodesic(g1, S(0, 1), S(5, 8), 8) == geodesic(g2, S(0, 1), S(5, 8), 8)


class TestMetricLaws:
    def test_symmetry_and_triangle_on_samples(self):
        g = FareyGraph(8)
        rng = random.Random(31)
        slopes = [random_slope(rng, 8) for _ in range(12)]
        dist = {}
        for u in slopes:
            for v in slopes:
                d = bfs_distance(g, u, v, 8)
                assert not isinstance(d, AtLeast)
                dist[u, v] = d
        for u in slopes:
            for v in slopes:
                assert dist[u, v] == dist[v, u]
                for w in slopes:
                    assert dist[u, w] <= dist[u, v] + dist[v, w]


class TestSampleAndExport:
    def test_sample_records_carry_real_witnesses(self):
        g = FareyGraph(6)
        pairs = [(S(0, 1), S(2, 5)), (S(0, 1), S(0, 1)), (INFINITY, S(1, 2))]
        sample = sample_distances(g, pairs, 6)
        for rec in sample.records:
            assert rec.path is not None
            assert len(rec.path) - 1 == rec.distance
            assert all(g.adjacent(a, b) for a, b in zip(rec.path, rec.path[1:]))
        assert sample.visited > 0

    def test_sample_marks_capped_pairs(self):
        g = FareyGraph(110)
        sample = sample_distances(g, [(S(0, 1), S(34, 55))], 2)
        (rec,) = sample.records
        assert rec.distance == AtLeast(3)
        assert rec.path is None
        assert sample.edges > 0

    def test_empty_sample_is_valid_empty_document(self):
        g = FareyGraph(4)
        doc = document_from_sample(g, sample_distances(g, [], 4))
        assert doc.vertices == () and doc.edges == () and doc.distances == ()
        assert GraphDocument.from_json(doc.to_json()) == doc
        assert doc.to_dot() == 'graph "farey" {\n}\n'

    def test_radius_one_ball_document(self):
        g = FareyGraph(3)
        doc = document_from_ball(g, S(0, 1), 1)
        degree = len(farey_neighbors(S(0, 1), 3))
        assert len(doc.vertices) == 1 + degree
        assert doc.to_dot().count(" -- ") == len(doc.edges)
        assert "0/1" in doc.vertices

    def test_json_roundtrip_and_determinism(self):
        g = SpottedDiskGraph(2)
        doc1 = document_from_ball(g, SpottedDisk(S(0, 1), 0), 1)
        doc2 = document_from_ball(SpottedDiskGraph(2), SpottedDisk(S(0, 1), 0), 1)
        assert doc1.to_json() == doc2.to_json()
        assert GraphDocument.from_json(doc1.to_json()) == doc1

    def test_ball_document_edges_are_oracle_edges(self):
        g = FareyGraph(3)
        doc = document_from_ball(g, S(0, 1), 2)
        verts = [g.parse_vertex(s) for s in doc.vertices]
        for i, j in doc.edges:
            assert g.adjacent(verts[i], verts[j])


class TestOracleContract:
    def test_neighbor_symmetry_sampled(self):
        g = FareyGraph(9)
        rng = random.Random(41)
        for _ in range(40):
            v = random_slope(rng, 9)
            for w in g.neighbors(v):
                assert v in g.neighbors(w)

    def test_neighbor_lists_deterministic(self):
        g = FareyGraph(9)
        v = S(2, 3)
        assert g.neighbors(v) == tuple(FareyGraph(9).neighbors(v))


# Quotes, backslashes, control and non-ASCII characters, plus anything else.
_labels = st.text(
    alphabet=st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\n\té€\U0001d11e'), st.characters()),
    max_size=6,
)
_distances = st.one_of(
    st.integers(-(10**20), 10**20), st.integers(0, 10**6).map(lambda b: f">={b}")
)
_documents = st.builds(
    GraphDocument,
    graph=_labels,
    vertices=st.lists(_labels, max_size=4).map(tuple),
    edges=st.lists(st.tuples(st.integers(0, 10**9), st.integers(0, 10**9)), max_size=4).map(tuple),
    distances=st.lists(st.tuples(_labels, _labels, _distances), max_size=4).map(tuple),
)


@given(_documents)
@example(GraphDocument("farey", (), (), ()))
@example(GraphDocument('a"b\\c', ("0/1", "x\ny"), ((0, 1),), (("0/1", "0/1", 0), ("0/1", "é", ">=3"))))
def test_to_json_is_the_json_module_encoding(doc):
    payload = {
        "graph": doc.graph,
        "vertices": list(doc.vertices),
        "edges": [list(e) for e in doc.edges],
        "distances": [list(d) for d in doc.distances],
    }
    assert doc.to_json() == json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert GraphDocument.from_json(doc.to_json()) == doc
