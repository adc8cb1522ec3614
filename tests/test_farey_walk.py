"""The Farey graph's distance and ladder walk against breadth-first search.

``FareyGraph.distance`` is ``farey_distance`` clipped at the cap, and
``FareyGraph.geodesic`` walks ladder steps.  The engine's BFS functions are
the slow path: the graph must give their value, their path and the text of
their cap error.
"""

import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from flatcert import (
    AtLeast,
    DistanceCapError,
    FareyGraph,
    InvalidVertexError,
    SpottedDisk,
    SpottedDiskGraph,
    bfs_distance,
    bidirectional_distance,
    canonicalize,
    farey_distance,
    geodesic,
    stern_brocot_key,
)
from flatcert.engine import EngineError, ball
from util import S


def slopes_up_to(height):
    return sorted(
        {canonicalize(p, q) for p in range(-height, height + 1) for q in range(height + 1)
         if (p, q) != (0, 0)},
        key=stern_brocot_key,
    )


def path_or_error(query, u, v, cap):
    try:
        return query(u, v, cap)
    except DistanceCapError as exc:
        return str(exc)


def walk_answers(g, u, v, cap):
    return g.distance(u, v, cap), path_or_error(g.geodesic, u, v, cap)


def bfs_answers(g, u, v, cap):
    return bfs_distance(g, u, v, cap), path_or_error(lambda *a: geodesic(g, *a), u, v, cap)


def least_geodesic(g, levels, u):
    """The least geodesic from u to the center of a BFS level map: each step
    takes the first neighbor in oracle order one level lower, the rule of
    engine._geodesic_search."""
    path = [u]
    while levels[path[-1]]:
        path.append(next(w for w in g.neighbors(path[-1]) if levels.get(w) == levels[path[-1]] - 1))
    return path


def test_every_pair_of_height_at_most_10_matches_bfs_at_caps_1_to_6():
    # One BFS per target v, out to radius 6: below the distance a cap
    # answers ">=cap+1" with the matching error, and at or above it the
    # value and the least geodesic do not depend on the cap.
    walk, bfs = FareyGraph(10), FareyGraph(10)
    slopes = slopes_up_to(10)
    answered = set()
    for v in slopes:
        levels = ball(bfs, v, 6)
        for u in slopes:
            d = levels.get(u)
            path = None if d is None else least_geodesic(bfs, levels, u)
            for cap in range(1, 7):
                if d is not None and d <= cap:
                    want = (d, path)
                else:
                    want = (AtLeast(cap + 1), f"distance({u}, {v}) >={cap + 1}")
                assert walk_answers(walk, u, v, cap) == want, (u, v, cap)
                answered.add(type(want[0]))
    assert answered == {int, AtLeast}
    # The rebuild rule is engine.geodesic's: the walk matches both.
    for u, v in itertools.product(slopes[::7], slopes[::5]):
        assert path_or_error(lambda *a: geodesic(bfs, *a), u, v, 6) == walk.geodesic(u, v, 6)


def test_cap_errors_are_the_engines_at_every_cap():
    walk, bfs = FareyGraph(5), FareyGraph(5)
    for u, v in itertools.product(slopes_up_to(5), repeat=2):
        for cap in (1, 2, 3):
            assert walk_answers(walk, u, v, cap) == bfs_answers(bfs, u, v, cap), (u, v, cap)
    # Arguments are checked in BFS's order: the cap, then u, then v.
    for query in (walk.distance, walk.geodesic):
        with pytest.raises(ValueError):
            query(S(0, 1), S(13, 21), 0)
        with pytest.raises(InvalidVertexError, match="^13/21 not in farey$"):
            query(S(13, 21), S(34, 55), 3)
        with pytest.raises(InvalidVertexError, match="^34/55 not in farey$"):
            query(S(0, 1), S(34, 55), 3)


@st.composite
def capped_queries(draw):
    height = draw(st.integers(1, 300))
    ends = []
    for _ in range(2):
        p, q = draw(st.integers(-height, height)), draw(st.integers(0, height))
        assume((p, q) != (0, 0))
        ends.append(canonicalize(p, q))
    return height, *ends, draw(st.integers(1, 10))


@settings(max_examples=300, deadline=None)
@given(capped_queries())
def test_walk_equals_bidirectional_bfs_up_to_height_300(query):
    height, u, v, cap = query
    g = FareyGraph(height)
    d = g.distance(u, v, cap)
    assert d == bidirectional_distance(FareyGraph(height), u, v, cap)
    if isinstance(d, AtLeast):
        with pytest.raises(DistanceCapError):
            g.geodesic(u, v, cap)
        return
    path = g.geodesic(u, v, cap)
    assert len(path) == d + 1 and path[0] == u and path[-1] == v
    assert all(g.adjacent(a, b) for a, b in zip(path, path[1:]))


class _NoStep(FareyGraph):
    """A walk that can step only onto the target: it trusts the bound
    min(farey_distance, 1), which is sound but never finds a middle step."""

    def _ladder_distance(self, a, b):
        return min(farey_distance(a, b), 1)


def test_a_walk_with_no_step_raises_instead_of_searching():
    walk, bfs = _NoStep(5), FareyGraph(5)
    for u, v in itertools.product(slopes_up_to(5), repeat=2):
        for cap in (1, 2, 3, 6):
            if farey_distance(u, v) <= 1:
                assert walk_answers(walk, u, v, cap) == bfs_answers(bfs, u, v, cap), (u, v, cap)
                continue
            stuck = f"^ladder walk from {u} to {v} stuck at {u}: .* ladder-height lemma$"
            with pytest.raises(EngineError, match=stuck):
                walk.geodesic(u, v, cap)
    # Nothing searches, so no budget is spent, however small.
    assert FareyGraph(110).distance(S(0, 1), S(34, 55), 12, max_visited=10) == 5
    assert FareyGraph(110).geodesic(S(0, 1), S(34, 55), 12, max_visited=10) == [
        S(0, 1), S(1, 1), S(2, 3), S(5, 8), S(13, 21), S(34, 55)
    ]


def test_a_far_integer_costs_no_walk_through_the_integers():
    # Through inf the ladder walk would read the integers 0, -1, 1, ... up
    # to 10**6; the distance reads farey_distance only.
    a, b = S(1, 2), S(10**6, 1)
    assert FareyGraph(10**6).distance(a, b, 16) == farey_distance(a, b) == 3
    omega = SpottedDiskGraph(10**6)
    for twists, want in ((0, 3), (2, 3), (3, 3), (5, 5), (-17, AtLeast(17))):
        assert omega.distance(SpottedDisk(a, 0), SpottedDisk(b, twists), 16) == want
