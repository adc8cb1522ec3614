"""The Farey graph's ladder walk against breadth-first search.

``FareyGraph.distance`` and ``FareyGraph.geodesic`` answer from
``farey_distance`` and a walk of ladder steps.  The engine's BFS functions
are the slow path: the walk must give their value, their path and the text
of their cap error.
"""

import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from flatcert import (
    AtLeast,
    BudgetExceededError,
    DistanceCapError,
    FareyGraph,
    InvalidVertexError,
    bfs_distance,
    bidirectional_distance,
    canonicalize,
    farey_distance,
    geodesic,
    stern_brocot_key,
)
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


def test_every_pair_of_height_at_most_10_matches_bfs_at_caps_1_to_6():
    # BFS runs once per pair at cap 6: below the distance a cap answers
    # ">=cap+1" with the matching error, and at or above it the value and
    # the least geodesic do not depend on the cap.
    walk, bfs = FareyGraph(10), FareyGraph(10)
    answered = set()
    for u, v in itertools.product(slopes_up_to(10), repeat=2):
        d, path = bfs_answers(bfs, u, v, 6)
        for cap in range(1, 7):
            if isinstance(d, int) and d <= cap:
                want = (d, path)
            else:
                want = (AtLeast(cap + 1), f"distance({u}, {v}) >={cap + 1}")
            assert walk_answers(walk, u, v, cap) == want, (u, v, cap)
            answered.add(type(want[0]))
    assert answered == {int, AtLeast}


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


def test_a_walk_with_no_step_falls_back_to_bfs_under_the_budget():
    walk, bfs = _NoStep(5), FareyGraph(5)
    for u, v in itertools.product(slopes_up_to(5), repeat=2):
        for cap in (1, 2, 3, 6):
            assert walk_answers(walk, u, v, cap) == bfs_answers(bfs, u, v, cap), (u, v, cap)
    # The walk itself searches nothing; only the BFS fallback spends budget.
    assert FareyGraph(110).distance(S(0, 1), S(34, 55), 12, max_visited=10) == 5
    stuck = _NoStep(110)
    with pytest.raises(BudgetExceededError):
        stuck.distance(S(0, 1), S(34, 55), 12, max_visited=10)
    with pytest.raises(BudgetExceededError):
        stuck.geodesic(S(0, 1), S(34, 55), 12, max_visited=10)
