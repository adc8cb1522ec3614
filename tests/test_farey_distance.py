"""The continued-fraction Farey distance against independent slow paths.

The exhaustive reference is a BFS over raw cross determinants written here;
the property tests use Farey graph automorphisms, the adjacency rule and
the engine's capped BFS.
"""

import math
from collections import deque

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from flatcert import FareyGraph, bfs_distance, farey_distance, pairing
from util import S

BIG = 10**9


def raw_slopes(height):
    """Canonical (p, q) with max(|p|, q) <= height, infinity as (1, 0)."""
    out = [(1, 0)]
    for q in range(1, height + 1):
        out += [(p, q) for p in range(-height, height + 1) if math.gcd(p, q) == 1]
    return out


def raw_distances(height):
    """All-pairs BFS distances in the height-capped graph of determinant 1."""
    verts = raw_slopes(height)
    adj = {
        v: [w for w in verts if abs(v[0] * w[1] - v[1] * w[0]) == 1] for v in verts
    }
    table = {}
    for src in verts:
        dist = {src: 0}
        queue = deque([src])
        while queue:
            v = queue.popleft()
            for w in adj[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        table[src] = dist
    return table


def test_every_pair_of_height_at_most_12_matches_raw_bfs():
    table = raw_distances(12)
    assert len(table) > 150
    for (p, q), dist in table.items():
        a = S(p, q)
        assert len(dist) == len(table)  # the capped graph is connected
        for (r, s), d in dist.items():
            assert farey_distance(a, S(r, s)) == d, (p, q, r, s)


slopes = (
    st.tuples(st.integers(-BIG, BIG), st.integers(0, BIG))
    .filter(lambda t: t != (0, 0))
    .map(lambda t: S(*t))
)
small_slopes = (
    st.tuples(st.integers(-40, 40), st.integers(0, 40))
    .filter(lambda t: t != (0, 0))
    .map(lambda t: S(*t))
)


def negate(s):
    return S(-s.p, s.q)


def invert(s):
    return S(s.q, s.p)


def shift(s, n):
    return S(s.p + n * s.q, s.q)


@settings(max_examples=300, deadline=None)
@given(slopes, slopes)
def test_symmetric(a, b):
    assert farey_distance(a, b) == farey_distance(b, a)


@settings(max_examples=300, deadline=None)
@given(slopes, slopes, st.integers(-BIG, BIG))
def test_invariant_under_farey_automorphisms(a, b, n):
    d = farey_distance(a, b)
    assert farey_distance(negate(a), negate(b)) == d
    assert farey_distance(invert(a), invert(b)) == d
    assert farey_distance(shift(a, n), shift(b, n)) == d


@settings(max_examples=300, deadline=None)
@given(slopes, slopes)
def test_distance_one_iff_pairing_one(a, b):
    assert (farey_distance(a, b) == 1) == (pairing(a, b) == 1)
    assert (farey_distance(a, b) == 0) == (a == b)


@settings(max_examples=300, deadline=None)
@given(slopes, slopes, st.integers(-BIG, BIG))
def test_one_lipschitz_along_an_edge(a, b, m):
    # Every neighbor of b = p/q is (x0 + m*p)/(y0 + m*q), where
    # p*y0 - q*x0 = 1; the neighbors of inf are the integers.
    if b.q == 0:
        c = S(m, 1)
    else:
        y0 = pow(b.p, -1, b.q)
        x0 = (b.p * y0 - 1) // b.q
        c = S(x0 + m * b.p, y0 + m * b.q)
    assert pairing(b, c) == 1
    assert abs(farey_distance(a, b) - farey_distance(a, c)) <= 1


@settings(max_examples=200, deadline=None)
@given(small_slopes, small_slopes)
def test_capped_bfs_at_the_larger_height_is_exact(a, b):
    # Capping the Farey graph at the larger endpoint height never lengthens
    # the distance: the ladder-height lemma, proved in docs/ladder.md.
    assume(a != b)
    farey = FareyGraph(max(a.height(), b.height()))
    assert bfs_distance(farey, a, b, 40) == farey_distance(a, b)


def test_fibonacci_ratios_zigzag():
    # 0/1 -> F(i+1)/F(i) runs along an all-ones continued fraction: every
    # run is one mediant, each new ladder vertex is adjacent to the two
    # before it, and the distances go 2, 2, 3, 3, 4, 4, ...
    fib = [1, 1]
    while len(fib) < 200:
        fib.append(fib[-1] + fib[-2])
    got = [farey_distance(S(0, 1), S(fib[i + 1], fib[i])) for i in range(1, 199)]
    assert got == [(i + 3) // 2 for i in range(1, 199)]
    assert farey_distance(S(fib[-1], fib[-2]), S(fib[-2], fib[-3])) == 1
    assert farey_distance(S(0, 1), S(10**30 + 1, 10**30)) == 2
