"""The ladder-height lemma (docs/ladder.md), checked with raw determinants.

Every Farey edge that separates a from b has both ends of height at most
max(height(a), height(b)), so capping the Farey graph at the larger
endpoint height keeps every geodesic.  Slopes here are integer pairs
(p, q); adjacency and separation are sign tests on 2x2 determinants, and
the ladder is built by the mediant descent written out below, with nothing
taken from flatcert.
"""

import itertools
import math

from hypothesis import given, settings
from hypothesis import strategies as st

BIG = 10**9


def det(u, v):
    return u[0] * v[1] - u[1] * v[0]


def height(v):
    return max(abs(v[0]), abs(v[1]))


def adjacent(u, v):
    return abs(det(u, v)) == 1


def separates(r, s, a, b):
    """Whether the chord rs separates a from b on the projective line.

    The pairs interleave exactly when the cross-ratio
    det(r, a) det(s, b) / (det(r, b) det(s, a)) is negative; the sign of the
    product of the four determinants is the same, and it ignores the sign of
    each vector.  A shared point gives 0: no separation.
    """
    return det(r, a) * det(s, b) * det(r, b) * det(s, a) < 0


def egcd(a, b):
    """(s, t) with a*s + b*t = gcd(a, b)."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        k = a // b
        a, b, s0, s1, t0, t1 = b, a - k * b, s1, s0 - k * s1, t1, t0 - k * t1
    return s0, t0


def ladder(a, b, every_rung=True):
    """The Farey edges that separate a from b, as pairs of vectors.

    M = [[s, t], [-q, p]], with p*s + q*t = 1 for a = (p, q), maps a to
    inf = (1, 0) and b to x = X/Y with Y > 0.  The edges separating inf from
    x are the intervals (L, R) of the Stern-Brocot descent to x: first the
    integers around x, then each mediant L + R replaces the end on its far
    side from x.  Writing x = alpha*L + beta*R, a run of k = alpha // beta
    mediants replaces R by R + L, ..., R + k*L, as in Euclid's algorithm;
    the last run ends on x.  Each edge is mapped back by
    M^-1 = [[p, -t], [q, s]].

    With every_rung False, a run yields only its first and last edges.  That
    is enough for heights: along a run the mapped vertex R + i*L is affine
    in i, so its height, a maximum of two absolute values, is convex in i.
    """
    (p, q), (s, t) = a, egcd(*a)
    X, Y = s * b[0] + t * b[1], p * b[1] - q * b[0]
    if Y < 0:
        X, Y = -X, -Y
    if Y <= 1:
        return  # a == b, or adjacent: nothing separates them

    def back(v):
        x, y = p * v[0] - t * v[1], q * v[0] + s * v[1]
        return (x, y) if (y, x) > (0, 0) else (-x, -y)

    n = X // Y
    L, R = (n, 1), (n + 1, 1)
    beta = X - n * Y
    alpha = Y - beta
    def rungs(k, last):
        # The run's edges; the final run ends on x, which separates nothing.
        k -= last
        return range(1, k + 1) if every_rung or k < 3 else (1, k)

    yield back(L), back(R)
    while alpha and beta:
        if alpha > beta:
            k, alpha = divmod(alpha, beta)
            for i in rungs(k, alpha == 0):
                yield back(L), back((R[0] + i * L[0], R[1] + i * L[1]))
            R = (R[0] + k * L[0], R[1] + k * L[1])
        else:
            k, beta = divmod(beta, alpha)
            for i in rungs(k, beta == 0):
                yield back((L[0] + i * R[0], L[1] + i * R[1])), back(R)
            L = (L[0] + k * R[0], L[1] + k * R[1])


def counterexamples(pairs, bound, every_rung=True):
    """Ladder edges with an end above bound(height(a), height(b)).

    Also asserts that each edge the descent yields is a Farey edge that
    separates a from b.
    """
    bad = []
    for a, b in pairs:
        limit = bound(height(a), height(b))
        for r, s in ladder(a, b, every_rung):
            assert adjacent(r, s) and separates(r, s, a, b), (a, b, r, s)
            if max(height(r), height(s)) > limit:
                bad.append((a, b, r, s))
    return bad


def slopes(h):
    """Reduced (p, q) with q >= 0 and height <= h; infinity is (1, 0)."""
    return [(1, 0)] + [
        (p, q) for q in range(1, h + 1) for p in range(-h, h + 1) if math.gcd(p, q) == 1
    ]


SMALL = slopes(12)
SMALL_PAIRS = list(itertools.combinations(SMALL, 2))


def test_every_ladder_of_heights_at_most_12_stays_under_the_larger_height():
    assert len(SMALL) > 150
    assert counterexamples(SMALL_PAIRS, max) == []


def test_the_smaller_height_is_not_a_bound():
    # Negative control: the same checker must refute a false bound.
    bad = counterexamples(SMALL_PAIRS, min)
    assert bad
    a, b, r, s = bad[0]
    assert min(height(a), height(b)) < max(height(r), height(s)) <= max(height(a), height(b))


def test_the_descent_finds_every_separating_edge_up_to_height_24():
    # Brute force over all Farey edges of height <= 24: the ones that
    # separate two slopes of height <= 5 are exactly their ladder's edges
    # of that height, so the descent misses none.
    verts, ends = slopes(24), slopes(5)
    found = {pair: set() for pair in itertools.combinations(ends, 2)}
    for r, s in itertools.combinations(verts, 2):
        if adjacent(r, s):
            # a and b are separated when det(r, .) det(s, .) differs in sign.
            side = [det(r, a) * det(s, a) for a in ends]
            for i, j in itertools.combinations(range(len(ends)), 2):
                if side[i] * side[j] < 0:
                    found[ends[i], ends[j]].add(frozenset((r, s)))
    assert sum(map(len, found.values())) > 1000
    for (a, b), brute in found.items():
        assert brute == {frozenset(e) for e in ladder(a, b) if max(map(height, e)) <= 24}, (a, b)


def reduced(h):
    """Reduced (p, q), q >= 0, of height <= h, as Hypothesis draws them."""
    return st.tuples(st.integers(-h, h), st.integers(0, h)).filter(lambda v: v != (0, 0)).map(
        lambda v: (1, 0) if v[1] == 0 else (v[0] // math.gcd(*v), v[1] // math.gcd(*v))
    )


@settings(max_examples=500, deadline=None)
@given(reduced(BIG), reduced(BIG))
def test_ladders_up_to_height_1e9_stay_under_the_larger_height(a, b):
    assert counterexamples([(a, b)], max, every_rung=False) == []


@settings(max_examples=200, deadline=None)
@given(reduced(100), reduced(100))
def test_the_ends_of_each_run_hold_its_highest_vertex(a, b):
    # The convexity shortcut above, on every rung of runs up to height 100.
    top = [max(height(r), height(s)) for r, s in ladder(a, b)]
    ends = [max(height(r), height(s)) for r, s in ladder(a, b, every_rung=False)]
    assert max(top, default=0) == max(ends, default=0)
