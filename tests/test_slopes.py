import functools
import itertools
import math
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from flatcert import (
    INFINITY,
    ArcSystem,
    Slope,
    SpottedArc,
    SpottedDisk,
    SpottedSphere,
    TwistUnit,
    UnitError,
    canonicalize,
    disjoint,
    farey_neighbors,
    format_slope,
    format_spotted_arc,
    half_twist,
    iter_farey_neighbors,
    pairing,
    parse_slope,
    parse_spotted_arc,
    parse_spotted_disk,
    parse_spotted_sphere,
    point_push,
    spot_forget,
    stern_brocot_key,
)
from oracles import all_slopes, neighbors_bf, raw_stern_brocot_key
from util import S, random_half_arc, random_slope

nonzero_pairs = st.tuples(
    st.integers(-400, 400), st.integers(-400, 400)
).filter(lambda t: t != (0, 0))


def _canonical_pairs(height):
    return st.tuples(
        st.integers(-height, height), st.integers(1, height)
    ).filter(lambda t: math.gcd(abs(t[0]), t[1]) == 1)


# Canonical (p, q) of height up to 10**9; the small ones have many neighbors
# under caps up to 300.
huge_slopes = st.one_of(
    st.just((1, 0)), _canonical_pairs(10**9), _canonical_pairs(300)
)


class TestCanonicalize:
    def test_examples(self):
        assert canonicalize(2, 4) == Slope(1, 2)
        assert canonicalize(-1, 0) == Slope(1, 0)
        assert canonicalize(6, -4) == Slope(-3, 2)

    def test_rejects_zero_zero(self):
        with pytest.raises(ValueError):
            canonicalize(0, 0)

    def test_noncanonical_construction_rejected(self):
        with pytest.raises(ValueError):
            Slope(2, 4)
        with pytest.raises(ValueError):
            Slope(1, -2)
        with pytest.raises(ValueError):
            Slope(3, 0)

    @given(nonzero_pairs)
    def test_idempotent_and_canonical(self, t):
        s = canonicalize(*t)
        assert canonicalize(s.p, s.q) == s
        assert s.q >= 0
        if s.q == 0:
            assert s.p == 1

    @given(nonzero_pairs, st.integers(1, 50))
    def test_scaling_invariant(self, t, m):
        assert canonicalize(*t) == canonicalize(t[0] * m, t[1] * m)


class TestPairing:
    def test_examples(self):
        assert pairing(S(0, 1), INFINITY) == 1
        assert pairing(S(1, 2), S(2, 3)) == 1
        assert pairing(S(0, 1), S(2, 5)) == 2

    @given(nonzero_pairs, nonzero_pairs)
    def test_symmetric_and_zero_iff_equal(self, ta, tb):
        a, b = canonicalize(*ta), canonicalize(*tb)
        assert pairing(a, b) == pairing(b, a)
        assert (pairing(a, b) == 0) == (a == b)

    def test_disjoint_threshold(self):
        assert disjoint(S(0, 1), S(1, 3))
        assert not disjoint(S(0, 1), S(2, 5))
        assert disjoint(S(1, 2), S(1, 2))


class TestSternBrocotOrder:
    def test_infinity_first(self):
        assert sorted([S(0, 1), INFINITY, S(1, 1)], key=stern_brocot_key)[0] == INFINITY

    def test_depth_before_value(self):
        # 1/2 sits one mediant step below 1/1; 1/3 is one further down.
        assert S(0, 1) < S(1, 1) < S(1, 2) < S(1, 3)
        assert S(-1, 1) < S(1, 1)  # numeric tie-break within a depth

    @given(nonzero_pairs)
    def test_mirror_symmetric_depth(self, t):
        s = canonicalize(*t)
        m = canonicalize(-s.p, s.q)
        assert stern_brocot_key(s)[0] == stern_brocot_key(m)[0]


def _quotients(p, q):
    """The continued-fraction quotients of |p|/q, by Euclid."""
    a, b, out = abs(p), q, []
    while b:
        out.append(a // b)
        a, b = b, a % b
    return out


def _run_key(pq, *, alternate=True, adjust=True):
    """The integer key rebuilt from its definition, with its sign alternation
    or its +-1 run adjustment optionally left out (the negative controls)."""
    p, q = pq
    if q == 0:
        return (-1,)
    if p == 0:
        return (0,)
    runs = _quotients(p, q)
    if adjust and len(runs) > 1:
        runs[0] += 1
        runs[-1] -= 1
    s = 1 if p > 0 else -1
    signs = [s * (-1) ** i if alternate else s for i in range(len(runs))]
    return (sum(runs), *[r * sign for r, sign in zip(runs, signs)])


def _first_misorder(key, slopes):
    """The first neighbors in raw-key order that key does not put strictly
    in order, or None: None means key orders slopes exactly as the raw key
    does, with no ties."""
    ordered = sorted(slopes, key=raw_stern_brocot_key)
    keys = [key(pq) for pq in ordered]
    for i in range(len(keys) - 1):
        if not keys[i] < keys[i + 1]:
            return ordered[i], ordered[i + 1]
    return None


def _sb_key(pq):
    return stern_brocot_key(S(*pq))


@st.composite
def key_pairs(draw):
    """Two canonical (p, q) of height up to about 10**18.  In about half the
    draws the second has the first's continued-fraction quotients permuted
    and a random sign, so it has the same depth (a zero or one quotient
    moved inside a continued fraction merges two neighbors, keeping the
    sum) and the comparison reaches past the depth."""
    first = draw(st.one_of(st.just((1, 0)), _canonical_pairs(10**18), _canonical_pairs(50)))
    if first[1] == 0 or draw(st.booleans()):
        return first, draw(st.one_of(_canonical_pairs(10**18), _canonical_pairs(50)))
    perm = draw(st.permutations(_quotients(*first)))
    assume(perm[-1] != 0)
    num, den = perm[-1], 1
    for a in reversed(perm[:-1]):
        num, den = a * num + den, num
    sign = draw(st.sampled_from((1, -1)))
    second = canonicalize(sign * num, den)
    return first, (second.p, second.q)


class TestIntegerKey:
    """``stern_brocot_key`` is all integers and orders slopes as the raw
    (depth, Fraction) key does.  Exports and balls also sort by it, and the
    breadth-first checkers sort by the same key, so only these tests can
    catch a wrong order."""

    def test_encoding(self):
        assert _sb_key((1, 0)) == (-1,)
        assert _sb_key((0, 1)) == (0,)
        assert _sb_key((5, 1)) == (5, 5) and _sb_key((-5, 1)) == (5, -5)
        # 3/2 = [1; 2]: right twice, then left once.
        assert _sb_key((3, 2)) == (3, 2, -1)
        # -2/7 = [0; 3, 2]: left once (away from 0), right 3 times, left once.
        assert _sb_key((-2, 7)) == (5, -1, 3, -1)

    def test_every_slope_of_height_60_in_raw_order(self):
        slopes = all_slopes(60)
        assert (1, 0) in slopes
        assert _first_misorder(_sb_key, slopes) is None
        for pq in slopes:
            key = _sb_key(pq)
            assert key == _run_key(pq)
            assert all(type(x) is int for x in key)
            assert key[0] == raw_stern_brocot_key(pq)[0]

    @pytest.mark.parametrize("broken", [
        functools.partial(_run_key, alternate=False),
        functools.partial(_run_key, adjust=False),
    ], ids=["no-sign-alternation", "no-run-adjustment"])
    def test_the_order_check_rejects_a_broken_key(self, broken):
        assert _first_misorder(broken, all_slopes(60)) is not None

    @settings(max_examples=500, deadline=None)
    @given(key_pairs())
    def test_agrees_with_the_raw_key_up_to_height_10_18(self, pair):
        a, b = pair
        ka, kb = _sb_key(a), _sb_key(b)
        ra, rb = raw_stern_brocot_key(a), raw_stern_brocot_key(b)
        assert (ka < kb) == (ra < rb)
        assert (ka == kb) == (a == b)
        assert ka[0] == ra[0] and kb[0] == rb[0]


class TestFareyNeighbors:
    def test_examples(self):
        assert set(farey_neighbors(S(0, 1), 2)) == {
            INFINITY, S(1, 1), S(-1, 1), S(1, 2), S(-1, 2)
        }
        assert set(farey_neighbors(INFINITY, 1)) == {S(0, 1), S(1, 1), S(-1, 1)}
        assert set(farey_neighbors(S(1, 1), 1)) == {S(0, 1), INFINITY}

    def test_matches_brute_force_exhaustively(self):
        for cap in (1, 2, 3, 5, 8):
            for p, q in neighbors_bf((0, 1), 8) + [(0, 1), (1, 0), (3, 5), (-5, 3)]:
                a = S(p, q)
                got = [(s.p, s.q) for s in farey_neighbors(a, cap)]
                assert sorted(got) == neighbors_bf((a.p, a.q), cap)

    def test_sorted_and_capped(self):
        out = farey_neighbors(S(1, 2), 7)
        assert out == sorted(out, key=stern_brocot_key)
        assert all(b.height() <= 7 for b in out)
        assert all(pairing(S(1, 2), b) == 1 for b in out)

    def test_rejects_bad_cap(self):
        with pytest.raises(ValueError):
            farey_neighbors(S(0, 1), 0)

    def test_every_small_slope_and_cap_against_brute_force(self):
        for p, q in all_slopes(13):
            a = S(p, q)
            for cap in range(1, 14):
                out = farey_neighbors(a, cap)
                got = [(s.p, s.q) for s in out]
                assert len(set(got)) == len(got), (a, cap)
                assert sorted(got) == neighbors_bf((p, q), cap), (a, cap)
                assert out == sorted(out, key=stern_brocot_key), (a, cap)

    @given(huge_slopes, st.integers(1, 300))
    def test_huge_slopes_against_denominator_scan(self, pq, cap):
        p, q = pq
        # Raw-integer scan: for each denominator y, the numerators x with
        # p*y - q*x = +-1 and |x| <= cap, kept in canonical form.
        expected = set()
        for y in range(cap + 1):
            if q == 0:
                if y == 1:
                    expected.update((x, 1) for x in range(-cap, cap + 1))
                continue
            for eps in (1, -1):
                num = p * y - eps
                if num % q == 0 and abs(num // q) <= cap:
                    x = num // q
                    if y > 0 or x == 1:
                        expected.add((x, y))
        out = farey_neighbors(canonicalize(p, q), cap)
        got = [(s.p, s.q) for s in out]
        assert len(set(got)) == len(got)
        assert set(got) == expected
        assert got == sorted(got, key=raw_stern_brocot_key)


# Slopes for the stream's large-cap test: infinity, integers up to 10**18,
# and non-integers p/q with q small enough to scan every denominator the
# first items can have.
stream_slopes = st.one_of(
    st.just((1, 0)),
    st.tuples(st.integers(-(10**18), 10**18), st.just(1)),
    st.tuples(st.integers(-60, 60), st.just(1)),
    st.tuples(st.integers(-(10**18), 10**18), st.integers(2, 40)).filter(
        lambda t: math.gcd(abs(t[0]), t[1]) == 1
    ),
)


def _first_neighbors_by_scan(pq, cap, k):
    """The k first neighbors of p/q under the cap, in raw-key order, from a
    scan of denominators.

    A neighbor x/y of p/q with y > q >= 1 is the mediant of p/q and a
    neighbor c of denominator y - q (the two Farey neighbors of x/y with
    smaller denominators are its parents in the mediant tree), and it sits
    deeper than both.  So its depth is at least depth(p/q) + ceil(y/q) - 1,
    and a scan of y <= Y misses only slopes deeper than that at y = Y + 1.
    The parents of a slope lie on its side of 0, so c's numerator is no
    larger in size than x: a neighbor beyond the scan under the cap means
    one inside it at every step back, and fewer than k found means none.
    """
    p, q = pq
    if q == 0:
        # Integers n at depth |n|: |n| <= k holds at least the k first.
        reach = min(cap, k)
        found = [(x, 1) for x in range(-reach, reach + 1)]
        return sorted(found, key=raw_stern_brocot_key)[:k]
    found = [(1, 0)] if q == 1 else []
    last_y = min(cap, q * (k + 2))
    for y in range(1, last_y + 1):
        for eps in (1, -1):
            num = p * y - eps
            if num % q == 0 and abs(num // q) <= cap:
                found.append((num // q, y))
    found = sorted(found, key=raw_stern_brocot_key)[:k]
    if last_y < cap and len(found) == k:
        depth_a = raw_stern_brocot_key(pq)[0]
        unseen_depth = depth_a + -(-(last_y + 1) // q) - 1
        assert raw_stern_brocot_key(found[-1])[0] < unseen_depth
    return found


class TestFareyNeighborStream:
    def test_every_small_slope_and_cap_against_sorted_brute_force(self):
        # neighbors_bf at cap 60, filtered by height, is neighbors_bf at
        # each smaller cap.
        for p, q in all_slopes(40):
            a = S(p, q)
            brute = sorted(neighbors_bf((p, q), 60), key=raw_stern_brocot_key)
            for cap in range(1, 61):
                want = [b for b in brute if max(abs(b[0]), b[1]) <= cap]
                got = [(s.p, s.q) for s in iter_farey_neighbors(a, cap)]
                assert got == want, (a, cap)

    @settings(max_examples=300, deadline=None)
    @given(
        stream_slopes,
        st.one_of(st.integers(1, 80), st.integers(1, 10**18)),
        st.integers(1, 40),
    )
    def test_first_items_at_large_caps_against_denominator_scan(self, pq, cap, k):
        a = canonicalize(*pq)
        got = [(s.p, s.q) for s in itertools.islice(iter_farey_neighbors(a, cap), k)]
        assert got == _first_neighbors_by_scan((a.p, a.q), cap, k)

    def test_first_item_comes_without_listing_the_rest(self):
        assert next(iter_farey_neighbors(S(0, 1), 10**18)) == INFINITY
        first = itertools.islice(iter_farey_neighbors(INFINITY, 10**18), 3)
        assert list(first) == [S(0, 1), S(-1, 1), S(1, 1)]
        first = itertools.islice(iter_farey_neighbors(S(3, 1), 10**18), 4)
        assert list(first) == [INFINITY, S(2, 1), S(5, 2), S(4, 1)]


class TestTwistActions:
    def test_half_twist_examples(self):
        x = SpottedArc(S(1, 2), 0, TwistUnit.HALF)
        assert half_twist(x) == SpottedArc(S(1, 2), 1, TwistUnit.HALF)
        assert half_twist(SpottedArc(INFINITY, -3, TwistUnit.HALF)).twist == -2
        assert half_twist(x) != x

    def test_half_twist_rejects_full_unit(self):
        with pytest.raises(UnitError):
            half_twist(SpottedArc(S(1, 2), 0, TwistUnit.FULL))

    def test_two_half_twists_are_one_push(self):
        rng = random.Random(7)
        for _ in range(100):
            x = random_half_arc(rng)
            assert half_twist(half_twist(x)) == point_push(x, 1)

    def test_point_push_examples(self):
        full = SpottedArc(S(0, 1), 0, TwistUnit.FULL)
        assert point_push(full, 3).twist == 3
        half = SpottedArc(S(0, 1), 1, TwistUnit.HALF)
        assert point_push(half, 1).twist == 3
        assert point_push(full, 0) == full

    @given(st.integers(-20, 20), st.integers(-20, 20), st.integers(-30, 30))
    def test_push_additive(self, m, n, twist):
        for unit in TwistUnit:
            x = SpottedArc(S(1, 2), twist, unit)
            assert point_push(point_push(x, m), n) == point_push(x, m + n)

    def test_spot_forget(self):
        assert spot_forget(SpottedArc(S(1, 2), 7, TwistUnit.FULL)) == S(1, 2)
        assert spot_forget(SpottedArc(INFINITY, -2, TwistUnit.HALF)) == INFINITY
        rng = random.Random(11)
        for _ in range(100):
            x = random_half_arc(rng)
            assert spot_forget(half_twist(x)) == spot_forget(x)
            assert spot_forget(point_push(x, rng.randint(-9, 9))) == spot_forget(x)


class TestArcSystem:
    def test_valid_system(self):
        sys_ = ArcSystem.of([S(0, 1), S(1, 1), INFINITY])
        assert len(sys_) == 3

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ArcSystem.of([])

    def test_rejects_crossing_arcs(self):
        with pytest.raises(ValueError):
            ArcSystem.of([S(0, 1), S(2, 5)])

    def test_farey_triangle_members_pairwise_disjoint(self):
        rng = random.Random(3)
        for _ in range(50):
            a = random_slope(rng, height=25)
            b = rng.choice(farey_neighbors(a, 26))
            c = canonicalize(a.p + b.p, a.q + b.q)
            ArcSystem.of([a, b, c])  # must not raise


class TestTextFormats:
    def test_slope_forms(self):
        assert format_slope(INFINITY) == "inf"
        assert parse_slope("inf") == INFINITY
        assert parse_slope("1/0") == INFINITY
        assert parse_slope("-3/2") == S(-3, 2)
        assert parse_slope("4") == S(4, 1)

    @given(nonzero_pairs)
    def test_slope_roundtrip(self, t):
        s = canonicalize(*t)
        assert parse_slope(format_slope(s)) == s

    @given(nonzero_pairs, st.integers(-40, 40), st.sampled_from(list(TwistUnit)))
    def test_spotted_arc_roundtrip(self, t, twist, unit):
        x = SpottedArc(canonicalize(*t), twist, unit)
        assert parse_spotted_arc(format_spotted_arc(x)) == x

    @pytest.mark.parametrize("junk", ["", "0/0", "a/b", "1/2@x:full", "1/2@3:sideways", "1/2"])
    def test_rejects_junk_arcs(self, junk):
        with pytest.raises(ValueError):
            parse_spotted_arc(junk)


class TestIntegerSpellings:
    """Integer tokens are ASCII decimal: no underscores, no other digits."""

    @pytest.mark.parametrize(
        "text",
        [
            "1_0/3", "1/1_0", "1_0", "１/2", "1/２", "١/2", "+-1/2", "1 0/3",
            "0x1/2", "1/2.0", "", "/",
        ],
    )
    def test_parse_slope_rejects(self, text):
        with pytest.raises(ValueError):
            parse_slope(text)

    @pytest.mark.parametrize(
        "parse, text",
        [
            (parse_spotted_arc, "1_0/3@1:half"),
            (parse_spotted_arc, "１/2@1:full"),
            (parse_spotted_arc, "1/2@1_0:half"),
            (parse_spotted_arc, "1/2@３:full"),
            (parse_spotted_disk, "１/2@3"),
            (parse_spotted_disk, "1/2@1_0"),
            (parse_spotted_disk, "1/2@٣"),
            (parse_spotted_disk, "1/2@"),
            (parse_spotted_sphere, "1_0/3@1:sph"),
            (parse_spotted_sphere, "1/2@1_0:sph"),
            (parse_spotted_sphere, "1/2@３:sph"),
        ],
    )
    def test_spotted_parsers_reject(self, parse, text):
        with pytest.raises(ValueError):
            parse(text)

    def test_signs_and_surrounding_whitespace_still_read(self):
        assert parse_slope(" +3/ 5 ") == S(3, 5)
        assert parse_slope("-4\t") == S(-4, 1)
        assert parse_spotted_disk("-2/5@ -7") == SpottedDisk(S(-2, 5), -7)
        assert parse_spotted_sphere("1/2@+3:sph") == SpottedSphere(S(1, 2), 3)
        assert parse_spotted_arc("inf@-1:half") == SpottedArc(INFINITY, -1, TwistUnit.HALF)
