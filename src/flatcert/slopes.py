"""Exact slope arithmetic for essential arcs on a one-holed torus.

Arcs are coordinatized by reduced fractions p/q (plus the slope at infinity,
stored as 1/0): two arcs can be made disjoint exactly when the cross
determinant |p*s - q*r| of their slopes is at most 1.  Twisted copies of an
arc in the spotted surface are tracked by an integer twist count whose unit
(full or half turns around the spot) is carried in the type.

The neighbors of a slope under a height cap come as a stream in
Stern-Brocot order (:func:`iter_farey_neighbors`), worked out per family
with no sort, so a search that stops at its first hit costs no more at a
cap of 10**12 than at 10.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache, total_ordering
from typing import Iterable, Iterator


class UnitError(ValueError):
    """An operation received a twist count in the wrong unit."""


@total_ordering
@dataclass(frozen=True)
class Slope:
    """A reduced fraction p/q with q >= 0; the slope at infinity is 1/0.

    Instances must be canonical (use :func:`canonicalize`); equal slopes
    compare equal bitwise.  Ordering is the Stern-Brocot order described in
    :func:`stern_brocot_key`, not numeric order.
    """

    p: int
    q: int

    def __post_init__(self) -> None:
        if self.q < 0:
            raise ValueError(f"slope {self.p}/{self.q} not canonical: q < 0")
        if self.q == 0:
            if self.p != 1:
                raise ValueError(f"slope {self.p}/0 not canonical: infinity is 1/0")
        elif math.gcd(abs(self.p), self.q) != 1:
            raise ValueError(f"slope {self.p}/{self.q} not canonical: not reduced")

    @property
    def is_infinity(self) -> bool:
        return self.q == 0

    def height(self) -> int:
        """max(|p|, q), the enumeration size of the slope."""
        return max(abs(self.p), self.q)

    def __lt__(self, other: "Slope") -> bool:
        return stern_brocot_key(self) < stern_brocot_key(other)

    def __str__(self) -> str:
        return format_slope(self)


INFINITY = Slope(1, 0)


def canonicalize(p: int, q: int) -> Slope:
    """Reduce (p, q) to the unique canonical slope; rejects (0, 0)."""
    if p == 0 and q == 0:
        raise ValueError("slope (0, 0) is undefined")
    if q == 0:
        return INFINITY
    if q < 0:
        p, q = -p, -q
    g = math.gcd(abs(p), q)
    return Slope(p // g, q // g)


def pairing(a: Slope, b: Slope) -> int:
    """|a.p*b.q - a.q*b.p|: symmetric, zero exactly on equal slopes."""
    return abs(a.p * b.q - a.q * b.p)


def disjoint(a: Slope, b: Slope) -> bool:
    """Whether the arcs can be realized disjointly (pairing at most 1).

    Equal slopes count as disjoint; graph adjacency additionally requires
    distinctness.
    """
    return pairing(a, b) <= 1


@lru_cache(maxsize=None)
def stern_brocot_key(s: Slope) -> tuple[int, ...]:
    """Sort key realizing the mediant-tree order on slopes: a tuple of ints.

    Infinity sorts first, as ``(-1,)``.  A rational sorts by its depth in
    the mediant tree of all rationals rooted at 0/1, then numerically within
    a depth; this is the breadth-first order of the tree and is used
    everywhere a deterministic choice among slopes is needed.

    The key is ``(0,)`` for 0/1 and ``(depth, s*r0, -s*r1, s*r2, ...)``
    otherwise, where s is the sign of p and r0, r1, ... are the run
    lengths of the tree path from 0/1: the first run steps away from 0 (to
    the right for s = 1), and runs then alternate direction.  For
    |p|/q = [a0; a1, ..., ak] the runs are (a0 + 1, a1, ..., a(k-1), ak - 1),
    or (a0) for an integer, and the depth is their sum (Graham, Knuth and
    Patashnik, *Concrete Mathematics*, section 4.5).

    Two paths of equal depth have equal length, so they agree up to a run
    where one turns before the other.  There the path that keeps going
    right is the larger number: a longer run to the right is larger and a
    longer run to the left smaller, which is what the alternating signs
    encode, and s mirrors the whole order for negative slopes.  Tuples
    compare entry by entry, so ordering keys orders numbers with no
    fraction arithmetic.  Keys are cached; the cache's statistics are read
    by benchmark traces.
    """
    p, q = s.p, s.q
    if q == 0:
        return (-1,)
    if p == 0:
        return (0,)
    runs = []
    a, b = abs(p), q
    while b:
        runs.append(a // b)
        a, b = b, a % b
    if len(runs) > 1:
        runs[0] += 1
        runs[-1] -= 1
    sign = 1 if p > 0 else -1
    return (sum(runs), *[r * sign if i % 2 == 0 else -r * sign for i, r in enumerate(runs)])


def _egcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with a*s + b*t = g = gcd(a, b)."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        quot = old_r // r
        old_r, r = r, old_r - quot * r
        old_s, s = s, old_s - quot * s
        old_t, t = t, old_t - quot * t
    return old_r, old_s, old_t


def farey_distance(a: Slope, b: Slope) -> int:
    """Exact distance from a to b in the Farey graph without a height cap.

    The SL2(Z) matrix [[s, t], [-q, p]], with p*s + q*t = 1 for a = p/q,
    maps a to inf and b to x = X/Y.  Every path from inf to x passes through
    an end of each Farey edge that the vertical line to x crosses, so the
    distance is that of the "ladder" of those edges: inf, the integers
    L < x < R around x, then the Stern-Brocot mediants that close in on x.
    A run of k mediants around the pivot L replaces R by L + R, then
    2L + R, ..., kL + R; the i-th is adjacent to L and to the one before,
    so it lies at distance min(dL + 1, dR + i) from inf.  Only the pairings
    of x with L and R are tracked: a run divides one by the other and keeps
    the remainder, as Euclid's algorithm does, and the run that leaves
    remainder 0 ends on x.  The cost is one step per continued-fraction
    term of x, whatever the heights.  It is also the distance in every
    capped Farey graph that holds a and b: the ladder-height lemma
    (``docs/ladder.md``) keeps every ladder vertex under the larger
    endpoint height.
    """
    if a == b:
        return 0
    _, s, t = _egcd(a.p, a.q)
    x, y = s * b.p + t * b.q, a.p * b.q - a.q * b.p
    if y < 0:
        x, y = -x, -y
    if y == 1:
        return 1
    # inf is adjacent to L = floor(x) and R = L + 1; x = (pr)L + (pl)R in
    # the basis (L, R), so pairing(x, L) = pl and pairing(x, R) = pr.
    pl = x % y
    pr = y - pl
    dl = dr = 1
    while True:
        k, pr = divmod(pr, pl)
        if pr == 0:
            return min(dl + 1, dr + k)
        dr = min(dl + 1, dr + k)
        k, pl = divmod(pl, pr)
        if pl == 0:
            return min(dr + 1, dl + k)
        dl = min(dr + 1, dl + k)


def farey_neighbors(a: Slope, height_cap: int) -> list[Slope]:
    """All slopes b != a with pairing(a, b) = 1 and height(b) <= height_cap,
    in Stern-Brocot order: the list of :func:`iter_farey_neighbors`."""
    return list(iter_farey_neighbors(a, height_cap))


def iter_farey_neighbors(a: Slope, height_cap: int) -> Iterator[Slope]:
    """Yield the neighbors of a under the height cap in Stern-Brocot order.

    A neighbor x/y of a = p/q solves p*y - q*x = +-1, so x and y are coprime
    and the slope is built without reducing.  Nothing is sorted and nothing
    is built ahead of the consumer: each item costs O(1), so a caller that
    stops at its first hit pays for the items it read, whatever the cap.
    """
    if height_cap < 1:
        raise ValueError("height_cap must be >= 1")
    cap = height_cap
    if a.is_infinity:
        # The integers, at depth |n|; the negative one first at each depth.
        yield Slope(0, 1)
        for n in range(1, cap + 1):
            yield Slope(-n, 1)
            yield Slope(n, 1)
        return
    p, q = a.p, a.q
    if q == 1:
        yield INFINITY
        # a = p/1: the chains A_y = (p*y - 1)/y < p < B_y = (p*y + 1)/y.
        if p == 0:
            # -1/y and 1/y, both at depth y.
            for y in range(1, cap + 1):
                yield Slope(-1, y)
                yield Slope(1, y)
            return
        # The inner chain (A for p > 0, B for p < 0) has numerators of size
        # |p|*y - 1 and depths |p| - 1 (y = 1), then |p| - 1 + y; the outer
        # chain has |p|*y + 1 and depths |p| + y.  So the inner y = k + 1
        # ties the outer y = k, and A, numerically smaller, goes first.
        m, sign = abs(p), (1 if p > 0 else -1)
        last_in = min(cap, (cap + 1) // m)
        last_out = min(cap, (cap - 1) // m)
        if last_in >= 1:
            yield Slope(p - sign, 1)
        for k in range(1, max(last_in - 1, last_out) + 1):
            inner = Slope(p * (k + 1) - sign, k + 1) if k < last_in else None
            outer = Slope(p * k + sign, k) if k <= last_out else None
            first, second = (inner, outer) if p > 0 else (outer, inner)
            if first is not None:
                yield first
            if second is not None:
                yield second
        return
    # a is not an integer.  Its neighbors are its two parents in the
    # mediant tree, L = xl/yl below a and R = (p-xl)/(q-yl) above it, where
    # p*yl - q*xl = 1 and 0 < yl < q, and the chains L + m*a and R + m*a for
    # m >= 1 (numerators and denominators added).  One parent is the
    # mediant of the other and an older slope, so it has the larger
    # |x| + y and sits deeper, but both are shallower than a.  The two
    # chain slopes for m sit m levels below a, the L one numerically first.
    # The parents lie on a's side of 0 (or at 0), so each step along a
    # chain adds |p| to |x| and q to y, and a chain ends at its first slope
    # over the cap.
    g, s, _ = _egcd(p, q)
    assert g == 1
    yl = s % q
    xl = (p * yl - 1) // q
    xr, yr = p - xl, q - yl
    last_l = min((cap - abs(xl)) // abs(p), (cap - yl) // q)
    last_r = min((cap - abs(xr)) // abs(p), (cap - yr) // q)
    parents = [(xl, yl, last_l), (xr, yr, last_r)]
    if abs(xr) + yr < abs(xl) + yl:
        parents.reverse()
    for x, y, last in parents:
        if last >= 0:
            yield Slope(x, y)
    for m in range(1, max(last_l, last_r) + 1):
        if m <= last_l:
            yield Slope(xl + m * p, yl + m * q)
        if m <= last_r:
            yield Slope(xr + m * p, yr + m * q)


class TwistUnit(Enum):
    """Unit of the twist count on a spotted arc: full or half turns."""

    FULL = "full"
    HALF = "half"


@dataclass(frozen=True)
class SpottedArc:
    """An arc in the spotted surface: base slope plus a twist count.

    The unit records whether twists are counted in full pushes of the spot
    (disk model) or half twists across the marked boundary point (sphere
    model); operations never mix the two.
    """

    base: Slope
    twist: int
    unit: TwistUnit

    def __str__(self) -> str:
        return format_spotted_arc(self)


def half_twist(x: SpottedArc) -> SpottedArc:
    """Slide one endpoint across the marked point: twist + 1, half units only."""
    if x.unit is not TwistUnit.HALF:
        raise UnitError("half_twist is defined on half-unit arcs only")
    return SpottedArc(x.base, x.twist + 1, x.unit)


def point_push(x: SpottedArc, n: int) -> SpottedArc:
    """Push the spot n full turns: +n full twists, or +2n half twists."""
    if x.unit is TwistUnit.FULL:
        return SpottedArc(x.base, x.twist + n, x.unit)
    return SpottedArc(x.base, x.twist + 2 * n, x.unit)


def spot_forget(x: SpottedArc) -> Slope:
    """Forget the spot: the base slope, invariant under all twisting."""
    return x.base


@dataclass(frozen=True)
class ArcSystem:
    """A nonempty set of pairwise disjoint slopes (a disk boundary trace)."""

    arcs: frozenset[Slope]

    def __post_init__(self) -> None:
        if not isinstance(self.arcs, frozenset):
            object.__setattr__(self, "arcs", frozenset(self.arcs))
        if not self.arcs:
            raise ValueError("arc system must be nonempty")
        items = sorted(self.arcs, key=stern_brocot_key)
        for i, a in enumerate(items):
            for b in items[i + 1 :]:
                if not disjoint(a, b):
                    raise ValueError(f"arcs {a} and {b} are not disjoint")

    @classmethod
    def of(cls, arcs: Iterable[Slope]) -> "ArcSystem":
        return cls(frozenset(arcs))

    def __iter__(self) -> Iterator[Slope]:
        return iter(sorted(self.arcs, key=stern_brocot_key))

    def __len__(self) -> int:
        return len(self.arcs)


# --- text formats ----------------------------------------------------------
#
# Slope            "p/q"            ("inf" for 1/0)
# twisted vertex   "p/q@k<suffix>"  (see format_twisted)
# SpottedArc       "p/q@k:full"     or "p/q@k:half"


_DECIMAL = re.compile(r"\s*[+-]?[0-9]+\s*")


def parse_int(text: str) -> int:
    """A decimal integer: optional surrounding whitespace and sign, ASCII digits.

    Unlike ``int`` alone, rejects underscores ("1_0") and non-ASCII digits ("１").
    """
    if not _DECIMAL.fullmatch(text):
        raise ValueError(f"not a decimal integer: {text!r}")
    return int(text)


def format_slope(s: Slope) -> str:
    return "inf" if s.q == 0 else f"{s.p}/{s.q}"


def parse_slope(text: str) -> Slope:
    t = text.strip()
    if t == "inf":
        return INFINITY
    try:
        if "/" in t:
            num, den = t.split("/", 1)
            return canonicalize(parse_int(num), parse_int(den))
        return canonicalize(parse_int(t), 1)
    except ValueError as exc:
        raise ValueError(f"not a slope: {text!r}") from exc


def format_twisted(arc: Slope, twist: int, suffix: str) -> str:
    """The text of an arc with a twist count: "p/q@k" and the model's suffix
    ("" for a spotted disk, ":sph" for a sphere, ":full" or ":half" for a
    spotted arc)."""
    return f"{format_slope(arc)}@{twist}{suffix}"


def parse_twisted(text: str, suffix: str, kind: str) -> tuple[Slope, int]:
    """(arc, twist) from the text of :func:`format_twisted` with this suffix.

    Surrounding whitespace is ignored, and so is whitespace around the
    slope and the twist.  Anything else, a different suffix included,
    raises ValueError "not a <kind>: <text>".
    """
    t = text.strip()
    arc_part, sep, twist_part = t[: len(t) - len(suffix)].rpartition("@")
    if not (sep and t.endswith(suffix)):
        raise ValueError(f"not a {kind}: {text!r}")
    try:
        return parse_slope(arc_part), parse_int(twist_part)
    except ValueError as exc:
        raise ValueError(f"not a {kind}: {text!r}") from exc


def format_spotted_arc(x: SpottedArc) -> str:
    return format_twisted(x.base, x.twist, f":{x.unit.value}")


def parse_spotted_arc(text: str) -> SpottedArc:
    unit = TwistUnit.HALF if text.strip().endswith(":half") else TwistUnit.FULL
    return SpottedArc(*parse_twisted(text, f":{unit.value}", "spotted arc"), unit)
