"""Named property suites over the arc, disk and sphere models.

Each suite runs a battery of exhaustive and seeded-random checks and
reports one pass/fail line per property group.  The failure-injection mode
swaps a deliberately wrong component into the same battery to demonstrate
that the checks would catch it; :data:`INJECTIONS` is the table of those
swaps, one row per injection.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Any, Callable, Optional

from . import engine
from .engine import AtLeast
from .fareygraph import FareyGraph
from .handlebody import (
    SpottedDisk,
    SpottedDiskGraph,
    annular_intersection,
    base_arc,
    disk_coordinates,
    disk_from_coordinates,
    embed_disk,
    ibundle_over_arc,
    leading_arc,
    push_disk,
    twist_coordinate,
)
from .slopes import (
    INFINITY,
    ArcSystem,
    Slope,
    SpottedArc,
    TwistUnit,
    UnitError,
    _egcd,
    canonicalize,
    disjoint,
    farey_distance,
    farey_neighbors,
    format_slope,
    format_spotted_arc,
    half_twist,
    pairing,
    parse_slope,
    parse_spotted_arc,
    point_push,
    spot_forget,
    stern_brocot_key,
)
from .spheres import (
    SphereGraph,
    SpottedArcGraph,
    SpottedSphere,
    arc_of_sphere,
    intersection_circles,
    sphere_over_arc,
    sphere_spot_forget,
)

SUITE_NAMES = ("arc", "omega", "sphere", "all")


@dataclass(frozen=True)
class CheckResult:
    suite: str
    group: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    injection: Optional[str]
    results: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)


def _random_slope(rng: random.Random, height: int = 60) -> Slope:
    while True:
        p = rng.randint(-height, height)
        q = rng.randint(0, height)
        if (p, q) != (0, 0):
            return canonicalize(p, q)


def _random_spotted_arc(rng: random.Random, unit: TwistUnit) -> SpottedArc:
    return SpottedArc(_random_slope(rng), rng.randint(-25, 25), unit)


def _result(suite: str, group: str, failures: list[str], detail: str) -> CheckResult:
    if failures:
        return CheckResult(suite, group, False, f"{len(failures)} failures; first: {failures[0]}")
    return CheckResult(suite, group, True, detail)


# --- arc suite ---------------------------------------------------------------


def _check_canonical_forms(rng: random.Random) -> CheckResult:
    bad = []
    for raw, expected in [((2, 4), (1, 2)), ((-1, 0), (1, 0)), ((6, -4), (-3, 2))]:
        got = canonicalize(*raw)
        if (got.p, got.q) != expected:
            bad.append(f"canonicalize{raw} = {got}")
    for _ in range(500):
        s = _random_slope(rng)
        again = canonicalize(s.p, s.q)
        if again != s or s.q < 0 or (s.q == 0 and s.p != 1):
            bad.append(f"not canonical: {s}")
    try:
        canonicalize(0, 0)
        bad.append("canonicalize(0, 0) accepted")
    except ValueError:
        pass
    return _result("arc", "canonical-forms", bad, "examples + 500 random reductions")


def _check_pairing(rng: random.Random) -> CheckResult:
    bad = []
    table = [((0, 1), (1, 0), 1), ((1, 2), (2, 3), 1), ((0, 1), (2, 5), 2)]
    for a_raw, b_raw, expected in table:
        a, b = canonicalize(*a_raw), canonicalize(*b_raw)
        if pairing(a, b) != expected:
            bad.append(f"pairing({a}, {b}) != {expected}")
    for _ in range(500):
        a, b = _random_slope(rng), _random_slope(rng)
        if pairing(a, b) != pairing(b, a):
            bad.append(f"asymmetric at {a}, {b}")
        if (pairing(a, b) == 0) != (a == b):
            bad.append(f"zero-iff-equal fails at {a}, {b}")
        if disjoint(a, b) != (pairing(a, b) <= 1):
            bad.append(f"disjoint threshold fails at {a}, {b}")
    return _result("arc", "pairing-disjointness", bad, "table + 500 random pairs")


def _check_farey_triangles(rng: random.Random) -> CheckResult:
    bad = []
    for _ in range(200):
        a = _random_slope(rng, height=30)
        nbrs = farey_neighbors(a, 31)
        b = nbrs[rng.randrange(len(nbrs))]
        c = canonicalize(a.p + b.p, a.q + b.q)
        for x, y in [(a, b), (a, c), (b, c)]:
            if pairing(x, y) != 1 or not disjoint(x, y):
                bad.append(f"triangle {a}, {b}, {c} fails at {x}, {y}")
    return _result("arc", "farey-triangles", bad, "200 mediant triangles disjoint")


def _check_twist_actions(rng: random.Random) -> CheckResult:
    bad = []
    for _ in range(300):
        x = _random_spotted_arc(rng, TwistUnit.HALF)
        if half_twist(x) == x:
            bad.append(f"half_twist fixed {x}")
        if half_twist(half_twist(x)) != point_push(x, 1):
            bad.append(f"half_twist^2 != point_push at {x}")
        m, n = rng.randint(-10, 10), rng.randint(-10, 10)
        if point_push(point_push(x, m), n) != point_push(x, m + n):
            bad.append(f"push additivity fails at {x}")
        y = _random_spotted_arc(rng, TwistUnit.FULL)
        if point_push(y, n).twist != y.twist + n:
            bad.append(f"full push wrong at {y}")
        if point_push(y, 0) != y:
            bad.append(f"identity push wrong at {y}")
    try:
        half_twist(SpottedArc(INFINITY, 0, TwistUnit.FULL))
        bad.append("half_twist accepted a full-unit arc")
    except UnitError:
        pass
    return _result("arc", "twist-actions", bad, "300 random twist compositions")


def _check_spot_forget(rng: random.Random) -> CheckResult:
    bad = []
    for _ in range(300):
        x = _random_spotted_arc(rng, rng.choice([TwistUnit.FULL, TwistUnit.HALF]))
        if spot_forget(point_push(x, rng.randint(-8, 8))) != spot_forget(x):
            bad.append(f"push changed projection at {x}")
        if x.unit is TwistUnit.HALF and spot_forget(half_twist(x)) != spot_forget(x):
            bad.append(f"half twist changed projection at {x}")
        if spot_forget(x) != x.base:
            bad.append(f"projection wrong at {x}")
    return _result("arc", "spot-forget", bad, "300 random projections invariant")


def _check_text_roundtrip(rng: random.Random) -> CheckResult:
    bad = []
    for _ in range(300):
        s = _random_slope(rng)
        if parse_slope(format_slope(s)) != s:
            bad.append(f"slope roundtrip {s}")
        x = _random_spotted_arc(rng, rng.choice([TwistUnit.FULL, TwistUnit.HALF]))
        if parse_spotted_arc(format_spotted_arc(x)) != x:
            bad.append(f"arc roundtrip {x}")
    if parse_slope("inf") != INFINITY or format_slope(INFINITY) != "inf":
        bad.append("infinity form")
    for junk in ("", "0/0", "a/b", "1/2@x:full", "1/2@3:sideways"):
        try:
            parse_spotted_arc(junk) if "@" in junk else parse_slope(junk)
            bad.append(f"accepted junk {junk!r}")
        except ValueError:
            pass
    return _result("arc", "text-roundtrip", bad, "300 random roundtrips + junk rejected")


class _DiskTwistGap2(SpottedDiskGraph):
    """:class:`SpottedDiskGraph` with its twist rule widened to |dk| <= 2."""

    twist_gap = 2


class _SphereTwistGap2(SphereGraph):
    """:class:`SphereGraph` with its twist rule widened to |dh| <= 2."""

    twist_gap = 2


class _ProductL1:
    """Mixin: the Farey-factor answers combine arc and twist by their sum."""

    def _product_distance(self, arc_d, dk):
        return arc_d + super()._product_distance(0, dk)


class _DiskProductL1(_ProductL1, SpottedDiskGraph):
    pass


class _SphereProductL1(_ProductL1, SphereGraph):
    pass


def _ladder_drop_rung(a: Slope, b: Slope) -> int:
    """:func:`farey_distance` with the last mediant of its final run skipped.

    In the frame where a is inf, b's ladder ends with a run of mediants
    around one mediant-tree parent of b; the mediant before b is the other,
    deeper parent.  The wrong answer is that parent's distance.
    """
    _, s, t = _egcd(a.p, a.q)
    x, y = s * b.p + t * b.q, a.p * b.q - a.q * b.p
    if y < 0:
        x, y = -x, -y
    if y <= 1:
        return farey_distance(a, b)
    yl = pow(x, -1, y)
    xl = (x * yl - 1) // y
    if y - yl > yl:
        xl, yl = x - xl, y - yl
    # Back from the frame: [[s, t], [-a.q, a.p]] has inverse [[a.p, -t], [a.q, s]].
    return farey_distance(a, canonicalize(a.p * xl - t * yl, a.q * xl + s * yl))


def _check_farey_distance(rng: random.Random, oracle: Callable[[Slope, Slope], int]) -> CheckResult:
    farey = FareyGraph(60)
    bad = []
    for _ in range(60):
        a, b = _random_slope(rng), _random_slope(rng)
        got, want = oracle(a, b), engine.bfs_distance(farey, a, b, 16)
        if got != want:
            bad.append(f"farey_distance({a}, {b}) = {got}, BFS {want}")
    return _result("arc", "farey-distance", bad, "60 random pairs equal capped BFS")


class _WalkDropRung(FareyGraph):
    """:class:`FareyGraph` whose distance and ladder walk trust :func:`_ladder_drop_rung`."""

    def _ladder_distance(self, a, b):
        return _ladder_drop_rung(a, b)


def _geodesic_text(query: Callable, a: Slope, b: Slope, cap: int) -> str:
    """The path query(a, b, cap) returns, or the text of its error: a cap
    error, or a ladder walk that found no step."""
    try:
        return " ".join(format_slope(s) for s in query(a, b, cap))
    except engine.EngineError as exc:
        return str(exc)


def _check_farey_walk(rng: random.Random, graph_type: type) -> CheckResult:
    """The graph's distance and ladder-walk geodesic equal the engine's BFS.

    Every ordered pair of height <= 6 is compared at caps 1-4, so ">=c"
    answers and cap errors occur, and 40 random pairs at height 60 at cap 16.
    The small pairs read one BFS ball of radius 4 per target: below the
    distance a cap gives the engine's cap error, and at or above it the
    distance and least geodesic do not depend on the cap.  The random pairs
    take one search each (:func:`engine.sample_distances`).
    """
    small = sorted(
        {canonicalize(p, q) for p in range(-6, 7) for q in range(7) if (p, q) != (0, 0)},
        key=stern_brocot_key,
    )
    bfs = FareyGraph(6)
    balls = {b: engine.ball(bfs, b, 4) for b in small}
    expected = []
    for a, b in itertools.product(small, repeat=2):
        d = balls[b].get(a)
        path = None if d is None else engine._least_geodesic(bfs, balls[b], a)
        for cap in range(1, 5):
            if path is not None and d <= cap:
                expected.append(((6, cap, a, b), (d, " ".join(map(format_slope, path)))))
            else:
                error = engine._distance_cap_error(bfs, a, b, cap)
                expected.append(((6, cap, a, b), (AtLeast(cap + 1), str(error))))
    pairs = [(_random_slope(rng), _random_slope(rng)) for _ in range(40)]
    bfs = FareyGraph(60)
    for rec in engine.sample_distances(bfs, pairs, 16).records:
        if rec.path is None:
            text = str(engine._distance_cap_error(bfs, rec.source, rec.target, 16))
        else:
            text = " ".join(map(format_slope, rec.path))
        expected.append(((60, 16, rec.source, rec.target), (rec.distance, text)))
    walks = {h: graph_type(h) for h in (6, 60)}
    bad = []
    for (h, cap, a, b), want in expected:
        walk = walks[h]
        got = (walk.distance(a, b, cap), _geodesic_text(walk.geodesic, a, b, cap))
        if got != want:
            bad.append(
                f"({a}, {b}) at height {h}, cap {cap}: walk {got[0]} [{got[1]}], "
                f"BFS {want[0]} [{want[1]}]"
            )
    return _result(
        "arc", "farey-walk", bad,
        f"{len(small) ** 2} pairs at caps 1-4 and 40 random pairs equal BFS",
    )


# --- twisted models: the Farey-factor answers against BFS -----------------------


def _check_product_path(suite: str, graph, center) -> CheckResult:
    """The graph's own ball, document and distance equal the engine's BFS.

    Every ordered pair of a radius-1 ball (distances up to 2) is compared
    at caps 1 and 2, so both exact values and ">=2" answers occur.
    """
    bad = []
    for radius in range(3):
        if graph.ball(center, radius) != engine.ball(graph, center, radius):
            bad.append(f"ball of radius {radius} differs from BFS")
        if graph.document(center, radius) != engine.document_from_ball(graph, center, radius):
            bad.append(f"document of radius {radius} differs from BFS")
    members = sorted(engine.ball(graph, center, 1), key=graph.sort_key)
    for x, y in itertools.product(members, repeat=2):
        for cap in (1, 2):
            got, want = graph.distance(x, y, cap), engine.bfs_distance(graph, x, y, cap)
            if got != want:
                bad.append(
                    f"d({graph.serialize_vertex(x)}, {graph.serialize_vertex(y)}) at cap "
                    f"{cap} = {got}, BFS {want}"
                )
    return _result(
        suite, "product-path", bad,
        f"balls, documents and {len(members) ** 2} pairs at caps 1-2 equal BFS",
    )


# --- omega suite -------------------------------------------------------------


def _product_metric_mismatches(graph, center, radius: int) -> tuple[list[str], int]:
    """Exhaustively compare graph distance with max(arc distance, twist gap).

    Distances are recomputed per ball member by honest BFS out to twice the
    radius (pairwise distances inside the ball cannot exceed that).
    """
    members = engine.ball(graph, center, radius)
    ordered = sorted(members, key=graph.sort_key)
    farey = FareyGraph(graph.height_cap)
    arcs = sorted({graph._split(v)[0] for v in ordered}, key=stern_brocot_key)
    arc_dist = {a: engine.ball(farey, a, 2 * radius) for a in arcs}
    bad = []
    for idx, x in enumerate(ordered):
        reach = engine.ball(graph, x, 2 * radius)
        a, k = graph._split(x)
        for y in ordered[idx + 1 :]:
            b, ell = graph._split(y)
            expected = max(arc_dist[a].get(b, 2 * radius + 1), abs(k - ell))
            got = reach.get(y, 2 * radius + 1)
            if got != expected:
                bad.append(
                    f"d({graph.serialize_vertex(x)}, {graph.serialize_vertex(y)})"
                    f" = {got}, product value {expected}"
                )
    return bad, len(ordered)


def _check_omega_product_metric(graph_factory) -> CheckResult:
    graph = graph_factory(2)
    bad, count = _product_metric_mismatches(graph, SpottedDisk(canonicalize(0, 1), 0), 5)
    return _result(
        "omega", "product-metric", bad,
        f"max-metric exact on all pairs of a radius-5, {count}-vertex ball",
    )


def _check_omega_coordinates(graph_factory, rng: random.Random) -> CheckResult:
    graph = graph_factory(3)
    members = engine.ball(graph, SpottedDisk(canonicalize(0, 1), 0), 4)
    bad = []
    seen = {}
    for v in sorted(members, key=graph.sort_key):
        coords = disk_coordinates(v)
        if disk_from_coordinates(*coords) != v:
            bad.append(f"coordinates not inverse at {v}")
        if coords in seen:
            bad.append(f"coordinate collision {v} vs {seen[coords]}")
        seen[coords] = v
        for w in graph.neighbors(v):
            l1 = abs(v.twists - w.twists) + (0 if v.arc == w.arc else 1)
            if l1 > 2:
                bad.append(f"edge image exceeds l1 bound 2 at {v} -> {w}")
    return _result("omega", "coordinate-bijection", bad, f"bijective on {len(members)} vertices")


def _check_omega_retractions(rng: random.Random) -> CheckResult:
    bad = []
    for _ in range(500):
        arc = _random_slope(rng)
        disk = ibundle_over_arc(arc)
        x = embed_disk(disk)
        if base_arc(x) != arc:
            bad.append(f"embed/retract mismatch at {arc}")
        if twist_coordinate(x) != 0 or not -2 <= twist_coordinate(x) <= 2:
            bad.append(f"embedded twist not centered at {arc}")
        k = rng.randint(-10, 10)
        pushed = push_disk(x, k)
        if base_arc(pushed) != arc:
            bad.append(f"push changed arc at {arc}")
        if abs(twist_coordinate(pushed) - (twist_coordinate(x) + k)) > 2:
            bad.append(f"twist drift at {arc}")
        if k != 0 and twist_coordinate(pushed) == 0:
            bad.append(f"pushed disk landed on embedded image at {arc}")
    if leading_arc(ArcSystem.of([canonicalize(1, 2)])) != canonicalize(1, 2):
        bad.append("singleton leading arc")
    if leading_arc(ArcSystem.of([canonicalize(0, 1), canonicalize(1, 1)])) != canonicalize(0, 1):
        bad.append("leading arc not Stern-Brocot-least")
    return _result("omega", "retraction-identities", bad, "500 random retraction checks")


def _check_omega_push_automorphism(graph_factory, rng: random.Random) -> CheckResult:
    graph = graph_factory(3)
    center = SpottedDisk(canonicalize(0, 1), 0)
    members = sorted(engine.ball(graph, center, 2), key=graph.sort_key)
    bad = []
    for _ in range(60):
        x, y = rng.sample(members, 2)
        n = rng.randint(-5, 5)
        if graph.adjacent(x, y) != graph.adjacent(push_disk(x, n), push_disk(y, n)):
            bad.append(f"adjacency not push-invariant at {x}, {y}, n={n}")
        d1 = engine.bfs_distance(graph, x, y, 8)
        d2 = engine.bfs_distance(graph, push_disk(x, n), push_disk(y, n), 8)
        if d1 != d2:
            bad.append(f"distance not push-invariant at {x}, {y}, n={n}")
    return _result("omega", "push-automorphism", bad, "60 sampled pairs, twist shifts in [-5, 5]")


def _check_annular_table(annular: Callable[[int, int], int], graph_factory) -> CheckResult:
    bad = []
    if annular(0, 3) != 4:
        bad.append("annular(0, 3) != 4")
    if annular(0, 1) != 0:
        bad.append("annular(0, 1) != 0")
    for k in range(2, 11):
        if (annular(k, -1), annular(k, 0), annular(k, 1)) != (2 * k, 2 * k - 2, 2 * k - 4):
            bad.append(f"positive table at k={k}")
    for k in range(-10, -1):
        if (annular(k, -1), annular(k, 0), annular(k, 1)) != (-2 * k - 4, -2 * k - 2, -2 * k):
            bad.append(f"negative table at k={k}")
    graph = graph_factory(2)
    arc = canonicalize(0, 1)
    for k, ell in itertools.product(range(-4, 5), repeat=2):
        zero = annular(k, ell) == 0
        same = (k == ell)
        adj = graph.adjacent(SpottedDisk(arc, k), SpottedDisk(arc, ell))
        if zero != (adj or same):
            bad.append(f"zero-iff-adjacent fails at ({k}, {ell})")
    return _result("omega", "annular-table", bad, "twist tables and adjacency consistency")


def _check_engine_consistency(rng: random.Random) -> CheckResult:
    farey = FareyGraph(8)
    slopes = sorted(
        {canonicalize(p, q) for p in range(-8, 9) for q in range(0, 9) if (p, q) != (0, 0)},
        key=stern_brocot_key,
    )
    bad = []
    for _ in range(100):
        u, v = rng.sample(slopes, 2)
        uni = engine.bfs_distance(farey, u, v, 8)
        bidi = engine.bidirectional_distance(farey, u, v, 8)
        if uni != bidi:
            bad.append(f"bidirectional mismatch at {u}, {v}: {uni} vs {bidi}")
        if not isinstance(uni, AtLeast):
            path = engine.geodesic(farey, u, v, 8)
            if len(path) - 1 != uni:
                bad.append(f"geodesic length mismatch at {u}, {v}")
            if any(not farey.adjacent(a, b) for a, b in zip(path, path[1:])):
                bad.append(f"geodesic has a non-edge at {u}, {v}")
    for _ in range(20):
        u, v, w = rng.sample(slopes, 3)
        duv = engine.bfs_distance(farey, u, v, 8)
        dvw = engine.bfs_distance(farey, v, w, 8)
        duw = engine.bfs_distance(farey, u, w, 8)
        if (
            not isinstance(duv, AtLeast)
            and not isinstance(dvw, AtLeast)
            and not isinstance(duw, AtLeast)
            and duw > duv + dvw
        ):
            bad.append(f"triangle inequality fails at {u}, {v}, {w}")
        if engine.bfs_distance(farey, v, u, 8) != duv:
            bad.append(f"asymmetric distance at {u}, {v}")
    center = canonicalize(0, 1)
    previous: set = set()
    for r in range(4):
        members = engine.ball(farey, center, r)
        if not previous <= set(members):
            bad.append(f"ball not monotone at r={r}")
        for v, d in members.items():
            if d > 0 and not any(members.get(w) == d - 1 for w in farey.neighbors(v)):
                bad.append(f"no parent at distance {d - 1} for {v}")
        previous = set(members)
    return _result("omega", "engine-consistency", bad, "bidirectional/geodesic/ball laws hold")


# --- sphere suite ------------------------------------------------------------


def _check_circles_table(graph_factory) -> CheckResult:
    bad = []
    for k in range(1, 11):
        if intersection_circles(0, k) != k - 1:
            bad.append(f"circles(0, {k}) != {k - 1}")
    if intersection_circles(4, 4) != 0:
        bad.append("circles(4, 4) != 0")
    graph = graph_factory(2)
    arc = canonicalize(0, 1)
    for h, h2 in itertools.product(range(-4, 5), repeat=2):
        if intersection_circles(h, h2) != intersection_circles(h2, h):
            bad.append(f"asymmetric circles at ({h}, {h2})")
        zero = intersection_circles(h, h2) == 0
        adj = graph.adjacent(SpottedSphere(arc, h), SpottedSphere(arc, h2))
        if zero != (adj or h == h2):
            bad.append(f"zero-iff-adjacent fails at ({h}, {h2})")
    return _result("sphere", "circles-table", bad, "circle counts and adjacency consistency")


def _check_diagram_commutation(rng: random.Random) -> CheckResult:
    bad = []
    for _ in range(300):
        x = _random_spotted_arc(rng, TwistUnit.HALF)
        if sphere_spot_forget(sphere_over_arc(x)) != spot_forget(x):
            bad.append(f"square does not commute at {x}")
        if sphere_over_arc(half_twist(x)) != SpottedSphere(x.base, x.twist + 1):
            bad.append(f"doubling does not shift half twists at {x}")
        if sphere_spot_forget(sphere_over_arc(half_twist(x))) != sphere_spot_forget(
            sphere_over_arc(x)
        ):
            bad.append(f"projection not twist-invariant at {x}")
        if arc_of_sphere(sphere_over_arc(x)) != x:
            bad.append(f"retraction not left inverse at {x}")
    try:
        sphere_over_arc(SpottedArc(INFINITY, 0, TwistUnit.FULL))
        bad.append("doubling accepted a full-unit arc")
    except UnitError:
        pass
    return _result("sphere", "diagram-commutation", bad, "300 random commutation checks")


def _check_doubling_isomorphism(graph_factory) -> CheckResult:
    arc_graph = SpottedArcGraph(3)
    sphere_graph = graph_factory(3)
    center = SpottedArc(canonicalize(0, 1), 0, TwistUnit.HALF)
    members = sorted(engine.ball(arc_graph, center, 3), key=arc_graph.sort_key)
    bad = []
    images = {sphere_over_arc(v) for v in members}
    if len(images) != len(members):
        bad.append("doubling not injective on ball")
    for v in members:
        lifted = [sphere_over_arc(w) for w in arc_graph.neighbors(v)]
        if lifted != list(sphere_graph.neighbors(sphere_over_arc(v))):
            bad.append(f"neighbor lists differ at {v}")
    return _result(
        "sphere", "doubling-isomorphism", bad, f"edge-preserving bijection on {len(members)} vertices"
    )


def _check_sphere_product_metric(graph_factory) -> CheckResult:
    graph = graph_factory(2)
    bad, count = _product_metric_mismatches(graph, SpottedSphere(canonicalize(0, 1), 0), 5)
    arc_graph = SpottedArcGraph(3)
    center = SpottedSphere(canonicalize(0, 1), 0)
    for v in sorted(engine.ball(graph, center, 2), key=graph.sort_key):
        for w in graph.neighbors(v):
            if not arc_graph.adjacent(arc_of_sphere(v), arc_of_sphere(w)):
                bad.append(f"retraction not 1-Lipschitz on edge {v} -> {w}")
    return _result(
        "sphere", "product-metric", bad,
        f"max-metric exact on all pairs of a radius-5, {count}-vertex ball",
    )


# --- runner ------------------------------------------------------------------

#: The components of the battery that an injection can swap.
_COMPONENTS: dict[str, Any] = {
    "disk_graph": SpottedDiskGraph,
    "sphere_graph": SphereGraph,
    "annular": annular_intersection,
    "distance_oracle": farey_distance,
    "walk_graph": FareyGraph,
}

#: injection -> {component: its wrong replacement}.
INJECTIONS: dict[str, dict[str, Any]] = {
    # Widen the disk-graph twist rule to |dk| <= 2: must break the product
    # metric, the coordinate bijection's l1 bound and the annular table.
    "omega-twist-gap-2": {"disk_graph": _DiskTwistGap2},
    # Widen the sphere-graph twist rule to |dh| <= 2: must break the sphere
    # circles table, doubling isomorphism and product metric.
    "sphere-twist-gap-2": {"sphere_graph": _SphereTwistGap2},
    # Drop the -2 offset from the annular intersection count: must break
    # the intersection table.
    "annular-no-offset": {"annular": lambda k, ell: 2 * abs(k - ell)},
    # Skip the last mediant of the Farey distance oracle's final run: must
    # break the farey-distance comparison with BFS.
    "ladder-drop-rung": {"distance_oracle": _ladder_drop_rung},
    # Answer twisted distances, balls and exports with arc + twist instead
    # of the max: must break product-path in the omega and sphere suites.
    "product-l1": {"disk_graph": _DiskProductL1, "sphere_graph": _SphereProductL1},
    # Let the Farey graph's distance and ladder walk trust the
    # ladder-drop-rung bound: must break the farey-walk comparison with BFS.
    "walk-drop-rung": {"walk_graph": _WalkDropRung},
}


def run_suite(name: str, *, rng_seed: int = 0, inject: Optional[str] = None) -> SuiteReport:
    """Run one named property suite; see SUITE_NAMES and INJECTIONS."""
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}; expected one of {SUITE_NAMES}")
    if inject is not None and inject not in INJECTIONS:
        raise ValueError(f"unknown injection {inject!r}; expected one of {sorted(INJECTIONS)}")
    use = {**_COMPONENTS, **INJECTIONS.get(inject, {})}
    disk_graph, sphere_graph = use["disk_graph"], use["sphere_graph"]

    results: list[CheckResult] = []
    if name in ("arc", "all"):
        rng = random.Random(rng_seed)
        results += [
            _check_canonical_forms(rng),
            _check_pairing(rng),
            _check_farey_triangles(rng),
            _check_twist_actions(rng),
            _check_spot_forget(rng),
            _check_text_roundtrip(rng),
            _check_farey_distance(rng, use["distance_oracle"]),
            _check_farey_walk(rng, use["walk_graph"]),
        ]
    if name in ("omega", "all"):
        rng = random.Random(rng_seed + 1)
        results += [
            _check_omega_product_metric(disk_graph),
            _check_omega_coordinates(disk_graph, rng),
            _check_omega_retractions(rng),
            _check_omega_push_automorphism(disk_graph, rng),
            _check_annular_table(use["annular"], disk_graph),
            _check_engine_consistency(rng),
            _check_product_path("omega", disk_graph(3), SpottedDisk(canonicalize(-1, 2), -3)),
        ]
    if name in ("sphere", "all"):
        rng = random.Random(rng_seed + 2)
        results += [
            _check_circles_table(sphere_graph),
            _check_diagram_commutation(rng),
            _check_doubling_isomorphism(sphere_graph),
            _check_sphere_product_metric(sphere_graph),
            _check_product_path(
                "sphere", sphere_graph(3), SpottedSphere(canonicalize(-1, 2), -3)
            ),
        ]
    return SuiteReport(suite=name, injection=inject, results=tuple(results))
