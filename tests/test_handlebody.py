import itertools
import random

from flatcert import (
    ArcSystem,
    AtLeast,
    FareyGraph,
    IBundleDisk,
    SpottedDisk,
    SpottedDiskGraph,
    annular_intersection,
    ball,
    base_arc,
    bfs_distance,
    disjoint,
    disk_coordinates,
    disk_from_coordinates,
    embed_disk,
    farey_neighbors,
    format_spotted_disk,
    ibundle_over_arc,
    l1_distance,
    leading_arc,
    parse_spotted_disk,
    push_disk,
    twist_coordinate,
)
from util import S, random_slope


class TestArcDiskDictionary:
    def test_identification(self):
        assert ibundle_over_arc(S(0, 1)) == IBundleDisk(S(0, 1))

    def test_injective_on_small_heights(self):
        arcs = {
            S(p, q)
            for p in range(-20, 21)
            for q in range(0, 21)
            if (p, q) != (0, 0) and S(p, q).height() <= 20
        }
        disks = {ibundle_over_arc(a) for a in arcs}
        embedded = {embed_disk(d) for d in disks}
        assert len(disks) == len(arcs) == len(embedded)

    def test_disjoint_arcs_give_adjacent_disks(self):
        g = SpottedDiskGraph(8)
        rng = random.Random(2)
        for _ in range(50):
            a = random_slope(rng, 8)
            b = rng.choice(farey_neighbors(a, 8))
            assert g.adjacent(embed_disk(ibundle_over_arc(a)), embed_disk(ibundle_over_arc(b)))


class TestLeadingArc:
    def test_singleton(self):
        assert leading_arc(ArcSystem.of([S(1, 2)])) == S(1, 2)

    def test_stern_brocot_least(self):
        assert leading_arc(ArcSystem.of([S(0, 1), S(1, 1)])) == S(0, 1)

    def test_any_two_choices_disjoint(self):
        rng = random.Random(9)
        for _ in range(50):
            a = random_slope(rng, 20)
            b = rng.choice(farey_neighbors(a, 21))
            c = S(a.p + b.p, a.q + b.q) if a.q + b.q >= 0 else S(-(a.p + b.p), -(a.q + b.q))
            system = ArcSystem.of([a, b, c])
            chosen = leading_arc(system)
            for other in system:
                assert disjoint(chosen, other)


class TestRetractions:
    def test_embed_and_retract(self):
        d = IBundleDisk(S(1, 2))
        assert embed_disk(d) == SpottedDisk(S(1, 2), 0)
        assert base_arc(embed_disk(d)) == S(1, 2)

    def test_base_arc_ignores_twists(self):
        rng = random.Random(13)
        for _ in range(50):
            arc = random_slope(rng)
            assert base_arc(SpottedDisk(arc, rng.randint(-50, 50))) == arc
            x = embed_disk(ibundle_over_arc(arc))
            for n in range(-5, 6):
                assert base_arc(push_disk(x, n)) == arc

    def test_twist_coordinate_exact(self):
        x = embed_disk(IBundleDisk(S(0, 1)))
        assert twist_coordinate(x) == 0
        for k in range(-10, 11):
            assert twist_coordinate(push_disk(x, k)) == k

    def test_push_composition_and_identity(self):
        x = SpottedDisk(S(0, 1), 0)
        assert push_disk(x, 5) == SpottedDisk(S(0, 1), 5)
        assert push_disk(push_disk(x, 3), -3) == x

    def test_pushed_disk_never_in_embedded_image(self):
        # Twisted copies are genuinely new vertices: twist 0 marks the image.
        rng = random.Random(29)
        for _ in range(100):
            x = embed_disk(ibundle_over_arc(random_slope(rng)))
            k = rng.choice([k for k in range(-10, 11) if k != 0])
            assert twist_coordinate(push_disk(x, k)) != 0

    def test_coordinates_bijective(self):
        g = SpottedDiskGraph(3)
        members = ball(g, SpottedDisk(S(0, 1), 0), 4)
        seen = set()
        for v in members:
            coords = disk_coordinates(v)
            assert disk_from_coordinates(*coords) == v
            assert coords not in seen
            seen.add(coords)


class TestAnnularIntersection:
    def test_examples(self):
        assert annular_intersection(0, 3) == 4
        assert annular_intersection(0, 1) == 0

    def test_positive_twist_table(self):
        for k in range(2, 11):
            assert annular_intersection(k, -1) == 2 * k
            assert annular_intersection(k, 0) == 2 * k - 2
            assert annular_intersection(k, 1) == 2 * k - 4

    def test_negative_twist_table(self):
        for k in range(-10, -1):
            assert annular_intersection(k, -1) == -2 * k - 4
            assert annular_intersection(k, 0) == -2 * k - 2
            assert annular_intersection(k, 1) == -2 * k

    def test_zero_iff_adjacent_twist_gap(self):
        g = SpottedDiskGraph(2)
        arc = S(0, 1)
        for k, ell in itertools.product(range(-6, 7), repeat=2):
            zero = annular_intersection(k, ell) == 0
            assert zero == (abs(k - ell) <= 1)
            if k != ell:
                assert zero == g.adjacent(SpottedDisk(arc, k), SpottedDisk(arc, ell))


class TestSpottedDiskGraph:
    def test_text_roundtrip(self):
        x = SpottedDisk(S(-3, 2), -7)
        assert format_spotted_disk(x) == "-3/2@-7"
        assert parse_spotted_disk("-3/2@-7") == x
        g = SpottedDiskGraph(5)
        assert g.parse_vertex(g.serialize_vertex(x)) == x

    def test_neighbor_symmetry_sampled(self):
        g = SpottedDiskGraph(4)
        rng = random.Random(37)
        for _ in range(25):
            v = SpottedDisk(random_slope(rng, 4), rng.randint(-3, 3))
            for w in g.neighbors(v):
                assert v in g.neighbors(w)

    def test_adjacent_matches_neighbor_lists(self):
        g = SpottedDiskGraph(3)
        center = SpottedDisk(S(0, 1), 0)
        members = sorted(ball(g, center, 2), key=g.sort_key)
        for v in members:
            nbrs = set(g.neighbors(v))
            for w in members:
                assert g.adjacent(v, w) == (w in nbrs)

    def test_push_is_graph_automorphism(self):
        g = SpottedDiskGraph(3)
        rng = random.Random(43)
        members = sorted(ball(g, SpottedDisk(S(0, 1), 0), 2), key=g.sort_key)
        for _ in range(40):
            x, y = rng.sample(members, 2)
            n = rng.randint(-5, 5)
            assert g.adjacent(x, y) == g.adjacent(push_disk(x, n), push_disk(y, n))
            d = bfs_distance(g, x, y, 8)
            assert d == bfs_distance(g, push_disk(x, n), push_disk(y, n), 8)


class TestModelDistances:
    def test_same_arc_one_twist(self):
        g = SpottedDiskGraph(3)
        assert bfs_distance(g, SpottedDisk(S(0, 1), 0), SpottedDisk(S(0, 1), 1), 4) == 1

    def test_arc_move_dominates(self):
        g = SpottedDiskGraph(5)
        assert bfs_distance(g, SpottedDisk(S(0, 1), 0), SpottedDisk(S(2, 5), 0), 6) == 2

    def test_twist_dominates(self):
        g = SpottedDiskGraph(5)
        assert bfs_distance(g, SpottedDisk(S(0, 1), 0), SpottedDisk(S(1, 2), 5), 8) == 5

    def test_l1_examples(self):
        farey = FareyGraph(5)
        assert l1_distance(farey, SpottedDisk(S(0, 1), 0), SpottedDisk(S(0, 1), 4), 5) == 4
        assert l1_distance(farey, SpottedDisk(S(0, 1), 0), SpottedDisk(S(2, 5), 1), 5) == 3

    def test_l1_lower_bound_propagates(self):
        farey = FareyGraph(110)
        got = l1_distance(farey, SpottedDisk(S(0, 1), 0), SpottedDisk(S(34, 55), 3), 2)
        assert got == AtLeast(6)

    def test_l1_is_a_metric_on_samples(self):
        farey = FareyGraph(8)
        g = SpottedDiskGraph(8)
        rng = random.Random(47)
        pts = [SpottedDisk(random_slope(rng, 8), rng.randint(-4, 4)) for _ in range(8)]
        d = {}
        for x in pts:
            for y in pts:
                val = l1_distance(farey, x, y, 16)
                assert not isinstance(val, AtLeast)
                d[x, y] = val
        for x in pts:
            assert d[x, x] == 0
            for y in pts:
                assert d[x, y] == d[y, x]
                for z in pts:
                    assert d[x, z] <= d[x, y] + d[y, z]

    def test_product_metric_identity_radius3(self):
        # Smaller-cap rehearsal of the acceptance criterion: exhaustive pairs
        # of the radius-3 ball, graph distance vs max(arc distance, twist gap).
        g = SpottedDiskGraph(3)
        farey = FareyGraph(3)
        center = SpottedDisk(S(0, 1), 0)
        members = sorted(ball(g, center, 3), key=g.sort_key)
        arc_tables = {
            a: ball(farey, a, 6)
            for a in {v.arc for v in members}
        }
        for i, x in enumerate(members):
            reach = ball(g, x, 6)
            for y in members[i + 1 :]:
                expected = max(arc_tables[x.arc][y.arc], abs(x.twists - y.twists))
                assert reach[y] == expected

    def test_two_sided_l1_comparison_on_ball(self):
        g = SpottedDiskGraph(3)
        farey = FareyGraph(3)
        center = SpottedDisk(S(0, 1), 0)
        members = sorted(ball(g, center, 3), key=g.sort_key)
        rng = random.Random(53)
        for _ in range(150):
            x, y = rng.sample(members, 2)
            d = bfs_distance(g, x, y, 12)
            l1 = l1_distance(farey, x, y, 12)
            assert not isinstance(d, AtLeast) and not isinstance(l1, AtLeast)
            assert l1 / 2 <= d <= l1

    def test_twist_coordinate_lipschitz_on_edges(self):
        g = SpottedDiskGraph(3)
        members = ball(g, SpottedDisk(S(0, 1), 0), 3)
        for v in members:
            for w in g.neighbors(v):
                assert abs(twist_coordinate(v) - twist_coordinate(w)) <= 1
