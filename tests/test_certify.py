import dataclasses
import functools
import itertools
import json

import pytest
from hypothesis import given, settings, strategies as st

from flatcert import (
    INFINITY,
    FareyGraph,
    RayExtensionError,
    SphereGraph,
    SpottedDisk,
    SpottedDiskGraph,
    bfs_distance,
    certify_flat,
    extend_geodesic_ray,
    farey_distance,
    parse_spotted_disk,
    parse_spotted_sphere,
    run_suite,
)
from flatcert import fareygraph
from flatcert.certify import MODELS, CertificationError, check_ray_row
from flatcert.engine import ball
from util import S

N9_RAY = "0/1 inf -2/1 -5/2 -13/5 -34/13 -89/34 -233/89 -610/233 -1597/610"


class TestRayExtension:
    def test_certified_geodesic_segment(self):
        farey = FareyGraph(128)
        ray = extend_geodesic_ray(farey, (S(0, 1), INFINITY), 5)
        assert len(ray) == 6
        for i in range(6):
            for j in range(i + 1, 6):
                assert bfs_distance(farey, ray[i], ray[j], 8) == j - i

    def test_deterministic(self):
        a = extend_geodesic_ray(FareyGraph(128), (S(0, 1), INFINITY), 6)
        b = extend_geodesic_ray(FareyGraph(128), (S(0, 1), INFINITY), 6)
        assert a == b

    def test_fails_cleanly_under_tight_height_cap(self):
        with pytest.raises(RayExtensionError) as info:
            extend_geodesic_ray(FareyGraph(8), (S(0, 1), INFINITY), 6)
        assert len(info.value.ray) >= 2  # longest certified ray is reported
        assert info.value.wanted == 6

    def test_rejects_bad_seeds(self):
        farey = FareyGraph(16)
        with pytest.raises(ValueError):
            extend_geodesic_ray(farey, (S(0, 1), S(0, 1)), 3)
        with pytest.raises(ValueError):
            extend_geodesic_ray(farey, (S(0, 1), S(2, 5)), 3)
        with pytest.raises(ValueError):
            extend_geodesic_ray(farey, (S(0, 1), S(34, 55)), 3)


def bfs_greedy_ray(farey, seed_pair, length):
    """The ray chosen from one capped BFS ball around the start, and whether
    it reached the wanted length."""
    from_start = ball(farey, seed_pair[0], length)
    ray = list(seed_pair)
    while len(ray) <= length:
        nxt = [w for w in farey.neighbors(ray[-1]) if from_start.get(w) == len(ray)]
        if not nxt:
            return ray, False
        ray.append(min(nxt))
    return ray, True


class TestRayAgainstBfsBall:
    @pytest.mark.parametrize(
        "cap, seed_pair, length",
        [
            (128, (S(0, 1), INFINITY), 6),
            (128, (INFINITY, S(0, 1)), 6),
            (128, (S(1, 2), S(1, 3)), 4),
            (64, (S(-2, 5), S(-1, 2)), 4),
            (100, (S(3, 7), S(2, 5)), 3),
            (32, (S(1, 1), S(2, 1)), 5),
            (8, (S(0, 1), INFINITY), 6),
        ],
    )
    def test_matches_the_bfs_ball_greedy_ray(self, cap, seed_pair, length):
        farey = FareyGraph(cap)
        want, complete = bfs_greedy_ray(FareyGraph(cap), seed_pair, length)
        if complete:
            assert extend_geodesic_ray(farey, seed_pair, length) == want
        else:
            with pytest.raises(RayExtensionError) as info:
                extend_geodesic_ray(farey, seed_pair, length)
            assert info.value.ray == want


class TestRayRowCheck:
    def test_rejects_non_adjacent_step(self):
        # d(0/1, 1/1) = 1 and d(0/1, 2/5) = 2 as row 0 requires, but 1/1 and
        # 2/5 are not adjacent, so the triangle inequality pins nothing.
        farey = FareyGraph(16)
        ray = [S(0, 1), S(1, 1), S(2, 5)]
        from_start = ball(farey, ray[0], 2)
        assert [from_start[v] for v in ray] == [0, 1, 2]
        with pytest.raises(CertificationError, match="not an edge"):
            check_ray_row(farey, ray, from_start)

    def test_rejects_wrong_ball_distance(self):
        # Every step is an edge, but 0/1 -> inf -> 1/1 turns back: 1/1 is at
        # distance 1 from 0/1, not 2.
        farey = FareyGraph(16)
        ray = [S(0, 1), INFINITY, S(1, 1)]
        with pytest.raises(CertificationError, match="not geodesic"):
            check_ray_row(farey, ray, ball(farey, ray[0], 2))

    def test_oracle_rows_reject_the_same_bad_rays(self):
        farey = FareyGraph(16)
        for ray, reason in [
            ([S(0, 1), S(1, 1), S(2, 5)], "not an edge"),
            ([S(0, 1), INFINITY, S(1, 1)], "not geodesic"),
        ]:
            row = {v: farey_distance(ray[0], v) for v in ray}
            with pytest.raises(CertificationError, match=reason):
                check_ray_row(farey, ray, row)

    def test_oracle_row_accepts_the_extended_ray(self):
        farey = FareyGraph(64)
        ray = extend_geodesic_ray(farey, (S(0, 1), INFINITY), 4)
        check_ray_row(farey, ray, {v: farey_distance(ray[0], v) for v in ray})

    def test_rejects_vertex_outside_ball(self):
        farey = FareyGraph(64)
        ray = extend_geodesic_ray(farey, (S(0, 1), INFINITY), 4)
        with pytest.raises(CertificationError, match="not geodesic"):
            check_ray_row(farey, ray, ball(farey, ray[0], 3))


class TestCertifyFlat:
    def test_minimal_grid(self):
        cert = certify_flat(1, (S(0, 1), INFINITY), height_cap=16)
        assert cert.grid_size == 1
        assert {e.distance for e in cert.entries} == {1}
        assert cert.linf_constants == (1, 0)
        assert len(cert.entries) == 6  # C(4, 2) unordered pairs

    def test_n4_grid_is_exact_max_metric(self):
        cert = certify_flat(4, (S(0, 1), INFINITY), height_cap=64)
        assert len(cert.entries) == 25 * 24 // 2
        for e in cert.entries:
            (i, j), (i2, j2) = e.source, e.target
            assert e.distance == max(abs(i - i2), abs(j - j2))
            assert e.lower_bound == e.distance
            assert len(e.witness) - 1 == e.distance

    def test_witness_paths_are_real_edges(self):
        cert = certify_flat(3, (S(0, 1), INFINITY), height_cap=32)
        g = SpottedDiskGraph(32)
        for e in cert.entries:
            path = [parse_spotted_disk(s) for s in e.witness]
            assert all(g.adjacent(u, v) for u, v in zip(path, path[1:]))

    @pytest.mark.parametrize(
        "step",
        [((2, 1), (3, 1)), ((2, 1), (2, 2)), ((2, 1), (3, 2)), ((3, 1), (2, 2))],
        ids=["ray", "twist", "diagonal", "antidiagonal"],
    )
    def test_a_rejected_grid_step_fails_certification(self, monkeypatch, step):
        ray = extend_geodesic_ray(FareyGraph(64), (S(0, 1), INFINITY), 4)
        broken = {SpottedDisk(ray[i], j) for i, j in step}

        class OneNonEdge(SpottedDiskGraph):
            def adjacent(self, u, v):
                return {u, v} != broken and super().adjacent(u, v)

        monkeypatch.setitem(MODELS, "omega", OneNonEdge)
        with pytest.raises(CertificationError, match="witness step"):
            certify_flat(4, (S(0, 1), INFINITY), height_cap=64)

    def test_each_grid_step_is_checked_once(self, monkeypatch):
        calls = []

        class Counting(SpottedDiskGraph):
            def adjacent(self, u, v):
                calls.append((u, v))
                return super().adjacent(u, v)

        monkeypatch.setitem(MODELS, "omega", Counting)
        n = 4
        certify_flat(n, (S(0, 1), INFINITY), height_cap=64)
        # Rows, columns and both diagonals of an (n+1) x (n+1) grid.
        assert len(calls) == len({frozenset(c) for c in calls}) == 4 * n * n + 2 * n

    def test_sphere_model_variant(self):
        cert = certify_flat(6, (S(0, 1), INFINITY), model="sphere", height_cap=128)
        assert cert.model == "sphere(g=2)"
        g = SphereGraph(128)
        for e in cert.entries[:50]:
            path = [parse_spotted_sphere(s) for s in e.witness]
            assert all(g.adjacent(u, v) for u, v in zip(path, path[1:]))
        for e in cert.entries:
            (i, j), (i2, j2) = e.source, e.target
            assert e.distance == max(abs(i - i2), abs(j - j2))

    def test_ray_is_recorded_with_arc_distance_matrix(self):
        cert = certify_flat(4, (S(0, 1), INFINITY), height_cap=64)
        assert len(cert.ray) == 5
        for i, row in enumerate(cert.arc_distances):
            for j, d in enumerate(row):
                assert d == abs(i - j)

    def test_json_deterministic_and_parseable(self):
        kwargs = dict(model="omega", height_cap=32, rng_seed=3)
        a = certify_flat(3, (S(0, 1), INFINITY), **kwargs).to_json()
        b = certify_flat(3, (S(0, 1), INFINITY), **kwargs).to_json()
        assert a == b
        payload = json.loads(a)
        assert payload["schema"] == "flatcert/1"
        assert payload["l1_constants"] == [2, 0]
        assert payload["linf_constants"] == [1, 0]

    def test_spot_checks_recompute_entries(self):
        cert = certify_flat(3, (S(0, 1), INFINITY), height_cap=32)
        assert cert.spot_checks
        for check in cert.spot_checks:
            assert check.bfs == check.expected

    def test_input_validation(self):
        with pytest.raises(ValueError):
            certify_flat(0, (S(0, 1), INFINITY))
        with pytest.raises(ValueError):
            certify_flat(3, (S(0, 1), S(2, 5)), height_cap=16)
        with pytest.raises(ValueError):
            certify_flat(20, (S(0, 1), INFINITY), distance_cap=16)
        with pytest.raises(ValueError):
            certify_flat(3, (S(0, 1), INFINITY), model="torus")

    def test_stats_describe_the_one_ray_ball(self):
        n, cap = 4, 64
        cert = certify_flat(n, (S(0, 1), INFINITY), height_cap=cap)
        farey = FareyGraph(cap)
        ray = extend_geodesic_ray(farey, (S(0, 1), INFINITY), n)
        # The oracle saw each tip's neighbors up to the chosen one, then the ray.
        seen = set(ray)
        for tip, chosen in zip(ray[1:], ray[2:]):
            nbrs = farey.neighbors(tip)
            seen.update(nbrs[: nbrs.index(chosen) + 1])
        assert cert.stats["farey_balls"] == 0
        assert cert.stats["farey_vertices_explored"] == len(seen)
        assert json.loads(cert.to_json())["stats"] == cert.stats

    def test_n9_certifies_without_a_ball(self):
        cert = certify_flat(9, (S(0, 1), INFINITY), height_cap=1597)
        assert " ".join(cert.ray) == N9_RAY
        assert len(cert.entries) == 100 * 99 // 2
        assert cert.stats["farey_balls"] == 0

    def test_tight_height_cap_reports_partial_ray(self):
        with pytest.raises(RayExtensionError):
            certify_flat(6, (S(0, 1), INFINITY), height_cap=8)

    def test_a_stream_that_skips_a_qualifying_neighbor_changes_the_ray(self, monkeypatch):
        # Negative control for the streamed ray: drop, at every tip, the
        # first neighbor one step farther from the start.
        start = S(0, 1)
        stream = fareygraph.iter_farey_neighbors

        def skipping(tip, cap):
            wanted, skipped = farey_distance(start, tip) + 1, False
            for b in stream(tip, cap):
                if not skipped and farey_distance(start, b) == wanted:
                    skipped = True
                    continue
                yield b

        monkeypatch.setattr(fareygraph, "iter_farey_neighbors", skipping)
        try:
            cert = certify_flat(9, (start, INFINITY), height_cap=1597)
        except RayExtensionError:
            return
        assert " ".join(cert.ray) != N9_RAY


def _payload(cert):
    """The certificate's fields as JSON values, built here and not by to_json."""
    return {
        "schema": cert.schema,
        "model": cert.model,
        "preamble": cert.preamble,
        "grid_size": cert.grid_size,
        "seed_pair": list(cert.seed_pair),
        "height_cap": cert.height_cap,
        "distance_cap": cert.distance_cap,
        "rng_seed": cert.rng_seed,
        "ray": list(cert.ray),
        "arc_distances": [list(row) for row in cert.arc_distances],
        "entries": [
            {
                "from": list(e.source),
                "to": list(e.target),
                "distance": e.distance,
                "lower_bound": e.lower_bound,
                "witness": list(e.witness),
            }
            for e in cert.entries
        ],
        "linf_constants": list(cert.linf_constants),
        "l1_constants": list(cert.l1_constants),
        "spot_checks": [
            {"from": c.source, "to": c.target, "expected": c.expected, "bfs": c.bfs}
            for c in cert.spot_checks
        ],
        "stats": cert.stats,
    }


def _dumps(cert):
    return json.dumps(_payload(cert), indent=2, sort_keys=True) + "\n"


# Strings json must escape: quotes, backslashes, control and non-ASCII
# characters (including ones outside the BMP), mixed with plain text.
awkward_text = st.text(
    st.one_of(st.sampled_from('"\\/\n\t\x00\x1f\x7f\u2028é€😀 a'), st.characters()),
    max_size=8,
)


SMALL_CERT = certify_flat(1, (S(0, 1), INFINITY), height_cap=16)


class TestCertificateJson:
    @pytest.mark.parametrize("model", sorted(MODELS))
    @pytest.mark.parametrize(
        "seed_pair, rng_seed", [((S(0, 1), INFINITY), 0), ((S(1, 2), S(1, 3)), 7)]
    )
    def test_writer_matches_json_dumps(self, model, seed_pair, rng_seed):
        for n in range(1, 5):
            cert = certify_flat(n, seed_pair, model=model, height_cap=128, rng_seed=rng_seed)
            assert cert.to_json() == _dumps(cert), (model, n)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(awkward_text, min_size=1, max_size=6), st.integers(-(10**20), 10**20))
    def test_writer_escapes_every_string_field(self, texts, number):
        pool = itertools.cycle(texts)

        def text():
            return next(pool)

        cert = dataclasses.replace(
            SMALL_CERT,
            schema=text(),
            model=text(),
            preamble=text(),
            seed_pair=(text(), text()),
            ray=tuple(text() for _ in SMALL_CERT.ray),
            entries=tuple(
                dataclasses.replace(e, witness=tuple(text() for _ in e.witness))
                for e in SMALL_CERT.entries
            ),
            spot_checks=tuple(
                dataclasses.replace(c, source=text(), target=text())
                for c in SMALL_CERT.spot_checks
            ),
            stats={text(): number, "grid_pairs": text()},
        )
        assert cert.to_json() == _dumps(cert)
        assert json.loads(cert.to_json()) == _payload(cert)


@pytest.fixture(scope="module")
def suite_report():
    """run_suite with one report per (suite, seed, injection) for the module."""
    return functools.lru_cache(maxsize=None)(run_suite)


class TestSuites:
    def test_arc_suite_has_enough_groups_and_passes(self, suite_report):
        report = suite_report("arc")
        assert len(report.results) >= 4
        assert report.passed

    def test_all_aggregates_module_suites(self, suite_report):
        full = suite_report("all")
        parts = [suite_report(name) for name in ("arc", "omega", "sphere")]
        assert len(full.results) == sum(len(p.results) for p in parts)
        assert full.passed

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            run_suite("knot")

    def test_unknown_injection_rejected(self):
        with pytest.raises(ValueError):
            run_suite("omega", inject="flip-all-signs")

    def test_twist_gap_injection_breaks_product_metric(self, suite_report):
        report = suite_report("omega", inject="omega-twist-gap-2")
        assert not report.passed
        failed = {r.group for r in report.results if not r.passed}
        assert "product-metric" in failed

    def test_annular_injection_breaks_intersection_table(self, suite_report):
        report = suite_report("omega", inject="annular-no-offset")
        assert not report.passed
        failed = {r.group for r in report.results if not r.passed}
        assert failed == {"annular-table"}

    def test_ladder_injection_breaks_farey_distance_only(self, suite_report):
        clean = suite_report("arc")
        assert "farey-distance" in {r.group for r in clean.results if r.passed}
        report = suite_report("all", inject="ladder-drop-rung")
        failed = {r.group for r in report.results if not r.passed}
        assert failed == {"farey-distance"}

    def test_walk_injection_breaks_farey_walk_only(self):
        clean = run_suite("arc")
        assert "farey-walk" in {r.group for r in clean.results if r.passed}
        report = run_suite("all", inject="walk-drop-rung")
        failed = {(r.suite, r.group) for r in report.results if not r.passed}
        assert failed == {("arc", "farey-walk")}

    def test_sphere_twist_gap_injection_breaks_three_sphere_groups(self, suite_report):
        report = suite_report("all", inject="sphere-twist-gap-2")
        failed = {(r.suite, r.group) for r in report.results if not r.passed}
        assert failed == {
            ("sphere", "circles-table"),
            ("sphere", "doubling-isomorphism"),
            ("sphere", "product-metric"),
        }

    def test_product_l1_injection_breaks_product_path_only(self, suite_report):
        report = suite_report("all", inject="product-l1")
        failed = {(r.suite, r.group) for r in report.results if not r.passed}
        assert failed == {("omega", "product-path"), ("sphere", "product-path")}

    @pytest.mark.parametrize(
        "suite, inject", [("omega", "omega-twist-gap-2"), ("sphere", "sphere-twist-gap-2")]
    )
    def test_product_path_honours_a_wider_twist_rule(self, suite_report, suite, inject):
        report = suite_report(suite, inject=inject)
        (path,) = [r for r in report.results if r.group == "product-path"]
        assert path.passed

    def test_reports_are_seed_deterministic(self):
        a = run_suite("arc", rng_seed=5)
        b = run_suite("arc", rng_seed=5)
        assert a == b
