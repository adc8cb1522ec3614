"""The three workloads: generated operations and the check of each answer.

A workload turns the run's seed into the operations of each pass and knows
the right answer to each.  Operations are either ``{"cli": argv, "out":
file}`` (``flatcert.cli.main(argv)``; ``out`` names a file the command
writes) or ``{"lib": name, ...}`` (an exported library function).  Every
argv puts ``--`` before positional slopes: argparse reads a negative slope
such as ``-2/5`` as an option otherwise (see NOTES.md).

``check`` sees an operation's result after the timed region and returns
whether it is right.  ``tamper=True`` corrupts the reference (or the
certificate) for the first operation, as the negative control.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from reference import (
    FareyReference,
    check_certificate,
    check_path,
    parse_twisted,
    slope_text,
    twisted_edge,
)


class Certify:
    """Two n=7 flat certificates, omega and sphere, written to files."""

    name = "certify"
    repeats_inputs = True  # every pass issues the same operations
    N, HEIGHT_CAP, SEED_PAIR = 7, 233, ((0, 1), (1, 0))
    SUFFIX = {"omega": "", "sphere": ":sph"}

    def __init__(self, seed: int):
        self.seed = seed

    def inputs(self, pass_index: int):
        ops, expect = [], []
        for model in ("omega", "sphere"):
            out = f"cert-{model}.json"
            ops.append({"cli": [
                "certify-flat", "--n", str(self.N), "--height-cap", str(self.HEIGHT_CAP),
                "--seed", ",".join(slope_text(s) for s in self.SEED_PAIR),
                "--model", model, "--rng-seed", str(self.seed), "--out", out,
            ], "out": out})
            expect.append(model)
        return ops, expect

    def check(self, index, op, model, res, pass_dir: Path, tamper: bool) -> bool:
        if res.get("rc") != 0:
            return False
        text = (pass_dir / op["out"]).read_text()
        problems = check_certificate(
            text, suffix=self.SUFFIX[model], n=self.N, height_cap=self.HEIGHT_CAP,
            seed_pair=self.SEED_PAIR, tamper=tamper and index == 0,
        )
        return not problems


class FareyQueries:
    """About 100 point-to-point Farey queries per pass, each on a fresh graph.

    Every pass draws its own pairs: distinct slopes of height <= 64, uniform
    and independent, as a user asking about arbitrary slopes would.
    """

    name = "farey-queries"
    repeats_inputs = False
    HEIGHT_CAP, CAP = 64, 12  # CAP is above the diameter (10) at this height
    DIST, GEODESIC, BIDIRECTIONAL = 60, 10, 15
    SMALL_CAPS = [2, 3] * 5  # mostly answered ">=cap+1"
    SAMPLES, PAIRS_PER_SAMPLE = 5, 2

    def __init__(self, seed: int):
        self.seed = seed
        self.ref = FareyReference(self.HEIGHT_CAP)
        rng = random.Random(seed)
        self.ref.check_against_oracle(
            [(rng.choice(self.ref.slopes), rng.choice(self.ref.slopes)) for _ in range(3)])

    def _pair(self, rng: random.Random):
        a, b = rng.sample(self.ref.slopes, 2)
        return a, b, self.ref.distance(a, b)

    def inputs(self, pass_index: int):
        rng = random.Random(f"{self.seed}/{pass_index}")

        def farey(sub, a, b, cap=self.CAP):
            return {"cli": ["farey", sub, "--cap", str(cap), "--height-cap",
                            str(self.HEIGHT_CAP), "--", slope_text(a), slope_text(b)]}

        ops, expect = [], []
        for cap in [self.CAP] * self.DIST + self.SMALL_CAPS:
            a, b, d = self._pair(rng)
            ops.append(farey("dist", a, b, cap))
            expect.append(("dist", a, b, str(d) if d <= cap else f">={cap + 1}"))
        for _ in range(self.GEODESIC):
            a, b, d = self._pair(rng)
            ops.append(farey("geodesic", a, b))
            expect.append(("geodesic", a, b, d))
        for _ in range(self.BIDIRECTIONAL):
            a, b, d = self._pair(rng)
            ops.append({"lib": "bidirectional_distance", "height_cap": self.HEIGHT_CAP,
                        "cap": self.CAP, "a": slope_text(a), "b": slope_text(b)})
            expect.append(("value", a, b, str(d)))
        for _ in range(self.SAMPLES):
            pairs = [self._pair(rng) for _ in range(self.PAIRS_PER_SAMPLE)]
            ops.append({"lib": "sample_distances", "height_cap": self.HEIGHT_CAP,
                        "cap": self.CAP,
                        "pairs": [[slope_text(a), slope_text(b)] for a, b, _ in pairs]})
            expect.append(("sample", pairs))
        return ops, expect

    def check(self, index, op, want, res, pass_dir: Path, tamper: bool) -> bool:
        if res.get("rc") != 0:
            return False
        kind = want[0]
        if kind in ("dist", "value"):
            _, a, b, text = want
            if tamper and index == 0:
                text += "0"
            got = res["stdout"].strip() if kind == "dist" else res["value"]
            return got == text
        if kind == "geodesic":
            _, a, b, d = want
            return check_path(res["stdout"].split(), a, b, d, self.HEIGHT_CAP)
        _, pairs = want
        records = res["value"]
        return len(records) == len(pairs) and all(
            [src, dst, dist] == [slope_text(a), slope_text(b), str(d)]
            and path is not None
            and check_path(path, a, b, d, self.HEIGHT_CAP)
            for (src, dst, dist, path), (a, b, d) in zip(records, pairs)
        )


class Twisted:
    """Twisted-model balls, exports and one long-twist distance at H=32."""

    name = "twisted"
    repeats_inputs = True
    HEIGHT_CAP, RADIUS, TWIST_GAP = 32, 4, 9
    CENTER = (0, 1)
    EXPORTS = (("sphere", ":sph", "sphere(g=2)"), ("spotted-arc", ":half", "spotted-arc(g=2)"))

    def __init__(self, seed: int):
        rng = random.Random(seed)
        # Pushing the spot and reflecting p/q -> -p/q are automorphisms, so
        # every seed asks for the same amount of work.  Twists stay two digits
        # wide, so the output size does not depend on the seed either.
        self.k0 = rng.randint(14, 90)
        self.far = (rng.choice((5, -5)), 7)
        self.far_twist = self.k0 + rng.choice((1, -1)) * self.TWIST_GAP
        self.ref = FareyReference(self.HEIGHT_CAP)
        self.ref.check_against_oracle([(self.CENTER, self.far)])
        dist = self.ref.distances_from(self.CENTER)
        self.arc_dist = {s: d for s, d in zip(self.ref.slopes, dist) if d >= 0}
        self.ball_arcs = {s for s, d in self.arc_dist.items() if d <= self.RADIUS}

    def inputs(self, pass_index: int):
        center = f"{slope_text(self.CENTER)}@{self.k0}"
        h = ["--height-cap", str(self.HEIGHT_CAP)]
        ops = [{"cli": ["omega", "ball", *h, "--", center, str(self.RADIUS)]}]
        expect = [("ball",)]
        for graph, suffix, name in self.EXPORTS:
            out = f"export-{graph}.json"
            ops.append({"cli": ["export", "--graph", graph, "--center", center + suffix,
                                "--radius", str(self.RADIUS), *h, "--out", out], "out": out})
            expect.append(("export", suffix, name))
        far = f"{slope_text(self.far)}@{self.far_twist}"
        ops.append({"cli": ["omega", "dist", "--cap", "16", *h, "--", center, far]})
        expect.append(("dist",))
        return ops, expect

    def _ball_distance(self, v) -> int:
        """max(arc distance, twist gap): the strong-product metric."""
        return max(self.arc_dist[v[0]], abs(v[1] - self.k0))

    def _ball_size(self) -> int:
        return len(self.ball_arcs) * (2 * self.RADIUS + 1)

    def _edge_count(self) -> int:
        """Edges induced on the ball: closed arc neighborhoods x twist steps."""
        twists = range(self.k0 - self.RADIUS, self.k0 + self.RADIUS + 1)
        steps = {k: sum(1 for dk in (-1, 0, 1) if k + dk in twists) for k in twists}
        index, slopes = self.ref.index, self.ref.slopes
        total = 0
        for a in self.ball_arcs:
            near = 1 + sum(1 for w in self.ref.adj[index[a]] if slopes[w] in self.ball_arcs)
            total += sum(near * steps[k] - 1 for k in twists)
        return total // 2

    def check(self, index, op, want, res, pass_dir: Path, tamper: bool) -> bool:
        if res.get("rc") != 0:
            return False
        kind = want[0]
        if kind == "dist":
            expected = max(self.ref.distance(self.CENTER, self.far), self.TWIST_GAP)
            return res["stdout"].strip() == str(expected)
        if kind == "ball":
            lines = [line.split() for line in res["stdout"].splitlines()]
            seen = set()
            for vertex_text, d in lines:
                v = parse_twisted(vertex_text, "")
                want_d = self._ball_distance(v) + (tamper and index == 0)
                if (v in seen or v[0] not in self.ball_arcs or int(d) != want_d
                        or want_d > self.RADIUS):
                    return False
                seen.add(v)
            ds = [int(d) for _, d in lines]
            return len(seen) == self._ball_size() and ds == sorted(ds)
        _, suffix, graph_name = want
        doc = json.loads((pass_dir / op["out"]).read_text())
        verts = [parse_twisted(t, suffix) for t in doc["vertices"]]
        center = f"{slope_text(self.CENTER)}@{self.k0}{suffix}"
        return (
            doc["graph"] == graph_name
            and len(set(verts)) == len(verts) == self._ball_size()
            and all(v[0] in self.ball_arcs and abs(v[1] - self.k0) <= self.RADIUS for v in verts)
            and [d[:2] for d in doc["distances"]] == [[center, t] for t in doc["vertices"]]
            and all(d[2] == self._ball_distance(v) for d, v in zip(doc["distances"], verts))
            and all(i < j and twisted_edge(verts[i], verts[j]) for i, j in doc["edges"])
            and len(set(map(tuple, doc["edges"]))) == len(doc["edges"]) == self._edge_count()
        )


WORKLOADS = {w.name: w for w in (Certify, FareyQueries, Twisted)}
