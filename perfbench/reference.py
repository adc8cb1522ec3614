"""Reference answers and output checks, independent of the flatcert package.

Slopes come from ``tests/oracles.all_slopes`` and adjacency from the raw
cross determinant, the same brute force ``tests/oracles.farey_distance_bf``
uses; this module only turns it into adjacency lists once per height so
that a single-source search costs about a millisecond.  Every run ties the
lists back to ``farey_distance_bf`` on a few pairs.  Nothing here imports
``flatcert``.
"""

from __future__ import annotations

import json
import math
from collections import deque

import numpy as np

import oracles  # tests/oracles.py; the runner puts tests/ on sys.path

Slope = tuple[int, int]


def det(a: Slope, b: Slope) -> int:
    return abs(a[0] * b[1] - a[1] * b[0])


def height(s: Slope) -> int:
    return max(abs(s[0]), s[1])


def slope_text(s: Slope) -> str:
    return "inf" if s == (1, 0) else f"{s[0]}/{s[1]}"


def parse_slope(text: str) -> Slope:
    """Canonical slope text only: 'inf' or 'p/q' with q > 0 and gcd 1."""
    if text == "inf":
        return (1, 0)
    num, sep, den = text.partition("/")
    if not sep:
        raise ValueError(f"not a slope: {text!r}")
    p, q = int(num), int(den)
    if q <= 0 or math.gcd(abs(p), q) != 1:
        raise ValueError(f"not a canonical slope: {text!r}")
    return (p, q)


def parse_twisted(text: str, suffix: str) -> tuple[Slope, int]:
    """'p/q@k' plus a fixed suffix ('', ':sph' or ':half') -> (slope, k)."""
    if not text.endswith(suffix):
        raise ValueError(f"vertex {text!r} lacks suffix {suffix!r}")
    body = text[: len(text) - len(suffix)] if suffix else text
    arc, sep, twist = body.rpartition("@")
    if not sep:
        raise ValueError(f"not a twisted vertex: {text!r}")
    return parse_slope(arc), int(twist)


def twisted_edge(u: tuple[Slope, int], v: tuple[Slope, int]) -> bool:
    """Definitional adjacency of the twisted models: distinct, disjoint, |dk| <= 1."""
    return u != v and det(u[0], v[0]) <= 1 and abs(u[1] - v[1]) <= 1


class FareyReference:
    """The height-capped Farey graph as explicit adjacency lists."""

    def __init__(self, height_cap: int):
        self.height_cap = height_cap
        self.slopes: list[Slope] = oracles.all_slopes(height_cap)
        self.index = {s: i for i, s in enumerate(self.slopes)}
        p = np.array([s[0] for s in self.slopes], dtype=np.int64)
        q = np.array([s[1] for s in self.slopes], dtype=np.int64)
        self.adj: list[list[int]] = []
        for lo in range(0, len(self.slopes), 512):
            rows = slice(lo, lo + 512)
            block = np.abs(p[rows, None] * q[None, :] - q[rows, None] * p[None, :]) == 1
            self.adj.extend(np.flatnonzero(row).tolist() for row in block)

    def distances_from(self, s: Slope) -> list[int]:
        """Distance from s to every slope by index; -1 where unreachable."""
        dist = [-1] * len(self.slopes)
        src = self.index[s]
        dist[src] = 0
        queue = deque([src])
        while queue:
            x = queue.popleft()
            dx = dist[x] + 1
            for w in self.adj[x]:
                if dist[w] < 0:
                    dist[w] = dx
                    queue.append(w)
        return dist

    def distance(self, a: Slope, b: Slope) -> int:
        return self.distances_from(a)[self.index[b]]

    def check_against_oracle(self, pairs: list[tuple[Slope, Slope]]) -> None:
        """Recheck a few distances with the brute-force oracle itself."""
        for a, b in pairs:
            if oracles.farey_distance_bf(a, b, self.height_cap) != self.distance(a, b):
                raise RuntimeError(f"reference disagrees with tests/oracles.py on {a}, {b}")


def check_path(tokens: list[str], a: Slope, b: Slope, length: int, cap: int) -> bool:
    """A Farey path of the given length from a to b, checked by raw determinant."""
    try:
        path = [parse_slope(t) for t in tokens]
    except ValueError:
        return False
    return (
        len(path) == length + 1
        and path[0] == a
        and path[-1] == b
        and all(height(s) <= cap for s in path)
        and all(det(x, y) == 1 for x, y in zip(path, path[1:]))
    )


def check_certificate(text: str, *, suffix: str, n: int, height_cap: int,
                      seed_pair: tuple[Slope, Slope], tamper: bool = False) -> list[str]:
    """Re-derive a flatcert/1 certificate from raw integers; returns problems."""
    cert = json.loads(text)
    if tamper:
        cert["entries"][0]["distance"] += 1
    problems = []
    ray = [parse_slope(t) for t in cert["ray"]]
    if len(ray) != n + 1 or tuple(ray[:2]) != seed_pair:
        problems.append("ray length or seed pair")
    if any(height(s) > height_cap for s in ray):
        problems.append("ray exceeds the height cap")
    if any(det(x, y) != 1 for x, y in zip(ray, ray[1:])):
        problems.append("consecutive ray slopes without determinant 1")
    if cert["arc_distances"] != [[abs(i - j) for j in range(n + 1)] for i in range(n + 1)]:
        problems.append("arc distance matrix")
    coords = [(i, j) for i in range(n + 1) for j in range(n + 1)]
    expected_pairs = [(coords[a], coords[b])
                      for a in range(len(coords)) for b in range(a + 1, len(coords))]
    entries = cert["entries"]
    if [(tuple(e["from"]), tuple(e["to"])) for e in entries] != expected_pairs:
        problems.append("grid pairs missing, repeated or out of order")
    for e in entries:
        (i, j), (i2, j2) = e["from"], e["to"]
        want = max(abs(i - i2), abs(j - j2))
        walk = [parse_twisted(w, suffix) for w in e["witness"]]
        if not (e["distance"] == e["lower_bound"] == want == len(walk) - 1):
            problems.append(f"entry {e['from']}->{e['to']} is not max(|di|, |dj|)")
        elif walk[0] != (ray[i], j) or walk[-1] != (ray[i2], j2):
            problems.append(f"witness {e['from']}->{e['to']} has wrong endpoints")
        elif not all(twisted_edge(u, v) and height(v[0]) <= height_cap
                     for u, v in zip(walk, walk[1:])):
            problems.append(f"witness {e['from']}->{e['to']} steps off the graph")
    if not all(c["expected"] == c["bfs"] for c in cert["spot_checks"]):
        problems.append("spot check disagrees")
    return problems
