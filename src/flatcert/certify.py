"""Certified flat grids in the twist-decorated disk and sphere graph models.

The certifier extends a disjoint seed pair of slopes to a geodesic ray in
the Farey graph, crosses it with a twist interval, and pins every pairwise
distance on the resulting grid between an explicit witness path (upper
bound) and the coordinate-projection lower bound max(arc distance, twist
gap).  When the two meet, the grid carries the max-metric exactly, which
makes the embedding (1, 0)-quasi-isometric for the max metric and (2, 0)
for the l1 product metric.

The ray is chosen and checked by the continued-fraction distance oracle
:func:`~flatcert.slopes.farey_distance`, with no BFS ball.  The oracle
gives the uncapped distance d(ray[0], ray[j]), a lower bound on the capped
one, and the ray meets it, so d(ray[0], ray[j]) = j; with adjacency of
consecutive ray vertices the triangle inequality forces
d(ray[i], ray[j]) = |i - j| for every pair.  Breadth-first search in the
model graph only recomputes a seeded sample of grid entries as spot
checks, meeting in the middle (:func:`~flatcert.engine.bidirectional_distance`,
always equal to plain BFS).

Certificates are plain data and serialize to byte-identical JSON given the
same inputs (schema id "flatcert/1"), written directly rather than through
json's indented encoder.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Mapping, Sequence

from . import engine
from .fareygraph import FareyGraph
from .handlebody import SpottedDiskGraph
from .slopes import Slope, disjoint, farey_distance, format_slope
from .spheres import SphereGraph

PREAMBLE = (
    "Exact distances in the height-capped model graph named below. Every grid "
    "entry is pinned by an explicit witness path whose length matches the "
    "coordinate lower bound max(arc distance, twist gap); spot checks "
    "recompute a sample of entries by direct BFS. All claims concern this "
    "capped model graph."
)

#: The model graphs a grid can be certified in, by model name.
MODELS = {"omega": SpottedDiskGraph, "sphere": SphereGraph}


class CertificationError(Exception):
    """A grid distance failed to match the max-metric value."""


class RayExtensionError(Exception):
    """The geodesic ray could not be extended within the height cap."""

    def __init__(self, ray: Sequence[Slope], wanted: int):
        self.ray = list(ray)
        self.wanted = wanted
        super().__init__(
            f"ray extension failed at length {len(self.ray) - 1} of {wanted}; "
            f"longest certified ray: {' '.join(format_slope(s) for s in self.ray)}"
        )


@dataclass(frozen=True)
class GridEntry:
    """One certified pairwise distance on the grid.

    ``distance`` equals len(witness) - 1 and ``lower_bound``; the witness
    vertices are serialized in the model graph's text format.
    """

    source: tuple[int, int]
    target: tuple[int, int]
    distance: int
    lower_bound: int
    witness: tuple[str, ...]


@dataclass(frozen=True)
class SpotCheck:
    """Direct BFS recomputation of one grid entry (meet-in-the-middle)."""

    source: str
    target: str
    expected: int
    bfs: int


@dataclass(frozen=True)
class FlatCertificate:
    """Self-verifying record of an exact max-metric grid in a model graph."""

    schema: str
    model: str
    preamble: str
    grid_size: int
    seed_pair: tuple[str, str]
    height_cap: int
    distance_cap: int
    rng_seed: int
    ray: tuple[str, ...]
    arc_distances: tuple[tuple[int, ...], ...]
    entries: tuple[GridEntry, ...]
    linf_constants: tuple[int, int]
    l1_constants: tuple[int, int]
    spot_checks: tuple[SpotCheck, ...]
    stats: dict

    def to_json(self) -> str:
        """The certificate as ``json.dumps(payload, indent=2, sort_keys=True)``
        writes it, plus a newline, where ``payload`` maps each field to its
        JSON value (tuples as lists; entries and spot checks as objects with
        keys ``from``, ``to`` and the remaining field names).

        json's indented encoder is pure Python, so the layout is written
        directly: one f-string per grid entry, and each distinct witness
        label escaped once by json's C escaper.
        """
        text, array = encode_basestring_ascii, engine._json_array
        labels = {s: text(s) for s in {s for e in self.entries for s in e.witness}}
        entries = []
        for e in self.entries:
            (i, j), (i2, j2) = e.source, e.target
            witness = array([labels[s] for s in e.witness], 3)
            entries.append(
                f'{{\n      "distance": {e.distance},\n'
                f'      "from": [\n        {i},\n        {j}\n      ],\n'
                f'      "lower_bound": {e.lower_bound},\n'
                f'      "to": [\n        {i2},\n        {j2}\n      ],\n'
                f'      "witness": {witness}\n    }}'
            )
        checks = [
            f'{{\n      "bfs": {c.bfs},\n      "expected": {c.expected},\n'
            f'      "from": {text(c.source)},\n      "to": {text(c.target)}\n    }}'
            for c in self.spot_checks
        ]
        fields = {
            "schema": text(self.schema),
            "model": text(self.model),
            "preamble": text(self.preamble),
            "grid_size": self.grid_size,
            "seed_pair": array([text(s) for s in self.seed_pair]),
            "height_cap": self.height_cap,
            "distance_cap": self.distance_cap,
            "rng_seed": self.rng_seed,
            "ray": array([text(s) for s in self.ray]),
            "arc_distances": array(
                [array([str(d) for d in row], 2) for row in self.arc_distances]
            ),
            "entries": array(entries),
            "linf_constants": array([str(c) for c in self.linf_constants]),
            "l1_constants": array([str(c) for c in self.l1_constants]),
            "spot_checks": array(checks),
            "stats": json.dumps(self.stats, indent=2, sort_keys=True).replace("\n", "\n  "),
        }
        body = ",\n".join(f'  "{key}": {value}' for key, value in sorted(fields.items()))
        return "{\n" + body + "\n}\n"


def extend_geodesic_ray(
    farey: FareyGraph,
    seed_pair: tuple[Slope, Slope],
    length: int,
    *,
    distances: dict[Slope, int] | None = None,
) -> list[Slope]:
    """Greedily extend a disjoint seed pair to a geodesic ray in ``farey``.

    Each new vertex is the Stern-Brocot-least neighbor of the current tip
    whose exact Farey distance from the ray start (:func:`farey_distance`,
    a continued-fraction computation) is one more than the tip's
    (:meth:`FareyGraph.ladder_step`).  That distance is taken without the
    height cap, so it is a lower bound on the capped one, and the ray
    itself is a capped path of the same length: the two meet, and
    d(ray[0], ray[j]) = j in the capped graph.  With adjacency of
    consecutive vertices the triangle inequality then pins
    d(ray[i], ray[j]) = |i - j| for all i, j.  No BFS ball is built.

    ``distances``, if given, receives the oracle distance of every slope
    evaluated as a candidate.
    """
    start, second = seed_pair
    if start == second or not disjoint(start, second):
        raise ValueError("seed pair must be two distinct disjoint slopes")
    for s in seed_pair:
        if not farey.contains(s):
            raise ValueError(f"seed slope {s} exceeds height cap {farey.height_cap}")
    ray = [start, second]
    while len(ray) <= length:
        step = farey.ladder_step(ray[-1], start, len(ray), distances)
        if step is None:
            raise RayExtensionError(ray, length)
        ray.append(step)
    return ray


def check_ray_row(
    farey: FareyGraph, ray: Sequence[Slope], from_start: Mapping[Slope, int]
) -> None:
    """Check the evidence that makes ``ray`` a geodesic segment.

    ``from_start`` maps slopes to lower bounds on their capped distance
    from ray[0] in ``farey``: a BFS ball around ray[0], or values of
    :func:`farey_distance`.  Requires the bound for ray[j] to be j for every
    j (row 0 of the arc matrix) and consecutive ray vertices to be
    adjacent.  The ray then gives the matching upper bound, so
    d(ray[0], ray[j]) = j; d(ray[i], ray[j]) <= |i - j| along the ray, and
    d(ray[0], ray[j]) <= i + d(ray[i], ray[j]) gives the reverse bound, so
    every entry equals |i - j|.  Raises CertificationError otherwise.
    """
    for j, v in enumerate(ray):
        if from_start.get(v) != j:
            raise CertificationError(
                f"ray is not geodesic: d({ray[0]}, {v}) is "
                f"{from_start.get(v)}, not {j}"
            )
    for u, v in zip(ray, ray[1:]):
        if not farey.adjacent(u, v):
            raise CertificationError(f"ray step {u} -> {v} is not an edge")


def _staircase(source: tuple[int, int], target: tuple[int, int]) -> list[tuple[int, int]]:
    """Grid points of the witness path, one ray step and/or one twist step at a time."""
    i, j = source
    i2, j2 = target
    path = [(i, j)]
    while (i, j) != (i2, j2):
        i += (i2 > i) - (i2 < i)
        j += (j2 > j) - (j2 < j)
        path.append((i, j))
    return path


def certify_flat(
    n: int,
    seed_pair: tuple[Slope, Slope],
    *,
    model: str = "omega",
    distance_cap: int = 16,
    height_cap: int = 128,
    rng_seed: int = 0,
    spot_check_count: int = 5,
    max_visited: int = engine.DEFAULT_MAX_VISITED,
) -> FlatCertificate:
    """Certify an exact (n+1) x (n+1) max-metric grid in a model graph.

    The grid points are (ray[i], j) for 0 <= i, j <= n over the geodesic ray
    of :func:`extend_geodesic_ray` through ``seed_pair``.  Raises
    RayExtensionError when the ray cannot be extended under the height cap,
    and CertificationError if any pairwise distance fails to equal
    max(|di|, |dj|).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > distance_cap:
        raise ValueError("n must not exceed the distance cap")
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}; expected one of {tuple(MODELS)}")
    farey = FareyGraph(height_cap)
    graph = MODELS[model](height_cap)

    distances: dict[Slope, int] = {}
    ray = extend_geodesic_ray(farey, seed_pair, n, distances=distances)

    # Exact all-pairs arc distances along the ray: row 0 from the
    # continued-fraction oracle (a lower bound the ray meets) plus adjacency
    # of consecutive vertices force d(ray[i], ray[j]) = |i - j| by the
    # triangle inequality.
    distances.update((v, farey_distance(ray[0], v)) for v in ray)
    check_ray_row(farey, ray, distances)
    matrix = [tuple(abs(i - j) for j in range(n + 1)) for i in range(n + 1)]

    # Pin every grid pair: witness staircase above, projection bound below.
    # Staircases share their steps, so each grid step is checked against
    # the adjacency oracle once, the first time a witness takes it.
    coords = [(i, j) for i in range(n + 1) for j in range(n + 1)]
    points = {(i, j): graph.vertex(ray[i], j) for i, j in coords}
    labels = {c: graph.serialize_vertex(v) for c, v in points.items()}
    checked: set[tuple[tuple[int, int], tuple[int, int]]] = set()
    entries = []
    for a in range(len(coords)):
        i, j = coords[a]
        for b in range(a + 1, len(coords)):
            i2, j2 = coords[b]
            expected = max(abs(i - i2), abs(j - j2))
            lower = max(matrix[i][i2], abs(j - j2))
            witness = _staircase((i, j), (i2, j2))
            for step in zip(witness, witness[1:]):
                key = step if step[0] < step[1] else step[::-1]
                if key in checked:
                    continue
                if not graph.adjacent(points[step[0]], points[step[1]]):
                    raise CertificationError(
                        f"witness step {labels[step[0]]} -> {labels[step[1]]} is not an edge"
                    )
                checked.add(key)
            upper = len(witness) - 1
            if not (lower == upper == expected):
                raise CertificationError(
                    f"grid pair {(i, j)} {(i2, j2)}: lower {lower}, "
                    f"upper {upper}, expected {expected}"
                )
            l1 = abs(i - i2) + abs(j - j2)
            if not (l1 <= 2 * expected and expected <= l1):
                raise CertificationError(
                    f"l1 comparison failed on {(i, j)} {(i2, j2)}"
                )
            entries.append(
                GridEntry(
                    source=(i, j),
                    target=(i2, j2),
                    distance=expected,
                    lower_bound=lower,
                    witness=tuple(labels[c] for c in witness),
                )
            )

    # Recompute a seeded sample of short entries by direct BFS: a
    # meet-in-the-middle search over the model graph, independent of the
    # ray, the ladder and the product formula.
    rng = random.Random(rng_seed)
    short = [e for e in entries if e.distance <= 2]
    chosen = rng.sample(short, min(spot_check_count, len(short)))
    checks = []
    for e in sorted(chosen, key=lambda e: (e.source, e.target)):
        u = graph.vertex(ray[e.source[0]], e.source[1])
        v = graph.vertex(ray[e.target[0]], e.target[1])
        d = engine.bidirectional_distance(graph, u, v, e.distance, max_visited=max_visited)
        if d != e.distance:
            raise CertificationError(
                f"spot check {graph.serialize_vertex(u)} -> "
                f"{graph.serialize_vertex(v)}: BFS {d} != {e.distance}"
            )
        checks.append(
            SpotCheck(
                source=graph.serialize_vertex(u),
                target=graph.serialize_vertex(v),
                expected=e.distance,
                bfs=d,
            )
        )

    return FlatCertificate(
        schema="flatcert/1",
        model=graph.name,
        preamble=PREAMBLE,
        grid_size=n,
        seed_pair=(format_slope(seed_pair[0]), format_slope(seed_pair[1])),
        height_cap=height_cap,
        distance_cap=distance_cap,
        rng_seed=rng_seed,
        ray=tuple(format_slope(s) for s in ray),
        arc_distances=tuple(matrix),
        entries=tuple(entries),
        linf_constants=(1, 0),
        l1_constants=(2, 0),
        spot_checks=tuple(checks),
        stats={
            "farey_balls": 0,
            "farey_vertices_explored": len(distances),
            "grid_pairs": len(entries),
            "spot_checks": len(checks),
        },
    )
