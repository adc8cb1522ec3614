"""Exact metric queries on implicitly defined graphs.

A graph is given by a deterministic adjacency oracle over an (implicitly
huge) vertex set, together with a text codec for vertices.  All distances,
balls and geodesics are computed lazily by breadth-first search under
explicit caps; distances beyond a cap are reported as one-sided lower
bounds, never as failures.  A graph's ``distance``, ``ball`` and
``document`` methods run these searches; a graph that knows its metric
overrides them (the Farey graph's distance is ``farey_distance`` clipped at
the cap and only its geodesic walks the ladder; the twisted models answer
from their Farey factor), and the module functions stay the breadth-first
checkers.  A geodesic, alone or in a distance sample, costs
one search from its target.

The engine keeps no state between queries apart from an idempotent neighbor
cache, so concurrent queries on the same graph are safe; results are always
bit-identical to sequential single-sided BFS.

Exports write the bytes of ``json.dumps(indent=2, sort_keys=True)``
directly, with the indented-array layout in one helper (:func:`_json_array`)
that the certificate writer shares.
"""

from __future__ import annotations

import json
from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Any, Generic, Hashable, Iterable, Optional, Sequence, TypeVar, Union

V = TypeVar("V", bound=Hashable)

#: Default cap on visited vertices per query; sized so that every shipped
#: verification completes in well under a minute on a laptop.
DEFAULT_MAX_VISITED = 2_000_000


class EngineError(Exception):
    """Base class for graph-engine failures."""


class InvalidVertexError(EngineError):
    """A query vertex is not part of the graph under its caps."""


class BudgetExceededError(EngineError):
    """A search exceeded its vertex budget; carries partial statistics only."""

    def __init__(self, visited: int, edges: int, radius_reached: int):
        super().__init__(
            f"search budget exceeded: visited={visited} edges={edges} "
            f"radius_reached={radius_reached}"
        )
        self.visited = visited
        self.edges = edges
        self.radius_reached = radius_reached


class DistanceCapError(EngineError):
    """A geodesic was requested between vertices farther apart than the cap."""


@dataclass(frozen=True)
class AtLeast:
    """Marker for a distance known only to be >= bound."""

    bound: int

    def __str__(self) -> str:
        return f">={self.bound}"


Distance = Union[int, AtLeast]


class ImplicitGraph(ABC, Generic[V]):
    """Vertex codec plus adjacency oracle; all metrics are derived from it.

    Subclasses provide ``_compute_neighbors`` (finite, deterministic,
    Stern-Brocot-sorted neighbor lists under the graph's caps),
    ``contains`` (membership under the caps), and the codec methods.
    Adjacency must be symmetric on the vertex set: if v lists w then w
    lists v.  Vertex equality and hashing agree with the serialized form,
    so the engine never assumes vertices are numeric.
    """

    def __init__(self, name: str):
        self.name = name
        self._neighbor_cache: dict[V, tuple[V, ...]] = {}

    # -- adjacency oracle --

    def neighbors(self, v: V) -> tuple[V, ...]:
        """Neighbor list of v under the graph's caps (memoized)."""
        cached = self._neighbor_cache.get(v)
        if cached is None:
            if not self.contains(v):
                raise InvalidVertexError(f"{self.serialize_vertex(v)} not in {self.name}")
            cached = tuple(self._compute_neighbors(v))
            self._neighbor_cache[v] = cached
        return cached

    def adjacent(self, u: V, v: V) -> bool:
        """Whether u and v are joined by an edge; override with an O(1) rule."""
        return v in self.neighbors(u)

    @abstractmethod
    def _compute_neighbors(self, v: V) -> Sequence[V]: ...

    # -- metric queries: breadth-first search unless a subclass knows better --

    def distance(
        self, u: V, v: V, cap: int, *, max_visited: int = DEFAULT_MAX_VISITED
    ) -> Distance:
        """Exact distance if <= cap, else AtLeast(cap + 1); as :func:`bfs_distance`."""
        return bfs_distance(self, u, v, cap, max_visited=max_visited)

    def ball(
        self, center: V, radius: int, *, max_visited: int = DEFAULT_MAX_VISITED
    ) -> dict[V, int]:
        """Vertex -> distance within the radius; as :func:`ball`."""
        return ball(self, center, radius, max_visited=max_visited)

    def document(
        self, center: V, radius: int, *, max_visited: int = DEFAULT_MAX_VISITED
    ) -> GraphDocument:
        """Snapshot of the ball; as :func:`document_from_ball`."""
        return document_from_ball(self, center, radius, max_visited=max_visited)

    @abstractmethod
    def contains(self, v: V) -> bool: ...

    # -- vertex codec --

    @abstractmethod
    def serialize_vertex(self, v: V) -> str: ...

    @abstractmethod
    def parse_vertex(self, text: str) -> V: ...

    @abstractmethod
    def sort_key(self, v: V) -> Any: ...


def _require_vertex(g: ImplicitGraph[V], v: V) -> None:
    if not g.contains(v):
        raise InvalidVertexError(f"{g.serialize_vertex(v)} not in {g.name}")


def _expand(
    g: ImplicitGraph[V],
    source: V,
    radius: int,
    max_visited: int,
    stop_at: Optional[V] = None,
) -> tuple[dict[V, int], Optional[int], int]:
    """Level BFS from source out to radius.

    Returns (distance map, distance of stop_at if hit, edges scanned).
    Raises BudgetExceededError past max_visited without returning a
    partial map.
    """
    dist: dict[V, int] = {source: 0}
    queue: deque[V] = deque([source])
    edges = 0
    while queue:
        x = queue.popleft()
        d = dist[x]
        if d == radius:
            continue
        for w in g.neighbors(x):
            edges += 1
            if w not in dist:
                dist[w] = d + 1
                if stop_at is not None and w == stop_at:
                    return dist, d + 1, edges
                if len(dist) > max_visited:
                    raise BudgetExceededError(len(dist), edges, d + 1)
                queue.append(w)
    return dist, None, edges


def bfs_distance(
    g: ImplicitGraph[V],
    u: V,
    v: V,
    cap: int,
    *,
    max_visited: int = DEFAULT_MAX_VISITED,
) -> Distance:
    """Exact graph distance between u and v if <= cap, else AtLeast(cap + 1)."""
    if cap < 1:
        raise ValueError("cap must be >= 1")
    _require_vertex(g, u)
    _require_vertex(g, v)
    if u == v:
        return 0
    _, hit, _ = _expand(g, u, cap, max_visited, stop_at=v)
    return hit if hit is not None else AtLeast(cap + 1)


def bidirectional_distance(
    g: ImplicitGraph[V],
    u: V,
    v: V,
    cap: int,
    *,
    max_visited: int = DEFAULT_MAX_VISITED,
) -> Distance:
    """Meet-in-the-middle BFS; always equals :func:`bfs_distance`."""
    if cap < 1:
        raise ValueError("cap must be >= 1")
    _require_vertex(g, u)
    _require_vertex(g, v)
    if u == v:
        return 0
    dist = ({u: 0}, {v: 0})
    frontier: list[list[V]] = [[u], [v]]
    depth = [0, 0]
    edges = 0
    best: Optional[int] = None
    while frontier[0] and frontier[1] and depth[0] + depth[1] < cap:
        if best is not None and best <= depth[0] + depth[1]:
            break
        side = 0 if len(frontier[0]) <= len(frontier[1]) else 1
        other = 1 - side
        grown: list[V] = []
        for x in frontier[side]:
            for w in g.neighbors(x):
                edges += 1
                if w not in dist[side]:
                    dist[side][w] = depth[side] + 1
                    opposite = dist[other].get(w)
                    if opposite is not None:
                        cand = depth[side] + 1 + opposite
                        if best is None or cand < best:
                            best = cand
                    if len(dist[0]) + len(dist[1]) > max_visited:
                        raise BudgetExceededError(
                            len(dist[0]) + len(dist[1]), edges, depth[side] + 1
                        )
                    grown.append(w)
        frontier[side] = grown
        depth[side] += 1
    if best is not None and best <= cap:
        return best
    return AtLeast(cap + 1)


def ball(
    g: ImplicitGraph[V],
    center: V,
    radius: int,
    *,
    max_visited: int = DEFAULT_MAX_VISITED,
) -> dict[V, int]:
    """Exactly the vertices within the radius under the graph's caps.

    Returns a map vertex -> exact distance.  Raises BudgetExceededError
    (with statistics, no partial result) past the vertex budget.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    _require_vertex(g, center)
    dist, _, _ = _expand(g, center, radius, max_visited)
    return dist


def _distance_cap_error(g: ImplicitGraph[V], u: V, v: V, cap: int) -> DistanceCapError:
    """What a geodesic query raises when d(u, v) exceeds the cap."""
    return DistanceCapError(
        f"distance({g.serialize_vertex(u)}, {g.serialize_vertex(v)}) {AtLeast(cap + 1)}"
    )


def _geodesic_search(
    g: ImplicitGraph[V], u: V, v: V, cap: int, max_visited: int
) -> tuple[Optional[list[V]], int, int]:
    """One BFS from v that stops at u: (geodesic, or None past the cap; visited; edges).

    Each step goes to the first neighbor in oracle order one level closer
    to v.  When the search stops at u, at distance d, every level below d
    is complete, so the path is the one a full ball around v gives.
    """
    if u == v:
        return [u], 1, 0
    from_target, hit, edges = _expand(g, v, cap, max_visited, stop_at=u)
    if hit is None:
        return None, len(from_target), edges
    return _least_geodesic(g, from_target, u), len(from_target), edges


def _least_geodesic(g: ImplicitGraph[V], levels: dict[V, int], u: V) -> list[V]:
    """The least geodesic from u to the center of a BFS level map: each step
    goes to the first neighbor in oracle order one level lower.

    Every level below u's must be complete, as in a ball that holds u or a
    search from the center that stopped at u.
    """
    path = [u]
    for remaining in range(levels[u], 0, -1):
        for w in g.neighbors(path[-1]):
            if levels.get(w) == remaining - 1:
                path.append(w)
                break
        else:  # pragma: no cover - violates BFS correctness
            raise EngineError("geodesic reconstruction lost the target level")
    return path


def geodesic(
    g: ImplicitGraph[V],
    u: V,
    v: V,
    cap: int,
    *,
    max_visited: int = DEFAULT_MAX_VISITED,
) -> list[V]:
    """A shortest path from u to v, deterministic under the oracle order.

    Among all geodesics this returns the lexicographically least one with
    respect to the graph's vertex order (Stern-Brocot order for slope
    graphs).  Raises DistanceCapError when the distance exceeds the cap.
    One breadth-first search from v finds it.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    _require_vertex(g, u)
    _require_vertex(g, v)
    path, _, _ = _geodesic_search(g, u, v, cap, max_visited)
    if path is None:
        raise _distance_cap_error(g, u, v, cap)
    return path


@dataclass(frozen=True)
class DistanceRecord(Generic[V]):
    """One sampled pair with its exact distance (or lower bound) and witness."""

    source: V
    target: V
    distance: Distance
    path: Optional[tuple[V, ...]]


@dataclass(frozen=True)
class MetricSample(Generic[V]):
    """A batch of certified distance queries and the work they cost.

    Every finite distance is realized by a stored path whose consecutive
    entries are oracle-adjacent; ``visited`` and ``edges`` total the search
    work across the batch.
    """

    graph: str
    cap: int
    records: tuple[DistanceRecord[V], ...]
    visited: int
    edges: int


def sample_distances(
    g: ImplicitGraph[V],
    pairs: Iterable[tuple[V, V]],
    cap: int,
    *,
    max_visited: int = DEFAULT_MAX_VISITED,
) -> MetricSample[V]:
    """Distance plus a witness geodesic for each vertex pair, one search each."""
    records = []
    visited = edges = 0
    for u, v in pairs:
        _require_vertex(g, u)
        _require_vertex(g, v)
        path, seen, scanned = _geodesic_search(g, u, v, cap, max_visited)
        visited += seen
        edges += scanned
        if path is None:
            records.append(DistanceRecord(u, v, AtLeast(cap + 1), None))
        else:
            records.append(DistanceRecord(u, v, len(path) - 1, tuple(path)))
    return MetricSample(g.name, cap, tuple(records), visited, edges)


# --- deterministic export ---------------------------------------------------


def _json_array(items: Sequence[str], level: int = 1) -> str:
    """Encoded items as ``json.dumps(indent=2)`` lays out a list nested
    ``level`` deep.  The JSON writers (here and in :mod:`flatcert.certify`)
    fix their layouts with it, so that only strings go through json's C
    escaper."""
    if not items:
        return "[]"
    indent = "\n" + "  " * (level + 1)
    return f"[{indent}{(',' + indent).join(items)}\n{'  ' * level}]"


@dataclass(frozen=True)
class GraphDocument:
    """A finite, sorted snapshot of graph data for DOT/JSON export.

    JSON schema: {"graph": name, "vertices": [strings],
    "edges": [[i, j], ...] (indices into vertices, i < j),
    "distances": [[u, v, d], ...]} with d an integer or ">=b" for a
    lower bound.  Output is bit-exact across runs.
    """

    graph: str
    vertices: tuple[str, ...]
    edges: tuple[tuple[int, int], ...]
    distances: tuple[tuple[str, str, Union[int, str]], ...]

    def to_json(self) -> str:
        """The schema above, byte for byte as ``json.dumps`` with ``indent=2``
        and ``sort_keys=True`` writes it, plus a newline.

        With ``indent`` json falls back to its pure-Python encoder; the
        layout is fixed, so only the strings go through json's C escaper.
        """
        text = encode_basestring_ascii
        distances = [
            f"[\n      {text(u)},\n      {text(v)},\n      "
            f"{text(d) if isinstance(d, str) else d}\n    ]"
            for u, v, d in self.distances
        ]
        edges = [f"[\n      {i},\n      {j}\n    ]" for i, j in self.edges]
        return (
            f'{{\n  "distances": {_json_array(distances)},\n  "edges": {_json_array(edges)},\n'
            f'  "graph": {text(self.graph)},\n'
            f'  "vertices": {_json_array([text(v) for v in self.vertices])}\n}}\n'
        )

    @classmethod
    def from_json(cls, text: str) -> "GraphDocument":
        payload = json.loads(text)
        return cls(
            graph=payload["graph"],
            vertices=tuple(payload["vertices"]),
            edges=tuple((int(i), int(j)) for i, j in payload["edges"]),
            distances=tuple(
                (str(u), str(v), d if isinstance(d, int) else str(d))
                for u, v, d in payload["distances"]
            ),
        )

    def to_dot(self) -> str:
        lines = [f'graph "{self.graph}" {{']
        for label in self.vertices:
            lines.append(f'  "{label}";')
        for i, j in self.edges:
            lines.append(f'  "{self.vertices[i]}" -- "{self.vertices[j]}";')
        lines.append("}")
        return "\n".join(lines) + "\n"


def document_from_ball(
    g: ImplicitGraph[V],
    center: V,
    radius: int,
    *,
    max_visited: int = DEFAULT_MAX_VISITED,
) -> GraphDocument:
    """Snapshot of a metric ball: members, induced edges, center distances."""
    dist = ball(g, center, radius, max_visited=max_visited)
    members = sorted(dist, key=g.sort_key)
    index = {v: i for i, v in enumerate(members)}
    edges = set()
    for v in members:
        for w in g.neighbors(v):
            if w in index and v != w:
                i, j = index[v], index[w]
                edges.add((i, j) if i < j else (j, i))
    center_s = g.serialize_vertex(center)
    return GraphDocument(
        graph=g.name,
        vertices=tuple(g.serialize_vertex(v) for v in members),
        edges=tuple(sorted(edges)),
        distances=tuple((center_s, g.serialize_vertex(v), dist[v]) for v in members),
    )
