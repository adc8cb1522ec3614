"""The Farey graph, and its strong product with the twist line.

The Farey graph is the arc graph of a one-holed torus: vertices are
canonical slopes, edges join slopes with cross determinant 1.  Every vertex
has infinite degree, so the graph carries an explicit height cap: it is the
subgraph induced on slopes of height at most the cap.  The cap never
changes a distance between vertices (the ladder-height lemma,
``docs/ladder.md``), so a distance is :func:`farey_distance` clipped at the
distance cap, and only a geodesic walks the ladder.  The twisted
disk and sphere models are all :class:`TwistedGraph`, which adds a twist
step; as a strong product its distances, balls and exports follow from the
Farey factor.  Breadth-first search (:mod:`flatcert.engine`) stays the
checker of both.
"""

from __future__ import annotations

from abc import abstractmethod
from bisect import insort
from typing import Optional

from .engine import (
    DEFAULT_MAX_VISITED,
    AtLeast,
    BudgetExceededError,
    Distance,
    EngineError,
    GraphDocument,
    ImplicitGraph,
    V,
    _distance_cap_error,
    _require_vertex,
)
from .slopes import (
    Slope,
    disjoint,
    farey_distance,
    farey_neighbors,
    format_slope,
    iter_farey_neighbors,
    pairing,
    parse_slope,
    stern_brocot_key,
)


class FareyGraph(ImplicitGraph[Slope]):
    """Slopes of height <= height_cap, joined when their pairing is 1.

    ``distance`` is :func:`farey_distance` clipped at the distance cap and
    ``geodesic`` walks the ladder; both give the results and errors of
    breadth-first search without searching.
    """

    def __init__(self, height_cap: int):
        if height_cap < 1:
            raise ValueError("height_cap must be >= 1")
        super().__init__(name="farey")
        self.height_cap = height_cap

    def contains(self, v: Slope) -> bool:
        return isinstance(v, Slope) and v.height() <= self.height_cap

    def _compute_neighbors(self, v: Slope) -> list[Slope]:
        return farey_neighbors(v, self.height_cap)

    def adjacent(self, u: Slope, v: Slope) -> bool:
        return (
            u != v
            and pairing(u, v) == 1
            and self.contains(u)
            and self.contains(v)
        )

    def serialize_vertex(self, v: Slope) -> str:
        return format_slope(v)

    def parse_vertex(self, text: str) -> Slope:
        return parse_slope(text)

    def sort_key(self, v: Slope):
        return stern_brocot_key(v)

    # -- metric queries by the Farey distance and the ladder walk --

    def _ladder_distance(self, a: Slope, b: Slope) -> int:
        """The capped distance from a to b: :func:`farey_distance`."""
        return farey_distance(a, b)

    def ladder_step(
        self,
        tip: Slope,
        anchor: Slope,
        wanted: int,
        distances: Optional[dict[Slope, int]] = None,
    ) -> Optional[Slope]:
        """The Stern-Brocot-least neighbor of tip at Farey distance wanted
        from anchor, or None.

        Reads the neighbor stream (:func:`iter_farey_neighbors`) only up to
        its first hit, so a step costs no O(height cap) list and leaves the
        neighbor cache alone.  ``distances``, if given, receives the
        distance of every neighbor evaluated.
        """
        _require_vertex(self, tip)
        for candidate in iter_farey_neighbors(tip, self.height_cap):
            d = self._ladder_distance(anchor, candidate)
            if distances is not None:
                distances[candidate] = d
            if d == wanted:
                return candidate
        return None

    def distance(
        self, u: Slope, v: Slope, cap: int, *, max_visited: int = DEFAULT_MAX_VISITED
    ) -> Distance:
        """Exact distance if <= cap, else AtLeast(cap + 1): :func:`farey_distance`
        clipped at the cap, with no search.

        The height cap never changes a Farey distance (the ladder-height
        lemma, ``docs/ladder.md``).  ``max_visited`` is never consulted; it
        is accepted because every graph's ``distance`` takes it.
        """
        if cap < 1:
            raise ValueError("cap must be >= 1")
        _require_vertex(self, u)
        _require_vertex(self, v)
        d = self._ladder_distance(u, v)
        return d if d <= cap else AtLeast(cap + 1)

    def geodesic(
        self, u: Slope, v: Slope, cap: int, *, max_visited: int = DEFAULT_MAX_VISITED
    ) -> list[Slope]:
        """The lexicographically least geodesic, as :func:`engine.geodesic`
        finds it, by a ladder walk; ``max_visited`` is never consulted.

        Each step takes the first neighbor one closer to v, so a walk of
        d = :meth:`distance` steps ends on v.  A neighbor earlier in
        Stern-Brocot order is no closer to v than the tip, so breadth-first
        reconstruction picks the same step.  By the ladder-height lemma the
        next vertex of an uncapped geodesic from the tip is under the cap,
        so some neighbor always qualifies; a walk with no step would refute
        the lemma, and raises EngineError.
        """
        d = self.distance(u, v, cap)
        if isinstance(d, AtLeast):
            raise _distance_cap_error(self, u, v, cap)
        path = [u]
        for remaining in range(d - 1, -1, -1):
            step = self.ladder_step(path[-1], v, remaining)
            if step is None:
                raise EngineError(
                    f"ladder walk from {u} to {v} stuck at {path[-1]}: no neighbor at "
                    f"Farey distance {remaining} from {v}, against the ladder-height lemma"
                )
            path.append(step)
        return path


class TwistedGraph(ImplicitGraph[V]):
    """Closed Farey neighborhood x twist step in [-twist_gap, twist_gap].

    (a, k) ~ (b, l) iff the vertices are distinct, the arcs are disjoint and
    |k - l| <= twist_gap; vertices sort by (arc's Stern-Brocot key, twist).
    ``twist_gap`` is 1 in every model; only the suites' negative controls
    widen it.  Subclasses supply the codec: ``name``, ``vertex_type``,
    ``suffix`` (the text after ``p/q@k``), ``_split(v) -> (arc, twist)``
    and ``parse_vertex``.  ``vertex(arc, twist)``, the inverse of
    ``_split``, calls ``vertex_type(arc, twist)``.

    ``distance`` answers from :func:`farey_distance`, and ``ball`` and
    ``document`` from the factor graph ``farey``, by the strong-product
    metric (:meth:`_product_distance`), with the same results and errors as
    breadth-first search over the product; only the statistics of a budget
    error differ.
    """

    name: str
    vertex_type: type
    suffix: str
    twist_gap = 1

    def __init__(self, height_cap: int):
        if height_cap < 1:
            raise ValueError("height_cap must be >= 1")
        super().__init__(name=self.name)
        self.height_cap = height_cap
        self.farey = FareyGraph(height_cap)

    @abstractmethod
    def _split(self, v: V) -> tuple[Slope, int]: ...

    def vertex(self, arc: Slope, twist: int) -> V:
        return self.vertex_type(arc, twist)

    def serialize_vertex(self, v: V) -> str:
        arc, k = self._split(v)
        return f"{format_slope(arc)}@{k}{self.suffix}"

    def contains(self, v: V) -> bool:
        return (
            isinstance(v, self.vertex_type)
            and self._split(v)[0].height() <= self.height_cap
        )

    def _compute_neighbors(self, v: V) -> list[V]:
        # farey_neighbors is in Stern-Brocot order, so with the arc itself
        # inserted in place and twists ascending this is sort_key order.
        arc, k = self._split(v)
        bases = farey_neighbors(arc, self.height_cap)
        insort(bases, arc, key=stern_brocot_key)
        steps = range(-self.twist_gap, self.twist_gap + 1)
        make = self.vertex
        return [make(b, k + dk) for b in bases for dk in steps if dk or b is not arc]

    def adjacent(self, u: V, v: V) -> bool:
        (a, k), (b, l) = self._split(u), self._split(v)
        return (
            u != v
            and disjoint(a, b)
            and abs(k - l) <= self.twist_gap
            and self.contains(u)
            and self.contains(v)
        )

    def sort_key(self, v: V):
        arc, k = self._split(v)
        return (stern_brocot_key(arc), k)

    # -- metric queries from the Farey factor --

    def _product_distance(self, arc_d: int, dk: int) -> int:
        """max(arc distance, twist steps): the strong-product metric.

        A twist difference dk takes ceil(|dk| / twist_gap) steps.
        """
        return max(arc_d, -(-abs(dk) // self.twist_gap))

    def distance(
        self, u: V, v: V, cap: int, *, max_visited: int = DEFAULT_MAX_VISITED
    ) -> Distance:
        """Exact distance if <= cap, else AtLeast(cap + 1): the product of
        the arcs' :func:`farey_distance` and the twist steps, clipped at the
        cap.  ``max_visited`` is never consulted; see :meth:`FareyGraph.distance`.
        """
        if cap < 1:
            raise ValueError("cap must be >= 1")
        _require_vertex(self, u)
        _require_vertex(self, v)
        (a, k), (b, l) = self._split(u), self._split(v)
        d = self._product_distance(farey_distance(a, b), k - l)
        return d if d <= cap else AtLeast(cap + 1)

    def _factor_ball(
        self, center: V, radius: int, max_visited: int
    ) -> tuple[list[Slope], list[list[int]], int, range]:
        """The arcs of the Farey ball around center's arc in Stern-Brocot
        order, each arc's row of product distances by twist offset, center's
        twist and the twist offsets.

        A row depends only on the arc's Farey distance, so arcs at one
        distance share one row.  Raises BudgetExceededError exactly when
        breadth-first search over the product would: the product ball has
        more than max_visited vertices (a lone center never counts).  The
        error reports the product ball's size as visited, and no product
        edges scanned.
        """
        if radius < 0:
            raise ValueError("radius must be >= 0")
        _require_vertex(self, center)
        arc, k = self._split(center)
        arcs = self.farey.ball(arc, radius, max_visited=max_visited)
        reach = radius * self.twist_gap
        offsets = range(-reach, reach + 1)
        size = len(arcs) * len(offsets)
        if size > max(max_visited, 1):
            raise BudgetExceededError(size, 0, radius)
        product = self._product_distance
        rows = [[product(d, dk) for dk in offsets] for d in range(radius + 1)]
        order = sorted(arcs, key=stern_brocot_key)
        return order, [rows[arcs[b]] for b in order], k, offsets

    def ball(
        self, center: V, radius: int, *, max_visited: int = DEFAULT_MAX_VISITED
    ) -> dict[V, int]:
        """Vertex -> distance within the radius, in (distance, sort_key) order.

        The arcs are sorted once; each distance's vertices are collected in
        arc order with twists ascending, so no product vertex is sorted.
        """
        order, rows, k, offsets = self._factor_ball(center, radius, max_visited)
        levels: dict[int, list[V]] = {}
        make = self.vertex
        for b, row in zip(order, rows):
            for dk, d in zip(offsets, row):
                levels.setdefault(d, []).append(make(b, k + dk))
        return {v: d for d in sorted(levels) for v in levels[d]}

    def document(
        self, center: V, radius: int, *, max_visited: int = DEFAULT_MAX_VISITED
    ) -> GraphDocument:
        # Members sort by arc, then twist, so (arc p, offset x) has index
        # p * width + x.  Edges leave i = (p, x) upward to later twists of
        # arc p, then to twists x +- gap of each later adjacent arc q: in
        # that order j ascends, so the edge list comes out sorted.  A label
        # is its arc's text plus its offset's "@twist" text.
        order, rows, k, offsets = self._factor_ball(center, radius, max_visited)
        index = {b: p for p, b in enumerate(order)}
        width, gap = len(offsets), self.twist_gap
        edges = []
        for p, b in enumerate(order):
            later = [index[w] * width for w in self.farey.neighbors(b) if index.get(w, -1) > p]
            for x in range(width):
                i, lo, hi = p * width + x, max(x - gap, 0), min(x + gap + 1, width)
                edges += [(i, p * width + y) for y in range(x + 1, hi)]
                for base in later:
                    edges += [(i, base + y) for y in range(lo, hi)]
        twists = [f"@{k + dk}{self.suffix}" for dk in offsets]
        labels = tuple(arc + twist for arc in map(format_slope, order) for twist in twists)
        center_s = self.serialize_vertex(center)
        dists = (d for row in rows for d in row)
        return GraphDocument(
            graph=self.name,
            vertices=labels,
            edges=tuple(edges),
            distances=tuple((center_s, s, d) for s, d in zip(labels, dists)),
        )
