"""The Farey graph, and its strong product with the twist line.

The Farey graph is the arc graph of a one-holed torus: vertices are
canonical slopes, edges join slopes with cross determinant 1.  Every vertex
has infinite degree, so the graph carries an explicit height cap: it is the
subgraph induced on slopes of height at most the cap.  Its distances and
geodesics come from a ladder walk: :func:`farey_distance` bounds the capped
distance from below, and a path that meets the bound pins it.  The twisted
disk and sphere models are all :class:`TwistedGraph`, which adds a twist
step; as a strong product its distances, balls and exports follow from the
Farey factor.  Breadth-first search (:mod:`flatcert.engine`) stays the
checker of both.
"""

from __future__ import annotations

from abc import abstractmethod
from bisect import insort
from typing import Optional, Union

from . import engine
from .engine import (
    DEFAULT_MAX_VISITED,
    AtLeast,
    BudgetExceededError,
    Distance,
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

    ``distance`` and ``geodesic`` answer by a ladder walk, with the same
    results and errors as breadth-first search (:meth:`_ladder_walk`).
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

    # -- metric queries by the ladder walk --

    def _ladder_distance(self, a: Slope, b: Slope) -> int:
        """The lower bound the walk trusts: :func:`farey_distance`."""
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

    def _ladder_walk(self, u: Slope, v: Slope, cap: int) -> Union[list[Slope], AtLeast, None]:
        """The least geodesic from u to v, AtLeast(cap + 1), or None if stuck.

        d = farey_distance(u, v) is a lower bound on the capped distance;
        past the cap the answer is AtLeast(cap + 1).  Otherwise each step
        takes the first neighbor one closer to v.  A walk that reaches v is
        a capped path of length d, so it pins the capped distance at d, and
        every vertex on it at its Farey distance from v.  A neighbor earlier
        in Stern-Brocot order is at Farey distance, hence capped distance,
        at least the tip's, so breadth-first reconstruction picks the same
        step: the walk is :func:`engine.geodesic`'s path.  None means no
        neighbor qualified: the tip's capped distance to v exceeds its
        Farey distance, a counterexample to the ladder-height lemma (capping
        at the larger endpoint height keeps Farey distances).  Callers then
        fall back to breadth-first search.
        """
        if cap < 1:
            raise ValueError("cap must be >= 1")
        _require_vertex(self, u)
        _require_vertex(self, v)
        d = self._ladder_distance(u, v)
        if d > cap:
            return AtLeast(cap + 1)
        path = [u]
        for remaining in range(d - 1, -1, -1):
            step = self.ladder_step(path[-1], v, remaining)
            if step is None:
                return None
            path.append(step)
        return path

    def distance(
        self, u: Slope, v: Slope, cap: int, *, max_visited: int = DEFAULT_MAX_VISITED
    ) -> Distance:
        walk = self._ladder_walk(u, v, cap)
        if walk is None:
            return engine.bfs_distance(self, u, v, cap, max_visited=max_visited)
        return walk if isinstance(walk, AtLeast) else len(walk) - 1

    def geodesic(
        self, u: Slope, v: Slope, cap: int, *, max_visited: int = DEFAULT_MAX_VISITED
    ) -> list[Slope]:
        """The lexicographically least geodesic; as :func:`engine.geodesic`."""
        walk = self._ladder_walk(u, v, cap)
        if walk is None:
            return engine.geodesic(self, u, v, cap, max_visited=max_visited)
        if isinstance(walk, AtLeast):
            raise _distance_cap_error(self, u, v, cap)
        return walk


class TwistedGraph(ImplicitGraph[V]):
    """Closed Farey neighborhood x twist step in [-twist_gap, twist_gap].

    (a, k) ~ (b, l) iff the vertices are distinct, the arcs are disjoint and
    |k - l| <= twist_gap; vertices sort by (arc's Stern-Brocot key, twist).
    ``twist_gap`` is 1 in every model; only the suites' negative controls
    widen it.  Subclasses supply the codec: ``name``, ``vertex_type``,
    ``_split(v) -> (arc, twist)``, ``serialize_vertex`` and
    ``parse_vertex``.  ``vertex(arc, twist)``, the inverse of ``_split``,
    calls ``vertex_type(arc, twist)``.

    ``distance``, ``ball`` and ``document`` answer from the factor graph
    ``farey`` by the strong-product metric (:meth:`_product_distance`),
    with the same results and errors as breadth-first search over the
    product; only the statistics of a budget error differ.
    """

    name: str
    vertex_type: type
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

    def _product_distance(self, arc_d: Distance, dk: int) -> Distance:
        """max(arc distance, twist steps): the strong-product metric.

        A twist difference dk takes ceil(|dk| / twist_gap) steps.  ``arc_d``
        may be a lower bound, and the result is then one too.
        """
        steps = -(-abs(dk) // self.twist_gap)
        if isinstance(arc_d, AtLeast):
            return AtLeast(max(arc_d.bound, steps))
        return max(arc_d, steps)

    def distance(
        self, u: V, v: V, cap: int, *, max_visited: int = DEFAULT_MAX_VISITED
    ) -> Distance:
        if cap < 1:
            raise ValueError("cap must be >= 1")
        _require_vertex(self, u)
        _require_vertex(self, v)
        (a, k), (b, l) = self._split(u), self._split(v)
        if self._product_distance(0, k - l) > cap:
            return AtLeast(cap + 1)
        arc_d = self.farey.distance(a, b, cap, max_visited=max_visited)
        return self._product_distance(arc_d, k - l)

    def _factor_ball(
        self, center: V, radius: int, max_visited: int
    ) -> tuple[dict[Slope, int], int, range]:
        """The Farey ball of center's arc, center's twist, and the twist offsets.

        Raises BudgetExceededError exactly when breadth-first search over
        the product would: the product ball has more than max_visited
        vertices (a lone center never counts).  The error reports the
        product ball's size as visited, and no product edges scanned.
        """
        if radius < 0:
            raise ValueError("radius must be >= 0")
        _require_vertex(self, center)
        arc, k = self._split(center)
        arcs = self.farey.ball(arc, radius, max_visited=max_visited)
        reach = radius * self.twist_gap
        size = len(arcs) * (2 * reach + 1)
        if size > max(max_visited, 1):
            raise BudgetExceededError(size, 0, radius)
        return arcs, k, range(-reach, reach + 1)

    def ball(
        self, center: V, radius: int, *, max_visited: int = DEFAULT_MAX_VISITED
    ) -> dict[V, int]:
        arcs, k, offsets = self._factor_ball(center, radius, max_visited)
        make, product = self.vertex, self._product_distance
        return {make(b, k + dk): product(d, dk) for b, d in arcs.items() for dk in offsets}

    def document(
        self, center: V, radius: int, *, max_visited: int = DEFAULT_MAX_VISITED
    ) -> GraphDocument:
        # Members sort by arc, then twist, so (arc p, offset x) has index
        # p * width + x.  Edges leave i = (p, x) upward to later twists of
        # arc p, then to twists x +- gap of each later adjacent arc q: in
        # that order j ascends, so the edge list comes out sorted.
        arcs, k, offsets = self._factor_ball(center, radius, max_visited)
        order = sorted(arcs, key=stern_brocot_key)
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
        make, label, product = self.vertex, self.serialize_vertex, self._product_distance
        labels = tuple(label(make(b, k + dk)) for b in order for dk in offsets)
        dists = [product(arcs[b], dk) for b in order for dk in offsets]
        center_s = label(center)
        return GraphDocument(
            graph=self.name,
            vertices=labels,
            edges=tuple(edges),
            distances=tuple((center_s, s, d) for s, d in zip(labels, dists)),
        )
