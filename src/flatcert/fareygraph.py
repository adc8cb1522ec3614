"""The Farey graph, and its strong product with the twist line.

The Farey graph is the arc graph of a one-holed torus: vertices are
canonical slopes, edges join slopes with cross determinant 1.  Every vertex
has infinite degree, so the graph carries an explicit height cap: it is the
subgraph induced on slopes of height at most the cap.  The twisted disk and
sphere models are all :class:`TwistedGraph`, which adds a twist step.
"""

from __future__ import annotations

from abc import abstractmethod
from bisect import insort

from .engine import ImplicitGraph, V
from .slopes import (
    Slope,
    disjoint,
    farey_neighbors,
    format_slope,
    pairing,
    parse_slope,
    stern_brocot_key,
)


class FareyGraph(ImplicitGraph[Slope]):
    """Slopes of height <= height_cap, joined when their pairing is 1."""

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


class TwistedGraph(ImplicitGraph[V]):
    """Closed Farey neighborhood x twist step in [-twist_gap, twist_gap].

    (a, k) ~ (b, l) iff the vertices are distinct, the arcs are disjoint and
    |k - l| <= twist_gap; vertices sort by (arc's Stern-Brocot key, twist).
    ``twist_gap`` is 1 in every model; only the suites' negative controls
    widen it.  Subclasses supply the codec: ``name``, ``vertex_type``,
    ``_split(v) -> (arc, twist)``, ``serialize_vertex`` and
    ``parse_vertex``.  ``vertex(arc, twist)``, the inverse of ``_split``,
    calls ``vertex_type(arc, twist)``.
    """

    name: str
    vertex_type: type
    twist_gap = 1

    def __init__(self, height_cap: int):
        if height_cap < 1:
            raise ValueError("height_cap must be >= 1")
        super().__init__(name=self.name)
        self.height_cap = height_cap

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
