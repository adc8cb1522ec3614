"""Sphere model for the doubled handlebody with one marked point.

Doubling the thickened arc over an arc of the base surface gives an
embedded sphere; sliding an arc endpoint across the marked boundary point
is a half twist, and two half twists amount to one full push of the point.
The model graphs on (arc, half-twists) pairs are the disk model's
:class:`~flatcert.fareygraph.TwistedGraph`, with the twist unit carried in
the vertex type so the two cannot be mixed; this module gives their codecs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fareygraph import TwistedGraph
from .slopes import (
    Slope,
    SpottedArc,
    TwistUnit,
    UnitError,
    format_slope,
    parse_int,
    parse_slope,
    parse_spotted_arc,
)


@dataclass(frozen=True)
class SpottedSphere:
    """Sphere over an arc, decorated with a half-twist count."""

    arc: Slope
    half_twists: int

    def __str__(self) -> str:
        return format_spotted_sphere(self)


def sphere_over_arc(x: SpottedArc) -> SpottedSphere:
    """Double the thickened arc into a sphere; injective on half-unit arcs."""
    if x.unit is not TwistUnit.HALF:
        raise UnitError("sphere_over_arc is defined on half-unit arcs only")
    return SpottedSphere(x.base, x.twist)


def arc_of_sphere(s: SpottedSphere) -> SpottedArc:
    """Retract a model sphere to its spotted arc; left inverse of doubling."""
    return SpottedArc(s.arc, s.half_twists, TwistUnit.HALF)


def sphere_spot_forget(s: SpottedSphere) -> Slope:
    """Forget the marked point: the underlying arc slope."""
    return s.arc


def intersection_circles(h: int, h2: int) -> int:
    """Intersection circles between two twisted spheres over one arc.

    Equals max(|h - h2| - 1, 0): one half twist still cobounds a
    product region, each further one adds a circle.
    """
    return max(abs(h - h2) - 1, 0)


class SphereGraph(TwistedGraph[SpottedSphere]):
    """Model sphere graph on the twisted doubles of arc spheres."""

    name = "sphere(g=2)"
    vertex_type = SpottedSphere
    suffix = ":sph"

    def _split(self, v: SpottedSphere) -> tuple[Slope, int]:
        return v.arc, v.half_twists

    def parse_vertex(self, text: str) -> SpottedSphere:
        return parse_spotted_sphere(text)


class SpottedArcGraph(TwistedGraph[SpottedArc]):
    """Arc graph of the surface with a marked boundary point (half units)."""

    name = "spotted-arc(g=2)"
    vertex_type = SpottedArc
    suffix = ":half"

    def _split(self, v: SpottedArc) -> tuple[Slope, int]:
        return v.base, v.twist

    def vertex(self, arc: Slope, twist: int) -> SpottedArc:
        return SpottedArc(arc, twist, TwistUnit.HALF)

    def contains(self, v) -> bool:
        return super().contains(v) and v.unit is TwistUnit.HALF

    def parse_vertex(self, text: str) -> SpottedArc:
        arc = parse_spotted_arc(text)
        if arc.unit is not TwistUnit.HALF:
            raise ValueError(f"not a half-unit arc: {text!r}")
        return arc


# --- text format: SpottedSphere is "p/q@h:sph" -------------------------------


def format_spotted_sphere(s: SpottedSphere) -> str:
    return f"{format_slope(s.arc)}@{s.half_twists}:sph"


def parse_spotted_sphere(text: str) -> SpottedSphere:
    t = text.strip()
    if not t.endswith(":sph"):
        raise ValueError(f"not a spotted sphere: {text!r}")
    body = t[: -len(":sph")]
    arc_part, sep, twist_part = body.rpartition("@")
    if not sep:
        raise ValueError(f"not a spotted sphere: {text!r}")
    try:
        return SpottedSphere(parse_slope(arc_part), parse_int(twist_part))
    except ValueError as exc:
        raise ValueError(f"not a spotted sphere: {text!r}") from exc
