"""Twist-decorated disk model for a spotted genus-2 handlebody.

Disks meeting the fiber curve twice correspond to arcs on the one-holed
torus base, so the unspotted model is the Farey graph.  Pushing the spot
around the annulus between the two lifts of the fiber curve adds an integer
twist coordinate; the resulting graph on (arc, twists) pairs carries the
product metric max(arc distance, twist gap), which is what the certifier
checks.  Here are the disk type, its coordinates and text format ``p/q@k``;
the graph rule is :class:`~flatcert.fareygraph.TwistedGraph`'s.
"""

from __future__ import annotations

from dataclasses import dataclass

from .engine import Distance, AtLeast
from .fareygraph import FareyGraph, TwistedGraph
from .slopes import (
    ArcSystem,
    Slope,
    format_slope,
    parse_int,
    parse_slope,
    stern_brocot_key,
)


@dataclass(frozen=True)
class IBundleDisk:
    """Disk in the unspotted handlebody: the thickening of an arc."""

    arc: Slope


@dataclass(frozen=True)
class SpottedDisk:
    """Disk in the spotted handlebody: an arc disk pushed k full twists."""

    arc: Slope
    twists: int

    def __str__(self) -> str:
        return format_spotted_disk(self)


def ibundle_over_arc(arc: Slope) -> IBundleDisk:
    """The disk traced out by thickening an arc; a bijection onto arc disks."""
    return IBundleDisk(arc)


def embed_disk(d: IBundleDisk) -> SpottedDisk:
    """Embed an unspotted disk as the untwisted spotted disk over its arc."""
    return SpottedDisk(d.arc, 0)


def push_disk(x: SpottedDisk, n: int) -> SpottedDisk:
    """Push the spot n full turns; a graph automorphism shifting twists by n."""
    return SpottedDisk(x.arc, x.twists + n)


def base_arc(x: SpottedDisk) -> Slope:
    """Retract a spotted disk to its arc; kills all twisting."""
    return x.arc


def twist_coordinate(x: SpottedDisk) -> int:
    """The twist count of a spotted disk (exact in this model)."""
    return x.twists


def disk_coordinates(x: SpottedDisk) -> tuple[Slope, int]:
    """(arc, twists): a bijection onto pairs, inverse of disk_from_coordinates."""
    return (base_arc(x), twist_coordinate(x))


def disk_from_coordinates(arc: Slope, twists: int) -> SpottedDisk:
    return SpottedDisk(arc, twists)


def leading_arc(system: ArcSystem) -> Slope:
    """Deterministic choice of a component of a disk's boundary trace.

    Takes the Stern-Brocot-least slope; a singleton system yields its
    element, and any two admissible choices from one system are disjoint
    because the system is.
    """
    return min(system.arcs, key=stern_brocot_key)


def annular_intersection(k: int, ell: int) -> int:
    """Essential intersections between the k- and ell-fold twists of one disk.

    Equals max(2|k - ell| - 2, 0): twist gaps of at most one are
    realizable disjointly, and each further turn adds two crossings in the
    annulus around the spot.
    """
    return max(2 * abs(k - ell) - 2, 0)


class SpottedDiskGraph(TwistedGraph[SpottedDisk]):
    """The union of all twisted copies of the arc-disk family, as a graph.

    ``twist_gap`` widens the twist rule and exists only so the verification
    suite can prove it would catch a wrong rule.
    """

    name = "omega(g=2)"
    vertex_type = SpottedDisk
    suffix = ""

    def __init__(self, height_cap: int, *, twist_gap: int = 1):
        super().__init__(height_cap)
        if twist_gap < 1:
            raise ValueError("twist_gap must be >= 1")
        self.twist_gap = twist_gap

    def _split(self, v: SpottedDisk) -> tuple[Slope, int]:
        return v.arc, v.twists

    def parse_vertex(self, text: str) -> SpottedDisk:
        return parse_spotted_disk(text)


def l1_distance(farey: FareyGraph, x: SpottedDisk, y: SpottedDisk, cap: int) -> Distance:
    """Arc distance plus twist gap: the l1 product metric on coordinates.

    The arc distance is ``farey.distance``, the Farey distance clipped
    at the cap.  Compares two-sidedly with the graph metric: d <= l1 <= 2 d.
    """
    gap = abs(x.twists - y.twists)
    d = farey.distance(x.arc, y.arc, cap)
    if isinstance(d, AtLeast):
        return AtLeast(d.bound + gap)
    return d + gap


# --- text format: SpottedDisk is "p/q@k" ------------------------------------


def format_spotted_disk(x: SpottedDisk) -> str:
    return f"{format_slope(x.arc)}@{x.twists}"


def parse_spotted_disk(text: str) -> SpottedDisk:
    t = text.strip()
    arc_part, sep, twist_part = t.rpartition("@")
    if not sep:
        raise ValueError(f"not a spotted disk: {text!r}")
    try:
        return SpottedDisk(parse_slope(arc_part), parse_int(twist_part))
    except ValueError as exc:
        raise ValueError(f"not a spotted disk: {text!r}") from exc
