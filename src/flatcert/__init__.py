"""Exact twist-decorated disk and sphere graph models over the Farey graph.

The package models arcs on a one-holed torus by reduced slopes, decorates
them with spot-twisting data, runs exact BFS over the resulting implicit
graphs, and certifies that twisted grids carry the max product metric on
the nose.
"""

from .engine import (
    AtLeast,
    BudgetExceededError,
    DistanceCapError,
    Distance,
    GraphDocument,
    ImplicitGraph,
    InvalidVertexError,
    MetricSample,
    ball,
    bfs_distance,
    bidirectional_distance,
    document_from_ball,
    document_from_sample,
    geodesic,
    sample_distances,
)
from .certify import (
    CertificationError,
    FlatCertificate,
    RayExtensionError,
    certify_flat,
    extend_geodesic_ray,
)
from .fareygraph import FareyGraph, TwistedGraph
from .handlebody import (
    IBundleDisk,
    SpottedDisk,
    SpottedDiskGraph,
    annular_intersection,
    base_arc,
    disk_coordinates,
    disk_from_coordinates,
    embed_disk,
    format_spotted_disk,
    ibundle_over_arc,
    l1_distance,
    leading_arc,
    parse_spotted_disk,
    push_disk,
    twist_coordinate,
)
from .slopes import (
    INFINITY,
    ArcSystem,
    Slope,
    SpottedArc,
    TwistUnit,
    UnitError,
    canonicalize,
    disjoint,
    farey_distance,
    farey_neighbors,
    format_slope,
    format_spotted_arc,
    half_twist,
    iter_farey_neighbors,
    pairing,
    parse_slope,
    parse_spotted_arc,
    point_push,
    spot_forget,
    stern_brocot_key,
)
from .spheres import (
    SphereGraph,
    SpottedArcGraph,
    SpottedSphere,
    arc_of_sphere,
    format_spotted_sphere,
    intersection_circles,
    parse_spotted_sphere,
    sphere_over_arc,
    sphere_spot_forget,
)
from .suites import INJECTIONS, SUITE_NAMES, CheckResult, SuiteReport, run_suite

__version__ = "0.1.0"
