"""Command-line interface.

Exit codes: 0 success, 1 property failure, 2 usage error, 3 budget
exceeded.  Defaults can be set in a TOML-style config file (a [defaults]
section of `key = value` lines; command-line flags win)::

    [defaults]
    height-cap = 16
    cap = 16
    rng-seed = 0
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path
from typing import Optional

from . import engine
from .certify import (
    MODELS,
    CertificationError,
    RayExtensionError,
    certify_flat,
)
from .engine import BudgetExceededError, DistanceCapError, InvalidVertexError
from .fareygraph import FareyGraph
from .handlebody import annular_intersection, parse_spotted_disk, push_disk
from .slopes import parse_int, parse_slope, parse_spotted_arc, point_push
from .spheres import SpottedArcGraph, intersection_circles
from .suites import INJECTIONS, SUITE_NAMES, run_suite

_BUILTIN_DEFAULTS = {
    "cap": 16,
    "height-cap": 16,
    "certify-height-cap": 128,
    "rng-seed": 0,
    "max-visited": engine.DEFAULT_MAX_VISITED,
}

GRAPHS = {"farey": FareyGraph, **MODELS, "spotted-arc": SpottedArcGraph}
GRAPH_KINDS = tuple(GRAPHS)


class UsageError(ValueError):
    pass


def load_config(path: str) -> dict:
    """Read a TOML-subset config: sections, `key = value`, # comments."""
    values: dict = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line or line.startswith("["):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise UsageError(f"bad config line: {raw!r}")
        key = key.strip().replace("_", "-")
        value = value.strip().strip("\"'")
        try:
            values[key] = parse_int(value)
        except ValueError:
            values[key] = value
    return values


def _resolve(args, config: dict, attr: str, key: str):
    flag = getattr(args, attr, None)
    if flag is not None:
        return flag
    if key in config:
        if not isinstance(config[key], int):
            raise UsageError(f"config value {key} = {config[key]!r} is not a decimal integer")
        return config[key]
    return _BUILTIN_DEFAULTS[key]


def build_graph(kind: str, height_cap: int):
    if kind not in GRAPHS:
        raise UsageError(f"unknown graph {kind!r}; expected one of {GRAPH_KINDS}")
    return GRAPHS[kind](height_cap)


class _Parser(argparse.ArgumentParser):
    """Reads any token that starts with "-" and a digit as an argument.

    argparse takes only plain negative numbers such as -2 for positionals
    or option values (its ``_negative_number_matcher``), so a negative
    slope (-2/5) or spotted arc (-2/5@3) would be read as an unknown
    option.  No flatcert option starts with a digit.  Subparsers inherit
    the parser class, so this holds for every subcommand.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\d")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="flatcert",
        description="Exact distances, balls and certified flat grids in "
        "twist-decorated disk and sphere graph models.",
    )
    parser.add_argument("--config", help="TOML-style defaults file")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_caps(p, height_help="arc height cap"):
        p.add_argument("--cap", type=parse_int, help="distance search cap")
        p.add_argument("--height-cap", type=parse_int, help=height_help)
        p.add_argument("--max-visited", type=parse_int, help="vertex budget per search")

    farey = sub.add_parser("farey", help="distances in the slope graph")
    farey_sub = farey.add_subparsers(dest="subcommand", required=True)
    fd = farey_sub.add_parser("dist", help="exact distance between two slopes")
    fd.add_argument("a")
    fd.add_argument("b")
    add_caps(fd)
    fg = farey_sub.add_parser("geodesic", help="lexicographically least geodesic")
    fg.add_argument("a")
    fg.add_argument("b")
    add_caps(fg)

    omega = sub.add_parser("omega", help="distances in the spotted-disk graph")
    omega_sub = omega.add_subparsers(dest="subcommand", required=True)
    od = omega_sub.add_parser("dist", help="exact distance between spotted disks p/q@k")
    od.add_argument("x")
    od.add_argument("y")
    add_caps(od)
    ob = omega_sub.add_parser("ball", help="exact ball around a spotted disk")
    ob.add_argument("x")
    ob.add_argument("radius", type=parse_int)
    add_caps(ob)

    push = sub.add_parser("push", help="apply n spot pushes to an arc or disk")
    push.add_argument("x", help="p/q@k, p/q@k:full or p/q@h:half")
    push.add_argument("n", type=parse_int)

    intersect = sub.add_parser("intersect", help="exact intersection counts")
    intersect_sub = intersect.add_subparsers(dest="subcommand", required=True)
    ia = intersect_sub.add_parser("annular", help="twisted disk intersections")
    ia.add_argument("k", type=parse_int)
    ia.add_argument("l", type=parse_int)

    sphere = sub.add_parser("sphere", help="sphere-model counts")
    sphere_sub = sphere.add_subparsers(dest="subcommand", required=True)
    sc = sphere_sub.add_parser("circles", help="intersection circles of twisted spheres")
    sc.add_argument("h", type=parse_int)
    sc.add_argument("h2", type=parse_int)

    cert = sub.add_parser("certify-flat", help="certify an exact max-metric grid")
    cert.add_argument("--n", type=parse_int, default=6, help="grid size (default 6)")
    cert.add_argument("--seed", default="0/1,1/0", help="seed slope pair a,b")
    cert.add_argument("--model", choices=MODELS, default="omega")
    cert.add_argument("--rng-seed", type=parse_int, help="seed for spot-check sampling")
    cert.add_argument("--out", help="write certificate JSON here (default stdout)")
    add_caps(cert)

    suite = sub.add_parser("suite", help="run a named property suite")
    suite.add_argument("name", choices=SUITE_NAMES)
    suite.add_argument("--inject", choices=sorted(INJECTIONS), help="failure injection")
    suite.add_argument("--rng-seed", type=parse_int)

    export = sub.add_parser("export", help="export a ball as DOT or JSON")
    export.add_argument("--graph", required=True, choices=GRAPH_KINDS)
    export.add_argument("--center", required=True)
    export.add_argument("--radius", type=parse_int, required=True)
    export.add_argument("--format", choices=("dot", "json"), default="json")
    export.add_argument("--out")
    export.add_argument("--height-cap", type=parse_int)
    export.add_argument("--max-visited", type=parse_int)

    return parser


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _run(args, config: dict) -> int:
    cap = _resolve(args, config, "cap", "cap")
    height_cap = _resolve(args, config, "height_cap", "height-cap")
    max_visited = _resolve(args, config, "max_visited", "max-visited")

    if args.command == "farey":
        g = FareyGraph(height_cap)
        a, b = parse_slope(args.a), parse_slope(args.b)
        if args.subcommand == "dist":
            print(g.distance(a, b, cap, max_visited=max_visited))
        else:
            path = g.geodesic(a, b, cap, max_visited=max_visited)
            print(" ".join(g.serialize_vertex(v) for v in path))
        return 0

    if args.command == "omega":
        g = build_graph("omega", height_cap)
        x = g.parse_vertex(args.x)
        if args.subcommand == "dist":
            y = g.parse_vertex(args.y)
            print(g.distance(x, y, cap, max_visited=max_visited))
        else:
            # The twisted graph's ball is already in (distance, sort_key) order.
            members = g.ball(x, args.radius, max_visited=max_visited)
            label = g.serialize_vertex
            sys.stdout.write("".join(f"{label(v)} {d}\n" for v, d in members.items()))
        return 0

    if args.command == "push":
        text = args.x.strip()
        if text.endswith(":full") or text.endswith(":half"):
            print(point_push(parse_spotted_arc(text), args.n))
        else:
            print(push_disk(parse_spotted_disk(text), args.n))
        return 0

    if args.command == "intersect":
        print(annular_intersection(args.k, args.l))
        return 0

    if args.command == "sphere":
        print(intersection_circles(args.h, args.h2))
        return 0

    if args.command == "certify-flat":
        try:
            a_text, b_text = args.seed.split(",", 1)
        except ValueError as exc:
            raise UsageError(f"--seed must be two slopes a,b: {args.seed!r}") from exc
        seed_pair = (parse_slope(a_text), parse_slope(b_text))
        if getattr(args, "height_cap", None) is None and "height-cap" not in config:
            height_cap = _BUILTIN_DEFAULTS["certify-height-cap"]
        cert = certify_flat(
            args.n,
            seed_pair,
            model=args.model,
            distance_cap=cap,
            height_cap=height_cap,
            rng_seed=_resolve(args, config, "rng_seed", "rng-seed"),
            max_visited=max_visited,
        )
        _emit(cert.to_json(), args.out)
        print(
            f"certified {cert.grid_size + 1}x{cert.grid_size + 1} grid in "
            f"{cert.model}: max-metric constants {cert.linf_constants}, "
            f"l1 constants {cert.l1_constants}",
            file=sys.stderr,
        )
        return 0

    if args.command == "suite":
        report = run_suite(
            args.name,
            rng_seed=_resolve(args, config, "rng_seed", "rng-seed"),
            inject=args.inject,
        )
        for r in report.results:
            print(f"[{'PASS' if r.passed else 'FAIL'}] {r.suite}/{r.group}: {r.detail}")
        failed = sum(1 for r in report.results if not r.passed)
        print(f"suite {report.suite}: {len(report.results) - failed} passed, {failed} failed")
        return 0 if report.passed else 1

    if args.command == "export":
        g = build_graph(args.graph, height_cap)
        center = g.parse_vertex(args.center)
        doc = g.document(center, args.radius, max_visited=max_visited)
        _emit(doc.to_json() if args.format == "json" else doc.to_dot(), args.out)
        return 0

    raise UsageError(f"unknown command {args.command!r}")  # pragma: no cover


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config) if args.config else {}
        return _run(args, config)
    except (UsageError, ValueError, InvalidVertexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (BudgetExceededError, DistanceCapError, RayExtensionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except CertificationError as exc:
        print(f"certification failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
