"""Spans and counters recorded from outside the flatcert package.

The tracer replaces public functions with wrappers on the names their
callers look up (``from .slopes import farey_neighbors`` binds a second name
in each importing module; ``certify`` and ``cli`` call ``engine.ball`` as a
module attribute), so no file under ``src/`` changes.  Spans are kept in
memory and written once, after the timed region.

A span is (name, start_ns, end_ns, parent span, operation id).  Hot helpers
that run hundreds of thousands of times (``canonicalize``, the neighbor
cache, ``adjacent``) get counters instead of spans.

This module is imported by the pass process only when tracing is on, and
by the runner to turn a dump into per-layer metrics.  It uses only the
standard library.
"""

from __future__ import annotations

import importlib
import time

# span name -> the (module path, attribute) bindings to wrap.  A module path
# with a dotted class name wraps a method on that class.
SPAN_TARGETS = {
    "slopes.farey_neighbors": [
        ("flatcert.slopes", "farey_neighbors"),
        ("flatcert.fareygraph", "farey_neighbors"),
        ("flatcert.handlebody", "farey_neighbors"),
        ("flatcert.spheres", "farey_neighbors"),
        ("flatcert", "farey_neighbors"),
    ],
    "engine.ball": [("flatcert.engine", "ball"), ("flatcert", "ball")],
    "engine.bfs_distance": [("flatcert.engine", "bfs_distance"), ("flatcert", "bfs_distance")],
    "engine.bidirectional_distance": [
        ("flatcert.engine", "bidirectional_distance"),
        ("flatcert", "bidirectional_distance"),
    ],
    "engine.geodesic": [("flatcert.engine", "geodesic"), ("flatcert", "geodesic")],
    "engine.sample_distances": [
        ("flatcert.engine", "sample_distances"),
        ("flatcert", "sample_distances"),
    ],
    "engine.document_from_ball": [
        ("flatcert.engine", "document_from_ball"),
        ("flatcert.cli", "document_from_ball"),
        ("flatcert", "document_from_ball"),
    ],
    "handlebody.neighbors": [("flatcert.handlebody:SpottedDiskGraph", "_compute_neighbors")],
    "spheres.neighbors": [("flatcert.spheres:_TwistedArcRule", "_compute_neighbors")],
    "certify.certify_flat": [
        ("flatcert.certify", "certify_flat"),
        ("flatcert.cli", "certify_flat"),
        ("flatcert", "certify_flat"),
    ],
    "certify.extend_geodesic_ray": [
        ("flatcert.certify", "extend_geodesic_ray"),
        ("flatcert", "extend_geodesic_ray"),
    ],
    "certify.to_json": [("flatcert.certify:FlatCertificate", "to_json")],
    "cli.main": [("flatcert.cli", "main")],
}

# The span the runner opens around each operation, outside flatcert.
OP_SPAN = "bench.op"

COUNTER_TARGETS = {
    "slopes.canonicalize.calls": ("flatcert.slopes", "canonicalize"),
    "engine.neighbors.calls": ("flatcert.engine:ImplicitGraph", "neighbors"),
    "fareygraph.neighbors.computes": ("flatcert.fareygraph:FareyGraph", "_compute_neighbors"),
    "handlebody.adjacent.calls": ("flatcert.handlebody:SpottedDiskGraph", "adjacent"),
    "spheres.adjacent.calls": ("flatcert.spheres:_TwistedArcRule", "adjacent"),
    "engine.searches": ("flatcert.engine", "_expand"),
}

MODEL_SPANS = ("handlebody.neighbors", "spheres.neighbors")


def _resolve(path: str):
    module_name, _, class_name = path.partition(":")
    obj = importlib.import_module(module_name)
    return getattr(obj, class_name) if class_name else obj


class Tracer:
    """In-memory span and counter store with wrappers for flatcert names."""

    def __init__(self) -> None:
        self.names = [OP_SPAN] + list(SPAN_TARGETS)
        self._name_index = {n: i for i, n in enumerate(self.names)}
        # One entry per span, in start order.
        self.span_name: list[int] = []
        self.span_start: list[int] = []
        self.span_end: list[int] = []
        self.span_parent: list[int] = []
        self.span_op: list[int] = []
        self._stack: list[int] = [-1]
        self._name_stack: list[int] = [-1]
        self.op_id = -1
        self.counters: dict[str, int] = dict.fromkeys(COUNTER_TARGETS, 0)
        self.expanded = [0] * len(self.names)
        self.slopes_out = 0
        self.ball_visited = 0
        self.sample_pairs = 0
        self.sample_searches = 0
        self._in_sample = 0
        self.model_arcs: set = set()
        self.unhooked: list[str] = []
        self._saved: list[tuple[object, str, object]] = []
        self._op_span = self._span_wrapper(OP_SPAN, lambda fn: fn())

    # -- recording --

    def op(self, op_id: int, fn):
        """Run one benchmark operation fn() inside its root span."""
        self.op_id = op_id
        return self._op_span(fn)

    def _span_wrapper(self, name: str, fn):
        tracer = self
        idx = self._name_index[name]
        span_name, span_parent, span_op = self.span_name, self.span_parent, self.span_op
        span_start, span_end = self.span_start, self.span_end
        stack, name_stack = self._stack, self._name_stack
        perf = time.perf_counter_ns

        def note(args, result):
            if name == "slopes.farey_neighbors":
                tracer.slopes_out += len(result)
            elif name == "engine.ball":
                tracer.ball_visited += len(result)
            elif name in MODEL_SPANS:
                graph, v = args[0], args[1]
                arc = getattr(v, "arc", None) or getattr(v, "base", None)
                tracer.model_arcs.add((tracer.op_id, id(graph), arc))

        def wrapper(*args, **kwargs):
            if name == "engine.sample_distances":
                args = args[:1] + (list(args[1]),) + args[2:]
                tracer.sample_pairs += len(args[1])
                tracer._in_sample += 1
            sid = len(span_name)
            span_name.append(idx)
            span_parent.append(stack[-1])
            span_op.append(tracer.op_id)
            span_start.append(0)
            span_end.append(0)
            stack.append(sid)
            name_stack.append(idx)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                span_end[sid] = perf()
                span_start[sid] = start
                stack.pop()
                name_stack.pop()
                if name == "engine.sample_distances":
                    tracer._in_sample -= 1
            note(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter_wrapper(self, key: str, fn):
        tracer = self
        counters = self.counters
        if key == "engine.neighbors.calls":
            expanded, name_stack = self.expanded, self._name_stack

            def wrapper(graph, v):
                counters[key] += 1
                top = name_stack[-1]
                if top >= 0:
                    expanded[top] += 1
                return fn(graph, v)

        elif key == "engine.searches":

            def wrapper(*args, **kwargs):
                counters[key] += 1
                if tracer._in_sample:
                    tracer.sample_searches += 1
                return fn(*args, **kwargs)

        else:

            def wrapper(*args, **kwargs):
                counters[key] += 1
                return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation --

    def _patch(self, label: str, path: str, attr: str, make) -> None:
        try:
            owner = _resolve(path)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        except (ImportError, AttributeError, KeyError):
            self.unhooked.append(f"{label}: {path}.{attr}")
            return
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self) -> None:
        """Wrap every target that exists; missing ones are listed in unhooked."""
        wrappers: dict[int, object] = {}
        for name, bindings in SPAN_TARGETS.items():
            for path, attr in bindings:
                # Every binding of one function shares one wrapper.
                def make(original, name=name):
                    key = id(original)
                    if key not in wrappers:
                        wrappers[key] = self._span_wrapper(name, original)
                    return wrappers[key]

                self._patch(name, path, attr, make)
        for key, (path, attr) in COUNTER_TARGETS.items():
            self._patch(key, path, attr,
                        lambda original, key=key: self._counter_wrapper(key, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- output --

    def dump(self) -> dict:
        return {
            "names": self.names,
            "spans": [
                list(row)
                for row in zip(
                    self.span_name, self.span_start, self.span_end, self.span_parent, self.span_op
                )
            ],
            "counters": dict(self.counters),
            "expanded": dict(zip(self.names, self.expanded)),
            "slopes_out": self.slopes_out,
            "ball_visited": self.ball_visited,
            "sample_pairs": self.sample_pairs,
            "sample_searches": self.sample_searches,
            "model_arcs": len(self.model_arcs),
            "unhooked": self.unhooked,
        }


# --- runner side: dump -> per-layer metrics ----------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(dump: dict, wall_ns: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    Every ``*.self_s`` metric is the self time of one span name (its spans'
    durations minus the time their child spans cover); together with
    ``trace.unspanned_s`` they add up to ``trace.wall_s``.
    """
    names = dump["names"]
    spans = dump["spans"]
    n_names = len(names)
    total = [0] * n_names
    self_ns = [0] * n_names
    calls = [0] * n_names
    children = [0] * len(spans)
    for sid, (name, start, end, parent, _op) in enumerate(spans):
        if parent >= 0:
            children[parent] += end - start
    by_parent_name: dict[tuple[str, str], int] = {}
    roots = 0
    for sid, (name, start, end, parent, _op) in enumerate(spans):
        dur = end - start
        total[name] += dur
        self_ns[name] += dur - children[sid]
        calls[name] += 1
        if parent < 0:
            roots += dur
        else:
            key = (names[name], names[spans[parent][0]])
            by_parent_name[key] = by_parent_name.get(key, 0) + dur

    idx = {n: i for i, n in enumerate(names)}
    s = 1e-9

    def self_s(name: str) -> float:
        return self_ns[idx[name]] * s

    def total_s(name: str) -> float:
        return total[idx[name]] * s

    def count(name: str) -> int:
        return calls[idx[name]]

    c = dump["counters"]
    expanded = dump["expanded"]
    model_computes = count("handlebody.neighbors") + count("spheres.neighbors")
    all_computes = model_computes + c["fareygraph.neighbors.computes"]
    m = {
        "slopes.farey_neighbors.calls": count("slopes.farey_neighbors"),
        "slopes.farey_neighbors.self_s": self_s("slopes.farey_neighbors"),
        "slopes.farey_neighbors.slopes_out": dump["slopes_out"],
        "slopes.canonicalize.calls": c["slopes.canonicalize.calls"],
        "slopes.stern_brocot_key.hits": dump.get("sb_hits", 0),
        "slopes.stern_brocot_key.misses": dump.get("sb_misses", 0),
        "engine.neighbors.calls": c["engine.neighbors.calls"],
        "engine.neighbor_cache.hit_ratio": (
            1.0 - _ratio(all_computes, c["engine.neighbors.calls"])
            if c["engine.neighbors.calls"]
            else 0.0
        ),
        "engine.ball.self_s": self_s("engine.ball"),
        "engine.ball.visited": dump["ball_visited"],
        "engine.bfs_distance.self_s": self_s("engine.bfs_distance"),
        "engine.bfs_distance.expanded": expanded["engine.bfs_distance"],
        "engine.bidirectional_distance.self_s": self_s("engine.bidirectional_distance"),
        "engine.bidirectional_distance.expanded": expanded["engine.bidirectional_distance"],
        "engine.geodesic.self_s": self_s("engine.geodesic"),
        "engine.sample_distances.self_s": self_s("engine.sample_distances"),
        "engine.sample_distances.searches_per_pair": _ratio(
            dump["sample_searches"], dump["sample_pairs"]
        ),
        "engine.document_from_ball.self_s": self_s("engine.document_from_ball"),
        "handlebody.neighbors.self_s": self_s("handlebody.neighbors"),
        "handlebody.neighbors.computes": count("handlebody.neighbors"),
        "spheres.neighbors.self_s": self_s("spheres.neighbors"),
        "spheres.neighbors.computes": count("spheres.neighbors"),
        "models.computes_per_arc": _ratio(model_computes, dump["model_arcs"]),
        "handlebody.adjacent.calls": c["handlebody.adjacent.calls"],
        "spheres.adjacent.calls": c["spheres.adjacent.calls"],
        "certify.extend_geodesic_ray.s": total_s("certify.extend_geodesic_ray"),
        "certify.extend_geodesic_ray.self_s": self_s("certify.extend_geodesic_ray"),
        "certify.arc_matrix.s": by_parent_name.get(("engine.ball", "certify.certify_flat"), 0) * s,
        "certify.grid.self_s": self_s("certify.certify_flat"),
        "certify.spot_checks.s": by_parent_name.get(
            ("engine.bfs_distance", "certify.certify_flat"), 0
        ) * s,
        "certify.to_json.s": total_s("certify.to_json"),
        "certify.to_json.self_s": self_s("certify.to_json"),
        "cli.main.self_s": self_s("cli.main"),
        "bench.op.self_s": self_s(OP_SPAN),
        "trace.wall_s": wall_ns * s,
        "trace.unspanned_s": (wall_ns - roots) * s,
        "trace.spans": len(spans),
    }
    return m
