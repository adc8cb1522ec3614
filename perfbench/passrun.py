"""One benchmark pass: a fresh interpreter issuing one workload's operations.

Usage (from the pass's own work directory, with the package on PYTHONPATH):

    python3 passrun.py INPUTS.json plain|traced

``plain`` times every operation; ``traced`` does the same with the span
wrappers of ``spans.py`` installed.  Each operation is either a
``flatcert.cli.main(argv)`` call with stdout and stderr captured, or a call
of an exported library function on a fresh graph.  Everything the runner
needs is written to ``result.json`` (and ``spans.json`` when traced) after
the timed region.
"""

import contextlib
import gc
import io
import json
import resource
import signal
import sys
import time


def _run_cli(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors exit 2
            rc = exc.code if isinstance(exc.code, int) else 2
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _run_lib(flatcert, op):
    graph = flatcert.FareyGraph(op["height_cap"])
    parse = flatcert.parse_slope
    if op["lib"] == "bidirectional_distance":
        d = flatcert.bidirectional_distance(graph, parse(op["a"]), parse(op["b"]), op["cap"])
        return {"rc": 0, "value": d}
    if op["lib"] == "sample_distances":
        pairs = [(parse(a), parse(b)) for a, b in op["pairs"]]
        return {"rc": 0, "value": flatcert.sample_distances(graph, pairs, op["cap"])}
    raise ValueError(f"unknown library operation {op['lib']!r}")


def _plain_value(flatcert, value):
    """Text form of a library result, made after the timed region."""
    if isinstance(value, flatcert.MetricSample):
        fmt = flatcert.format_slope
        return [
            [fmt(r.source), fmt(r.target), str(r.distance),
             [fmt(v) for v in r.path] if r.path is not None else None]
            for r in value.records
        ]
    return str(value)


SAMPLE_EVERY_S = 0.05


def _calibration_loop() -> None:
    graph = {(i, i % 7): ((i * 3 % 200, 1), (i * 7 % 200, 2)) for i in range(200)}
    seen = set()
    for edges in graph.values():
        for w in edges:
            if w not in seen:
                seen.add(w)
    sorted(graph, key=lambda k: (k[1], -k[0]))


def calibration_ns() -> int:
    """Time of a small fixed pure-Python loop (about 0.1 ms), run warm.

    The loop does the kind of work the engine does (tuple keys, dict and set
    membership, sorting by a key function), so the ratio of an operation's
    time to it follows changes in the speed of a shared host.  It runs twice
    and only the second run is timed: the first pulls its code and data into
    the caches, so the time does not depend on what flatcert left there.
    """
    _calibration_loop()
    start = time.perf_counter_ns()
    _calibration_loop()
    return time.perf_counter_ns() - start


class SpeedSampler:
    """Runs the calibration loop from a SIGALRM handler every 50 ms.

    The handler runs in the main thread between bytecodes, so it samples the
    host speed on the same CPU while an operation is running, also inside a
    single multi-second call.  ``busy_ns`` is the time spent in the handler;
    callers subtract it from what they time.
    """

    def __init__(self):
        self.samples: list[tuple[int, int]] = []  # (perf_counter_ns, duration)
        self.busy_ns = 0

    def _tick(self, signum, frame):
        # The program, not the sampler, must pay for its garbage collections.
        was_enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter_ns()
        self.samples.append((start, calibration_ns()))
        self.busy_ns += time.perf_counter_ns() - start
        if was_enabled:
            gc.enable()

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def _peak_rss_kib() -> int:
    """High-water resident set of this process image.

    ``ru_maxrss`` also counts the parent's pages at fork time, since Linux
    carries the maximum across fork and exec; VmHWM belongs to the address
    space that exec created.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv):
    inputs_path, mode = argv[1], argv[2]
    import_start = time.perf_counter_ns()
    import flatcert
    import flatcert.cli as cli

    import_ns = time.perf_counter_ns() - import_start
    with open(inputs_path) as fh:
        ops = json.load(fh)["ops"]
    setup_done = time.monotonic_ns()
    # Host speed right after set-up, for scaling the set-up time.
    record = {"setup_done_ns": setup_done, "import_ns": import_ns,
              "setup_calibration_ns": sorted(calibration_ns() for _ in range(11))[5]}

    tracer = None
    sampler = SpeedSampler()
    if mode == "traced":
        from spans import Tracer  # spans.py sits next to this script

        tracer = Tracer()
        tracer.install()
        sb_before = flatcert.stern_brocot_key.cache_info()

    # Operations are timed one by one, less the time of speed samples taken
    # inside them.  Traced passes take no samples, so that spans hold only
    # flatcert's time.
    results = []
    times = []
    windows = []
    perf = time.perf_counter_ns
    with sampler if tracer is None else contextlib.nullcontext():
        for i, op in enumerate(ops):
            if "cli" in op:
                call = lambda op=op: _run_cli(cli, op["cli"])  # noqa: E731
            else:
                call = lambda op=op: _run_lib(flatcert, op)  # noqa: E731
            busy = sampler.busy_ns
            t0 = perf()
            try:
                res = tracer.op(i, call) if tracer else call()
            except Exception as exc:  # an operation that raises is a failed operation
                res = {"rc": None, "error": f"{type(exc).__name__}: {exc}"}
            t1 = perf()
            times.append(t1 - t0 - (sampler.busy_ns - busy))
            windows.append((t0, t1))
            results.append(res)
    peak_kib = _peak_rss_kib()

    for res in results:
        if "value" in res:
            res["value"] = _plain_value(flatcert, res["value"])
    record.update(wall_ns=sum(times), op_ns=times, op_windows=windows,
                  speed_samples=sampler.samples, peak_rss_kib=peak_kib, results=results)
    if tracer:
        tracer.uninstall()
        sb_after = flatcert.stern_brocot_key.cache_info()
        dump = tracer.dump()
        dump["sb_hits"] = sb_after.hits - sb_before.hits
        dump["sb_misses"] = sb_after.misses - sb_before.misses
        with open("spans.json", "w") as fh:
            json.dump(dump, fh, separators=(",", ":"))
    with open("result.json", "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
