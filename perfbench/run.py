"""Benchmark runner for flatcert.

    python3 perfbench/run.py --workload certify|farey-queries|twisted \
        --seed N --seconds S --trace 0|1 [--tamper]

Run from the root of a source checkout; the package is imported from
``src/`` (it need not be installed).  Each pass is a fresh interpreter
(``passrun.py``) that issues one workload's operations through
``flatcert.cli.main`` and the exported library functions; the runner starts
passes until ``--seconds`` have gone by (at least three), then checks every
answer against references built from ``tests/oracles.py``.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones of ``BENCHMARK.json``; with ``--trace 1`` each plain pass is
followed by a traced pass on the same inputs, and the metrics are the
per-layer ones, taken from the traced pass of median wall time.  The line
before it is a record of the run: git SHA (when there is one), a hash of
``src/``, Python version, ``nproc``, seed, and per-pass figures.
``--tamper`` corrupts one reference answer (or certificate) to show that
the check fails; the run then reports ``correct: false`` and exits 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

MIN_PASSES = 3  # plain passes in a --trace 0 run; pairs in a --trace 1 run: 2
START_LIMIT_S = 110  # never start a pass after this much of a run
PASS_TIMEOUT_S = 150
# Times are reported at a reference host speed: the one at which
# passrun.calibration_ns() takes this long, about its median on a 2-CPU
# 2.1 GHz cloud VM when that host ran fastest.  Its speed drifted by up to 2x over
# minutes, which would otherwise swamp any change in flatcert.
REFERENCE_NS = 115_000
# An operation is scaled by the median speed sample taken within this many
# nanoseconds of it (samples come every 50 ms; many operations are shorter).
SAMPLE_WINDOW_NS = 250_000_000


def _provenance(args) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _spawn(inputs: Path, mode: str, pass_dir: Path) -> tuple[dict | None, int]:
    """Run one pass in a fresh interpreter; returns (result, spawn time)."""
    pass_dir.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    started = time.monotonic_ns()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "passrun.py"), str(inputs), mode],
            cwd=pass_dir, env=env, capture_output=True, text=True, timeout=PASS_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None, started
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
        return None, started
    with open(pass_dir / "result.json") as fh:
        return json.load(fh), started


def _at_reference(ns: float, calibration_ns: float) -> float:
    """Seconds, scaled to the reference host speed."""
    return ns * 1e-9 * REFERENCE_NS / calibration_ns


def _scaled_op_times(result: dict) -> list[float]:
    """Operation times of a plain pass in seconds at the reference speed."""
    samples = result["speed_samples"]
    scaled = []
    for ns, (t0, t1) in zip(result["op_ns"], result["op_windows"]):
        near = [d for t, d in samples if t0 - SAMPLE_WINDOW_NS <= t <= t1 + SAMPLE_WINDOW_NS]
        speed = statistics.median(near or [d for _, d in samples])
        scaled.append(_at_reference(ns, speed))
    return scaled


def _output_digest(op: dict, res: dict, pass_dir: Path) -> tuple[str, int]:
    """Hash and size of everything an operation produced."""
    digest = hashlib.sha256()
    stdout = res.get("stdout", "").encode()
    digest.update(repr((res.get("rc"), res.get("error"), res.get("value"))).encode())
    digest.update(stdout)
    size = len(stdout)
    if "out" in op and (pass_dir / op["out"]).is_file():
        data = (pass_dir / op["out"]).read_bytes()
        digest.update(data)
        size += len(data)
    return digest.hexdigest(), size


class Run:
    def __init__(self, workload, tamper: bool, run_dir: Path):
        self.workload = workload
        self.tamper = tamper
        self.run_dir = run_dir
        self.seen: dict[str, tuple[bool, str]] = {}  # op -> (verdict, output hash)
        self.attempted = 0
        self.failed = 0
        self.setup_s: list[float] = []
        self.passes: list[dict] = []

    def _check(self, ops, expect, result, pass_dir: Path) -> tuple[int, int]:
        """Check a pass's answers; identical inputs must give identical bytes."""
        failed = out_bytes = 0
        results = result["results"] if result else [None] * len(ops)
        for i, (op, want, res) in enumerate(zip(ops, expect, results)):
            if res is None:
                failed += 1
                continue
            digest, size = _output_digest(op, res, pass_dir)
            out_bytes += size
            key = json.dumps(op, sort_keys=True)
            if key in self.seen:
                verdict, first = self.seen[key]
                ok = verdict and digest == first
            else:
                try:
                    ok = self.workload.check(i, op, want, res, pass_dir, self.tamper)
                except (ValueError, KeyError, TypeError, IndexError, OSError):
                    ok = False  # output the checker cannot even read
                self.seen[key] = (ok, digest)
            failed += not ok
        return failed, out_bytes

    def run_pass(self, index: int, mode: str, inputs: Path, ops, expect) -> None:
        pass_dir = self.run_dir / f"pass-{index}-{mode}"
        result, started = _spawn(inputs, mode, pass_dir)
        failed, out_bytes = self._check(ops, expect, result, pass_dir)
        self.attempted += len(ops)
        self.failed += failed
        summary = {"index": index, "mode": mode, "ok": result is not None,
                   "failed": failed, "output_bytes": out_bytes}
        if result:
            self._sample_setup(result, started)
            summary.update(wall_ns=result["wall_ns"], peak_rss_kib=result["peak_rss_kib"],
                           import_ns=result["import_ns"])
            if mode == "plain":
                summary["op_s"] = _scaled_op_times(result)
                summary["wall_s"] = sum(summary["op_s"])
            else:
                from spans import layer_metrics

                with open(pass_dir / "spans.json") as fh:
                    dump = json.load(fh)
                summary["layers"] = layer_metrics(dump, result["wall_ns"])
                summary["unhooked"] = dump["unhooked"]
                shutil.move(str(pass_dir / "spans.json"), self.run_dir / f"spans-{index}.json")
        shutil.rmtree(pass_dir)
        self.passes.append(summary)

    def _sample_setup(self, result: dict, started_ns: int) -> None:
        self.setup_s.append(_at_reference(result["setup_done_ns"] - started_ns,
                                          result["setup_calibration_ns"]))


def _end_to_end(run: Run) -> dict[str, float]:
    plain = [p for p in run.passes if p["mode"] == "plain" and p["ok"]]
    if not plain:
        return {}
    op_s = [t for p in plain for t in p["op_s"]]
    return {
        "wall_s": statistics.median(p["wall_s"] for p in plain),
        "op_p50_ms": statistics.median(op_s) * 1e3,
        "op_p90_ms": statistics.quantiles(op_s, n=10, method="inclusive")[8] * 1e3,
        "peak_rss_mib": statistics.median(p["peak_rss_kib"] for p in plain) / 1024,
        "setup_s": statistics.median(run.setup_s),
        "ok_ratio": 1 - run.failed / run.attempted,
        "output_bytes": statistics.mean(p["output_bytes"] for p in plain),
    }


def _per_layer(run: Run) -> tuple[dict[str, float], int | None]:
    pairs = {}
    for p in run.passes:
        if p["ok"]:
            pairs.setdefault(p["index"], {})[p["mode"]] = p
    traced = [p["traced"] for p in pairs.values() if "traced" in p]
    if not traced:
        return {}, None
    chosen = sorted(traced, key=lambda p: p["wall_ns"])[(len(traced) - 1) // 2]
    metrics = dict(chosen["layers"])
    metrics["setup.import_s"] = statistics.median(
        p["import_ns"] for p in run.passes if p["ok"]) * 1e-9
    metrics["trace.overhead_s"] = statistics.median(
        (p["traced"]["wall_ns"] - p["plain"]["wall_ns"]) * 1e-9
        for p in pairs.values() if len(p) == 2)
    return metrics, chosen["index"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tamper", action="store_true",
                        help="corrupt one reference answer; the run must fail")
    args = parser.parse_args(argv)
    # On SIGTERM, unwind: subprocess.run then kills and waits for the pass.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    missing = [p for p in ("src/flatcert/cli.py", "tests/oracles.py", "BENCHMARK.json")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a flatcert checkout, missing {missing}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)
    sys.path.insert(0, str(ROOT / "tests"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    record = _provenance(args)
    run_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed)
        run = Run(workload, args.tamper, run_dir)
        inputs_of = {}

        def inputs(index: int):
            key = 0 if workload.repeats_inputs else index
            if key not in inputs_of:
                ops, expect = workload.inputs(key)
                path = run_dir / f"inputs-{key}.json"
                path.write_text(json.dumps({"ops": ops}))
                inputs_of[key] = (path, ops, expect)
            return inputs_of[key]

        modes = ("plain", "traced") if args.trace else ("plain",)
        min_passes = 2 if args.trace else MIN_PASSES
        start = time.monotonic()
        index = 0
        while True:
            elapsed = time.monotonic() - start
            if (elapsed >= args.seconds and index >= min_passes) or elapsed >= START_LIMIT_S:
                break
            path, ops, expect = inputs(index)
            for mode in modes:
                run.run_pass(index, mode, path, ops, expect)
            index += 1

        if args.trace:
            metrics, chosen = _per_layer(run)
            if chosen is not None:
                spans_out = WORK / f"{args.workload}.spans.json"
                shutil.move(str(run_dir / f"spans-{chosen}.json"), spans_out)
                record["spans_file"] = str(spans_out.relative_to(ROOT))
            record["unhooked"] = sorted({u for p in run.passes for u in p.get("unhooked", [])})
        else:
            metrics = _end_to_end(run)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    wanted = declared["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    correct = run.failed == 0 and set(metrics) == set(units)
    record["passes"] = [{k: v for k, v in p.items() if k != "op_s"} for p in run.passes]
    record["setup_s"] = run.setup_s
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics.get(name), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
