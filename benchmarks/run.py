"""Benchmark of expcircle: homology, charts and group certificates.

    python3 benchmarks/run.py --workload exp3_absolute --seed 1 --seconds 15 --trace 0

Workloads (see README.md for why each was chosen):
  exp3_absolute  `--mesh-n 3 homology 3`, the reduction-heavy op
  exp3_relative  `--mesh-n 3 homology 3 --relative`, build-heavy, d2-dominated
  charts         seeded chart stream, knot, pi1 and the small exp_2 homology op

Each workload runs in its own child process (workloads.py).  Before it,
eight more children only set up and exit, so that set-up time is the median
of nine starts.  With --trace 1 the run starts an untraced child and then a
traced one, and reports per-layer figures, self times per layer, and the
tracing overhead as traced minus untraced time.

Timings are scaled to a reference speed measured next to the program
(speed.py).  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; the line before it records the
Python version, nproc, every sample at the reference speed and in wall-clock
seconds, and the mean reference-loop time.  The run exits non-zero without that line when the program
cannot be imported from this checkout or a child fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import subprocess
import sys
import time
from math import fsum
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_STARTS = 9
DEADLINE_S = 170.0
LAYERS = ("bench", "cli", "config", "moebius", "complexes", "groups")
UNITS = {"s": "s", "ms": "ms", "us": "us", "mb": "MB"}

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
from speed import REF_S, reference_loop  # noqa: E402


class ChildFailed(Exception):
    pass


def start_child(args, deadline: float, *flags: str) -> tuple[subprocess.Popen, float]:
    """Start a workload child and return it with its set-up time: from the
    start of the process to its `ready` line, at the reference speed of the
    reference loops timed just before (run.py and its children share a core)."""
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.trace:
        cmd[-1] = str(args.seconds / 2)  # two children, each with half the budget
    cmd += flags
    loops = sorted(reference_loop() for _ in range(5))
    start = time.perf_counter()
    # unbuffered, so that reading the ready line takes nothing more from the pipe
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, bufsize=0, cwd=ROOT)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], max(deadline - time.monotonic(), 0))
        line = proc.stdout.readline() if ready else b""
        setup = (time.perf_counter() - start) * REF_S / loops[2]
        if line.strip() != b"ready":
            raise ChildFailed(f"workload child did not start: {line!r}")
    except BaseException:
        stop(proc)
        raise
    return proc, setup


def stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    proc.stdout.close()


def finish_child(proc: subprocess.Popen, deadline: float) -> dict:
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 0))
    except subprocess.TimeoutExpired:
        stop(proc)
        raise ChildFailed("workload child ran past the deadline") from None
    if proc.returncode != 0:
        raise ChildFailed(f"workload child exited {proc.returncode}")
    return json.loads(out.decode().strip().splitlines()[-1])


def run_child(args, deadline: float, *flags: str) -> tuple[dict, float]:
    proc, setup = start_child(args, deadline, *flags)
    return finish_child(proc, deadline), setup


def time_setup(args, deadline: float) -> float:
    """Set-up time of one child that exits once it is ready."""
    proc, setup = start_child(args, deadline, "--setup-only")
    try:
        proc.wait(timeout=max(deadline - time.monotonic(), 0))
    finally:
        stop(proc)
    if proc.returncode != 0:
        raise ChildFailed(f"set-up child exited {proc.returncode}")
    return setup


def mean(values) -> float:
    return fsum(values) / len(values)


def end_to_end(result: dict, setups: list[float]) -> dict:
    """Timings are at the reference speed (speed.py) and averaged over the
    run, not medians: the machine's speed also flips between two levels
    about 40% apart several times a second, and a run's mean follows the
    share of time spent at each level where its median jumps between them."""
    s = result["samples"]
    return {
        "setup_s": {"value": median(setups), "unit": "s"},
        "homology_s": {"value": mean(s["homology_s"]), "unit": "s"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        "coord_per_s": {"value": result["charted"] / fsum(s["stream_s"]), "unit": "records/s"},
        "knot_ms": {"value": mean(s["knot_s"]) * 1e3, "unit": "ms"},
        "pi1_ms": {"value": mean(s["pi1_s"]) * 1e3, "unit": "ms"},
    }


def per_layer(untraced: dict, traced: dict) -> dict:
    out = {}
    for name, value in traced["layers"].items():
        out[name] = {"value": value, "unit": UNITS.get(name.rsplit("_", 1)[-1], "count")}
    for layer in LAYERS:
        own = traced["layer_self_s"].get(layer, 0.0) / traced["rounds"]
        out[f"self.{layer}_ms"] = {"value": own * 1e3, "unit": "ms"}
    plain, with_spans = mean(untraced["samples"]["timed_s"]), mean(traced["samples"]["timed_s"])
    homology_s = mean(untraced["samples"]["homology_s"])
    out["trace.overhead_pct"] = {"value": (with_spans / plain - 1.0) * 100, "unit": "%"}
    out["trace.homology_overhead_pct"] = {
        "value": (mean(traced["samples"]["homology_s"]) / homology_s - 1.0) * 100, "unit": "%"}
    out["trace.coverage_pct"] = {"value": traced["library_s"] / homology_s * 100, "unit": "%"}
    out["trace.spans"] = {"value": traced["spans"] / traced["rounds"], "unit": "count"}
    out["trace.span_cost_us"] = {"value": traced["span_cost_s"] * 1e6, "unit": "us"}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("exp3_absolute", "exp3_relative", "charts"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    # one core for run.py and its children, so that the reference loops
    # timed here and in the children see the speed of the core that runs
    # the program
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    if not (ROOT / "src" / "expcircle" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    failures = checks.self_test()
    if failures:
        print("error: the output checks failed their self-test:", *failures, sep="\n  ",
              file=sys.stderr)
        return 1

    try:
        setups = [time_setup(args, deadline) for _ in range(0 if args.trace else SETUP_STARTS - 1)]
        result, setup = run_child(args, deadline)
        setups.append(setup)
        results = [result]
        if args.trace:
            traced, _ = run_child(args, deadline, "--trace", "1")
            results.append(traced)
            metrics = per_layer(result, traced)
        else:
            metrics = end_to_end(result, setups)
    except (ChildFailed, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    problems = [p for r in results for p in r["problems"]]
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(), "nproc": os.cpu_count(),
        "setup_s": setups, "rounds": [r["rounds"] for r in results],
        "probe_s": [r["probe_s"] for r in results], "wall": [r["wall"] for r in results],
        "samples": [r["samples"] for r in results],
    }))
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
