"""One workload of the benchmark, run in a child process of run.py.

The child imports the program from the checkout's ``src`` directory,
generates its inputs from the seed, prints ``ready`` (run.py times set-up up
to that line), then runs whole rounds until the time budget is spent and
prints one JSON line with its samples, counts and check results.

A round is a chunk of chart parts, one homology op through ``cli.main`` and
another chunk of chart parts.  A chart part is the
seeded stream of chart records (the calls ``coord`` makes: FiniteSubset,
exp3_coord, and c3_orbit for triples), one band and one core ``knot`` op,
and one pass of the three ``pi1`` cases, all but the stream through
``cli.main``.  Every output is checked by checks.py;
later chart parts must repeat the first part's outputs exactly.

    python3 benchmarks/workloads.py --workload charts --seed 1 --seconds 5 --trace 0
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import random
import sys
import time
from pathlib import Path

import checks
from speed import Probe
from tracing import LayerStats, Tracer, install, peak_rss_mb

ROOT = Path(__file__).resolve().parent.parent
TRACE_DIR = Path(__file__).resolve().parent / "out"
TWO_PI = 2.0 * math.pi

# name -> (homology argv, check, chart parts per chunk, near-coincident
# triples in the stream).  A round is a chunk of chart parts, one homology
# op and another chunk.  The fixed form of BENCHMARK.json asks every workload
# for every end-to-end metric, so the homology workloads carry chart chunks
# and charts carries the smallest homology op, exp_2 at n = 3.
WORKLOADS = {
    "exp3_absolute": (["--mesh-n", "3", "homology", "3"],
                      lambda rec: checks.check_homology(rec, 3, 3), 45, False),
    "exp3_relative": (["--mesh-n", "3", "homology", "3", "--relative"],
                      lambda rec: checks.check_relative(rec, 3), 45, False),
    "charts": (["--mesh-n", "3", "homology", "2"],
               lambda rec: checks.check_homology(rec, 2, 3), 1, True),
}

# Chart stream make-up per part: 600 records of each size; 60 of the pairs
# antipodal and 60 of the triples equally spaced.
PER_SIZE = 600
SPECIAL = 60
# Triples with one gap in (1e-9, 2e-9]: FiniteSubset keeps three points but
# normalize_triple rejects them, so exp3_coord raises.  Fixed, not seeded.
NEAR_TRIPLES = (
    (0.0, 2e-9, 3.0),
    (1.0, 1.0 + 1.5e-9, 4.0),
    (0.5, 3.0, 3.0 + 1.9e-9),
    (5.0, 2.0, 5.0 + 1.2e-9),
)
KNOT_EPS = 0.1
KNOT_SAMPLES = 720
KNOT = ["--samples", str(KNOT_SAMPLES), "knot"]
PI1_CASES = ("exp3", "Bprime", "complement")


def make_stream(seed: int, near: bool) -> list[dict]:
    """Seeded chart inputs; the angles of each case are given unsorted."""
    rng = random.Random(seed)

    def spread(angles):
        # keep random points apart, so only the fixed near triples can fail
        gaps = [checks.shorter_arc(a, b) for i, a in enumerate(angles) for b in angles[i + 1:]]
        return min(gaps, default=1.0) > 1e-6

    def draw(size):
        while True:
            angles = [rng.uniform(0.0, TWO_PI) for _ in range(size)]
            if spread(angles):
                return angles

    cases = [{"angles": draw(1), "distinct": 1, "kind": "random"} for _ in range(PER_SIZE)]
    for size, kind, offsets in ((2, "antipodal", (0.0, math.pi)),
                                (3, "equal", (0.0, TWO_PI / 3, 2 * TWO_PI / 3))):
        for i in range(PER_SIZE):
            if i < SPECIAL:
                base = rng.uniform(0.0, TWO_PI)
                cases.append({"angles": [base + o for o in offsets], "distinct": size, "kind": kind})
            else:
                cases.append({"angles": draw(size), "distinct": size, "kind": "random"})
    rng.shuffle(cases)
    for case in cases:
        rng.shuffle(case["angles"])
    if near:
        step = len(cases) // len(NEAR_TRIPLES)
        for i, angles in enumerate(NEAR_TRIPLES):
            cases.insert(i * step, {"angles": list(angles), "distinct": None, "kind": "near"})
    return cases


def chart_dict(coord, orbit) -> dict:
    """The fields of a `coord` record, at full precision."""
    if coord.tag == "C1":
        return {"tag": "C1", "alpha": coord.c1}
    if coord.tag == "C2":
        return {"tag": "C2", "phi": coord.c2.phi, "theta": coord.c2.theta}
    return {"tag": "C3", "z": coord.c3.z, "theta": coord.c3.theta,
            "orbit": [(f.z, f.theta) for f in orbit]}


class Runner:
    """Runs the rounds of one workload and collects samples and problems."""

    def __init__(self, name: str, seed: int, trace: bool):
        from expcircle import cli, complexes, config

        self.config = config
        self.argv, self.check_homology, self.parts, near = WORKLOADS[name]
        self.stream = make_stream(seed, near)
        self.problems: list[str] = []
        self.attempted = self.failed = 0
        # wall-clock (start, end) of each timed call, by kind, and per round
        self.intervals = {"homology": [], "stream": [], "knot": [], "core": [], "pi1": []}
        self.round_intervals: list[list[tuple]] = []
        self.charted = 0
        self.reference = None
        self.stats = self.tracer = None
        self.main = cli.main
        self.chart_calls = (config.FiniteSubset, config.exp3_coord, config.c3_orbit)
        if trace:
            self.stats = LayerStats()
            self.tracer = Tracer(self.stats)
            install(self.tracer, cli, complexes, config)
            self.main = self.tracer.wrap(cli.main, "cli.main")
            self.chart_calls = tuple(self.tracer.wrap(f, f"config.{f.__name__}")
                                     for f in self.chart_calls)

    def _op(self, kind: str):
        return self.tracer.op(kind) if self.tracer else contextlib.nullcontext()

    def _cli(self, argv) -> tuple[int, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.main(list(argv))
        if code != 0:
            self.problems.append(f"{' '.join(argv)} exited {code}")
        return code, buf.getvalue()

    # -- operations ---------------------------------------------------------

    def _timed(self, kind: str, start: float) -> None:
        interval = (start, time.perf_counter())
        self.intervals[kind].append(interval)
        self.round_intervals[-1].append(interval)

    def homology_op(self) -> None:
        start = time.perf_counter()
        with self._op("homology"):
            _, out = self._cli(self.argv)
        try:
            bad = self.check_homology(json.loads(out))
        except json.JSONDecodeError:
            bad = [f"unreadable record {out!r}"]
        self._timed("homology", start)
        self.problems += bad
        self.attempted += 1

    def run_stream(self) -> list:
        subset, coord, orbit = self.chart_calls
        out = []
        start = time.perf_counter()
        if self.tracer is None:
            for case in self.stream:
                try:
                    s = subset(case["angles"])
                    c = coord(s)
                    out.append((c, orbit(s) if c.tag == "C3" else None))
                except ValueError as exc:
                    out.append(exc)
        else:
            for case in self.stream:
                with self.tracer.op("record") as root:
                    try:
                        s = subset(case["angles"])
                        c = coord(s)
                        out.append((c, orbit(s) if c.tag == "C3" else None))
                        root[0] = "bench.record." + c.tag
                    except ValueError as exc:
                        out.append(exc)
                        root[0] = "bench.record.failed"
        self._timed("stream", start)
        return out

    def chart_part(self) -> None:
        results = self.run_stream()
        start = time.perf_counter()
        with self._op("knot"):
            _, band = self._cli(KNOT)
        self._timed("knot", start)
        start = time.perf_counter()
        with self._op("knot_core"):
            _, core = self._cli(KNOT + ["--core"])
        self._timed("core", start)
        start = time.perf_counter()
        with self._op("pi1"):
            pi1 = [self._cli(["pi1", case])[1] for case in PI1_CASES]
        self._timed("pi1", start)

        records = [f"error: {r}" if isinstance(r, Exception) else chart_dict(*r) for r in results]
        failed = sum(isinstance(r, str) for r in records)
        outputs = (records, band, core, pi1)
        if self.reference is None:
            self.check_first_part(records, band, core, pi1)
            self.reference = outputs
        elif outputs != self.reference:
            self.problems.append("a chart part did not repeat the first part's outputs")
        self.attempted += len(records) + 2 + len(PI1_CASES)
        self.failed += failed
        self.charted += len(records) - failed

    def check_first_part(self, records, band, core, pi1) -> None:
        subset, coord, orbit = (self.config.FiniteSubset, self.config.exp3_coord,
                                self.config.c3_orbit)
        bad = []
        for case, rec in zip(self.stream, records):
            if isinstance(rec, str):
                if case["kind"] != "near":
                    bad.append(f"chart of {case['angles']} failed: {rec}")
                continue
            bad += checks.check_chart(rec, case)
            s = subset(case["angles"][::-1])
            c = coord(s)
            bad += checks.charts_agree(rec, chart_dict(c, orbit(s) if c.tag == "C3" else None))
            if case["kind"] == "equal":
                _, out = self._cli(["coord"] + [repr(a) for a in case["angles"]])
                bad += checks.check_coord_exceptional(json.loads(out))
        bad += checks.check_knot(band, KNOT_EPS, KNOT_SAMPLES, core=False)
        bad += checks.check_knot(core, KNOT_EPS, KNOT_SAMPLES, core=True)
        for case, out in zip(PI1_CASES, pi1):
            bad += checks.check_pi1(case, json.loads(out))
        self.problems += bad

    def round(self) -> None:
        self.round_intervals.append([])
        for _ in range(self.parts):
            self.chart_part()
        self.homology_op()
        for _ in range(self.parts):
            self.chart_part()

    def samples(self, seconds) -> dict:
        """Timings of the run, each turned into seconds by ``seconds``."""
        out = {f"{kind}_s": [seconds(*iv) for iv in ivs] for kind, ivs in self.intervals.items()}
        out["timed_s"] = [sum(seconds(*iv) for iv in ivs) for ivs in self.round_intervals]
        return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="exit after set-up (run.py times several set-ups per run)")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import expcircle

    if not Path(expcircle.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: expcircle imported from {expcircle.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    runner = Runner(args.workload, args.seed, bool(args.trace))
    print("ready", flush=True)
    if args.setup_only:
        return 0

    # whole rounds until the budget is spent: the last one may run past it
    probe = Probe()
    probe.start()
    start = time.perf_counter()
    try:
        while time.perf_counter() - start < args.seconds:
            runner.round()
    finally:
        probe.stop()
    result = {
        "problems": runner.problems[:20],
        "attempted": runner.attempted,
        "failed": runner.failed,
        "rounds": len(runner.round_intervals),
        "charted": runner.charted,
        "samples": runner.samples(probe.normalize),
        "wall": runner.samples(lambda a, b: b - a),
        "probe_s": sum(probe.costs) / len(probe.costs),
        "peak_rss_mb": peak_rss_mb(),
    }
    if runner.tracer:
        runner.tracer.restore()
        # library time of each traced op, scaled like the op itself
        ops = runner.intervals["homology"]
        result["library_s"] = sum((lib - probe.probe_time(a, b)) * probe.factor(a, b)
                                  for lib, (a, b) in zip(runner.stats.library, ops)) / len(ops)
        result["layers"] = runner.stats.metrics()
        result["layer_self_s"] = runner.tracer.layer_self
        result["spans"] = runner.tracer.span_count
        result["span_cost_s"] = runner.tracer.span_cost_s()
        TRACE_DIR.mkdir(exist_ok=True)
        header = {"workload": args.workload, "seed": args.seed,
                  "python": platform.python_version(), "nproc": os.cpu_count(),
                  "layers": result["layers"], "layer_self_s": result["layer_self_s"]}
        runner.tracer.write(TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl", header)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
