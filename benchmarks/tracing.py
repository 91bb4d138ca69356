"""Spans around calls into the program, recorded from the benchmark's side.

The traced run replaces module attributes of the program with timing
wrappers, so the program's own call path records a span at every call into
a layer (config, moebius, complexes, groups) and the benchmark opens one
root span per operation.  The library files are not edited: the wrappers
live here and are removed again by ``Tracer.restore``.

Spans stay in memory.  When an operation ends its spans are handed to a sink
that folds them into per-layer figures; the spans of the first few
operations of each kind are kept whole and written out when the run ends.
"""

from __future__ import annotations

import json
import resource
from contextlib import contextmanager
from statistics import median
from time import perf_counter

# span fields
NAME, START, END, PARENT, COUNTS = range(5)


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far (ru_maxrss is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Records spans: name, start, end, parent span and optional counts."""

    def __init__(self, sink, keep_per_kind: int = 2):
        self.sink = sink
        self.keep_per_kind = keep_per_kind
        self.kept: list[dict] = []
        self.layer_self: dict[str, float] = {}
        self._kept_kinds: dict[str, int] = {}
        self._ops = 0
        self.span_count = 0
        self._spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def wrap(self, fn, name: str, count=None):
        """A callable that runs fn inside a span; count(result) gives the
        span's counts and is evaluated after the span has ended."""
        def traced(*args, **kwargs):
            stack, spans = self._stack, self._spans
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if count is not None:
                span[COUNTS] = count(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str, count=None) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, count))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @contextmanager
    def op(self, kind: str):
        """Root span of one operation; the yielded span's name may be changed
        before it ends (a chart record learns its tag from the result)."""
        root = ["bench." + kind, 0.0, 0.0, -1, None]
        self._spans, self._stack = [root], [0]
        root[START] = perf_counter()
        try:
            yield root
        finally:
            root[END] = perf_counter()
            spans = self._spans
            self._spans, self._stack = [], []
            self._finish(spans)

    def _finish(self, spans: list[list]) -> None:
        selfs = self_times(spans)
        for span, own in zip(spans, selfs):
            layer = span[NAME].split(".", 1)[0]
            self.layer_self[layer] = self.layer_self.get(layer, 0.0) + own
        kind = spans[0][NAME]
        if self._kept_kinds.get(kind, 0) < self.keep_per_kind:
            self._kept_kinds[kind] = self._kept_kinds.get(kind, 0) + 1
            self.kept += [
                {"op": self._ops, "span": i, "name": s[NAME], "start": s[START],
                 "end": s[END], "parent": s[PARENT], "counts": s[COUNTS]}
                for i, s in enumerate(spans)
            ]
        self._ops += 1
        self.span_count += len(spans)
        self.sink(spans, selfs)

    def span_cost_s(self, calls: int = 20000) -> float:
        """Time one span adds to a call: a wrapped no-op minus a plain one."""
        def noop():
            return None

        traced = self.wrap(noop, "bench.noop")
        start = perf_counter()
        for _ in range(calls):
            traced()
        wrapped = perf_counter() - start
        start = perf_counter()
        for _ in range(calls):
            noop()
        plain = perf_counter() - start
        self._spans = []
        return (wrapped - plain) / calls

    def write(self, path, header: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for span in self.kept:
                fh.write(json.dumps(span) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part its direct children cover."""
    covered = [0.0] * len(spans)
    for span in spans[1:]:
        covered[span[PARENT]] += span[END] - span[START]
    return [s[END] - s[START] - c for s, c in zip(spans, covered)]


# counts read off the results of the group pipeline
CLI_COUNTS = {
    "tietze_simplify": lambda r: {"steps": r.steps},
    "coset_enumeration": lambda r: {"cosets": len(r.table) if r.table else 0},
}


def install(tracer: Tracer, cli, complexes, config) -> None:
    """Wrap every library function the CLI calls, and the module functions
    the homology and chart code composes, in spans named layer.function."""
    for attr, obj in list(vars(cli).items()):
        module = getattr(obj, "__module__", "") or ""
        if callable(obj) and module.startswith("expcircle.") and module != "expcircle.cli":
            tracer.patch(cli, attr, f"{module.rsplit('.', 1)[1]}.{attr}", CLI_COUNTS.get(attr))
    tracer.patch(complexes, "_build_exp_with_boundary", "complexes.build",
                 lambda r: {"simplices": sum(r[0].counts()), "rss_mb": peak_rss_mb()})
    nnz = lambda cc: {"nnz": sum(b.nnz() for b in cc.boundaries)}  # noqa: E731
    tracer.patch(complexes, "chain_complex", "complexes.chain", nnz)
    tracer.patch(complexes, "relative_chain_complex", "complexes.chain", nnz)
    tracer.patch(complexes.ChainComplexZ, "check_boundary_squared", "complexes.dd_check")
    tracer.patch(complexes.ChainComplexZ, "homology", "complexes.chain_homology",
                 lambda r: {"rss_mb": peak_rss_mb()})
    tracer.patch(complexes, "smith_normal_form", "complexes.snf", lambda r: {"rank": len(r)})
    tracer.patch(config, "frame", "moebius.frame")
    tracer.patch(config, "core_circle", "config.core_circle")


class LayerStats:
    """Folds the spans of each operation into the per-layer figures."""

    def __init__(self):
        self.homology: list[dict] = []
        self.library: list[float] = []
        self.knot: list[dict] = []
        self.pi1: list[dict] = []
        self.cli_self = {"homology": [], "knot": [], "pi1": []}
        self.record_time: dict[str, float] = {}
        self.record_calls: dict[str, int] = {}
        self.frame = [0.0, 0]

    def __call__(self, spans: list[list], selfs: list[float]) -> None:
        kind = spans[0][NAME].split(".", 1)[1]
        for s in spans:
            if s[NAME] == "moebius.frame":
                self.frame[0] += s[END] - s[START]
                self.frame[1] += 1
        if kind.startswith("record"):
            for s in spans[1:]:
                if s[PARENT] == 0:
                    key = f"{kind}:{s[NAME]}"
                    self.record_time[key] = self.record_time.get(key, 0.0) + s[END] - s[START]
                    self.record_calls[key] = self.record_calls.get(key, 0) + 1
            return
        cli_self = sum(own for s, own in zip(spans, selfs) if s[NAME] == "cli.main")
        if kind in self.cli_self:
            self.cli_self[kind].append(cli_self)
        if kind == "homology":
            figures = _homology_figures(spans)
            self.library.append(figures.pop("library_s"))
            self.homology.append(figures)
        elif kind == "knot":
            self.knot.append(_sums(spans, {
                "config.knot_curve_ms": "config.boundary_torus_curve",
                "config.winding_ms": "config.winding_diagnostic",
                "config.band_check_ms": "config.c2_coord",
            }, 1e3))
        elif kind == "pi1":
            figures = _sums(spans, {
                "groups.pushout_ms": "groups.pushout",
                "groups.tietze_ms": "groups.tietze_simplify",
                "groups.coset_ms": "groups.coset_enumeration",
                "groups.count_homs_ms": "groups.count_homs",
            }, 1e3)
            figures["groups.tietze_steps"] = sum(
                s[COUNTS]["steps"] for s in spans if s[NAME] == "groups.tietze_simplify")
            figures["groups.cosets"] = sum(
                s[COUNTS]["cosets"] for s in spans if s[NAME] == "groups.coset_enumeration")
            self.pi1.append(figures)

    def per_record_us(self, span_names, tags) -> float:
        """Mean time per chart record of the given tags in the named spans."""
        records = sum(self.record_calls.get(f"record.{t}:config.FiniteSubset", 0) for t in tags)
        total = sum(self.record_time.get(f"record.{t}:{n}", 0.0) for t in tags for n in span_names)
        return total / records * 1e6 if records else 0.0

    def metrics(self) -> dict:
        out = {}
        for rows in (self.homology, self.knot, self.pi1):
            for key in rows[0] if rows else ():
                out[key] = median(r[key] for r in rows)
        all_tags = ("C1", "C2", "C3", "failed")
        out["config.subset_us"] = self.per_record_us(["config.FiniteSubset"], all_tags)
        for tag in ("C1", "C2", "C3"):
            out[f"config.{tag.lower()}_us"] = self.per_record_us(
                ["config.exp3_coord", "config.c3_orbit"], [tag])
        out["moebius.frame_us"] = self.frame[0] / self.frame[1] * 1e6 if self.frame[1] else 0.0
        for kind, values in self.cli_self.items():
            name = "cli.self_ms" if kind == "pi1" else f"cli.{kind}_self_ms"
            out[name] = median(values) * 1e3 if values else 0.0
        return out


def _sums(spans, names: dict, scale: float) -> dict:
    return {key: scale * sum(s[END] - s[START] for s in spans if s[NAME] == name)
            for key, name in names.items()}


def _homology_figures(spans) -> dict:
    """Per-op complexes figures.  The reduction is the first chain complex's
    homology; later ones (the projective oracle's 1x1 matrices) are left out
    of the per-boundary split."""
    def first(name):
        return next((i for i, s in enumerate(spans) if s[NAME] == name), None)

    def dur(i):
        return spans[i][END] - spans[i][START] if i is not None else 0.0

    build, chain, main = first("complexes.build"), first("complexes.chain"), first(
        "complexes.chain_homology")
    snf = [i for i, s in enumerate(spans) if s[NAME] == "complexes.snf" and s[PARENT] == main]
    dd = [i for i, s in enumerate(spans) if s[NAME] == "complexes.dd_check" and s[PARENT] == main]
    out = {
        "complexes.build_s": dur(build),
        "complexes.chain_s": dur(chain),
        "complexes.dd_check_s": sum(dur(i) for i in dd),
        "complexes.snf_s": sum(dur(i) for i in snf),
        "complexes.simplices": spans[build][COUNTS]["simplices"] if build is not None else 0,
        "complexes.boundary_nnz": spans[chain][COUNTS]["nnz"] if chain is not None else 0,
        "complexes.rank": sum(spans[i][COUNTS]["rank"] for i in snf),
        "complexes.rss_after_build_mb": spans[build][COUNTS]["rss_mb"] if build is not None else 0.0,
        "complexes.rss_after_snf_mb": spans[main][COUNTS]["rss_mb"] if main is not None else 0.0,
    }
    for d in range(3):
        out[f"complexes.snf_d{d + 1}_s"] = dur(snf[d]) if d < len(snf) else 0.0
    cli_main = first("cli.main")
    out["library_s"] = sum(dur(i) for i, s in enumerate(spans) if s[PARENT] == cli_main)
    return out
