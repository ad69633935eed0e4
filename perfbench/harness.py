"""Spans, checks and counts for one pass of a workload.

Every call the benchmark makes into the package goes through `Pass.call`.
With tracing off that is a plain call.  With tracing on it records a span
(name, start, end, parent span, case id).  In an allocation pass the calls
named in `ALLOC_METRICS` also run under tracemalloc, whose peak is kept on
the span; tracemalloc slows the Python loops of assembly several times
over, so span times are taken from passes without it.  Spans stay in
memory until the run writes them out.

Times are read from a `hostspeed.Timeline`: CPU time of the process and
its children, less the host-speed calibration blocks.  The pass takes a
block when it starts, before each case, before a call once
`CALIBRATE_EVERY_S` has passed since the last block, and in `finish`, which
then turns every recorded time into reference seconds.
"""

from __future__ import annotations

import tracemalloc
from contextlib import contextmanager

import hostspeed

MB = 2.0 ** 20
#: CPU seconds between calibration blocks, where a call boundary allows;
#: a block takes about 0.03 s
CALIBRATE_EVERY_S = 0.25

#: span name -> per-layer metric holding the tracemalloc peak of its calls
ALLOC_METRICS = {
    "assembly.assemble": "assembly.alloc_peak_mb",
    "spectral.solve_eigenproblem": "spectral.alloc_peak_mb",
    "solvers.geometry_probe": "solvers.geometry_alloc_peak_mb",
}


class Pass:
    """One pass of a workload: case times, checks, counts, spans."""

    def __init__(self, kind: str):
        #: "plain" (no spans), "spans", or "alloc" (spans and tracemalloc)
        self.kind = kind
        self.traced = kind != "plain"
        self.alloc = kind == "alloc"
        self.spans: list[dict] = []
        #: case id -> reference seconds, filled in by `finish`
        self.case_times: dict[str, float] = {}
        self._cases: list[tuple[str, float, float]] = []
        self.checks: list[dict] = []
        self.counts: dict[str, float] = {}
        self.timeline = hostspeed.Timeline()
        self._stack: list[int] = []
        self._case: str | None = None

    def finish(self):
        """Take the last block and turn case and span times into reference
        seconds since the pass began."""
        tl = self.timeline
        tl.calibrate()
        self.case_times = {case: tl.seconds(a, b) for case, a, b in self._cases}
        begin = tl.marks[0]
        for rec in self.spans:
            rec["start"], rec["end"] = (tl.seconds(begin, rec["start"]),
                                        tl.seconds(begin, rec["end"]))

    @contextmanager
    def _span(self, name: str):
        rec = {"id": len(self.spans), "name": name, "case": self._case,
               "parent": self._stack[-1] if self._stack else None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        alloc = self.alloc and name in ALLOC_METRICS
        if alloc:
            tracemalloc.start()
        rec["start"] = self.timeline.now()
        try:
            yield rec
        finally:
            rec["end"] = self.timeline.now()
            if alloc:
                rec["alloc_peak_mb"] = tracemalloc.get_traced_memory()[1] / MB
                tracemalloc.stop()
            self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Call a public function of the package, as span `name` if traced."""
        if self.timeline.since_block() >= CALIBRATE_EVERY_S:
            self.timeline.calibrate()
        if not self.traced:
            return fn(*args, **kwargs)
        with self._span(name):
            return fn(*args, **kwargs)

    @contextmanager
    def timed(self, name: str):
        """Span around work that is not one Python call, e.g. a child."""
        if not self.traced:
            yield
            return
        with self._span(name):
            yield

    @contextmanager
    def case(self, case_id: str):
        """One config taken to its verified result.  An error raised inside
        counts as a failed check, and the pass goes on with the next case."""
        self.timeline.calibrate()
        self._case = case_id
        start = self.timeline.now()
        try:
            with self.timed("case"):
                yield
        except Exception as exc:  # a failing case must not stop the pass
            self.check("completes without an error", False,
                       f"{type(exc).__name__}: {exc}")
        finally:
            self._cases.append((case_id, start, self.timeline.now()))
            self._case = None

    def check(self, name: str, ok, detail: str = "",
              defect: str | None = None) -> bool:
        """Record one output check.  `defect` names the known defect of the
        package (see NOTES.md) that makes this check fail at the seed.  Such
        a failure still counts as failed, but does not make the run
        incorrect."""
        self.checks.append({"case": self._case, "name": name, "ok": bool(ok),
                            "detail": detail, "defect": defect})
        return bool(ok)

    def add(self, name: str, value: float):
        self.counts[name] = self.counts.get(name, 0.0) + value

    def peak(self, name: str, value: float):
        self.counts[name] = max(self.counts.get(name, 0.0), value)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer totals of this pass: summed span time per span name,
        tracemalloc peaks, and the counts."""
        out = dict(self.counts)
        for rec in self.spans:
            if rec["name"] == "case":
                continue
            key = rec["name"] + "_s"
            out[key] = out.get(key, 0.0) + rec["end"] - rec["start"]
            if "alloc_peak_mb" in rec:
                metric = ALLOC_METRICS[rec["name"]]
                out[metric] = max(out.get(metric, 0.0), rec["alloc_peak_mb"])
        return out

    def spans_with_self_time(self) -> list[dict]:
        """Spans with `self_s`: duration minus the time its children cover."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec["parent"] is not None:
                child[rec["parent"]] += rec["end"] - rec["start"]
        return [dict(rec, self_s=rec["end"] - rec["start"] - child[rec["id"]])
                for rec in self.spans]
