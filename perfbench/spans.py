"""Spans recorded around the benchmark's calls into covmap, and the
per-layer metrics derived from them.

A span has a name ``<layer>.<operation>``, a key (``d4``, ``m3d4``, a cb
branch or a CLI form), start and end times, the index of its parent span
and the job it belongs to.  Spans stay in memory and are written out when
the run ends.  A span's self time is its duration minus the time covered
by its child spans; children of one span never overlap because the
benchmark has a single client thread.
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import asdict, dataclass, field

LAYERS = ("twocopy", "classify", "norms", "twirl", "multicopy", "serialize", "cli")
TWOCOPY_D = (2, 3, 4, 5, 6)
TWIRL_D = (3, 4, 5)
MULTICOPY_MD = ((2, 3), (2, 6), (3, 4), (3, 5), (3, 6), (4, 3), (4, 4))
# covariance_residual_multi costs 0.3-0.5 s per sample at (3, 6) and (4, 4),
# which would leave too few cycles per run to steady the percentiles.
COVRES_MD = ((2, 3), (2, 6), (3, 4), (3, 5), (4, 3))
CB_BRANCHES = (
    "swap-symmetric-exact",
    "corner-compression-exact",
    "corner-compression-bracket",
    "monte-carlo-lower_bound",
)
CLI_FORMS = ("classify", "norm", "twirl", "multicopy_apply", "multicopy_extract", "multicopy_fit")


def _md(m: int, d: int) -> str:
    return f"m{m}d{d}"


def per_layer_names() -> list[str]:
    """Every per-layer metric, in the order BENCHMARK.json lists them."""
    names = [f"twocopy.realize_ms.d{d}" for d in TWOCOPY_D]
    names += [f"twocopy.extract_ms.d{d}" for d in TWOCOPY_D if d >= 3]
    names += [f"twocopy.fit_ms.d{d}" for d in TWOCOPY_D]
    names += [f"classify.classify_ms.d{d}" for d in TWOCOPY_D]
    names += [f"norms.cb_norm_ms.{b}" for b in CB_BRANCHES]
    names += ["norms.exact_share"]
    names += [f"twirl.{op}.d{d}" for op in ("twirl_ms", "sample_ms", "covdev_ms") for d in TWIRL_D]
    names += ["twirl.twirl_operator_ms.m3d3", "twirl.twirl_operator_ms.m3d4"]
    names += [f"twirl.dist_to_exact.d{d}" for d in TWIRL_D]
    for op in ("realize", "extract", "apply", "fit"):
        names += [
            f"multicopy.{op}_ms.{_md(m, d)}"
            for m, d in MULTICOPY_MD
            if op != "extract" or d >= m + 1
        ]
    names += [f"multicopy.covres_ms.{_md(m, d)}" for m, d in COVRES_MD]
    names += ["serialize.parse_ms", "serialize.render_ms"]
    names += [f"cli.{form}_ms" for form in CLI_FORMS] + ["cli.self_share"]
    names += [f"{layer}.busy_share" for layer in LAYERS if layer != "cli"]
    names += ["trace.overhead_ratio"]
    return names


def unit_of(name: str) -> str:
    if name.endswith(("_share", "_ratio")):
        return "ratio"
    return "norm" if ".dist_to_exact." in name else "ms"


@dataclass
class Span:
    name: str
    key: str
    parent: int | None
    job: int
    start: float
    end: float = 0.0
    tags: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder for one traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.job = -1

    def open(self, name: str, key: str = "") -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, key, parent, self.job, time.perf_counter())
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, describe):
        """``fn`` recording a span per call.

        ``describe(args, result)`` returns the span key and a dict of tags.
        """

        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            span.key, span.tags = describe(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span), sort_keys=True) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child[span.parent] += span.duration
    return [span.duration - c for span, c in zip(spans, child)]


def _median_ms(values) -> float:
    return statistics.median(values) * 1e3 if values else 0.0


def layer_metrics(spans: list[Span], overhead_ratio: float) -> dict[str, float]:
    """Per-layer metrics of a traced run; a metric the workload never reaches reads 0.

    Timings are medians per call of the span duration, keyed as in
    :func:`per_layer_names`.  ``busy_share`` is a layer's summed self time
    over the summed duration of the traced jobs.  ``serialize.parse_ms`` and
    ``serialize.render_ms`` are medians per CLI job of the time spent in
    outermost ``*_from_obj`` spans, and in outermost ``*_to_obj`` and
    ``dumps`` spans.  ``cli.self_share`` is ``main`` self time over ``main``
    time.
    """
    out = dict.fromkeys(per_layer_names(), 0.0)
    selfs = self_times(spans)
    per_call: dict[str, list[float]] = {}
    busy: dict[str, float] = {}
    job_time = 0.0
    serialize_jobs: dict[tuple[str, int], float] = {}
    cb_kinds: list[str] = []
    quality: dict[str, list[float]] = {}
    main_total = main_self = 0.0
    for span, own in zip(spans, selfs):
        if span.name == "job":
            job_time += span.duration
            for name, value in span.tags.items():
                quality.setdefault(name, []).append(value)
            continue
        busy[span.layer] = busy.get(span.layer, 0.0) + own
        op = span.name.split(".", 1)[1]
        if span.layer == "serialize":
            parent = spans[span.parent] if span.parent is not None else None
            if parent is None or parent.layer != "serialize":
                kind = "parse" if op.endswith("_from_obj") else "render"
                serialize_jobs[(kind, span.job)] = (
                    serialize_jobs.get((kind, span.job), 0.0) + span.duration
                )
            continue
        if span.layer == "cli":
            main_total += span.duration
            main_self += own
            per_call.setdefault(f"cli.{span.key}_ms", []).append(span.duration)
            continue
        per_call.setdefault(f"{span.layer}.{op}_ms.{span.key}", []).append(span.duration)
        if span.name == "norms.cb_norm":
            cb_kinds.append(span.key)
        if span.name == "twirl.twirl":
            per_call.setdefault(f"twirl.sample_ms.{span.key}", []).append(
                span.duration / span.tags["samples"]
            )
    for name, values in per_call.items():
        if name in out:
            out[name] = _median_ms(values)
    for name, values in quality.items():
        if name in out:
            out[name] = statistics.median(values)
    for kind in ("parse", "render"):
        values = [t for (k, _), t in serialize_jobs.items() if k == kind]
        out[f"serialize.{kind}_ms"] = _median_ms(values)
    if cb_kinds:
        useful = sum(1 for k in cb_kinds if k.endswith("-exact") or k.endswith("-bracket"))
        out["norms.exact_share"] = useful / len(cb_kinds)
    if job_time > 0:
        for layer in LAYERS:
            if layer != "cli":
                out[f"{layer}.busy_share"] = busy.get(layer, 0.0) / job_time
    if main_total > 0:
        out["cli.self_share"] = main_self / main_total
    out["trace.overhead_ratio"] = overhead_ratio
    return out
