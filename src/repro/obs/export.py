"""Exporters: chrome-trace JSON, metrics JSON, span aggregation.

``chrome_trace`` emits the Trace Event Format ("X" complete events plus
"M" thread-name metadata) that chrome://tracing and Perfetto's legacy
JSON importer load directly; ``metrics_document`` emits the flat
metrics/validation JSON that the benchmarks embed in their BENCH files.
Both documents carry a ``schema`` tag validated by
:mod:`repro.obs.schema` in CI.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Iterable

from .metrics import METRICS, MetricsRegistry
from .trace import TRACE, SpanRecord, SpanTracer

__all__ = [
    "TRACE_SCHEMA_ID",
    "METRICS_SCHEMA_ID",
    "SPAN_PHASES",
    "chrome_trace",
    "write_chrome_trace",
    "metrics_document",
    "write_metrics",
    "aggregate_spans",
    "summarize_trace",
]

TRACE_SCHEMA_ID = "repro.trace/v1"
METRICS_SCHEMA_ID = "repro.metrics/v1"

#: span name -> phase family, so ``repro trace`` can roll a mixed trace up
#: into meaningful groups instead of dumping serve/job spans into "other"
SPAN_PHASES: dict[str, str] = {
    # executor phases
    "sweep": "compute", "round": "compute", "tile": "compute",
    "z_iter": "compute", "codegen_round": "compute",
    "volume_round": "compute", "batched_round": "compute",
    # threaded runtime
    "spmd": "parallel",
    # resilience
    "guarded_run": "resilience", "guard_round": "resilience",
    # distributed
    "halo_exchange": "distributed", "rank_compute": "distributed",
    "halo_wait": "distributed", "rank_recovery": "distributed",
    # serving: the per-job lifecycle spans minted by repro submit / the
    # serve daemon (trace_id-stamped), plus the daemon-side job wrapper
    "job_submit": "serving", "job_admit": "serving",
    "job_queue_wait": "serving", "job_run": "serving",
    "job_round": "serving", "job_respond": "serving",
    "serve_job": "serving",
}


def chrome_trace(
    events: Iterable[SpanRecord] | None = None,
    *,
    tracer: SpanTracer | None = None,
    pid: int = 1,
) -> dict[str, Any]:
    """Build a chrome trace_event document from recorded spans.

    Thread idents are remapped to small stable tids (0 = first thread
    seen, usually the main thread) so Perfetto's track names stay
    readable.
    """
    if events is None:
        events = (tracer or TRACE).events()
    events = list(events)
    names = (tracer or TRACE).thread_names()

    tid_map: dict[int, int] = {}
    trace_events: list[dict[str, Any]] = []
    for rec in events:
        tid = tid_map.setdefault(rec.tid, len(tid_map))
        ev: dict[str, Any] = {
            "name": rec.name,
            "cat": "repro",
            "ph": "X",
            "ts": rec.start_ns / 1000.0,
            "dur": rec.dur_ns / 1000.0,
            "pid": pid,
            "tid": tid,
        }
        if rec.attrs:
            ev["args"] = {k: _jsonable(v) for k, v in rec.attrs.items()}
        trace_events.append(ev)
    meta = [
        {
            "name": "thread_name",
            "ph": "M",
            "pid": pid,
            "tid": tid,
            "args": {"name": names.get(ident, f"thread-{tid}")},
        }
        for ident, tid in tid_map.items()
    ]
    return {
        "schema": TRACE_SCHEMA_ID,
        "displayTimeUnit": "ms",
        "traceEvents": meta + trace_events,
        "otherData": {
            "generator": "repro.obs",
            "dropped_spans": (tracer or TRACE).dropped(),
        },
    }


def _jsonable(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def write_chrome_trace(path: str, *, tracer: SpanTracer | None = None) -> dict[str, Any]:
    doc = chrome_trace(tracer=tracer)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    dropped = doc.get("otherData", {}).get("dropped_spans", 0)
    if dropped:
        print(
            f"warning: {path}: {dropped} span(s) dropped (tracer ring "
            "buffer wrapped); re-arm with a larger capacity for a "
            "complete trace",
            file=sys.stderr,
        )
    return doc


def metrics_document(
    metrics: MetricsRegistry | None = None,
    *,
    validation: Any = None,
    run: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Flat metrics JSON; ``validation`` may be a ModelValidation."""
    doc: dict[str, Any] = {"schema": METRICS_SCHEMA_ID}
    doc.update((metrics or METRICS).to_dict())
    # trace loss is a metrics fact too: silently truncated spans would
    # make every span-derived number quietly wrong, so the counter is
    # always present once spans have been dropped
    dropped = TRACE.dropped()
    if dropped:
        doc.setdefault("counters", {})["obs.dropped_spans"] = dropped
    if run:
        doc["run"] = run
    if validation is not None:
        doc["validation"] = (
            validation.to_dict() if hasattr(validation, "to_dict") else validation
        )
    return doc


def write_metrics(
    path: str,
    metrics: MetricsRegistry | None = None,
    *,
    validation: Any = None,
    run: dict[str, Any] | None = None,
) -> dict[str, Any]:
    doc = metrics_document(metrics, validation=validation, run=run)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return doc


# ----------------------------------------------------------------------
def aggregate_spans(
    events: Iterable[SpanRecord],
) -> dict[str, dict[str, float]]:
    """Per-span-name totals: count, total wall ns, and *self* ns.

    Self time subtracts every directly-nested child interval from its
    parent, per thread, so the per-phase numbers sum to at most the
    sweep wall time instead of double-counting nesting levels.
    """
    agg: dict[str, dict[str, float]] = {}
    by_tid: dict[int, list[SpanRecord]] = {}
    for rec in events:
        by_tid.setdefault(rec.tid, []).append(rec)

    for recs in by_tid.values():
        recs.sort(key=lambda r: (r.start_ns, -r.dur_ns))
        stack: list[tuple[int, dict[str, float]]] = []  # (end_ns, entry)
        for rec in recs:
            entry = agg.setdefault(
                rec.name, {"count": 0, "total_ns": 0, "self_ns": 0})
            entry["count"] += 1
            entry["total_ns"] += rec.dur_ns
            entry["self_ns"] += rec.dur_ns
            while stack and rec.start_ns >= stack[-1][0]:
                stack.pop()
            if stack:
                stack[-1][1]["self_ns"] -= rec.dur_ns
            stack.append((rec.end_ns, entry))
    return agg


def summarize_trace(doc: dict[str, Any]) -> list[str]:
    """Human summary of a chrome-trace document (for ``repro trace``)."""
    spans = [ev for ev in doc.get("traceEvents", []) if ev.get("ph") == "X"]
    if not spans:
        return ["trace contains no spans"]
    # rebuild SpanRecords from the document (µs -> ns) for aggregation
    recs = [
        SpanRecord(
            name=ev["name"],
            tid=ev.get("tid", 0),
            thread_name=str(ev.get("tid", 0)),
            start_ns=int(ev["ts"] * 1000),
            dur_ns=int(ev.get("dur", 0) * 1000),
            depth=0,
            attrs=ev.get("args", {}),
        )
        for ev in spans
    ]
    agg = aggregate_spans(recs)
    t0 = min(r.start_ns for r in recs)
    t1 = max(r.end_ns for r in recs)
    wall_ms = (t1 - t0) / 1e6
    threads = len({r.tid for r in recs})
    lines = [
        f"{len(recs)} spans on {threads} thread(s), {wall_ms:.2f} ms wall",
        f"{'span':<16} {'count':>8} {'total ms':>10} {'self ms':>10} {'self %':>7}",
    ]
    total_self = sum(e["self_ns"] for e in agg.values()) or 1
    for name, entry in sorted(
            agg.items(), key=lambda kv: -kv[1]["self_ns"]):
        lines.append(
            f"{name:<16} {int(entry['count']):>8} "
            f"{entry['total_ns'] / 1e6:>10.2f} "
            f"{entry['self_ns'] / 1e6:>10.2f} "
            f"{100 * entry['self_ns'] / total_self:>6.1f}%"
        )
    # phase-family rollup: compute/parallel/distributed/resilience/serving
    # (a traced daemon run gets attributed lines, not one "other" bucket)
    phases: dict[str, float] = {}
    for name, entry in agg.items():
        phases.setdefault(SPAN_PHASES.get(name, "other"), 0.0)
        phases[SPAN_PHASES.get(name, "other")] += entry["self_ns"]
    if len(phases) > 1 or "other" not in phases:
        lines.append("by phase:")
        for phase, self_ns in sorted(phases.items(), key=lambda kv: -kv[1]):
            lines.append(
                f"  {phase:<14} {self_ns / 1e6:>10.2f} ms "
                f"{100 * self_ns / total_self:>6.1f}%"
            )
    dropped = doc.get("otherData", {}).get("dropped_spans", 0)
    if dropped:
        lines.append(f"warning: {dropped} spans dropped (ring buffer wrapped)")
    return lines
