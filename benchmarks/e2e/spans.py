"""Outside-in span tracer for the end-to-end benchmark.

The program under test is not edited.  :func:`install` replaces the public
entry points listed in :data:`TARGETS` with timing wrappers at class (or
module) level, before any executor is built.  Each wrapper opens a span on
a per-thread stack, so a span's parent is the wrapped call that encloses
it.

Every span carries a request id: the call index for sweeps (set by
:meth:`Tracer.request`), and in the serve daemon the job id, taken from
the ``started``/``resumed`` journal append that opens each job run.  That
append also opens the synthetic ``serve.job`` root span, which the job's
terminal journal append closes.

A span's self time is its duration minus the part of it that child spans
cover.  Totals are aggregated as each span closes, so they cover the whole run;
full span records are kept only up to ``cap`` and written at exit as a
Chrome-trace JSON that Perfetto loads.  Nothing here arms the program's own
``TRACE``/``METRICS``.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import statistics
import sys
import threading
import time
import warnings

#: (layer, span name, "module:attribute path") of every wrapped entry point
TARGETS = (
    ("perf", "perf.bind", "repro.resilience.fallback:bind_with_fallback"),
    ("core", "core.run", "repro.core.blocking35d:Blocking35D.run"),
    ("core", "core.round", "repro.core.blocking35d:Blocking35D.sweep_round"),
    ("core", "core.naive", "repro.core.naive:run_naive"),
    ("resilience", "resilience.guard", "repro.resilience.watchdog:GuardedSweep.run"),
    ("stencils", "stencils.copy", "repro.stencils.grid:Field3D.copy"),
    ("stencils", "stencils.copy", "repro.stencils.grid:Field3D.from_array"),
    ("distributed", "distributed.run", "repro.distributed.runner:DistributedJacobi.run"),
    ("distributed", "distributed.comm", "repro.distributed.comm:SimComm.isend"),
    ("distributed", "distributed.comm", "repro.distributed.comm:SimComm.irecv"),
    ("distributed", "distributed.comm", "repro.distributed.comm:SimComm.wait"),
    ("distributed", "distributed.comm", "repro.distributed.comm:SimComm.waitall"),
    ("serve", "serve.submit", "repro.serve.server:ServeCore.submit"),
    ("serve", "serve.journal", "repro.serve.journal:JobJournal.append"),
    ("serve", "serve.plan", "repro.serve.server:PlanCache.get"),
    ("serve", "serve.plan", "repro.serve.server:PlanCache.stats"),
    ("obs", "obs.ledger", "repro.obs.serving:UsageLedger.charge"),
    ("obs", "obs.ledger", "repro.obs.serving:UsageLedger.count"),
    ("obs", "obs.metric", "repro.obs.metrics:MetricsRegistry.inc"),
    ("obs", "obs.metric", "repro.obs.metrics:MetricsRegistry.observe_quantile"),
    ("obs", "obs.metric", "repro.obs.metrics:MetricsRegistry.set_gauge"),
    ("client", "client.submit", "repro.serve.client:ServeClient.submit"),
    # the bound rung's plane kernel: every PlaneKernel subclass that
    # overrides compute_plane is wrapped
    ("perf", "perf.plane", "repro.stencils.base:PlaneKernel.compute_plane"),
)

#: span names whose individual durations are kept for percentiles
SAMPLED = frozenset({"serve.submit", "client.submit"})

#: journal events that end a job run on the worker thread
_RUN_END_EVENTS = frozenset({"done", "requeued", "cancelled", "shed"})


class Frame:
    """One open span."""

    __slots__ = ("sid", "name", "layer", "t0", "t1", "parent", "rid", "root",
                 "root_rid", "child_ns", "counting")

    def __init__(self, sid, name, layer, parent, rid, root):
        self.sid = sid
        self.name = name
        self.layer = layer
        self.parent = parent
        self.rid = rid
        self.root = root
        if root:
            self.root_rid = rid
        else:
            self.root_rid = parent.root_rid if parent is not None else None
        self.child_ns = 0
        self.counting = False
        self.t0 = self.t1 = 0


def _request_entry() -> dict:
    return {"names": {}, "counters": {}, "wall": 0, "root_self": 0,
            "layers": {}}


class Tracer:
    """Per-thread span stacks plus the aggregates computed as spans close."""

    def __init__(self, cap: int = 25_000) -> None:
        self.enabled = True
        self.cap = cap
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        #: (sid, parent sid, name, layer, start ns, dur ns, self ns, thread, rid)
        self.records: list[tuple] = []
        self.dropped = 0
        self.by_name: dict[str, list[int]] = {}
        self.requests: dict[str, dict] = {}
        self.samples: dict[str, list[int]] = {}
        #: span names whose wrap target is missing
        self.absent: set[str] = set()

    # -- span stack ----------------------------------------------------
    def _stack(self) -> list[Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def top(self) -> Frame | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def enter(self, name: str, layer: str, *, rid=None,
              root: bool = False) -> Frame:
        """Open a span under the innermost open span of this thread."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        if rid is None:
            rid = parent.rid if parent is not None else getattr(
                self._local, "rid", None)
        f = Frame(next(self._ids), name, layer, parent, rid, root)
        stack.append(f)
        f.t0 = time.monotonic_ns()
        return f

    def exit(self, f: Frame) -> None:
        f.t1 = t1 = time.monotonic_ns()
        self._stack().pop()
        dur = t1 - f.t0
        self_ns = max(0, dur - f.child_ns)
        parent = f.parent
        with self._lock:
            if parent is not None:
                parent.child_ns += dur
            agg = self.by_name.setdefault(f.name, [0, 0, 0])
            agg[0] += 1
            agg[1] += dur
            agg[2] += self_ns
            if f.rid is not None:
                req = self._request(f.rid)
                per = req["names"].setdefault(f.name, [0, 0, 0])
                per[0] += 1
                per[1] += dur
                per[2] += self_ns
            if f.root:
                req = self._request(f.rid)
                req["wall"] += dur
                req["root_self"] += self_ns
            elif f.root_rid is not None:
                layers = self._request(f.root_rid)["layers"]
                layers[f.layer] = layers.get(f.layer, 0) + self_ns
            if f.name in SAMPLED:
                self.samples.setdefault(f.name, []).append(dur)
            if len(self.records) < self.cap:
                self.records.append((
                    f.sid, parent.sid if parent is not None else 0, f.name,
                    f.layer, f.t0, dur, self_ns, threading.get_ident(),
                    f.rid,
                ))
            else:
                self.dropped += 1

    def _request(self, rid) -> dict:
        key = str(rid)
        req = self.requests.get(key)
        if req is None:
            req = self.requests[key] = _request_entry()
        return req

    # -- request ids ---------------------------------------------------
    def request(self, rid):
        """Context manager: one benchmark request, the root of its spans."""
        return _RequestSpan(self, rid)

    def set_thread_rid(self, rid) -> None:
        """The request id of spans opened later on this thread with no
        enclosing request (serve worker bookkeeping after a job run)."""
        self._local.rid = rid

    def adopt_rid(self, rid) -> None:
        """Give open spans of this thread that have no request id ``rid``."""
        for f in self._stack():
            if f.rid is None:
                f.rid = rid

    def count(self, rid, key: str, value) -> None:
        """Add ``value`` to a per-request counter."""
        with self._lock:
            counters = self._request(rid)["counters"]
            counters[key] = counters.get(key, 0) + value

    # -- output ----------------------------------------------------------
    def summary(self) -> dict:
        """The aggregates as a JSON-able dict (records excluded)."""
        with self._lock:
            return json.loads(json.dumps({
                "by_name": self.by_name,
                "requests": self.requests,
                "samples": self.samples,
                "absent": sorted(self.absent),
                "records": len(self.records),
                "dropped": self.dropped,
            }))

    def chrome_events(self, pid: int, label: str) -> list[dict]:
        """Kept span records as Chrome-trace complete events."""
        events = [{"ph": "M", "name": "process_name", "pid": pid,
                   "args": {"name": label}}]
        for sid, psid, name, layer, t0, dur, self_ns, tid, rid in self.records:
            events.append({
                "name": name, "cat": layer, "ph": "X", "pid": pid, "tid": tid,
                "ts": t0 / 1e3, "dur": dur / 1e3,
                "args": {"id": sid, "parent": psid, "rid": rid,
                         "self_us": self_ns / 1e3},
            })
        return events


class _RequestSpan:
    def __init__(self, tracer: Tracer, rid) -> None:
        self.tracer = tracer
        self.rid = rid
        self.frame: Frame | None = None

    def __enter__(self):
        self.frame = self.tracer.enter("bench.request", "bench", rid=self.rid,
                                       root=True)
        return self.frame

    def __exit__(self, *exc) -> None:
        self.tracer.exit(self.frame)


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------

def _plain(tracer: Tracer, fn, name: str, layer: str, hook=None):
    """Span around every call of ``fn``; a call nested directly inside a
    span of the same name (an override calling its base) is not re-spanned."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        top = tracer.top()
        if top is not None and top.name == name:
            return fn(*args, **kwargs)
        f = tracer.enter(name, layer)
        try:
            done = hook(tracer, f, args, kwargs) if hook is not None else None
            out = fn(*args, **kwargs)
            if done is not None:
                done(out)
            return out
        finally:
            tracer.exit(f)

    return wrapper


def _arg(args, kwargs, index: int, key: str):
    if len(args) > index:
        return args[index]
    return kwargs.get(key)


def _traffic_hook(tracer: Tracer, f: Frame, args, kwargs):
    """Counts for ``executor.run(field, steps, traffic)``.

    Only the outermost executor on a thread counts (the distributed
    runner's per-rank ``Blocking35D.run`` calls fold into its own run).
    Useful updates and compulsory bytes are counted only when a
    ``TrafficStats`` is passed, so their ratios with the executed counts
    stay consistent.
    """
    p = f.parent
    while p is not None:
        if p.counting:
            return None
        p = p.parent
    executor = args[0]
    field = _arg(args, kwargs, 1, "field")
    steps = _arg(args, kwargs, 2, "steps")
    traffic = _arg(args, kwargs, 3, "traffic")
    if traffic is None or not steps:
        return None
    f.counting = True
    before = (traffic.updates, traffic.total_bytes)

    def done(out):
        from repro.stencils.grid import interior_points

        rid = f.rid
        interior = interior_points(field.shape, executor.kernel.radius)
        nz, ny, nx = field.shape
        rounds = -(-steps // executor.dim_t)
        esize = field.element_size()
        tracer.count(rid, "core.useful_updates", interior * steps)
        tracer.count(rid, "core.compulsory_bytes",
                     rounds * (nz * ny * nx + interior) * esize)
        tracer.count(rid, "core.updates_executed", traffic.updates - before[0])
        tracer.count(rid, "core.bytes_computed",
                     traffic.total_bytes - before[1])
        if isinstance(out, tuple) and hasattr(out[-1], "total_stats"):
            st = out[-1].total_stats()
            tracer.count(rid, "distributed.messages", st.messages_sent)
            tracer.count(rid, "distributed.bytes", st.bytes_sent)
            tracer.count(rid, "distributed.overlapped_ns", st.overlapped_ns)
            tracer.count(rid, "distributed.exposed_ns", st.exposed_ns)

    return done


def _journal(tracer: Tracer, fn, name: str, layer: str):
    """``JobJournal.append``: job ids, plus the ``serve.job`` root span that
    a ``started``/``resumed`` record opens and the run's last record closes."""

    @functools.wraps(fn)
    def wrapper(journal, event, *args, **kwargs):
        if not tracer.enabled:
            return fn(journal, event, *args, **kwargs)
        jid = kwargs.get("id")
        if jid and event in ("started", "resumed"):
            tracer.set_thread_rid(jid)
            tracer.enter("serve.job", layer, rid=jid, root=True)
        elif jid:
            tracer.adopt_rid(jid)
        f = tracer.enter(name, layer, rid=jid)
        try:
            return fn(journal, event, *args, **kwargs)
        finally:
            tracer.exit(f)
            top = tracer.top()
            if (jid and event in _RUN_END_EVENTS and top is not None
                    and top.root and top.rid == jid):
                tracer.exit(top)

    return wrapper


_SPECIAL = {
    "serve.journal": _journal,
}
_HOOKS = {
    "core.run": _traffic_hook,
    "distributed.run": _traffic_hook,
}


# ----------------------------------------------------------------------
# install / uninstall
# ----------------------------------------------------------------------

class Installation:
    """What :func:`install` replaced, so :meth:`undo` can restore it."""

    def __init__(self) -> None:
        self.patches: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self.patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def undo(self) -> None:
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()


def _resolve(path: str):
    """(owner, attribute name) for ``module:Class.attr`` / ``module:func``."""
    modname, _, qual = path.partition(":")
    owner = importlib.import_module(modname)
    parts = qual.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    if parts[-1] not in vars(owner):
        raise AttributeError(f"{qual} not found in {modname}")
    return owner, parts[-1]


def _wrap_value(tracer, raw, name, layer):
    """Wrap a class-dict value (plain function, classmethod, staticmethod)."""
    special = _SPECIAL.get(name)
    if isinstance(raw, (classmethod, staticmethod)):
        return type(raw)(_plain(tracer, raw.__func__, name, layer))
    if special is not None:
        return special(tracer, raw, name, layer)
    return _plain(tracer, raw, name, layer, _HOOKS.get(name))


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def install(tracer: Tracer, targets=TARGETS) -> Installation:
    """Wrap every target; a missing one is skipped with a warning and its
    span name is recorded in ``tracer.absent``."""
    inst = Installation()
    for layer, name, path in targets:
        try:
            owner, attr = _resolve(path)
        except (ImportError, AttributeError) as exc:
            warnings.warn(f"wrap target {path} missing ({exc}); "
                          f"metrics built on {name} are reported absent",
                          stacklevel=2)
            tracer.absent.add(name)
            continue
        raw = vars(owner)[attr]
        if name == "perf.plane":
            # every concrete override, so whichever rung is bound is timed
            for cls in set(_subclasses(owner)):
                meth = vars(cls).get(attr)
                if meth is not None and not getattr(
                        meth, "__isabstractmethod__", False):
                    inst.set(cls, attr, _plain(tracer, meth, name, layer))
        elif isinstance(owner, type):
            inst.set(owner, attr, _wrap_value(tracer, raw, name, layer))
        else:
            # a module-level function: rebind it in every repro module that
            # imported it by name, so call sites bound at import see it
            wrapped = _wrap_value(tracer, raw, name, layer)
            for mod in list(sys.modules.values()):
                modname = getattr(mod, "__name__", "") or ""
                if (modname == "repro" or modname.startswith("repro.")) and \
                        vars(mod).get(attr) is raw:
                    inst.set(mod, attr, wrapped)
    return inst


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------

#: span names each per-layer metric is computed from; a metric whose spans
#: lost their wrap target is reported absent
NEEDS = {
    "perf.plane_calls": ("perf.plane",),
    "perf.plane_ms": ("perf.plane",),
    "perf.bind_calls": ("perf.bind",),
    "perf.bind_ms": ("perf.bind",),
    "core.run_ms": ("core.run",),
    "core.self_ms": ("core.run", "core.round", "perf.plane", "stencils.copy"),
    "core.dispatch_frac": ("core.run", "core.round", "perf.plane",
                           "stencils.copy"),
    "core.rounds": ("core.round",),
    "core.naive_ms": ("core.naive",),
    "core.updates_executed": ("core.run", "distributed.run"),
    "core.compute_overestimation": ("core.run", "distributed.run"),
    "core.bytes_computed": ("core.run", "distributed.run"),
    "core.kappa": ("core.run", "distributed.run"),
    "resilience.guard_self_ms": ("resilience.guard",),
    "stencils.grid_copies": ("stencils.copy",),
    "stencils.grid_copy_ms": ("stencils.copy",),
    "distributed.self_ms": ("distributed.run",),
    "distributed.comm_ms": ("distributed.comm",),
    "distributed.messages": ("distributed.run",),
    "distributed.bytes": ("distributed.run",),
    "distributed.hidden_frac": ("distributed.run",),
    "serve.admit_ms_p50": ("serve.submit",),
    "serve.journal_appends": ("serve.journal",),
    "serve.journal_ms": ("serve.journal",),
    "serve.job_self_ms": ("serve.journal",),
    "obs.ledger_ms": ("obs.ledger",),
    "obs.metric_calls": ("obs.metric",),
    "obs.metric_ms": ("obs.metric",),
    "client.submit_ms_p50": ("client.submit",),
    "client.submit_ms_p90": ("client.submit",),
}


def merge(summaries: list[dict]) -> dict:
    """Fold the summaries of several processes (generator + daemon)."""
    out = {"by_name": {}, "requests": {}, "samples": {}, "absent": [],
           "records": 0, "dropped": 0}
    absent: set[str] = set()
    for s in summaries:
        for name, (n, dur, self_ns) in s["by_name"].items():
            agg = out["by_name"].setdefault(name, [0, 0, 0])
            agg[0] += n
            agg[1] += dur
            agg[2] += self_ns
        for rid, req in s["requests"].items():
            dst = out["requests"].setdefault(rid, _request_entry())
            for name, vals in req["names"].items():
                per = dst["names"].setdefault(name, [0, 0, 0])
                for i in range(3):
                    per[i] += vals[i]
            for group in ("counters", "layers"):
                for key, value in req[group].items():
                    dst[group][key] = dst[group].get(key, 0) + value
            dst["wall"] += req["wall"]
            dst["root_self"] += req["root_self"]
        for name, durs in s["samples"].items():
            out["samples"].setdefault(name, []).extend(durs)
        absent.update(s["absent"])
        out["records"] += s["records"]
        out["dropped"] += s["dropped"]
    out["absent"] = sorted(absent)
    return out


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile; 0.0 for an empty list."""
    if not values:
        return 0.0
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


#: per-layer metrics measured outside the spans (daemon stats, generator);
#: zero on workloads that have no daemon or no open loop
EXTRA = (
    "serve.queue_wait_ms_p50", "serve.queue_wait_ms_p90",
    "serve.service_ms_p50", "serve.service_ms_p90", "serve.plan_hit_rate",
    "serve.useful_frac", "serve.slo_miss_ratio",
    "client.gen_lag_ms_p90",
)


def requests_of(summary: dict, exclude=()) -> list[dict]:
    """The requests whose root span was recorded, minus ``exclude``."""
    skip = {str(r) for r in exclude}
    return [req for rid, req in summary["requests"].items()
            if req["wall"] > 0 and rid not in skip]


def layer_metrics(summary: dict, extra: dict | None = None,
                  exclude=()) -> tuple[dict, list[str]]:
    """Per-layer metric values and the names reported absent.

    Times (``*_ms``) and counts are means per request over the requests
    whose root span was recorded (``exclude`` drops warm-up jobs); ratios
    are ratios of totals; ``perf.bind_*`` are process totals because
    binding happens at set-up.  ``extra`` supplies the values measured
    outside the spans (daemon stats, generator timings).
    """
    reqs = requests_of(summary, exclude)
    n = len(reqs) or 1

    def name_mean(name: str, idx: int) -> float:
        return sum(r["names"].get(name, (0, 0, 0))[idx] for r in reqs) / n

    def counter_total(key: str) -> float:
        return sum(r["counters"].get(key, 0) for r in reqs)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    ms = 1e-6
    core_run = name_mean("core.run", 1)
    core_self = name_mean("core.run", 2) + name_mean("core.round", 2)
    bind = summary["by_name"].get("perf.bind", (0, 0, 0))
    submit = summary["samples"].get("serve.submit", [])
    client = summary["samples"].get("client.submit", [])
    m = {
        "perf.plane_calls": name_mean("perf.plane", 0),
        "perf.plane_ms": name_mean("perf.plane", 1) * ms,
        "perf.bind_calls": float(bind[0]),
        "perf.bind_ms": bind[1] * ms,
        "core.run_ms": core_run * ms,
        "core.self_ms": core_self * ms,
        "core.dispatch_frac": ratio(core_self, core_run),
        "core.rounds": name_mean("core.round", 0),
        "core.naive_ms": name_mean("core.naive", 1) * ms,
        "core.updates_executed": counter_total("core.updates_executed") / n,
        "core.compute_overestimation": ratio(
            counter_total("core.updates_executed"),
            counter_total("core.useful_updates")),
        "core.bytes_computed": counter_total("core.bytes_computed") / n,
        "core.kappa": ratio(counter_total("core.bytes_computed"),
                            counter_total("core.compulsory_bytes")),
        "resilience.guard_self_ms": name_mean("resilience.guard", 2) * ms,
        "stencils.grid_copies": name_mean("stencils.copy", 0),
        "stencils.grid_copy_ms": name_mean("stencils.copy", 1) * ms,
        "distributed.self_ms": name_mean("distributed.run", 2) * ms,
        "distributed.comm_ms": name_mean("distributed.comm", 2) * ms,
        "distributed.messages": counter_total("distributed.messages") / n,
        "distributed.bytes": counter_total("distributed.bytes") / n,
        "distributed.hidden_frac": ratio(
            counter_total("distributed.overlapped_ns"),
            counter_total("distributed.overlapped_ns")
            + counter_total("distributed.exposed_ns")),
        "serve.admit_ms_p50": quantile(submit, 0.5) * ms,
        "serve.journal_appends": name_mean("serve.journal", 0),
        "serve.journal_ms": name_mean("serve.journal", 1) * ms,
        "serve.job_self_ms": (sum(r["root_self"] for r in reqs) / n * ms
                              if "serve.job" in summary["by_name"] else 0.0),
        "obs.ledger_ms": name_mean("obs.ledger", 1) * ms,
        "obs.metric_calls": name_mean("obs.metric", 0),
        "obs.metric_ms": name_mean("obs.metric", 1) * ms,
        "client.submit_ms_p50": quantile(client, 0.5) * ms,
        "client.submit_ms_p90": quantile(client, 0.9) * ms,
    }
    m.update(dict.fromkeys(EXTRA, 0.0))
    m.update(extra or {})
    lost = set(summary["absent"])
    absent = sorted(k for k, spans in NEEDS.items() if lost.intersection(spans))
    return m, absent


def waterfall(summary: dict, exclude=()) -> list[tuple[str, float, float]]:
    """Per-request attribution of the root span's wall time.

    Rows are (label, median ms, mean ms): each layer's self time inside the
    request and the root span's own self time ("unattributed": time in no
    wrapped call); the mean rows sum to the mean wall time.
    """
    reqs = requests_of(summary, exclude)
    if not reqs:
        return []
    layers = sorted({k for r in reqs for k in r["layers"]})
    rows = []

    def row(label, values):
        rows.append((label, statistics.median(values) / 1e6,
                     statistics.fmean(values) / 1e6))

    row("wall", [r["wall"] for r in reqs])
    for layer in layers:
        row(layer, [r["layers"].get(layer, 0) for r in reqs])
    row("unattributed", [r["root_self"] for r in reqs])
    return rows
