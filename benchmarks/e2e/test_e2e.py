"""Self-tests of the end-to-end benchmark harness.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Not part of the tier-1 suite: these drive real workloads for about half a
minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

import numpy as np
import pytest

import compare
import run
import spans
import workloads


def _run_bench(tmp_path, *extra: str) -> tuple[int, dict, dict]:
    """run.py over every workload at 1 s; (exit code, last line, result)."""
    out = tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--seed", "0",
         "--duration", "1", "--json", str(out), *extra],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.stdout, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(out, encoding="utf-8") as fh:
        return proc.returncode, last, json.load(fh)


@pytest.fixture(scope="module")
def catalogue():
    return run.load_catalogue()


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    return _run_bench(tmp_path_factory.mktemp("untraced"))


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("traced")
    return (*_run_bench(tmp, "--trace", str(tmp / "trace")), tmp / "trace")


def test_every_workload_completes_and_passes_the_oracle(untraced, catalogue):
    code, last, doc = untraced
    assert code == 0
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    names = [w["name"] for w in catalogue["workloads"]]
    assert list(doc["workloads"]) == names
    for name, w in doc["workloads"].items():
        assert w["attempted"] >= 1 and w["failed"] == 0, name
        assert w["mismatches"] == 0 and w["oracle_inputs"] >= 1, name


def test_every_catalogue_metric_is_emitted_with_its_unit(untraced, traced,
                                                        catalogue):
    names = [w["name"] for w in catalogue["workloads"]]
    for (_, last, doc), group in ((untraced, "end_to_end"),
                                  (traced[:3], "per_layer")):
        for w in names:
            for m in catalogue[group]:
                got = last["metrics"][f"{w}/{m['name']}"]
                assert got["unit"] == m["unit"], (w, m)
                assert isinstance(got["value"], (int, float)), (w, m)
    for w in doc["workloads"].values():
        for m in catalogue["end_to_end"]:
            assert w["metrics"][m["name"]]["n"] >= 1
            assert w["metrics"][m["name"]]["value"] > 0


def test_traced_run_writes_loadable_traces(traced):
    code, _, doc, trace_dir = traced
    assert code == 0
    layers = json.loads((trace_dir / "layers.json").read_text())
    for name in doc["workloads"]:
        trace = json.loads((trace_dir / f"trace-{name}.json").read_text())
        assert trace["traceEvents"], name
        assert all(e["ph"] in ("X", "M") for e in trace["traceEvents"])
        assert layers[name]["absent"] == []
        assert layers[name]["waterfall"][0][0] == "wall"
    assert layers["sweep-serial"]["metrics"]["distributed.messages"] == 0
    assert layers["halo-4rank"]["metrics"]["distributed.messages"] > 0
    assert layers["serve-small"]["metrics"]["serve.journal_appends"] > 0
    assert layers["sweep-serial"]["metrics"]["serve.journal_appends"] == 0


def test_corrupt_result_is_caught_and_exits_1(monkeypatch, tmp_path):
    from repro.resilience.watchdog import GuardedSweep

    original = GuardedSweep.run

    def corrupt(self, field, steps, traffic=None, resume=False):
        out = original(self, field, steps, traffic)
        out.data[0, 1, 1, 1] += np.float32(1.0)
        return out

    monkeypatch.setattr(GuardedSweep, "run", corrupt)
    result = workloads.run("sweep-serial", 0, 0.2, time.monotonic())
    assert result["mismatches"] == result["attempted"] >= 1
    assert result["failed"] == result["attempted"]

    def fake_spawn(args, timeout):
        if "--setup-only" in args:
            return {"setup_s": 0.1}
        return json.loads(json.dumps(result))

    monkeypatch.setattr(run, "spawn", fake_spawn)
    code = run.main(["--workload", "sweep-serial", "--seconds", "0.2",
                     "--json", str(tmp_path / "r.json")])
    assert code == 1
    doc = json.loads((tmp_path / "r.json").read_text())
    assert doc["correct"] is False


def _small_traced_runs(tracer):
    """A few tiny sweeps through every executor family, one request each."""
    from repro.core.blocking35d import Blocking35D
    from repro.core.traffic import TrafficStats
    from repro.distributed.runner import DistributedJacobi
    from repro.resilience.watchdog import GuardedSweep
    from repro.stencils.grid import Field3D
    from repro.stencils.seven_point import SevenPointStencil

    k = SevenPointStencil()
    field = Field3D.random((20, 20, 20), dtype=np.float32, seed=0)
    calls = [
        lambda t: GuardedSweep(Blocking35D(k, 2, 8, 8)).run(field, 4, t),
        lambda t: DistributedJacobi(k, n_ranks=2, dim_t=2).run(field, 4, t),
    ]
    for i, call in enumerate(calls):
        with tracer.request(i):
            call(TrafficStats())


def test_spans_nest_and_self_times_are_bounded():
    tracer = spans.Tracer(cap=10**6)
    inst = spans.install(tracer)
    try:
        _small_traced_runs(tracer)
    finally:
        inst.undo()
    recs = {r[0]: r for r in tracer.records}
    assert tracer.dropped == 0 and len(recs) > 100
    for sid, psid, name, layer, t0, dur, self_ns, tid, rid in recs.values():
        assert 0 <= self_ns <= dur, name
        if psid == 0:
            continue
        parent = recs[psid]
        assert self_ns <= parent[5], (name, parent[2])
        assert rid == parent[8] and tid == parent[7], (name, parent[2])
        assert parent[4] <= t0 and t0 + dur <= parent[4] + parent[5]
    summary = tracer.summary()
    for req in summary["requests"].values():
        # the waterfall rows add up to the wall time exactly
        assert req["root_self"] + sum(req["layers"].values()) == req["wall"]
    metrics, absent = spans.layer_metrics(summary)
    assert absent == []
    assert metrics["core.compute_overestimation"] >= 1.0


def test_missing_wrap_target_is_reported_absent():
    tracer = spans.Tracer()
    targets = spans.TARGETS + (
        ("core", "core.round", "repro.core.blocking35d:Blocking35D.gone"),
        ("serve", "serve.journal", "repro.no_such_module:Journal.append"),
    )
    with pytest.warns(UserWarning, match="wrap target"):
        inst = spans.install(tracer, targets)
    try:
        _small_traced_runs(tracer)
    finally:
        inst.undo()
    metrics, absent = spans.layer_metrics(tracer.summary())
    assert "core.rounds" in absent and "serve.journal_ms" in absent
    assert "perf.plane_ms" not in absent and metrics["perf.plane_ms"] > 0


def test_compare_judges_bounds_and_refuses_other_hosts(tmp_path, capsys,
                                                       catalogue):
    assert compare.judge(100.0, 95.0, "higher", 0.1) == "ok"
    assert compare.judge(100.0, 80.0, "higher", 0.1) == "worse"
    assert compare.judge(100.0, 80.0, "lower", 0.1) == "better"

    def doc(value, cpu):
        return {"host": {"cpu": cpu}, "workloads": {"sweep-serial": {
            "metrics": {m["name"]: {"value": value}
                        for m in catalogue["end_to_end"]}}}}

    paths = []
    for i, d in enumerate((doc(1.0, "x"), doc(1.0, "x"), doc(1.0, "y"))):
        paths.append(tmp_path / f"{i}.json")
        paths[-1].write_text(json.dumps(d))
    assert compare.main([str(paths[0]), str(paths[1])]) == 0
    assert compare.main([str(paths[0]), str(paths[2])]) == 2
    assert "different hosts" in capsys.readouterr().err
