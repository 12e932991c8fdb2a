"""One RunSpec, one build(): every entry point constructs the same run.

* The invalid-spec matrix: each combination some entry point used to
  refuse on its own is refused by ``RunSpec.validate`` and, with that
  reason, by every adapter — ``repro run`` (exit 2), serve ``submit``
  (refused, never journaled), ``build`` (``ValueError``) and a chaos
  target's ``make``.
* The differential: one spec gives the same sha256 through ``repro run``,
  ``repro submit --wait`` and ``build(spec).run(...)``, and it is the
  naive oracle's.
"""

from __future__ import annotations

import dataclasses
import zlib

import numpy as np
import pytest

from repro.cli import main
from repro.core import run_naive
from repro.distributed.comm import _checksum
from repro.resilience import FAULTS
from repro.resilience.checkpoint import data_digest
from repro.resilience.chaos import DISTRIBUTED
from repro.resilience.sdc import SDC
from repro.runspec import RunSpec, build, make_field, make_kernel
from repro.serve import JobServer, JobSpec, ServeCore
from repro.serve.journal import JobJournal

#: (case id, RunSpec fields) of every combination an entry point refuses
INVALID = [
    ("ranks-with-threads", {"ranks": 2, "threads": 2}),
    ("deadline-without-threads", {"spmd_deadline_s": 1.0}),
    ("loss-without-ranks", {"loss": 0.1}),
    ("latency-without-ranks", {"comm_latency_s": 1e-4}),
    ("unknown-kernel", {"kernel": "9pt"}),
    ("unknown-backend", {"backend": "bogus"}),
    ("unknown-tier", {"integrity": "platinum"}),
    ("grid-below-3", {"grid": 2}),
    ("steps-below-1", {"steps": 0}),
    ("tile-below-ghosts", {"tile": 4, "dim_t": 2}),
]

#: RunSpec field -> ``repro run`` flag
FLAGS = {
    "ranks": "--ranks", "threads": "--threads", "spmd_deadline_s": "--deadline",
    "loss": "--loss", "comm_latency_s": "--comm-latency", "kernel": "--kernel",
    "backend": "--backend", "integrity": "--verify", "grid": "--grid",
    "steps": "--steps",
}

#: the fields argparse itself refuses (choices): exit 2 with its message
ARGPARSE_CHOICES = {"kernel", "integrity"}

BASE = {"grid": 12, "steps": 4, "dim_t": 2, "tile": 12}


def _reason(fields: dict) -> str:
    reason = RunSpec(**{**BASE, **fields}).validate()
    assert reason, fields
    return reason


@pytest.fixture(autouse=True)
def _clean_faults():
    FAULTS.disarm()
    yield
    FAULTS.disarm()


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """An in-process daemon on a unix socket."""
    tmp = tmp_path_factory.mktemp("serve")
    core = ServeCore(tmp / "state", workers=1, fsync=False)
    core.start()
    srv = JobServer(core, tmp / "sock")
    srv.start()
    yield core, str(tmp / "sock")
    srv.stop()
    core.drain(timeout=30.0)


@pytest.mark.parametrize("fields", [f for _, f in INVALID],
                         ids=[i for i, _ in INVALID])
class TestInvalidSpecMatrix:
    def test_build_raises_the_reason(self, fields):
        with pytest.raises(ValueError) as err:
            build(RunSpec(**{**BASE, **fields}))
        assert str(err.value) == _reason(fields)

    def test_repro_run_exits_2_with_the_reason(self, fields, capsys):
        argv = ["run"]
        for key, value in {**BASE, **fields}.items():
            argv += [FLAGS.get(key, "--" + key.replace("_", "-")), str(value)]
        if ARGPARSE_CHOICES & set(fields):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert "invalid choice" in capsys.readouterr().err
            return
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {_reason(fields)}\n"


#: (target, RunSpec field -> its shape key): the fields a chaos target's
#: shape carries; the rest its case fixes
CHAOS_SHAPES = [
    (DISTRIBUTED, {"grid": "grid", "steps": "steps"}),
    (SDC, {"grid": "grid", "steps": "steps", "integrity": "tier"}),
]
CHAOS_INVALID = [
    pytest.param(target, {keys[k]: v for k, v in fields.items()}, fields,
                 id=f"{target.name}-{case}")
    for target, keys in CHAOS_SHAPES
    for case, fields in INVALID if set(fields) <= set(keys)
]


@pytest.mark.parametrize("target,shape,fields", CHAOS_INVALID)
def test_chaos_make_raises_the_reason(target, shape, fields):
    with pytest.raises(ValueError) as err:
        target.make(0, **shape)
    assert str(err.value) == _reason(fields)


#: the cases a job can carry: a JobSpec has no threads, ranks, SPMD
#: deadline or transport fields
JOB_INVALID = [(i, f) for i, f in INVALID
               if set(f) <= set(JobSpec.__dataclass_fields__)]


@pytest.mark.parametrize("fields", [f for _, f in JOB_INVALID],
                         ids=[i for i, _ in JOB_INVALID])
def test_submit_refused_and_never_journaled(fields, served):
    core, _ = served
    journal = JobJournal(core.state_dir / "journal.jsonl")
    before = (core.counters["accepted"], len(journal.replay().records))
    reply = core.submit({**BASE, "verify": False, **fields})
    assert not reply["ok"] and reply["error"] == "rejected"
    assert reply["reason"] == f"invalid job: {_reason(fields)}"
    after = (core.counters["accepted"], len(journal.replay().records))
    assert after == before


# ----------------------------------------------------------------------
# the differential: repro run == repro submit --wait == build(spec).run
# ----------------------------------------------------------------------

DIFF_CASES = [
    (kernel, precision, threads, ranks, integrity)
    for kernel in ("7pt", "27pt")
    for precision in ("sp", "dp")
    for threads in (1, 2)
    for ranks in (1, 2)
    for integrity in ("off", "full")
    if not (threads > 1 and ranks > 1)  # refused: see the matrix
]


def _printed_sha(out: str) -> str:
    [line] = [ln for ln in out.splitlines() if ln.startswith("result sha")]
    return line.split(":", 1)[1].strip()


@pytest.mark.parametrize("kernel,precision,threads,ranks,integrity",
                         DIFF_CASES)
def test_one_spec_one_hash_through_every_entry_point(
    kernel, precision, threads, ranks, integrity, served, capsys
):
    _, sock = served
    spec = RunSpec(kernel=kernel, grid=12, steps=4, dim_t=2, tile=8,
                   precision=precision, seed=3, threads=threads, ranks=ranks,
                   integrity=integrity)
    oracle = data_digest(
        run_naive(make_kernel(spec), make_field(spec), spec.steps).data)

    field = make_field(spec)
    assert data_digest(build(spec).run(field, spec.steps).data) == oracle

    shape = ["--kernel", kernel, "--grid", "12", "--steps", "4", "--dim-t",
             "2", "--tile", "8", "--precision", precision, "--seed", "3"]
    rc = main(["run", *shape, "--threads", str(threads), "--ranks",
               str(ranks), "--verify", integrity])
    out = capsys.readouterr().out
    assert rc == 0, out
    assert _printed_sha(out) == oracle

    # a job runs serially: threads and ranks are not job fields, and the
    # executors they pick are bit-identical
    rc = main(["submit", "--socket", sock, *shape, "--integrity", integrity,
               "--no-verify", "--wait", "--timeout", "60"])
    out = capsys.readouterr().out
    assert rc == 0, out
    assert _printed_sha(out) == oracle


def test_every_command_offers_every_kernel():
    from repro.cli import build_parser
    from repro.runspec import KERNELS

    parser = build_parser()
    for command in ("run", "tune", "submit"):
        for kernel in KERNELS:
            assert parser.parse_args([command, "--kernel", kernel]).kernel \
                == kernel


def test_run_flag_choices_and_submit_defaults_come_from_the_spec():
    import argparse

    from repro.cli import build_parser
    from repro.runspec import (
        HEALTH_POLICIES,
        INTEGRITY_TIERS,
        KERNELS,
        PRECISIONS,
        SCHEMES,
    )

    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    run, tune, chaos, submit = (
        {a.dest: a for a in commands[name]._actions}
        for name in ("run", "tune", "chaos", "submit")
    )
    for flags, dest, known in [
        (run, "kernel", KERNELS), (run, "scheme", SCHEMES),
        (run, "precision", PRECISIONS), (run, "health", HEALTH_POLICIES),
        (run, "verify", INTEGRITY_TIERS), (tune, "kernel", KERNELS),
        (tune, "precision", PRECISIONS), (chaos, "tier", INTEGRITY_TIERS[1:]),
        (submit, "kernel", KERNELS), (submit, "precision", PRECISIONS),
        (submit, "integrity", INTEGRITY_TIERS),
    ]:
        assert tuple(flags[dest].choices) == known, dest
    job = JobSpec()
    for dest, field in [
        ("kernel", "kernel"), ("grid", "grid"), ("steps", "steps"),
        ("dim_t", "dim_t"), ("tile", "tile"), ("precision", "precision"),
        ("seed", "seed"), ("backend", "backend"), ("priority", "priority"),
        ("tenant", "tenant"), ("deadline", "deadline_s"),
        ("integrity", "integrity"),
    ]:
        assert submit[dest].default == getattr(job, field), dest
    # repro run keeps its own plan defaults
    assert (run["grid"].default, run["tile"].default) == (48, 32)


def test_lbm_job_submitted_from_the_cli_is_on_the_naive_hash(served, capsys):
    _, sock = served
    spec = RunSpec(kernel="lbm", grid=10, steps=4, dim_t=2, tile=8, seed=2)
    oracle = data_digest(
        run_naive(make_kernel(spec), make_field(spec), spec.steps).data)
    rc = main(["submit", "--socket", sock, "--kernel", "lbm", "--grid", "10",
               "--steps", "4", "--dim-t", "2", "--tile", "8", "--seed", "2",
               "--no-verify", "--wait", "--timeout", "60"])
    out = capsys.readouterr().out
    assert rc == 0, out
    assert _printed_sha(out) == oracle


# ----------------------------------------------------------------------
# adapters and the pieces they share
# ----------------------------------------------------------------------

def test_job_spec_converts_in_one_place():
    job = JobSpec(kernel="27pt", grid=10, steps=3, dim_t=3, tile=5,
                  precision="dp", seed=9, backend="numpy", tenant="t",
                  priority=2, deadline_s=4.0)
    spec = job.run_spec()
    assert (spec.kernel, spec.grid, spec.steps, spec.dim_t, spec.tile,
            spec.precision, spec.seed, spec.backend) == (
        "27pt", 10, 3, 3, 5, "dp", 9, "numpy")
    # verification is the full tier; serve runs with health off
    assert spec.integrity == "full" and spec.health == "off"
    assert dataclasses.replace(job, verify=False).run_spec().integrity == "off"
    assert job.run_spec(integrity="off").integrity == "off"


def test_a_reused_guard_starts_each_run_from_fresh_seals():
    # regression: the seals of one run described its grid, so the next
    # run's first verify flagged the new input as corrupt
    spec = RunSpec(grid=10, steps=4, integrity="seal", backend="numpy")
    guard = build(spec)
    for seed in (1, 2):
        field = make_field(dataclasses.replace(spec, seed=seed))
        out = guard.run(field, spec.steps)
        assert np.array_equal(
            out.data, run_naive(make_kernel(spec), field, spec.steps).data)
    assert guard.report.sdc.detections == 0


def test_distributed_jacobi_takes_no_run_policy():
    from repro.distributed import DistributedJacobi

    with pytest.raises(TypeError):
        DistributedJacobi(make_kernel(RunSpec()), 2, integrity="full")


def test_transport_checksum_reads_a_strided_view():
    slab = np.arange(4 * 6 * 8, dtype=np.float32).reshape(1, 4, 6, 8)
    view = slab[:, 1:3, :, 2:7]
    assert not view.flags.c_contiguous
    assert _checksum(view) == zlib.crc32(view.tobytes())
    assert _checksum(slab) == zlib.crc32(slab.tobytes())
