"""Wire protocol and job model for the stencil-serving daemon.

The daemon speaks a thin newline-delimited JSON protocol over a stream
socket: one request object per line, one response object per line.  A
request is ``{"op": <name>, ...}``; a response always carries ``"ok"``
(plus ``"error"``/``"reason"`` when ``ok`` is false), so a client never
has to guess whether a reply is a rejection or a transport hiccup.

The job model mirrors the CLI's exit-code contract: a terminal
:class:`JobRecord` maps to the same 0/2/3/4 codes ``repro run`` uses —
0 completed clean, 2 rejected/shed by admission control (never executed),
3 completed degraded-but-correct (backend ladder descent, overload-shed
verification), 4 failed (deadline exceeded, cancelled, execution error).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from ..runspec import RunSpec

__all__ = [
    "PROTOCOL_VERSION",
    "JobRecord",
    "JobSpec",
    "STATUS_CODES",
    "TERMINAL_STATUSES",
    "read_message",
    "write_message",
]

#: bumped on wire-visible changes; servers refuse a mismatched client
PROTOCOL_VERSION = 1

#: job status -> exit-code-style verdict
STATUS_CODES = {
    "queued": None,
    "running": None,
    "done": 0,
    "rejected": 2,
    "shed": 2,
    "degraded": 3,
    "failed": 4,
    "cancelled": 4,
}

#: the largest job the daemon serves; the byte bound is one copy of the
#: grid (components x cells x item size): a grid-512 dp stencil, or a
#: grid-241 sp LBM lattice of 19 components
MAX_GRID = 512
MAX_FIELD_BYTES = 8 * 512**3
MAX_STEPS = 100_000

#: statuses a job can never leave
TERMINAL_STATUSES = frozenset(
    s for s, code in STATUS_CODES.items() if code is not None
)


@dataclass
class JobSpec:
    """What a tenant asks the daemon to compute.

    The wire type: its run fields convert to a :class:`RunSpec` in one
    place (:meth:`run_spec`), and only ``tenant``, ``priority``,
    ``deadline_s``, ``verify`` and ``trace_id`` are the daemon's own.
    Deterministic by construction: the initial grid is derived from
    ``(kernel, grid, precision, seed)`` exactly as ``repro run`` derives
    it (:func:`repro.runspec.make_field`), so a
    completed job's result hash is reproducible offline — the property the
    chaos soak and the drain/zero-loss acceptance tests check.
    """

    kernel: str = "7pt"
    grid: int = 16
    steps: int = 4
    dim_t: int = 2
    tile: int = 8
    precision: str = "sp"
    seed: int = 0
    backend: str | None = None
    #: 0 = highest; larger numbers are shed first under overload
    priority: int = 1
    tenant: str = "default"
    #: wall-clock budget from acceptance to completion, seconds
    deadline_s: float | None = None
    #: verify the result: the job runs at least at the ``full`` integrity
    #: tier (overload may shed it; the job then completes as
    #: degraded-but-correct)
    verify: bool = True
    #: silent-data-corruption integrity tier (``off``/``spot``/``seal``/
    #: ``full``, see :mod:`repro.resilience.sdc`).  Verification cpu is
    #: metered per tenant (``verify_cpu_ns`` in the usage ledger); under
    #: amber overload the tier is shed and the job completes
    #: degraded-but-correct
    integrity: str = "off"
    #: end-to-end trace correlation id minted by the client at submit;
    #: stamped on every job span on both sides of the socket.  Empty means
    #: "untraced" — older clients simply never send the field
    #: (``from_dict`` filters unknown keys in both directions).
    trace_id: str = ""

    def validate(self, run: RunSpec | None = None) -> str | None:
        """A usage-error reason string, or None when the spec is runnable:
        the run rules of :meth:`RunSpec.validate` on ``run`` (default
        :meth:`run_spec`), then the serve ones."""
        run = run if run is not None else self.run_spec()
        try:
            reason = run.validate()
        except (TypeError, ValueError) as exc:
            reason = f"malformed job: {exc}"
        if reason is not None:
            return reason
        if self.grid > MAX_GRID:
            return f"grid {self.grid} above the served maximum {MAX_GRID}"
        nbytes = math.prod(run.shape) * np.dtype(run.dtype).itemsize
        if nbytes > MAX_FIELD_BYTES:
            return (f"a {self.kernel} grid of {self.grid} holds {nbytes} "
                    f"bytes, above the served maximum {MAX_FIELD_BYTES}")
        if self.steps > MAX_STEPS:
            return f"steps {self.steps} above the served maximum {MAX_STEPS}"
        if self.priority < 0:
            return "priority must be >= 0"
        if self.deadline_s is not None and self.deadline_s <= 0:
            return "deadline_s must be positive"
        if not self.tenant:
            return "tenant must be non-empty"
        return None

    def run_spec(self, **policy) -> RunSpec:
        """The job as a :class:`RunSpec`: serial 3.5D, health off, at the
        ``full`` integrity tier when ``verify`` is set; ``policy``
        overrides further fields."""
        integrity = self.integrity
        if self.verify and integrity == "off":
            integrity = "full"
        return RunSpec(**{
            "kernel": self.kernel, "grid": self.grid, "steps": self.steps,
            "dim_t": self.dim_t, "tile": self.tile,
            "precision": self.precision, "seed": self.seed,
            "backend": self.backend, "integrity": integrity, "health": "off",
            **policy,
        })

    def signature(self) -> tuple:
        """The plan-cache key: everything that shapes the bound executor."""
        return (
            self.kernel, int(self.grid), int(self.dim_t), int(self.tile),
            self.precision, self.backend or "",
        )

    def to_dict(self) -> dict:
        # every field is a scalar or a string: asdict() without its deep copy
        return {name: getattr(self, name) for name in self.__dataclass_fields__}

    @classmethod
    def from_dict(cls, doc: dict) -> "JobSpec":
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in doc.items() if k in known})


@dataclass
class JobRecord:
    """One job's full lifecycle as the daemon tracks (and journals) it."""

    id: str
    spec: JobSpec
    status: str = "queued"
    reason: str = ""
    submitted_s: float = 0.0
    started_s: float | None = None
    finished_s: float | None = None
    done_steps: int = 0
    sha256: str = ""
    backend_used: str = ""
    degradations: list[str] = field(default_factory=list)
    preemptions: int = 0
    resumes: int = 0

    @property
    def code(self) -> int | None:
        """Exit-code-style verdict (None while the job is still live)."""
        return STATUS_CODES[self.status]

    @property
    def terminal(self) -> bool:
        return self.status in TERMINAL_STATUSES

    @property
    def latency_s(self) -> float | None:
        """Acceptance-to-completion wall time for terminal executed jobs."""
        if self.finished_s is None:
            return None
        return self.finished_s - self.submitted_s

    def to_dict(self) -> dict:
        """``asdict`` plus ``code``, built directly: a finished record is
        encoded once and a live one on every status poll."""
        doc = {name: getattr(self, name) for name in self.__dataclass_fields__}
        doc["spec"] = self.spec.to_dict()
        doc["degradations"] = list(self.degradations)
        doc["code"] = self.code
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "JobRecord":
        doc = dict(doc)
        doc.pop("code", None)
        doc["spec"] = JobSpec.from_dict(doc.get("spec") or {})
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in doc.items() if k in known})


# ----------------------------------------------------------------------
# Newline-delimited JSON framing
# ----------------------------------------------------------------------


def write_message(fh, obj: dict) -> None:
    """Serialize one protocol message (newline-delimited JSON) and flush."""
    fh.write(json.dumps(obj, separators=(",", ":")).encode() + b"\n")
    fh.flush()


def read_message(fh) -> dict | None:
    """Read one message; None on EOF; ValueError on a malformed line."""
    line = fh.readline()
    if not line:
        return None
    doc = json.loads(line.decode())
    if not isinstance(doc, dict):
        raise ValueError("protocol messages must be JSON objects")
    return doc
