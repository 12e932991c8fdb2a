"""Deterministic fault injection for the resilient execution layer.

Long 3.5D sweeps have to survive imperfect substrates: a backend whose JIT
refuses to compile, a worker thread that dies mid z-iteration, a dropped
halo message, a tuning-cache file truncated by a crash.  None of those
failure modes occur on a healthy CI machine, so this module makes them
*injectable* — every recovery path in :mod:`repro.resilience`,
:mod:`repro.runtime` and :mod:`repro.distributed` is guarded by a named
fault site that tests (or the ``REPRO_FAULTS`` environment variable) can
arm deterministically.

A fault *site* is a short dotted name checked at one specific place in the
code (see :data:`SITES`).  A :class:`FaultSpec` arms a site with a firing
budget::

    site[=arg][:times][@after]

``arg`` restricts the spec to probes whose detail matches (e.g. a backend
name), ``times`` is how many probes fire before the spec exhausts
(default 1, ``*`` = forever), and ``after`` skips the first N matching
probes — so "the second tile of the third round" is expressible and, with
a fixed schedule, perfectly reproducible.

The process-wide injector is :data:`FAULTS`; production code calls
``FAULTS.fire(site, detail)`` (raises :class:`InjectedFault`) or
``FAULTS.should(site, detail)`` (returns True — for sites whose failure is
*behavioral*, like dropping a message, rather than an exception).  Both are
a single attribute check when nothing is armed, so the clean hot path pays
essentially nothing.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass

__all__ = [
    "FAULTS",
    "REPRO_FAULTS_ENV",
    "SITES",
    "FaultInjector",
    "FaultSpec",
    "InjectedFault",
    "ResilienceError",
]

#: environment variable holding a comma-separated list of fault specs
REPRO_FAULTS_ENV = "REPRO_FAULTS"

#: every named injection site, with the module that checks it
SITES = {
    "backend.bind": "repro.perf.backends.wrap_kernel (backend bind raises)",
    "backend.compute": "fused tile runners / in-place kernels (first-tile or "
    "mid-sweep compute raises)",
    "worker.death": "repro.runtime.threadpool worker loop (thread dies "
    "without posting its completion)",
    "comm.drop": "repro.distributed.comm transmission (message lost in "
    "flight)",
    "comm.corrupt": "repro.distributed.comm transmission (payload corrupted "
    "in flight)",
    "comm.delay": "repro.distributed.comm receive (ack delayed past the "
    "timeout; the receiver requests a redundant retransmission)",
    "rank.crash": "repro.distributed.comm heartbeat (rank dies between "
    "rounds; arg = rank id, @after = rounds survived)",
    "cache.corrupt": "repro.core.autotune TuningCache.put (crash leaves a "
    "half-written JSON file)",
    "grid.nan": "repro.resilience.watchdog GuardedSweep (a plane is poisoned "
    "with NaN after a round)",
    "memory.flip": "repro.resilience.sdc flip probes (a single bit of a grid "
    "or ring array is flipped to a plausible finite value; arg = "
    "'rank:round' — single-process probes use rank 0 — or 'ring' for the "
    "3.5D ring buffers; the :times budget is the bit count)",
    "disk.bitrot": "repro.resilience.checkpoint CheckpointStore.save (the "
    "persisted payload rots on disk after the fsync: a byte of the stored "
    "grid data is corrupted in place)",
    "serve.accept": "repro.serve.server ServeCore.submit (an admitted job is "
    "dropped before it reaches the journal; the client sees an explicit "
    "retryable rejection, never a silent loss)",
    "serve.stall": "repro.serve.server job worker (the worker stalls between "
    "rounds, burning the job's deadline budget)",
    "serve.journal": "repro.serve.journal JobJournal.append (crash mid-append "
    "leaves a torn record at the journal tail)",
    "serve.deadline": "repro.serve.server job start (the job's deadline is "
    "forced to 'already expired', simulating a deadline storm)",
}


class ResilienceError(RuntimeError):
    """Base class for every typed failure of the resilient execution layer.

    Callers that want "fail fast with a typed error" semantics catch this
    one class; the CLI maps it to exit code 4.
    """


class InjectedFault(ResilienceError):
    """The exception raised by an armed raising fault site."""

    def __init__(self, site: str, detail: str | None = None) -> None:
        self.site = site
        self.detail = detail
        suffix = f" ({detail})" if detail else ""
        super().__init__(f"injected fault at site {site!r}{suffix}")


@dataclass
class FaultSpec:
    """One armed fault: a site, an optional qualifier, and a firing budget."""

    site: str
    arg: str | None = None
    times: int = 1  # firings remaining; -1 = unlimited
    after: int = 0  # matching probes to skip before the first firing

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise ValueError(
                f"unknown fault site {self.site!r}; known sites: "
                f"{', '.join(sorted(SITES))}"
            )
        if self.times == 0 or self.times < -1:
            raise ValueError("times must be positive or -1 (unlimited)")
        if self.after < 0:
            raise ValueError("after must be >= 0")

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        """Parse the ``site[=arg][:times][@after]`` spec syntax."""
        body = text.strip()
        after = 0
        if "@" in body:
            body, after_s = body.rsplit("@", 1)
            after = int(after_s)
        times = 1
        if ":" in body:
            body, times_s = body.rsplit(":", 1)
            times = -1 if times_s == "*" else int(times_s)
        arg: str | None = None
        if "=" in body:
            body, arg = body.split("=", 1)
        return cls(site=body, arg=arg or None, times=times, after=after)

    def matches(self, site: str, detail: str | None) -> bool:
        return (
            self.site == site
            and self.times != 0
            and (self.arg is None or self.arg == detail)
        )

    def __str__(self) -> str:
        out = self.site
        if self.arg:
            out += f"={self.arg}"
        if self.times != 1:
            out += ":*" if self.times == -1 else f":{self.times}"
        if self.after:
            out += f"@{self.after}"
        return out


class FaultInjector:
    """Process-wide registry of armed :class:`FaultSpec` instances.

    Thread-safe: probe accounting takes a lock, but the disarmed fast path
    is a lock-free emptiness check (the state every production run is in).
    """

    def __init__(self) -> None:
        self._specs: list[FaultSpec] = []
        self._lock = threading.Lock()
        self._local = threading.local()  # .held: sites held off (held())
        self.fired: list[tuple[str, str | None]] = []

    # -- arming --------------------------------------------------------
    def arm(self, *specs: FaultSpec | str) -> None:
        """Add specs (objects or ``site[=arg][:times][@after]`` strings)."""
        parsed = [
            FaultSpec.parse(s) if isinstance(s, str) else s for s in specs
        ]
        with self._lock:
            self._specs.extend(parsed)

    def disarm(self) -> None:
        """Remove every armed spec and forget the firing history."""
        with self._lock:
            self._specs = []
            self.fired = []

    def load_env(self, environ=None) -> int:
        """Arm the specs in ``$REPRO_FAULTS`` (comma-separated); returns count."""
        environ = os.environ if environ is None else environ
        raw = environ.get(REPRO_FAULTS_ENV, "")
        specs = [s for s in (part.strip() for part in raw.split(",")) if s]
        if specs:
            self.arm(*specs)
        return len(specs)

    @contextmanager
    def injected(self, *specs: FaultSpec | str):
        """Arm specs for the duration of a ``with`` block, then restore."""
        with self._lock:
            saved = self._specs
            self._specs = list(saved)
        self.arm(*specs)
        try:
            yield self
        finally:
            with self._lock:
                self._specs = saved

    @contextmanager
    def held(self, site: str):
        """Hold ``site`` off on this thread for a ``with`` block.

        Its probes neither fire nor spend budget there and ``armed`` does
        not count it; other sites, and other threads, stay armed.  A
        backend's bind probe holds ``memory.flip`` this way so the flip is
        left for the sweep whose integrity guard must catch it.
        """
        held = getattr(self._local, "held", None)
        if held is None:
            held = self._local.held = set()
        outer = site in held
        held.add(site)
        try:
            yield self
        finally:
            if not outer:
                held.discard(site)

    # -- probing -------------------------------------------------------
    def armed(self, site: str | None = None) -> bool:
        """True when any spec (for ``site``, if given) still has budget."""
        held = getattr(self._local, "held", ())
        with self._lock:
            return any(
                s.times != 0 and (site is None or s.site == site)
                and s.site not in held
                for s in self._specs
            )

    def should(self, site: str, detail: str | None = None) -> bool:
        """True when an armed spec fires for this probe (consumes budget)."""
        if not self._specs or site in getattr(self._local, "held", ()):
            return False
        with self._lock:
            for spec in self._specs:
                if not spec.matches(site, detail):
                    continue
                if spec.after > 0:
                    spec.after -= 1
                    return False
                if spec.times > 0:
                    spec.times -= 1
                self.fired.append((site, detail))
                return True
        return False

    def fire(self, site: str, detail: str | None = None) -> None:
        """Raise :class:`InjectedFault` when an armed spec fires here."""
        if self.should(site, detail):
            raise InjectedFault(site, detail)


#: the process-wide injector; ``$REPRO_FAULTS`` is armed at import time
FAULTS = FaultInjector()
FAULTS.load_env()
