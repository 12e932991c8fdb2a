"""Silent-data-corruption defense: cone-bounded detection + surgical healing.

Crashes, NaN/Inf and torn files are *loud*.  A bit flip that lands on a
mantissa bit is not: the value stays finite and plausible, every existing
guard passes, and in an iterative stencil the corruption spreads by the
stencil radius R per time step until it owns the grid.  This module makes
such flips (a) injectable, (b) detectable, and (c) *surgically* healable —
recomputing only the propagation cone around the corrupted planes instead
of restarting the run.

The detection and repair math is the paper's own Eq. 2 overestimation
region: after ``s`` time steps, a value can have influenced (or been
influenced by) cells at most ``h = R * s`` planes away, and a cut face of
a Z sub-extent leaves every plane at depth ``>= h`` bit-exact (physical
boundaries are exact at any depth — the constant shell never shrinks, see
:func:`repro.core.regions.compute_range`).  Two consequences:

* a plane corrupted at applied-step ``t`` and detected at ``t' >= t`` is
  reproducible from any trusted base at ``t0 <= t`` by replaying the
  plane's cone: the detected planes grown by ``R * (t' - t0)`` per cut
  side, clipped to the grid — :func:`repro.core.regions.loaded_extent`;
* the replay may use *any* rung of the bit-exact fallback ladder; this
  module uses the naive reference sweep (the ladder's bottom rung and the
  strongest oracle), so a healed grid is bit-identical to fault-free.

Integrity tiers (``JobSpec.integrity`` / ``repro run --verify``):

``off``
    nothing — the guard is a no-op and costs a branch per round.
``spot``
    per-plane CRC32 *seals* of the grid after every round, verified at
    the next round boundary (catches resting flips at exact plane
    granularity), plus a deterministic pseudo-random sample of Z bands
    re-executed from the last trusted state through the naive rung and
    compared bit-for-bit (catches compute-side SDC probabilistically).
``seal``
    ``spot`` plus the durable surfaces: checkpoint/buddy payload digests
    (always stamped; this tier *requires* them on load) and the
    cross-rank halo-plane checksum handshake in the distributed driver.
``full``
    ``seal`` with the sampled re-execution widened to the whole grid —
    every plane re-derived from the trusted base each round.  Detection
    is exhaustive; the cost is about one extra reference sweep per round
    (benchmarked in ``benchmarks/bench_sdc.py``).

The ``memory.flip`` fault site injects flips (``site=rank:round`` detail
grammar, budget = bit count); ``disk.bitrot`` rots a checkpoint payload
after it is fsynced.  :func:`run_sdc_soak` drives seeded flip/bitrot
schedules through a guarded run and judges *no silent corruption*: every
in-window flip detected, every healed run bit-identical to the fault-free
oracle.
"""

from __future__ import annotations

import json
import time
import zlib
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from ..core.naive import run_naive
from ..core.regions import loaded_extent
from ..obs.metrics import METRICS
from ..obs.trace import TRACE
from ..stencils.grid import Field3D
from .faultinject import FAULTS, ResilienceError

__all__ = [
    "INTEGRITY_TIERS",
    "MAX_FLIPS_PER_PROBE",
    "SDC_SCHEDULES",
    "SdcChaosCase",
    "SdcChaosResult",
    "SdcError",
    "SdcGuard",
    "SdcReport",
    "SdcUnhealableError",
    "SplitField",
    "flip_bits",
    "grid_is_finite",
    "inject_flips",
    "make_sdc_case",
    "plane_crcs",
    "rot_file",
    "run_sdc_case",
    "run_sdc_soak",
    "write_sdc_bundle",
]

#: the integrity ladder, weakest to strongest
INTEGRITY_TIERS = ("off", "spot", "seal", "full")

#: cap on bits flipped per probe point, so ``memory.flip:*`` (unlimited
#: budget) means "flip at every probe", not an unbounded drain loop
MAX_FLIPS_PER_PROBE = 64

#: fault families the SDC chaos schedule generator knows how to draw
SDC_SCHEDULES = ("flip", "bitrot")


class SdcError(ResilienceError):
    """Silent data corruption was detected (and could not be ignored)."""


class SdcUnhealableError(SdcError):
    """Corruption was detected but could not be surgically repaired:
    the heal budget is exhausted, no trusted base exists, or a healed
    plane still fails verification."""


# ----------------------------------------------------------------------
# primitives: seals, digests, flips, bitrot
# ----------------------------------------------------------------------

def plane_crcs(data: np.ndarray) -> list[int]:
    """CRC32 per Z plane of a ``(ncomp, nz, ny, nx)`` grid array."""
    return [
        zlib.crc32(np.ascontiguousarray(data[:, z]))
        for z in range(data.shape[1])
    ]


def flip_bits(data: np.ndarray, count: int, entropy) -> list[tuple]:
    """Flip ``count`` distinct low-order (mantissa) bits at deterministic
    pseudo-random positions; returns the ``(index, bit)`` list.

    Mantissa bits keep floats finite and *plausible* — exactly the flips
    no NaN/Inf health check can see.  Integer grids flip any bit below
    the sign bit.
    """
    rng = np.random.default_rng(entropy)
    if data.dtype == np.float64:
        view, bits = data.view(np.uint64), 52
    elif data.dtype == np.float32:
        view, bits = data.view(np.uint32), 23
    elif np.issubdtype(data.dtype, np.integer):
        view, bits = data, max(1, data.dtype.itemsize * 8 - 1)
    else:
        raise TypeError(f"cannot flip bits of dtype {data.dtype}")
    chosen: set[tuple] = set()
    flipped: list[tuple] = []
    for _ in range(count):
        while True:
            idx = tuple(int(rng.integers(0, s)) for s in data.shape)
            bit = int(rng.integers(0, bits))
            if (idx, bit) not in chosen:
                break
        chosen.add((idx, bit))
        view[idx] = view[idx] ^ view.dtype.type(1 << bit)
        flipped.append((idx, bit))
    return flipped


def inject_flips(
    data: np.ndarray,
    *,
    rank: int,
    round_index: int,
    seed: int = 0,
    detail: str | None = None,
    faults=FAULTS,
) -> int:
    """The ``memory.flip`` probe: one ``should`` drain per bit to flip.

    The probe detail is ``"rank:round"`` (single-process callers are rank
    0), so ``memory.flip=0:2:3`` means "three bits in rank 0's grid at
    the end of round 2" — the spec's ``:times`` budget *is* the bit
    count.  ``memory.flip:*`` (no arg) flips at every probe, capped at
    :data:`MAX_FLIPS_PER_PROBE` bits each.  Returns the bits flipped.
    """
    detail = f"{rank}:{round_index}" if detail is None else detail
    fired = 0
    for _ in range(MAX_FLIPS_PER_PROBE):
        if not faults.should("memory.flip", detail):
            break
        fired += 1
    if fired:
        flip_bits(data, fired, entropy=[abs(seed), rank, round_index])
    return fired


def rot_file(path, *, xor: int = 0x40) -> bool:
    """Corrupt one byte in the middle of ``path`` in place (disk bitrot).

    Deterministic (fixed offset, fixed XOR mask) so a rotted artifact is
    reproducible from the fault spec alone.  Returns False for an empty
    or unwritable file.
    """
    p = Path(path)
    try:
        size = p.stat().st_size
        if size == 0:
            return False
        offset = size // 2
        with open(p, "r+b") as fh:
            fh.seek(offset)
            byte = fh.read(1)
            if not byte:
                return False
            fh.seek(offset)
            fh.write(bytes([byte[0] ^ xor]))
            fh.flush()
        return True
    except OSError:
        return False


# ----------------------------------------------------------------------
# the report
# ----------------------------------------------------------------------

@dataclass
class SdcReport:
    """Machine-checkable record of one run's integrity activity."""

    tier: str = "off"
    #: verification events (seal verifies + re-execution checks)
    checks: int = 0
    #: planes CRC-sealed over the run
    sealed_planes: int = 0
    #: detection events / total planes found corrupt
    detections: int = 0
    detected_planes: int = 0
    #: surgical heals performed / cells recomputed for them (cone cells)
    heals: int = 0
    replayed_cells: int = 0
    #: cells recomputed purely for verification (band/full re-execution)
    verified_cells: int = 0
    #: applied-step counts at which detections occurred
    detected_at: list = field(default_factory=list)
    unhealable: int = 0

    @property
    def degraded(self) -> bool:
        """True when corruption was seen — the run finished, but not clean."""
        return self.detections > 0

    def lines(self) -> list[str]:
        """Human-readable summary lines (empty when nothing was detected)."""
        if not self.detections:
            return []
        return [
            f"sdc detected : {self.detections} event(s), "
            f"{self.detected_planes} plane(s), at step(s) "
            f"{', '.join(map(str, self.detected_at))}",
            f"sdc healed   : {self.heals} surgical repair(s), "
            f"{self.replayed_cells} cell(s) replayed "
            f"(tier {self.tier}, {self.checks} check(s))",
        ]


# ----------------------------------------------------------------------
# the grid as the round loop sees it
# ----------------------------------------------------------------------

def grid_is_finite(data: np.ndarray) -> bool:
    """True when the grid holds no NaN/Inf (trivially true for int grids)."""
    if not np.issubdtype(data.dtype, np.floating):
        return True
    return bool(np.isfinite(data).all())


class SplitField:
    """A grid held as consecutive Z parts, as the round loop and
    :class:`SdcGuard` address it.

    ``parts`` is a list of ``(rank, z0, array)``: ``array`` is shaped
    ``(ncomp, planes, ny, nx)`` and the parts cover ``[0, nz)`` in order.
    A :class:`Field3D` is one part of rank 0 (:meth:`of`);
    :class:`~repro.distributed.DistributedJacobi` views its rank buffers
    as one part per rank.  Plane indices are global.
    """

    __slots__ = ("parts",)

    def __init__(self, parts: list[tuple[int, int, np.ndarray]]) -> None:
        self.parts = parts

    @classmethod
    def of(cls, state) -> "SplitField":
        """``state`` itself, or a :class:`Field3D` as one part of rank 0."""
        return state if isinstance(state, cls) else cls([(0, 0, state.data)])

    @property
    def shape(self) -> tuple[int, int, int]:
        _, z0, a = self.parts[-1]
        return (z0 + a.shape[1], a.shape[2], a.shape[3])

    def _overlaps(self, z0: int, z1: int):
        """(array, local start, local stop, global start) per part
        overlapping planes ``[z0, z1)``."""
        for _, p0, a in self.parts:
            lo, hi = max(z0, p0), min(z1, p0 + a.shape[1])
            if lo < hi:
                yield a, lo - p0, hi - p0, lo

    def planes(self, z0: int, z1: int) -> np.ndarray:
        """Planes ``[z0, z1)``: a view when they lie in one part, else a copy."""
        got = [a[:, lo:hi] for a, lo, hi, _ in self._overlaps(z0, z1)]
        return got[0] if len(got) == 1 else np.concatenate(got, axis=1)

    def patch(self, z0: int, src: np.ndarray) -> None:
        """Overwrite the planes from ``z0`` on with ``src``."""
        for a, lo, hi, g in self._overlaps(z0, z0 + src.shape[1]):
            a[:, lo:hi] = src[:, g - z0 : g - z0 + hi - lo]

    def crcs(self) -> list[int]:
        """CRC32 per plane, in global order."""
        return [c for _, _, a in self.parts for c in plane_crcs(a)]

    def flip(self, round_index: int, seed: int = 0) -> int:
        """The ``memory.flip`` probe of every part, detail ``rank:round``."""
        return sum(
            inject_flips(a, rank=rank, round_index=round_index, seed=seed)
            for rank, _, a in self.parts
        )

    def finite(self) -> bool:
        return all(grid_is_finite(a) for _, _, a in self.parts)

    def copy(self) -> Field3D:
        """The grid as a new plain field."""
        return Field3D(np.concatenate([a for _, _, a in self.parts], axis=1))


# ----------------------------------------------------------------------
# the guard
# ----------------------------------------------------------------------

class SdcGuard:
    """Per-run SDC detector/healer, driven by GuardedSweep's round loop.

    The caller owns the trusted base: the verified input of the current
    round, ``(good, good_done)``, held by reference (executors leave their
    input untouched).  Every state may be a :class:`Field3D` or a
    :class:`SplitField`.  The loop drives two hooks per round:

    ``verify_seals(state, done, good, good_done)``
        compare the grid against the CRC seals taken after the previous
        round; mismatching planes are resting corruption, healed by cone
        replay from the trusted base.  Call once more after the last
        round so flips landing after the final seal stay in-window.
    ``check_round(state, done, good, good_done, round_index)``
        re-execute Z bands from the trusted base through the naive
        reference rung and compare bit-for-bit (a pseudo-random sample
        at ``spot``/``seal``, every plane at ``full``); mismatches are
        compute-side corruption, healed from the same replay.  Then
        CRC-seal the verified grid for the next ``verify_seals``
        (:meth:`seal` alone does that part).

    Healing is *surgical*: only the detected planes grown by the
    ``R * (done - good_done)`` propagation cone are recomputed
    (:attr:`SdcReport.replayed_cells` counts them), and every heal is
    re-verified — a plane that still mismatches its seal, or a heal past
    ``max_heals``, raises :class:`SdcUnhealableError`.
    """

    def __init__(
        self,
        kernel,
        *,
        tier: str = "spot",
        seed: int = 0,
        sample_bands: int = 2,
        band_planes: int | None = None,
        max_heals: int = 3,
        report: SdcReport | None = None,
    ) -> None:
        if tier not in INTEGRITY_TIERS:
            raise ValueError(
                f"unknown integrity tier {tier!r}; known: "
                f"{', '.join(INTEGRITY_TIERS)}"
            )
        if sample_bands < 1:
            raise ValueError("sample_bands must be >= 1")
        if max_heals < 0:
            raise ValueError("max_heals must be >= 0")
        self.kernel = kernel
        self.tier = tier
        self.seed = seed
        self.sample_bands = sample_bands
        self.band_planes = band_planes
        self.max_heals = max_heals
        self.report = report if report is not None else SdcReport(tier=tier)
        self.report.tier = tier
        self._seals: list[int] | None = None

    @property
    def active(self) -> bool:
        return self.tier != "off"

    @property
    def seals(self) -> list[int] | None:
        """Per-plane CRCs of the last sealed grid (None until sealed)."""
        return self._seals

    def invalidate(self) -> None:
        """Drop the seals (after a rollback/recovery rebinds the state)."""
        self._seals = None

    # -- sealing -------------------------------------------------------
    def seal(self, state) -> None:
        """CRC-seal every plane of ``state`` for the next verify."""
        if not self.active:
            return
        self._seals = SplitField.of(state).crcs()
        self.report.sealed_planes += len(self._seals)

    def verify_seals(self, state, done: int, good, good_done: int):
        """Verify ``state`` against the last seals; heal any mismatch."""
        if not self.active or self._seals is None:
            return state
        self.report.checks += 1
        self._inc("sdc.checks", 1)
        view = SplitField.of(state)
        planes = [
            z for z, (a, b) in enumerate(zip(view.crcs(), self._seals))
            if a != b
        ]
        if planes:
            self._detected(planes, done, channel="seal")
            self._heal(view, done, good, good_done, planes, reverify=True)
        return state

    # -- re-execution --------------------------------------------------
    def check_round(
        self, state, done: int, good, good_done: int, round_index: int
    ):
        """Re-execute bands from the trusted base and compare exactly,
        then seal the verified grid."""
        if not self.active:
            return state
        view = SplitField.of(state)
        s = done - good_done
        if s > 0:
            self._reexecute(view, done, good, good_done, round_index)
        self.seal(view)
        return state

    # -- internals -----------------------------------------------------
    def _reexecute(self, view, done, good, good_done, round_index) -> None:
        self.report.checks += 1
        self._inc("sdc.checks", 1)
        s = done - good_done
        nz = view.shape[0]
        if self.tier != "full":
            for c0, c1 in self._bands(nz, round_index):
                replay, e0 = self._replay(good, (c0, c1), s, nz)
                if not np.array_equal(
                    replay.data[:, c0 - e0 : c1 - e0], view.planes(c0, c1)
                ):
                    break
            else:
                return  # every sampled band matches
        # derive (or at full tier, simply perform) the complete corrupted
        # set from one whole-grid replay, then patch surgically
        full, _ = self._replay(good, (0, nz), s, nz)
        planes = [
            z for z in range(nz)
            if not np.array_equal(full.data[:, z : z + 1],
                                  view.planes(z, z + 1))
        ]
        if planes:
            self._detected(planes, done, channel="reexec")
            self._heal(view, done, good, good_done, planes, reverify=False,
                       replay=full)

    def _bands(self, nz: int, round_index: int) -> list[tuple[int, int]]:
        """The deterministic pseudo-random Z-band sample for this round."""
        width = self.band_planes or max(1, nz // 8)
        starts = list(range(0, nz, width))
        bands = [(s0, min(s0 + width, nz)) for s0 in starts]
        rng = np.random.default_rng([abs(self.seed), round_index])
        take = min(self.sample_bands, len(bands))
        picked = rng.choice(len(bands), size=take, replace=False)
        return [bands[i] for i in sorted(int(i) for i in picked)]

    def _replay(
        self, good, core: tuple[int, int], s: int, nz: int
    ) -> tuple[Field3D, int]:
        """Re-derive ``core``'s planes from the trusted base via the naive
        rung; returns (replayed sub-field, its global z offset)."""
        r = self.kernel.radius
        e0, e1 = loaded_extent(core, nz, r * s)
        if e1 - e0 <= 2 * r:
            e0, e1 = 0, nz  # a sliver the naive rung cannot sweep
        sub = Field3D(np.ascontiguousarray(SplitField.of(good).planes(e0, e1)))
        # a grid of <= 2R planes is all constant boundary shell
        out = run_naive(self.kernel.restricted_to(e0, e1), sub, s) \
            if e1 - e0 > 2 * r else sub
        self.report.verified_cells += (e1 - e0) * sub.ny * sub.nx * s
        return out, e0

    def _detected(self, planes: list[int], done: int, channel: str) -> None:
        self.report.detections += 1
        self.report.detected_planes += len(planes)
        self.report.detected_at.append(done)
        self._inc("sdc.detected", 1)
        with TRACE.span(
            "sdc_detected", channel=channel, step=done, planes=len(planes)
        ):
            pass

    def _heal(
        self,
        view: SplitField,
        done: int,
        good,
        good_done: int,
        planes: list[int],
        *,
        reverify: bool,
        replay: Field3D | None = None,
    ) -> None:
        """Cone-replay the detected planes from the trusted base and patch.

        ``replay`` short-circuits the recompute when the caller already
        holds a whole-grid replay (the re-execution channel) — the cone
        cells are still what :attr:`SdcReport.replayed_cells` charges,
        since that is what a standalone surgical heal costs.
        """
        if self.report.heals >= self.max_heals:
            self.report.unhealable += 1
            raise SdcUnhealableError(
                f"corruption detected at step {done} but the heal budget "
                f"({self.max_heals}) is exhausted — persistent corruption, "
                "restart from a checkpoint on trusted hardware"
            )
        s = done - good_done
        if s <= 0:
            self.report.unhealable += 1
            raise SdcUnhealableError(
                f"corruption detected at step {done} with no trusted base "
                f"before it (base is at step {good_done})"
            )
        nz, ny, nx = view.shape
        z0, z1 = min(planes), max(planes) + 1
        h = self.kernel.radius * s
        e0, e1 = loaded_extent((z0, z1), nz, h)
        with TRACE.span(
            "sdc_heal", step=done, planes=len(planes), z0=z0, z1=z1,
            extent=e1 - e0, replay_steps=s,
        ):
            off = 0  # a caller-supplied replay covers the whole grid
            if replay is None:
                replay, off = self._replay(good, (z0, z1), s, nz)
                # _replay charged these cells to verification; they are
                # heal work, move them over
                self.report.verified_cells -= replay.nz * ny * nx * s
            view.patch(z0, replay.data[:, z0 - off : z1 - off])
        cells = (e1 - e0) * ny * nx * s
        self.report.heals += 1
        self.report.replayed_cells += cells
        self._inc("sdc.healed", 1)
        self._inc("sdc.replayed_cells", cells)
        if reverify and self._seals is not None:
            crcs = plane_crcs(view.planes(z0, z1))
            bad = [
                z0 + i
                for i, crc in enumerate(crcs)
                if crc != self._seals[z0 + i]
            ]
            if bad:
                self.report.unhealable += 1
                raise SdcUnhealableError(
                    f"plane(s) {bad} still fail seal verification after a "
                    "surgical heal — the sealed state itself was corrupt"
                )

    @staticmethod
    def _inc(counter: str, amount: int) -> None:
        if METRICS.armed and amount:
            METRICS.inc(counter, amount)


# ----------------------------------------------------------------------
# seeded chaos: flip/bitrot schedules, no-silent-corruption judgment
# ----------------------------------------------------------------------

@dataclass
class SdcChaosCase:
    """One seeded SDC soak iteration: run shape plus its fault schedule."""

    seed: int
    grid: int
    steps: int
    dim_t: int
    tier: str
    specs: list[str] = field(default_factory=list)
    #: rounds at which flip probes fire (every one is in-window: the
    #: guard's final seal verify covers flips after the last round)
    flip_rounds: list[int] = field(default_factory=list)
    bitrot: bool = False

    def describe(self) -> str:
        faults = ", ".join(self.specs) if self.specs else "no injected faults"
        return (
            f"seed {self.seed}: {self.grid}^3 x {self.steps} steps "
            f"(dim_T={self.dim_t}), tier {self.tier}; {faults}"
        )


@dataclass
class SdcChaosResult:
    """Outcome of one SDC soak iteration."""

    case: SdcChaosCase
    ok: bool
    bit_exact: bool
    error: str | None
    flips_fired: int
    flip_rounds_fired: int
    detections: int
    heals: int
    replayed_cells: int
    checks: int
    #: None when the schedule drew no bitrot; else "did the store refuse
    #: the rotted snapshot instead of silently restoring it"
    bitrot_detected: bool | None
    elapsed_s: float

    def to_dict(self) -> dict:
        doc = asdict(self)
        doc["case"] = asdict(self.case)
        return doc


def make_sdc_case(
    seed: int,
    *,
    grid: int = 20,
    steps: int = 8,
    dim_t: int = 2,
    tier: str = "full",
    schedules: tuple[str, ...] = SDC_SCHEDULES,
) -> SdcChaosCase:
    """Derive a deterministic flip/bitrot schedule from ``seed``.

    ``flip`` draws 1-2 probe rounds (each with 1-3 bits) over the run's
    rounds; ``bitrot`` rots the *last* checkpoint written, so the
    post-run restore attempt must refuse it.
    """
    unknown = set(schedules) - set(SDC_SCHEDULES)
    if unknown:
        raise ValueError(
            f"unknown sdc chaos schedule(s) {sorted(unknown)}; "
            f"known: {', '.join(SDC_SCHEDULES)}"
        )
    if tier not in INTEGRITY_TIERS or tier == "off":
        raise ValueError(f"sdc chaos needs an active tier, not {tier!r}")
    rng = np.random.default_rng(seed)
    rounds = -(-steps // dim_t)
    specs: list[str] = []
    flip_rounds: list[int] = []
    if "flip" in schedules:
        n_probes = int(rng.integers(1, 3))
        chosen = sorted(
            int(r)
            for r in rng.choice(rounds, size=min(n_probes, rounds),
                                replace=False)
        )
        for rnd in chosen:
            bits = int(rng.integers(1, 4))
            specs.append(f"memory.flip=0:{rnd}:{bits}")
            flip_rounds.append(rnd)
    bitrot = False
    saves = rounds - 1  # checkpoint_every=1 skips the final round
    if "bitrot" in schedules and saves >= 1:
        bitrot = True
        at = saves - 1
        specs.append("disk.bitrot" + (f"@{at}" if at else ""))
    return SdcChaosCase(
        seed=seed, grid=grid, steps=steps, dim_t=dim_t, tier=tier,
        specs=specs, flip_rounds=flip_rounds, bitrot=bitrot,
    )


def run_sdc_case(case: SdcChaosCase) -> SdcChaosResult:
    """One soak iteration: guarded 3.5D run under the schedule, judged on
    *no silent corruption*.

    ``ok`` requires: the run finishes (healed corruption is fine, that is
    the point), the final grid is bit-identical to the fault-free naive
    oracle, every flip probe-round was detected (at tier ``full`` this is
    a hard requirement; lower tiers report their rate), and a rotted
    checkpoint is refused at restore instead of silently trusted.
    """
    import shutil
    import tempfile

    from ..core.blocking35d import Blocking35D
    from ..stencils.seven_point import SevenPointStencil
    from .checkpoint import CheckpointError, CheckpointStore
    from .report import RunReport
    from .watchdog import GuardedSweep

    kernel = SevenPointStencil()
    fld = Field3D.random((case.grid,) * 3, dtype=np.float32, seed=case.seed)
    ref = run_naive(kernel, fld, case.steps)

    state_dir = tempfile.mkdtemp(prefix="repro-sdc-chaos-")
    store = CheckpointStore(Path(state_dir) / "sdc-chaos.npz")
    error = None
    out = None
    report = RunReport()
    fired_before = len(FAULTS.fired)
    t0 = time.perf_counter()
    try:
        ex = Blocking35D(
            kernel, dim_t=case.dim_t, tile_y=case.grid, tile_x=case.grid
        )
        guard = GuardedSweep(
            ex,
            round_steps=case.dim_t,
            sdc=case.tier,
            sdc_seed=case.seed,
            checkpoint=store,
            checkpoint_every=1,
            report=report,
        )
        try:
            with FAULTS.injected(*case.specs):
                out = guard.run(fld, case.steps)
        except ResilienceError as exc:
            error = f"{type(exc).__name__}: {exc}"
        flips = [
            detail
            for site, detail in FAULTS.fired[fired_before:]
            if site == "memory.flip"
        ]
        bitrot_detected: bool | None = None
        if case.bitrot:
            # the last snapshot written was rotted on disk; restoring it
            # must fail loudly (digest/quarantine), never silently succeed
            try:
                snap = store.load()
                bitrot_detected = snap is None  # quarantined, not trusted
            except CheckpointError:
                bitrot_detected = True
    finally:
        shutil.rmtree(state_dir, ignore_errors=True)
    elapsed = time.perf_counter() - t0

    sdc = report.sdc if report.sdc is not None else SdcReport(tier=case.tier)
    bit_exact = out is not None and bool(np.array_equal(out.data, ref.data))
    flip_rounds_fired = len(set(flips))
    detected_all = sdc.detections >= flip_rounds_fired
    ok = (
        error is None
        and bit_exact
        and (case.tier != "full" or detected_all)
        and (bitrot_detected is not False)
    )
    return SdcChaosResult(
        case=case,
        ok=ok,
        bit_exact=bit_exact,
        error=error,
        flips_fired=len(flips),
        flip_rounds_fired=flip_rounds_fired,
        detections=sdc.detections,
        heals=sdc.heals,
        replayed_cells=sdc.replayed_cells,
        checks=sdc.checks,
        bitrot_detected=bitrot_detected if case.bitrot else None,
        elapsed_s=elapsed,
    )


def run_sdc_soak(
    seeds,
    *,
    grid: int = 20,
    steps: int = 8,
    dim_t: int = 2,
    tier: str = "full",
    schedules: tuple[str, ...] = SDC_SCHEDULES,
) -> list[SdcChaosResult]:
    """One :func:`run_sdc_case` per seed; callers inspect ``result.ok``."""
    return [
        run_sdc_case(
            make_sdc_case(
                seed, grid=grid, steps=steps, dim_t=dim_t, tier=tier,
                schedules=schedules,
            )
        )
        for seed in seeds
    ]


def write_sdc_bundle(result: SdcChaosResult, directory) -> Path:
    """Dump a failing seed's repro bundle (case.json + faults.txt)."""
    bundle = Path(directory) / f"sdc-seed-{result.case.seed}"
    bundle.mkdir(parents=True, exist_ok=True)
    with open(bundle / "case.json", "w", encoding="utf-8") as fh:
        json.dump(result.to_dict(), fh, indent=2)
        fh.write("\n")
    with open(bundle / "faults.txt", "w", encoding="utf-8") as fh:
        fh.write(",".join(result.case.specs) + "\n")
    return bundle
