"""Fused z-iteration sweep kernels (the 3.5D hot-path layer).

The blocking executors express one z-iteration of the paper's Figure 3(a)
as ``dim_T + 1`` separate schedule steps, each a Python-level kernel call.
That is the right granularity for *correctness* (every step is independently
testable against the naive reference) but the wrong one for *speed*: on the
NumPy substrate the interpreter dispatch around each step — region lookups,
ring-liveness checks, footprint validation, slice construction — costs as
much as the arithmetic itself.  AN5D and the wavefront-diamond line of work
(PAPERS.md) both fuse the whole temporal chain into one compiled sweep; this
module provides that layering on top of the backend registry.

The ``fused-numpy`` engine (``FusedSweepKernel``) runs a *prebound
instruction plan*: at tile-bind time every schedule step of every
z-iteration is lowered to a short list of ``(ufunc, a, b, out)``
instructions whose operands are pre-sliced views of the ring buffers, shell
planes and source/destination grids.  Executing one z-iteration is then a
single ``run_iteration`` call that replays ~5 steps' worth of prebound
ufuncs, and the serial executor replays a whole tile-round in one
``run_tile`` call — the per-time-instance loop is fused and all per-step
interpreter work (slicing, validation, dict lookups) is hoisted out of the
sweep entirely.  The compiled form of the same round is
:mod:`repro.perf.codegen`, which extends ``FusedSweepKernel``.

On the serial executor the
:meth:`FusedSweepKernel.sweep_runner` hook replaces the tile loop of a
multi-tile round.  When Eq. 2 says blocking cannot pay (``kappa >
round_t``) it runs a *volume round*: ``round_t`` plain sweeps of the same
flat lowerings over the whole volume (:class:`_VolumeRunner`).  Otherwise
it runs a *batched round*: every tile at once over one halo-expanded plane
(:class:`_BatchedRunner`).

The engine preserves the executors' contracts exactly: identical operand
pairing and reduction order (bit-exact against the naive reference),
identical boundary-strip refresh semantics, identical traffic accounting,
and row-span restriction so :class:`~repro.runtime.parallel35d.ParallelBlocking35D`
workers can invoke the fused kernel on their span while keeping the paper's
one-barrier-per-z property.
"""

from __future__ import annotations

import threading

import numpy as np

from ..core.buffer import ring_slots
from ..core.regions import compute_range, cone_ranges
from ..core.schedule import Schedule, StepKind
from ..resilience.faultinject import FAULTS
from ..stencils.generic import GenericStencil
from ..stencils.seven_point import SevenPointStencil
from ..stencils.twentyseven_point import TwentySevenPointStencil
from ..stencils.variable import VariableCoefficientStencil
from .backends import InplaceKernel

__all__ = [
    "FusedSweepKernel",
]

# 27-point neighbor groups, in the exact order the reference kernel sums them.
from ..stencils.twentyseven_point import _CORNERS, _EDGES, _FACES  # noqa: E402


def _copy(a, b, out=None):
    np.copyto(a, b)


def _zero(a, b=None, out=None):
    a.fill(0)


def _invoke(a, b=None, out=None):
    a()


#: elements per operand chunk of a volume round: a chunk's temporaries stay
#: cache-sized while each ufunc call still covers thousands of lanes
VOLUME_CHUNK = 16384


class FusedSweepKernel(InplaceKernel):
    """Backend adapter adding a fused z-iteration sweep to any kernel.

    Outside the 3.5D executors this behaves exactly like
    :class:`InplaceKernel` (so ``--backend fused-numpy`` works with every
    executor); inside them, :meth:`tile_runner` supplies a per-tile runner
    that executes whole z-iterations in one call.
    """

    engine = "numpy"

    # ------------------------------------------------------------------
    def padded_for(self, halo, shape):
        inner = self.inner.padded_for(halo, shape)
        return self if inner is self.inner else type(self)(inner)

    def restricted_to(self, zlo, zhi):
        inner = self.inner.restricted_to(zlo, zhi)
        return self if inner is self.inner else type(self)(inner)

    # ------------------------------------------------------------------
    def tile_runner(self, executor, src, dst, ctx, schedule: Schedule, round_t: int):
        """The (cached) fused runner for one tile context and buffer pair.

        Runners are cached on the tile context and matched by *identity* of
        the source/destination arrays and schedule (the double-buffer swap
        between rounds alternates between two runners).  Returns ``None``
        while a ``memory.flip`` fault is armed: its ring site sits in the
        executor's stepwise LOAD path, which then runs this round with
        identical bits.  Otherwise the numpy engine always fuses (it has a
        universal fallback).
        """
        FAULTS.fire("backend.compute", detail=f"fused-{self.engine}")
        if FAULTS.armed("memory.flip"):
            return None
        cache = ctx.fused
        if cache is None:
            cache = ctx.fused = []
        for runner in cache:
            if (
                runner.src_data is src.data
                and runner.dst_data is dst.data
                and runner.schedule is schedule
                and runner.round_t == round_t
            ):
                return runner
        runner = _NumpyFusedRunner(self, executor, src, dst, ctx, schedule, round_t)
        cache.append(runner)
        # ping/pong plus one spare pair; older (stale-buffer) runners are
        # dropped so repeated run() calls cannot accumulate state
        del cache[:-4]
        return runner

    # ------------------------------------------------------------------
    def sweep_runner(self, executor, src, dst, round_t, parallel=False,
                     z_core=None):
        """The (cached) whole-round runner of a multi-tile round.

        A 3.5D round cuts bandwidth by ``dim_T / kappa`` (Eq. 2), so when
        the round's tile plan has ``kappa > round_t`` blocking only adds
        ghost loads and recomputation, and the round runs as ``round_t``
        whole-volume sweeps instead (:class:`_VolumeRunner`).  When
        blocking pays and the plan has several tiles, the round runs every
        tile at once over one halo-expanded plane (:class:`_BatchedRunner`).
        ``None`` keeps the per-tile path: for the threaded executor, while
        a ``memory.flip`` fault is armed (its ring site is in the stepwise
        path), for kernels and layouts without a flat lowering, and for
        single-tile rounds (the full-plane plan is already the batched
        layout's limit case).  Runners live in ``executor.sweep_runners``,
        matched by ping/pong buffer identity and Z core like codegen's.
        """
        if parallel or FAULTS.armed("memory.flip"):
            return None
        cache = executor.sweep_runners
        for runner in cache:
            if (
                type(runner) in _ROUND_RUNNERS
                and runner.src_data is src.data
                and runner.dst_data is dst.data
                and runner.round_t == round_t
                and runner.z_core == z_core
            ):
                break
        else:
            if _flat_impl(self.inner, src.data, dst.data) not in _VOLUME_IMPLS:
                return None
            if executor.kappa(src.ny, src.nx, round_t) > round_t:
                cls = _VolumeRunner
            elif len(executor._plan_tiles(src.ny, src.nx, round_t)) > 1:
                cls = _BatchedRunner
            else:
                return None
            runner = cls(self, executor, src, dst, round_t, z_core)
            cache.append(runner)
            del cache[:-4]  # ping/pong plus one spare pair
        FAULTS.fire("backend.compute", detail=f"fused-{self.engine}")
        return runner


#: kernels whose flat lowering depends on z only through the planes it reads
_VOLUME_IMPLS = ("7pt", "27pt", "generic")


def _flat_impl(inner, src_data, dst_data) -> str | None:
    """The numpy engine's lowering for ``inner`` on this buffer pair: one
    of ``7pt``/``27pt``/``generic``/``varco``, or ``None`` (the prebound
    fallback) for other kernels, multi-component fields and
    non-contiguous buffers."""
    if src_data.shape[0] != 1 or not (
        src_data.flags.c_contiguous and dst_data.flags.c_contiguous
    ):
        return None
    return {
        SevenPointStencil: "7pt",
        TwentySevenPointStencil: "27pt",
        GenericStencil: "generic",
        VariableCoefficientStencil: "varco",
    }.get(type(inner))


def _compiled_kind(inner, src_data, dst_data) -> str | None:
    """The codegen kernel family for ``inner`` on this buffer pair, or
    ``None`` when only the numpy plan applies."""
    impl = _flat_impl(inner, src_data, dst_data)
    if impl == "varco" and inner.alpha.dtype != src_data.dtype:
        # mixed-precision coefficient fields follow NumPy promotion in the
        # reference; only same-dtype fields are bit-safe to compile
        return None
    return "taps" if impl == "generic" else impl


# ======================================================================
# stencil lowerings, shared by tile plans and volume rounds.  Each mirrors
# the kernel's compute_plane operand pairing and reduction order exactly,
# so results stay bit-identical.  ``window(dz, dy, dx)`` is the source
# operand shifted by that offset; it has the target's shape.
# ======================================================================


def _emit_7pt(ops, inner, dtype, out, acc, tmp, window) -> None:
    """``acc`` accumulates the neighbor sum; it may be ``out`` itself."""
    alpha, beta = dtype(inner.alpha), dtype(inner.beta)
    ops += [
        (np.add, window(-1, 0, 0), window(1, 0, 0), acc),
        (np.add, window(0, -1, 0), window(0, 1, 0), tmp),
        (np.add, acc, tmp, acc),
        (np.add, window(0, 0, -1), window(0, 0, 1), tmp),
        (np.add, acc, tmp, acc),
        (np.multiply, window(0, 0, 0), alpha, tmp),
        (np.multiply, acc, beta, acc),
        (np.add, tmp, acc, out),
    ]


def _emit_27pt(ops, inner, dtype, out, group, window) -> None:
    ops.append((np.multiply, window(0, 0, 0), dtype(inner.center), out))
    for offsets, w in (
        (_FACES, dtype(inner.face)),
        (_EDGES, dtype(inner.edge)),
        (_CORNERS, dtype(inner.corner)),
    ):
        ops.append((_copy, group, window(*offsets[0]), None))
        for off in offsets[1:]:
            ops.append((np.add, group, window(*off), group))
        ops.append((np.multiply, group, w, group))
        ops.append((np.add, out, group, out))


def _emit_generic(ops, inner, dtype, out, tmp, window) -> None:
    ops.append((_zero, out, None, None))
    for off in inner._order:
        ops.append((np.multiply, window(*off), dtype(inner.taps[off]), tmp))
        ops.append((np.add, out, tmp, out))


def _emit_taps(ops, impl, inner, dtype, out, tmp, window) -> None:
    """The flat, in-place form of one of the :data:`_VOLUME_IMPLS`."""
    if impl == "7pt":
        _emit_7pt(ops, inner, dtype, out, out, tmp, window)
    elif impl == "27pt":
        _emit_27pt(ops, inner, dtype, out, tmp, window)
    else:
        _emit_generic(ops, inner, dtype, out, tmp, window)


# ======================================================================
# per-tile prebound instruction plans
# ======================================================================


class _NumpyFusedRunner:
    """Executes z-iterations by replaying prebound ufunc instructions.

    A *plan* (one per row span, built lazily on the thread that will run it
    so scratch comes from that thread's arena pool) is one flat tuple of
    ``(fn, a, b, out)`` instructions covering every z-iteration in order,
    the ``[start, end)`` offsets of each iteration key within it, and the
    per-key and whole-tile traffic records.  ``run_tile`` replays the whole
    tuple with one aggregate traffic charge (the serial executor's
    untraced path); ``run_iteration`` replays one key's slice (row spans
    and traced runs).  All slicing, region arithmetic, shell lookups and
    liveness reasoning happened once, at bind time.

    Plans are interned while they are emitted.  A ring plane lives in slot
    ``z % slots``, so the instructions of a ring-target compute step repeat
    with that period in z: each distinct step is lowered once and its
    instruction block reused.  Every view of a ring or shell plane is made
    once, keyed by plane and bounds.  Both memos belong to the tile (its
    rings and shell planes), so the ping and pong runners of a tile share
    them.  Views of the source and destination grids are made fresh: each
    is used by one z only, and a tile-lifetime memo would pin grids that a
    stale runner no longer uses.
    """

    def __init__(self, kernel, executor, src, dst, ctx, schedule, round_t):
        self.kernel = kernel
        self.inner = kernel.inner
        self.src_data = src.data
        self.dst_data = dst.data
        self.schedule = schedule
        self.round_t = round_t
        self.radius = r = kernel.radius
        self.nz, self.ny, self.nx = src.shape
        (self.ey0, self.ey1), (self.ex0, self.ex1) = ctx.ey, ctx.ex
        self.eny = self.ey1 - self.ey0
        self.enx = self.ex1 - self.ex0
        self.esize = ctx.esize
        self.ops_per_update = kernel.ops_per_update
        self.shell = ctx.shell_planes
        self.rings = [ctx.rings.ring(t).data for t in range(round_t)]
        self.slots = ctx.rings.slots
        self.regions = executor.instance_regions(ctx, src.shape, round_t)
        iters = schedule.iterations()
        self.iteration_keys = sorted(iters)
        self._steps = {
            k: tuple((s.kind, s.t, s.z) for s in steps) for k, steps in iters.items()
        }
        # boundary-strip geometry (mirrors Blocking35D._fill_xy_strips)
        self.sy_lo = r - self.ey0 if self.ey0 < r else 0
        self.sy_hi = (self.ny - r) - self.ey0 if self.ey1 > self.ny - r else self.eny
        self.sx_lo = r - self.ex0 if self.ex0 < r else 0
        self.sx_hi = self.ex1 - (self.nx - r) if self.ex1 > self.nx - r else 0
        self.full_plane = (
            self.ey0 == 0
            and self.ey1 == self.ny
            and self.ex0 == 0
            and self.ex1 == self.nx
        )
        self.arena = kernel.arena
        self._plans: dict = {}
        # Non-contractive kernels can amplify throwaway seam lanes past the
        # FP range round over round (see SevenPointStencil); suppress the
        # spurious warnings then.  np.errstate is not re-enterable, so a
        # fresh context is created per iteration when needed.
        self._suppress_fp = not getattr(self.inner, "_seam_contractive", False)
        self._impl = _flat_impl(self.inner, self.src_data, self.dst_data)
        if self._impl is not None:
            self._src2 = self.src_data[0]
            self._dst2 = self.dst_data[0]
            self._dstflat = self.dst_data[0].reshape(self.nz, self.ny * self.nx)
        # these lowerings depend on z only through the planes they touch,
        # so compute steps with equal plane keys emit equal instructions
        self._z_free = self._impl in _VOLUME_IMPLS
        self._views, self._blocks = self._tile_memo(ctx)

    def _tile_memo(self, ctx) -> tuple[dict, dict]:
        """The view and block memos, shared with the tile's other runners."""
        for other in ctx.fused or ():
            if (
                isinstance(other, _NumpyFusedRunner)
                and other.kernel is self.kernel
                and other._impl == self._impl
                and other.src_data.shape == self.src_data.shape
            ):
                return other._views, other._blocks
        return {}, {}

    # ------------------------------------------------------------------
    def run_iteration(self, k: int, rows=None, traffic=None) -> None:
        ops, spans, stats, _ = self._plan(rows)
        span = spans.get(k)
        if span is not None:
            self._replay(ops[span[0] : span[1]])
        if traffic is not None:
            rec = stats.get(k)
            if rec is not None:
                self._charge(traffic, rec)

    def run_tile(self, traffic=None) -> None:
        ops, _, _, total = self._plan(None)
        self._replay(ops)
        if traffic is not None:
            self._charge(traffic, total)

    def _plan(self, rows):
        plan = self._plans.get(rows)
        if plan is None:
            plan = self._plans[rows] = self._build_plan(rows)
        return plan

    def _charge(self, traffic, rec) -> None:
        """Record one aggregate ``(rb, rp, wb, wp, pts)`` traffic charge."""
        rb, rp, wb, wp, pts = rec
        if rb or rp:
            traffic.read(rb, planes=rp)
        if wb or wp:
            traffic.write(wb, planes=wp)
        if pts:
            traffic.update(pts, self.ops_per_update)

    # -- plane geometry -------------------------------------------------
    def _rows_local(self, rows) -> tuple[int, int]:
        if rows is None:
            return 0, self.eny
        return (
            max(0, rows[0] - self.ey0),
            min(self.eny, rows[1] - self.ey0),
        )

    def _replay(self, ops) -> None:
        if self._suppress_fp:
            with np.errstate(all="ignore"):
                for fn, a, b, out in ops:
                    fn(a, b, out)
        else:
            for fn, a, b, out in ops:
                fn(a, b, out)

    # ------------------------------------------------------------------
    # interned operands
    # ------------------------------------------------------------------
    # A plane key names a ``(ncomp, eny, enx)`` plane: ``(t, slot)`` is a
    # ring plane, ``("s", z)`` a shell plane and ``("d", z)`` the tile
    # extent of destination plane ``z``.
    def _pkey(self, t: int, z: int) -> tuple:
        """Key of plane ``z`` as read by instance ``t+1`` (shell planes are
        shared by every instance)."""
        return ("s", z) if z in self.shell else (t, z % self.slots)

    def _plane(self, pk) -> np.ndarray:
        kind, i = pk
        if kind == "s":
            return self.shell[i]
        if kind == "d":
            return self.dst_data[:, i, self.ey0 : self.ey1, self.ex0 : self.ex1]
        v = self._views.get(pk)
        if v is None:
            v = self._views[pk] = self.rings[kind][i]
        return v

    def _view(self, pk, form: int, y0: int, y1: int, x0=0, x1=0) -> np.ndarray:
        """A view of plane ``pk``, made once per tile unless it is a grid view.

        ``form`` 1 is the window ``[y0, y1)`` of the flattened first
        component, 2 is ``plane[0, y0:y1, x0:x1]`` and 3 is
        ``plane[:, y0:y1, x0:x1]``.
        """
        key = (pk, form, y0, y1, x0, x1)
        v = self._views.get(key)
        if v is None:
            if form == 1:
                v = self._flat(pk)[y0:y1]
            elif form == 2:
                v = self._plane(pk)[0, y0:y1, x0:x1]
            else:
                v = self._plane(pk)[:, y0:y1, x0:x1]
            if pk[0] != "d":
                self._views[key] = v
        return v

    def _flat(self, pk) -> np.ndarray:
        if pk[0] == "d":
            return self._dstflat[pk[1]]
        key = (pk, "flat")
        v = self._views.get(key)
        if v is None:
            v = self._views[key] = self._plane(pk)[0].reshape(-1)
        return v

    # ------------------------------------------------------------------
    # plan construction
    # ------------------------------------------------------------------
    def _build_plan(self, rows):
        """(instructions, key offsets, per-key stats, whole-tile stats)."""
        ops: list = []
        spans: dict[int, tuple[int, int]] = {}
        stats: dict[int, tuple] = {}
        total = [0, 0, 0, 0, 0]
        for k in self.iteration_keys:
            start = len(ops)
            rb = rp = wb = wp = pts = 0
            for kind, t, z in self._steps[k]:
                if kind is StepKind.LOAD:
                    got = self._emit_load(ops, z, rows)
                    if got:
                        rb += got
                        rp += 1 if rows is None else 0
                elif kind is StepKind.STORE:
                    got = self._emit_store(ops, t, z, rows)
                    if got:
                        wb += got * self.esize
                        wp += 1
                        pts += got
                else:
                    pts += self._emit_compute(ops, t, z, rows)
            if len(ops) > start:
                spans[k] = (start, len(ops))
            if rb or wb or pts:
                stats[k] = rec = (rb, rp, wb, wp, pts)
                total = [a + b for a, b in zip(total, rec)]
        return tuple(ops), spans, stats, tuple(total)

    def _emit_load(self, ops, z, rows) -> int:
        if z in self.shell:
            return 0  # resident since _load_shell_planes
        ly0, ly1 = self._rows_local(rows)
        if ly0 >= ly1:
            return 0
        dst = self._view(self._pkey(0, z), 3, ly0, ly1, 0, self.enx)
        gy0, gy1 = self.ey0 + ly0, self.ey0 + ly1
        src = self.src_data[:, z, gy0:gy1, self.ex0 : self.ex1]
        ops.append((_copy, dst, src, None))
        return (ly1 - ly0) * self.enx * self.esize

    def _clip_region(self, t, rows):
        (gy0, gy1), (gx0, gx1) = self.regions[t]
        if rows is not None:
            gy0, gy1 = max(gy0, rows[0]), min(gy1, rows[1])
        return gy0, gy1, gx0, gx1

    def _source_keys(self, t, z) -> tuple:
        r = self.radius
        return tuple(self._pkey(t - 1, z + dz) for dz in range(-r, r + 1))

    def _emit_compute(self, ops, t, z, rows) -> int:
        """Ring-target stencil step plus its boundary-strip refresh."""
        gy0, gy1, gx0, gx1 = self._clip_region(t, rows)
        okey = (t, z % self.slots)
        srcks = self._source_keys(t, z)
        key = block = None
        if self._z_free:
            # scratch comes from the building thread's arena pool
            key = (threading.get_ident(), okey, srcks, rows)
            block = self._blocks.get(key)
        if block is None:
            block = []
            if gy0 < gy1:
                a0, a1 = gy0 - self.ey0, gy1 - self.ey0
                x0, x1 = gx0 - self.ex0, gx1 - self.ex0
                self._emit_stencil(
                    block, okey, srcks, a0, a1, x0, x1, z, flat=True, seam=True
                )
            self._emit_strips(block, okey, srcks[self.radius], rows)
            if key is not None:
                block = self._blocks[key] = tuple(block)
        ops += block
        return (gy1 - gy0) * (gx1 - gx0) if gy0 < gy1 else 0

    def _emit_store(self, ops, t, z, rows) -> int:
        gy0, gy1, gx0, gx1 = self._clip_region(t, rows)
        if gy0 >= gy1:
            return 0
        a0, a1 = gy0 - self.ey0, gy1 - self.ey0
        x0, x1 = gx0 - self.ex0, gx1 - self.ex0
        srcks = self._source_keys(t, z)
        if self.full_plane and self._impl is not None:
            # direct flat store: compute into the destination plane's own
            # rows, then restore the constant x-boundary columns the flat
            # seam lanes clobbered (the y-boundary rows are never written).
            self._emit_stencil(ops, ("d", z), srcks, a0, a1, x0, x1, z, flat=True)
            r = self.radius
            if r:
                ops.append((
                    _copy,
                    self._dst2[z, a0:a1, :r],
                    self._src2[z, a0:a1, :r],
                    None,
                ))
                ops.append((
                    _copy,
                    self._dst2[z, a0:a1, self.nx - r :],
                    self._src2[z, a0:a1, self.nx - r :],
                    None,
                ))
        else:
            self._emit_stencil(ops, ("d", z), srcks, a0, a1, x0, x1, z, flat=False)
        return (gy1 - gy0) * (gx1 - gx0)

    def _emit_strips(self, ops, okey, pkey, rows) -> None:
        ly0, ly1 = self._rows_local(rows)
        if ly0 >= ly1:
            return
        view, enx = self._view, self.enx
        boxes = []
        if self.sy_lo:
            hi = min(self.sy_lo, ly1)
            if hi > ly0:
                boxes.append((ly0, hi, 0, enx))
        if self.sy_hi < self.eny:
            lo = max(self.sy_hi, ly0)
            if ly1 > lo:
                boxes.append((lo, ly1, 0, enx))
        if self.sx_lo:
            boxes.append((ly0, ly1, 0, self.sx_lo))
        if self.sx_hi:
            boxes.append((ly0, ly1, enx - self.sx_hi, enx))
        for box in boxes:
            ops.append((_copy, view(okey, 3, *box), view(pkey, 3, *box), None))

    # ------------------------------------------------------------------
    # stencil lowering (each mirrors the kernel's compute_plane(_inplace)
    # operand pairing exactly, so results stay bit-identical).  ``tk`` is
    # the target plane key: a ring plane, or ``("d", z)`` for a store.
    # ------------------------------------------------------------------
    def _emit_stencil(self, ops, tk, srcks, a0, a1, x0, x1, z, *, flat,
                      seam=False):
        """One stencil step into target ``tk``.  ``flat`` targets (ring
        planes, whole-plane stores) take the seam-tolerant flat spans; the
        others (strided store views) get exact 2-D regions.  ``seam`` is the
        fallback's seam-writable promise."""
        impl = self._impl
        if impl == "varco":  # no flat seam path: writes the exact region
            self._lower_varco(ops, tk, srcks, a0, a1, x0, x1, z)
            return
        if impl is None:
            self._emit_fallback(ops, tk, srcks, a0, a1, x0, x1, z, seam=seam)
            return
        out, window = self._tap_windows(tk, srcks, a0, a1, x0, x1, flat,
                                        whole_rows=impl == "7pt")
        dtype = self.src_data.dtype
        tmp = self.arena.get("fused.tmp", out.shape, dtype)
        if impl == "7pt" and not flat:  # the neighbor sum needs a buffer
            acc = self.arena.get("fused.acc", out.shape, dtype)
            _emit_7pt(ops, self.inner, dtype.type, out, acc, tmp, window)
        else:
            _emit_taps(ops, impl, self.inner, dtype.type, out, tmp, window)

    def _emit_fallback(self, ops, tk, srcks, a0, a1, x0, x1, z, *, seam):
        """Any kernel: one prebound in-place call per step (t-loop fused)."""
        kernel, arena = self.inner, self.arena
        gy0, gx0 = self.ey0, self.ex0
        out3 = self._plane(tk)
        srcs = [self._plane(k) for k in srcks]

        def step(out3=out3, srcs=srcs, yr=(a0, a1), xr=(x0, x1), z=z, seam=seam):
            kernel.compute_plane_inplace(
                out3, srcs, yr, xr, z, gy0, gx0, arena=arena, seam_writable=seam
            )

        ops.append((_invoke, step, None, None))

    def _tap_windows(self, tk, srcks, a0, a1, x0, x1, flat, whole_rows=False):
        """The target and a ``window(dz, dy, dx)`` accessor of the source
        windows: spans ``[a0*nx+x0, (a1-1)*nx+x1)`` of the flattened planes
        (seam lanes computed and discarded; whole rows ``[a0*nx, a1*nx)``
        with ``whole_rows``) when ``flat``, else exact 2-D regions."""
        r = self.radius
        if flat:
            nx = self.enx
            s0, e0 = a0 * nx + x0, (a1 - 1) * nx + x1
            if whole_rows:
                s0, e0 = a0 * nx, a1 * nx

            def window(dz, dy, dx):
                off = dy * nx + dx
                return self._view(srcks[dz + r], 1, s0 + off, e0 + off)

            return self._view(tk, 1, s0, e0), window

        def window(dz, dy, dx):
            return self._view(
                srcks[dz + r], 2, a0 + dy, a1 + dy, x0 + dx, x1 + dx
            )

        return self._view(tk, 2, a0, a1, x0, x1), window

    # -- variable coefficients ------------------------------------------
    def _lower_varco(self, ops, tk, srcks, a0, a1, x0, x1, z):
        inner = self.inner
        gy0, gy1 = self.ey0 + a0, self.ey0 + a1
        gx0, gx1 = self.ex0 + x0, self.ex0 + x1
        a_view = inner.alpha[z, gy0:gy1, gx0:gx1]
        b_view = inner.beta[z, gy0:gy1, gx0:gx1]
        kb, km, ka = srcks

        def w(k, dy=0, dx=0):
            return self._view(k, 2, a0 + dy, a1 + dy, x0 + dx, x1 + dx)

        shape = (a1 - a0, x1 - x0)
        dtype = self.src_data.dtype
        # the coefficient products and their sum are formed in the promoted
        # dtype, as the reference's ``a * mid + b * acc`` forms them
        ct = np.result_type(a_view, dtype)
        acc = self.arena.get("fusedv.acc", shape, dtype)
        tmp = self.arena.get("fusedv.tmp", shape, ct)
        prod = acc if ct == dtype else self.arena.get("fusedv.prod", shape, ct)
        ops += [
            (np.add, w(kb), w(ka), acc),
            (np.add, acc, w(km, -1), acc),
            (np.add, acc, w(km, 1), acc),
            (np.add, acc, w(km, 0, -1), acc),
            (np.add, acc, w(km, 0, 1), acc),
            (np.multiply, a_view, w(km), tmp),
            (np.multiply, b_view, acc, prod),
            (np.add, tmp, prod, w(tk)),
        ]


# ======================================================================
# whole-round runners: volume rounds and batched rounds
# ======================================================================


class _RoundRunner:
    """A whole round as one prebound instruction tuple (``_ops``) plus one
    aggregate ``(rb, rp, wb, wp, pts)`` traffic charge (``_traffic``)."""

    def run(self, shell_token=None, traffic=None) -> None:
        """Execute the round and charge its aggregate traffic (volume
        rounds ignore the shell token: their scratch shell is two copies)."""
        if self._suppress_fp:
            with np.errstate(all="ignore"):
                for fn, a, b, out in self._ops:
                    fn(a, b, out)
        else:
            for fn, a, b, out in self._ops:
                fn(a, b, out)
        if traffic is not None:
            rb, rp, wb, wp, pts = self._traffic
            traffic.read(rb, planes=rp)
            traffic.write(wb, planes=wp)
            traffic.update(pts, self.ops_per_update)


def _x_lanes(flat, ny, nx, r) -> np.ndarray:
    """The x-boundary lanes of flattened ``ny x nx`` planes (last axis of
    ``flat``) as one strided box: row y's last r columns run on into row
    y+1's first r, for rows r-1 .. ny-r-1."""
    lanes = flat[..., r * nx - r : (ny - r + 1) * nx - r]
    return lanes.reshape(flat.shape[:-1] + (ny - 2 * r + 1, nx))[..., : 2 * r]


class _VolumeScratch:
    """An executor's private intermediate volumes and chunk temporary,
    shared by its volume runners of one shape and dtype (they run one at a
    time: an executor is driven by one thread)."""

    __slots__ = ("shape", "dtype", "vols", "tmp")

    def __init__(self, shape, dtype) -> None:
        self.shape, self.dtype = shape, dtype
        self.vols: list[np.ndarray] = []
        self.tmp = np.zeros(VOLUME_CHUNK, dtype)

    def volumes(self, n: int) -> list[np.ndarray]:
        while len(self.vols) < n:
            self.vols.append(np.zeros(self.shape, self.dtype).reshape(-1))
        return self.vols[:n]


class _VolumeRunner(_RoundRunner):
    """One round as ``round_t`` plain Jacobi sweeps over the whole volume.

    Each step applies the kernel's flat lowering to windows of the
    flattened volume at offset ``dz*ny*nx + dy*nx + dx``, over the flat span
    from the first to the last interior point, cut into ``VOLUME_CHUNK``
    element chunks so temporaries stay cache-sized.  The y/x boundary lanes
    inside that span come out as throwaway values; the step then restores
    them from ``src`` (the boundary is constant in time), the trick the
    full-plane flat store uses.  Steps ping-pong from ``src`` through
    private scratch volumes into ``dst``, so ``src`` is never written and
    ``dst`` is written only on its interior planes.  With a Z core, step
    ``t`` covers only the planes of its dependence cone
    (:func:`~repro.core.regions.cone_ranges`) and ``dst`` only the core.
    Traffic is charged as ``round_t`` calls of
    :func:`~repro.core.naive.naive_sweep`, each over the planes its step
    computes (every interior plane without a core).
    """

    span = "volume_round"

    def __init__(self, kernel, executor, src, dst, round_t, z_core):
        inner = kernel.inner
        self.src_data, self.dst_data, self.round_t = src.data, dst.data, round_t
        self.z_core = z_core
        r = kernel.radius
        nz, ny, nx = src.shape
        plane = ny * nx
        dtype = src.data.dtype
        self._suppress_fp = not getattr(inner, "_seam_contractive", False)
        for other in executor.sweep_runners:
            if (
                type(other) is _VolumeRunner
                and other._scratch.shape == src.data.shape
                and other._scratch.dtype == dtype
            ):
                self._scratch = other._scratch
                break
        else:
            self._scratch = _VolumeScratch(src.data.shape, dtype)
        # step i writes volume i % 2; the last step lands in dst
        vols = self._scratch.volumes(min(round_t - 1, 2))
        srcflat = src.data.reshape(-1)
        chain = [srcflat] + [vols[i % 2] for i in range(round_t - 1)]
        chain.append(dst.data.reshape(-1))
        s = r * plane + r * nx + r
        e = (nz - r - 1) * plane + (ny - r - 1) * nx + nx - r
        # the shell outside the computed span is constant in time, but a
        # shared scratch volume may hold another run's (or buffer's)
        ops: list = []
        for vol in vols:
            ops += [(_copy, vol[:s], srcflat[:s], None),
                    (_copy, vol[e:], srcflat[e:], None)]
        impl = _flat_impl(inner, src.data, dst.data)
        src3 = src.data[0]
        spans = cone_ranges(
            (r, nz - r) if z_core is None else z_core, nz, r, round_t
        )[1:]
        rp = upd = 0
        for a, b, (z0, z1) in zip(chain, chain[1:], spans):
            if z0 >= z1:
                continue
            rp += z1 - z0 + 2 * r
            upd += z1 - z0
            # from the first to the last interior point of the step's planes
            lo = z0 * plane + r * nx + r
            hi = (z1 - 1) * plane + (ny - r - 1) * nx + nx - r
            for c0 in range(lo, hi, VOLUME_CHUNK):
                c1 = min(c0 + VOLUME_CHUNK, hi)

                def window(dz, dy, dx, a=a, c0=c0, c1=c1):
                    off = dz * plane + dy * nx + dx
                    return a[c0 + off : c1 + off]

                tmp = self._scratch.tmp[: c1 - c0]
                _emit_taps(ops, impl, inner, dtype.type, b[c0:c1], tmp, window)
            b3 = b.reshape(nz, ny, nx)
            for box in (
                (slice(z0, z1), slice(0, r)),
                (slice(z0, z1), slice(ny - r, ny)),
            ):
                ops.append((_copy, b3[box], src3[box], None))
            xb, xs = (
                _x_lanes(v.reshape(nz, plane)[z0:z1], ny, nx, r)
                for v in (b3, src3)
            )
            ops.append((_copy, xb, xs, None))
        self._ops = tuple(ops)
        pts = (ny - 2 * r) * (nx - 2 * r)
        esize = src.element_size()
        self._traffic = (
            rp * plane * esize, rp, upd * pts * esize, upd, upd * pts,
        )
        self.ops_per_update = kernel.ops_per_update


def _edge_bands(tiles, off, n, r) -> list[tuple[int, int]]:
    """Expanded-plane ranges of the grid-boundary lanes (``< r`` or
    ``>= n - r``) that axis ``tiles`` hold away from the plane's outer
    edge: tiles whose loaded extent is clamped at a grid edge they do not
    sit at (small tiles next to the first or last one)."""
    bands = []
    for i, tile in enumerate(tiles):
        e0, e1 = tile.extent
        if i and e0 < r:
            bands.append((off[i], off[i] + r - e0))
        if i < len(tiles) - 1 and e1 > n - r:
            bands.append((off[i] + n - r - e0, off[i + 1]))
    return bands


def _page_zeros(n, dtype):
    """``np.zeros(n, dtype)`` starting on a 4 KiB page boundary.

    Planes below the allocator's mmap threshold land wherever the heap
    left off, and the round's speed followed those offsets: one unrelated
    4 KiB allocation at import moved a 128^3 sweep by ~15%.  Pinning the
    offsets makes the round's speed independent of what ran before it.
    """
    size = n * np.dtype(dtype).itemsize
    buf = np.zeros(size + 4096, np.uint8)
    off = (-buf.ctypes.data) % 4096
    return buf[off:off + size].view(dtype)


class _BatchedScratch:
    """The expanded-plane rings, Z-shell planes, store plane and temporary
    of one round layout, shared by an executor's ping and pong runners (an
    executor runs one round at a time).  ``token`` names the run whose
    constant Z-shell ``shell`` holds."""

    __slots__ = ("key", "rings", "shell", "out", "tmp", "token")

    def __init__(self, key, round_t, slots, shell_zs, hw, span, dtype) -> None:
        self.key = key
        self.rings = np.zeros((round_t, slots, hw), dtype)
        self.shell = {z: _page_zeros(hw, dtype) for z in shell_zs}
        self.out = _page_zeros(hw, dtype)
        self.tmp = _page_zeros(span, dtype)
        self.token = None


class _BatchedRunner(_RoundRunner):
    """Every XY tile of a multi-tile round over one halo-expanded plane.

    ``plan_tiles_2d`` tiles are the cross product of Y and X axis tiles, so
    their loaded extents, laid side by side without padding, form one
    ``(sum of Y extents) x (sum of X extents)`` plane: kappa times the
    grid plane.  Every ring slot holds one such plane.  Per z-plane the
    round, in schedule order,

    * gathers the ``nty x ntx`` tile extents of ``src`` into the ring,
    * runs each instance's flat lowering once over the whole plane,
    * restores the plane's outer boundary lanes (the grid boundary, which
      is constant in time) from the previous instance,
    * computes the last instance into a store plane and scatters each
      tile's core into ``dst``.

    Lanes at a seam between two tiles read the neighbour tile's data.  They
    are exactly the ghost lanes the trapezoid throws away
    (``compute_range`` shrinks by R per instance), so they never reach a
    core and no seam strips are needed.  A round thus dispatches about as
    many ufuncs as the full-plane plan, each covering every tile at once.
    ``src`` is never written; ``dst`` only on tile cores.  The Z-shell is
    gathered once per run (shell token) and traffic is charged exactly as
    the per-tile plans charge it, shell-plane reads included.
    """

    span = "batched_round"

    def __init__(self, kernel, executor, src, dst, round_t, z_core):
        inner = kernel.inner
        self.src_data, self.dst_data, self.round_t = src.data, dst.data, round_t
        self.z_core = z_core
        r = kernel.radius
        nz, ny, nx = src.shape
        dtype = src.data.dtype
        self._suppress_fp = not getattr(inner, "_seam_contractive", False)
        self.ops_per_update = kernel.ops_per_update
        tiles = executor._plan_tiles(ny, nx, round_t)
        ys = list(dict.fromkeys(t.y for t in tiles))
        xs = list(dict.fromkeys(t.x for t in tiles))
        yoff = np.cumsum([0] + [t.extent_size for t in ys]).tolist()
        xoff = np.cumsum([0] + [t.extent_size for t in xs]).tolist()
        h, w = yoff[-1], xoff[-1]
        # every lane but the plane's outer r rows and columns: the windows
        # of all taps (|dy|, |dx| <= r) stay inside the plane
        s, e = r * w + r, (h - r) * w - r
        slots = ring_slots(r, executor.concurrent)
        shell_zs = [*range(r), *range(nz - r, nz)]
        key = (src.data.shape, dtype, round_t)
        for other in executor.sweep_runners:
            if type(other) is _BatchedRunner and other._scratch.key == key:
                self._scratch = sc = other._scratch
                break
        else:
            self._scratch = sc = _BatchedScratch(
                key, round_t, slots, shell_zs, h * w, e - s, dtype
            )

        # plane keys: ("s", z) a Z-shell plane, (t, slot) a ring plane
        planes = {("s", z): sc.shell[z] for z in shell_zs}
        for t in range(round_t):
            for k in range(slots):
                planes[t, k] = sc.rings[t, k]
        ybands = _edge_bands(ys, yoff, ny, r)
        xbands = _edge_bands(xs, xoff, nx, r)

        def boundary(p):
            """The grid-boundary lanes of expanded plane ``p``, restored
            from the previous instance after each compute: the plane's
            outer edge and, where a tile's extent reaches it, inner bands."""
            p2 = p.reshape(h, w)
            out = [p[:s], p[e:], _x_lanes(p, h, w, r)] if r else []
            out += [p2[lo:hi] for lo, hi in ybands]
            out += [p2[:, lo:hi] for lo, hi in xbands]
            return out

        def span(tile, off, core):
            """A tile's extent, or its core, along one plane axis."""
            if not core:
                return slice(off, off + tile.extent_size)
            lo = off + tile.core[0] - tile.extent[0]
            return slice(lo, lo + tile.core_size)

        def blocks(p, core):
            """Each tile's extent (or core) in expanded plane ``p``."""
            p2 = p.reshape(h, w)
            return [p2[span(ty, yoff[a], core), span(tx, xoff[b], core)]
                    for a, ty in enumerate(ys) for b, tx in enumerate(xs)]

        src3, dst3 = src.data[0], dst.data[0]
        pairs = [(ty, tx) for ty in ys for tx in xs]

        def gather(ops, pk, z):
            for view, (ty, tx) in zip(blocks(planes[pk], False), pairs):
                ops.append((_copy, view,
                            src3[z, slice(*ty.extent), slice(*tx.extent)],
                            None))

        edges = {pk: boundary(p) for pk, p in planes.items()}
        cores = blocks(sc.out, True)
        windows: dict = {}
        impl = _flat_impl(inner, src.data, dst.data)

        def pkey(t, z):  # plane z as instance t + 1 reads it
            return ("s", z) if z in sc.shell else (t, z % slots)

        def stencil(ops, out, t, z):
            def window(dz, dy, dx):
                pk = pkey(t - 1, z + dz)
                v = windows.get((pk, dy, dx))
                if v is None:
                    off = dy * w + dx
                    v = windows[pk, dy, dx] = planes[pk][s + off : e + off]
                return v

            _emit_taps(ops, impl, inner, dtype.type, out, sc.tmp, window)

        self._shell_ops: list = []
        for z in shell_zs:
            gather(self._shell_ops, ("s", z), z)
        ops: list = []
        loads = stores = 0
        computes = [0] * (round_t + 1)  # planes computed per instance
        for step in executor._get_schedule(nz, round_t, z_core).steps:
            kind, t, z = step.kind, step.t, step.z
            if kind is StepKind.LOAD:
                if z not in sc.shell:
                    gather(ops, pkey(0, z), z)
                    loads += 1
                continue
            computes[t] += 1
            if kind is StepKind.COMPUTE:
                target = (t, z % slots)
                stencil(ops, planes[target][s:e], t, z)
                for a, b in zip(edges[target], edges[pkey(t - 1, z)]):
                    ops.append((_copy, a, b, None))
            else:
                stores += 1
                stencil(ops, sc.out[s:e], t, z)
                for view, (ty, tx) in zip(cores, pairs):
                    ops.append((_copy,
                                dst3[z, slice(*ty.core), slice(*tx.core)],
                                view, None))
        self._ops = tuple(ops)
        # the per-tile plans' charge, summed over tiles: shell and load
        # reads of each extent, one update per instance-region point, the
        # core written once per stored plane
        esize = src.element_size()
        ext = sum(tile.extent_points for tile in tiles)
        core = sum(tile.core_points for tile in tiles)
        pts = 0
        for tile in tiles:
            for t in range(1, round_t + 1):
                y0, y1 = compute_range(tile.y.core, ny, r, round_t, t)
                x0, x1 = compute_range(tile.x.core, nx, r, round_t, t)
                pts += computes[t] * (y1 - y0) * (x1 - x0)
        reads = len(shell_zs) + loads
        self._traffic = (
            reads * ext * esize, reads * len(tiles),
            stores * core * esize, stores * len(tiles),
            pts,
        )

    def run(self, shell_token=None, traffic=None) -> None:
        """Gather the Z-shell unless this run's is already resident, then
        execute the round and charge its aggregate traffic."""
        sc = self._scratch
        if shell_token is None or sc.token is not shell_token:
            for fn, a, b, out in self._shell_ops:
                fn(a, b, out)
            sc.token = shell_token
        super().run(shell_token, traffic)


_ROUND_RUNNERS = (_VolumeRunner, _BatchedRunner)
