"""Fused whole-round sweeps (the 3.5D hot-path layer).

The blocking executors express one z-iteration of the paper's Figure 3(a)
as ``dim_T + 1`` separate schedule steps, each a Python-level kernel call.
That is the right granularity for *correctness* (every step is independently
testable against the naive reference) but the wrong one for *speed*: on the
NumPy substrate the interpreter dispatch around each step — region lookups,
ring-liveness checks, footprint validation, slice construction — costs as
much as the arithmetic itself.  AN5D and the wavefront-diamond line of work
(PAPERS.md) both fuse the whole temporal chain into one compiled sweep; this
module provides that layering on top of the backend registry.

The ``fused-numpy`` engine (``FusedSweepKernel``) runs a whole round as one
*prebound instruction tuple*: at bind time every schedule step of the round
is lowered to a short list of ``(ufunc, a, b, out)`` instructions whose
operands are pre-sliced views of the scratch planes and the source and
destination grids, so a round is one replay of that tuple with no per-step
interpreter work.  Its :meth:`FusedSweepKernel.sweep_runner` hook picks one
of two layouts per round:

* a *batched round* (:class:`_BatchedRunner`): every tile of the round at
  once over one halo-expanded plane, a single whole-plane tile included;
* a *volume round* (:class:`_VolumeRunner`): ``round_t`` plain sweeps of
  the same flat lowerings over the whole volume, when Eq. 2 says blocking
  cannot pay (``kappa > round_t``).

Every other round runs the executors' *stepwise* path, one in-place plane
kernel call per schedule step: the threaded executor's row spans, kernels
and buffers without a flat lowering (LBM and other multi-component
fields) and rounds under an armed ``memory.flip`` fault (its ring site is
a stepwise load).  The compiled form of the same round is
:mod:`repro.perf.codegen`, which extends ``FusedSweepKernel``.

Every layout preserves the executors' contracts exactly: identical operand
pairing and reduction order (bit-exact against the naive reference),
identical boundary semantics and identical traffic accounting.
"""

from __future__ import annotations

import numpy as np

from ..core.buffer import ring_slots
from ..core.regions import compute_range, cone_ranges
from ..core.schedule import StepKind
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


#: elements per operand chunk of a volume round: a chunk's temporaries stay
#: cache-sized while each ufunc call still covers thousands of lanes
VOLUME_CHUNK = 16384


class FusedSweepKernel(InplaceKernel):
    """Backend adapter adding fused whole-round sweeps to any kernel.

    Outside the 3.5D executors this behaves exactly like
    :class:`InplaceKernel` (so ``--backend fused-numpy`` works with every
    executor); inside them, :meth:`sweep_runner` supplies a runner that
    executes a whole round in one call, and the rounds it declines run
    stepwise through the in-place plane kernel.
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
    def sweep_runner(self, executor, src, dst, round_t, parallel=False,
                     z_core=None):
        """The (cached) whole-round runner of one round, or ``None``.

        A 3.5D round cuts bandwidth by ``dim_T / kappa`` (Eq. 2), so when
        the round's tile plan has ``kappa > round_t`` blocking only adds
        ghost loads and recomputation, and the round runs as ``round_t``
        whole-volume sweeps instead (:class:`_VolumeRunner`).  Otherwise
        the round runs every tile at once over one halo-expanded plane
        (:class:`_BatchedRunner`); a whole-plane tile is that layout's
        limit case, whose expanded plane is the grid plane.  ``None``
        sends the round to the executor's stepwise path: for the threaded
        executor (its workers own row spans), while a ``memory.flip``
        fault is armed (its ring site is a stepwise load), and for kernels
        and buffers without a flat lowering.  Runners live in
        ``executor.sweep_runners``, matched by ping/pong buffer identity
        and Z core like codegen's.
        """
        FAULTS.fire("backend.compute", detail=f"fused-{self.engine}")
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
                return runner
        impl = _flat_impl(self.inner, src.data, dst.data)
        if impl is None:
            return None
        if (impl in _VOLUME_IMPLS
                and executor.kappa(src.ny, src.nx, round_t) > round_t):
            cls = _VolumeRunner
        else:
            cls = _BatchedRunner
        runner = cls(self, executor, src, dst, round_t, z_core)
        cache.append(runner)
        del cache[:-4]  # ping/pong plus one spare pair
        return runner


#: kernels whose flat lowering depends on z only through the planes it reads
_VOLUME_IMPLS = ("7pt", "27pt", "generic")


def _flat_impl(inner, src_data, dst_data) -> str | None:
    """The numpy engine's lowering for ``inner`` on this buffer pair: one
    of ``7pt``/``27pt``/``generic``/``varco``, or ``None`` (the stepwise
    path) for other kernels, multi-component fields and non-contiguous
    buffers."""
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
    ``None`` when only the numpy rounds apply."""
    impl = _flat_impl(inner, src_data, dst_data)
    if impl == "varco" and inner.alpha.dtype != src_data.dtype:
        # mixed-precision coefficient fields follow NumPy promotion in the
        # reference; only same-dtype fields are bit-safe to compile
        return None
    return "taps" if impl == "generic" else impl


# ======================================================================
# stencil lowerings, shared by batched and volume rounds.  Each mirrors
# the kernel's compute_plane operand pairing and reduction order exactly,
# so results stay bit-identical.  ``window(dz, dy, dx)`` is the source
# operand shifted by that offset; it has the target's shape.  Every form
# is flat and in place: the target doubles as the accumulator.
# ======================================================================


def _emit_7pt(ops, inner, dtype, out, tmp, window) -> None:
    alpha, beta = dtype(inner.alpha), dtype(inner.beta)
    ops += [
        (np.add, window(-1, 0, 0), window(1, 0, 0), out),
        (np.add, window(0, -1, 0), window(0, 1, 0), tmp),
        (np.add, out, tmp, out),
        (np.add, window(0, 0, -1), window(0, 0, 1), tmp),
        (np.add, out, tmp, out),
        (np.multiply, window(0, 0, 0), alpha, tmp),
        (np.multiply, out, beta, out),
        (np.add, tmp, out, out),
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
    """The lowering of one of the :data:`_VOLUME_IMPLS`."""
    if impl == "7pt":
        _emit_7pt(ops, inner, dtype, out, tmp, window)
    elif impl == "27pt":
        _emit_27pt(ops, inner, dtype, out, tmp, window)
    else:
        _emit_generic(ops, inner, dtype, out, tmp, window)


def _emit_varco(ops, out, tmp, prod, window, alpha, beta) -> None:
    """The variable-coefficient lowering: ``alpha`` and ``beta`` are the
    target's coefficient windows.  The products and their sum are formed
    in the promoted dtype, as the reference's ``a * mid + b * acc`` forms
    them: ``tmp`` and ``prod`` have that dtype (``prod`` may be ``out``
    when it is the field dtype)."""
    ops += [
        (np.add, window(-1, 0, 0), window(1, 0, 0), out),
        (np.add, out, window(0, -1, 0), out),
        (np.add, out, window(0, 1, 0), out),
        (np.add, out, window(0, 0, -1), out),
        (np.add, out, window(0, 0, 1), out),
        (np.multiply, alpha, window(0, 0, 0), tmp),
        (np.multiply, beta, out, prod),
        (np.add, tmp, prod, out),
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
    them from ``src`` (the boundary is constant in time).  Steps ping-pong from ``src`` through
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
    constant Z-shell ``shell`` holds.  A variable-coefficient round also
    keeps ``coef = (alphas, betas, tmp, prod)``: rings of ``nslots``
    expanded alpha and beta planes, and the product temporaries in the
    coefficients' promoted dtype.  When that is the field dtype, ``tmp``
    is the field's own and ``prod`` is ``None`` (the target serves)."""

    __slots__ = ("key", "rings", "shell", "out", "tmp", "coef", "token")

    def __init__(self, key, round_t, slots, shell_zs, hw, span, dtype,
                 varco=None) -> None:
        self.key = key
        self.rings = np.zeros((round_t, slots, hw), dtype)
        self.shell = {z: _page_zeros(hw, dtype) for z in shell_zs}
        self.out = _page_zeros(hw, dtype)
        self.tmp = _page_zeros(span, dtype)
        self.coef = None
        if varco is not None:
            inner, nslots = varco
            ct = np.result_type(inner.alpha, dtype)
            mixed = ct != dtype
            self.coef = (
                np.zeros((nslots, hw), inner.alpha.dtype),
                np.zeros((nslots, hw), inner.beta.dtype),
                _page_zeros(span, ct) if mixed else self.tmp,
                _page_zeros(span, ct) if mixed else None,
            )
        self.token = None


class _BatchedRunner(_RoundRunner):
    """Every XY tile of a round over one halo-expanded plane.

    ``plan_tiles_2d`` tiles are the cross product of Y and X axis tiles, so
    their loaded extents, laid side by side without padding, form one
    ``(sum of Y extents) x (sum of X extents)`` plane: kappa times the
    grid plane (the grid plane itself for one whole-plane tile).  Every
    ring slot holds one such plane.  Per z-plane the round, in schedule
    order,

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
    many ufuncs as a whole-plane tile's round, each covering every tile at
    once.  ``src`` is never written; ``dst`` only on tile cores.  The
    Z-shell is gathered once per run (shell token) and traffic is charged
    exactly as the stepwise per-tile path charges it, shell-plane reads
    included.

    Variable coefficients are gathered into expanded planes like ``src``:
    plane ``z``'s pair is gathered at its first compute of the round into
    ring slot ``z % nslots`` and serves the later instances from there.
    ``nslots = lag * (round_t - 1) + 1`` covers a plane's whole life, so
    each pair is gathered once per round and the round holds ``nslots``
    pairs, not the volume.
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
        impl = _flat_impl(inner, src.data, dst.data)
        schedule = executor._get_schedule(nz, round_t, z_core)
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
            varco = None
            if impl == "varco":
                varco = (inner, schedule.lag * (round_t - 1) + 1)
            self._scratch = sc = _BatchedScratch(
                key, round_t, slots, shell_zs, h * w, e - s, dtype, varco
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

        dst3 = dst.data[0]
        pairs = [(ty, tx) for ty in ys for tx in xs]

        def gather(ops, plane, vol, z):
            """Copy each tile's extent of plane ``z`` of ``vol`` into
            expanded plane ``plane``."""
            for view, (ty, tx) in zip(blocks(plane, False), pairs):
                ops.append((_copy, view,
                            vol[z, slice(*ty.extent), slice(*tx.extent)],
                            None))

        edges = {pk: boundary(p) for pk, p in planes.items()}
        cores = blocks(sc.out, True)
        windows: dict = {}

        def pkey(t, z):  # plane z as instance t + 1 reads it
            return ("s", z) if z in sc.shell else (t, z % slots)

        def window_of(t, z):
            def window(dz, dy, dx):
                pk = pkey(t - 1, z + dz)
                v = windows.get((pk, dy, dx))
                if v is None:
                    off = dy * w + dx
                    v = windows[pk, dy, dx] = planes[pk][s + off : e + off]
                return v

            return window

        if impl == "varco":
            alphas, betas, ctmp, cprod = sc.coef
            held: dict[int, int] = {}  # coefficient slot -> plane it holds

            def stencil(ops, out, t, z):
                i = z % len(alphas)
                if held.get(i) != z:
                    gather(ops, alphas[i], inner.alpha, z)
                    gather(ops, betas[i], inner.beta, z)
                    held[i] = z
                _emit_varco(ops, out, ctmp, out if cprod is None else cprod,
                            window_of(t, z), alphas[i][s:e], betas[i][s:e])
        else:
            def stencil(ops, out, t, z):
                _emit_taps(ops, impl, inner, dtype.type, out, sc.tmp,
                           window_of(t, z))

        src3 = src.data[0]
        self._shell_ops: list = []
        for z in shell_zs:
            gather(self._shell_ops, planes["s", z], src3, z)
        ops: list = []
        loads = stores = 0
        computes = [0] * (round_t + 1)  # planes computed per instance
        for step in schedule.steps:
            kind, t, z = step.kind, step.t, step.z
            if kind is StepKind.LOAD:
                if z not in sc.shell:
                    gather(ops, planes[pkey(0, z)], src3, z)
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
        # the stepwise path's charge, summed over tiles: shell and load
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
