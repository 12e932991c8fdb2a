"""Plan-level codegen: compile whole 3.5D sweeps to cached parallel kernels.

The fused-numpy engine of :mod:`repro.perf.fused` hoists Python dispatch out
of the *z-iteration*; this module hoists it out of the *entire sweep round*.  A
whole round's prebound instruction plan — the tile loop, every ring-buffer
plane rotation, the boundary-strip seam writes and all ``dim_T``
z-iterations — is lowered into **one generated kernel** whose outer loop
runs ``prange`` over tiles, so a rank needs neither the Python
:class:`~repro.runtime.threadpool.WorkerPool` nor any per-step interpreter
work once the plan is bound.  This is the AN5D / DaCe dataflow-lowering
idiom (PAPERS.md): generate the full tiled sweep, compile once, replay.

Layout of the layer:

``generate_sweep_source(kind, parallel)``
    Emits the Python source of the whole-sweep kernel for one stencil kind
    (``7pt`` / ``27pt`` / ``taps`` / ``varco``).  The generated code is
    *geometry-generic*: tile extents, schedule steps, region clips and strip
    widths arrive as int64 arrays at call time, so one compiled kernel
    serves every grid size, tile shape and ``round_t`` — which is what lets
    a warm disk cache mean zero JIT cost for *new* plans too.  The scalar
    loop bodies follow the fused-numpy lowerings (same operand association,
    same shell substitution, same strip refresh), so results are
    bit-identical to every other backend; ``REPRO_CODEGEN_MODE=python``
    runs the generated source interpreted, which is how that is checked
    without numba.
``CodegenCache``
    On-disk store of generated modules under
    ``$REPRO_CODEGEN_CACHE`` (default ``$XDG_CACHE_HOME/repro/codegen``),
    in a per-:func:`~repro.core.autotune.machine_fingerprint` subdirectory
    keyed by the plan hash.  Modules are real ``.py`` files imported via
    :mod:`importlib` so ``numba.njit(cache=True)`` persists its compiled
    artifacts next to them; a toolchain upgrade changes the fingerprint and
    strands (rather than silently loads) stale artifacts.  Corrupt entries
    are quarantined to ``*.corrupt`` and regenerated, mirroring
    :class:`~repro.core.autotune.TuningCache`.
``CodegenSweepKernel``
    The backend adapter.  Extends :class:`~repro.perf.fused.FusedSweepKernel`
    with a ``sweep_runner`` hook the executors probe; kernels or layouts the
    generator does not support fall through to the inherited fused-numpy
    rounds (batched, volume or stepwise), and environments without numba either refuse to bind
    (default) or run the generated source interpreted
    (``REPRO_CODEGEN_MODE=python`` — bit-identical, slow, used for tests).
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import sys
from pathlib import Path

import numpy as np

from ..core.buffer import ring_slots
from ..core.regions import compute_range
from ..core.schedule import StepKind
from ..resilience.atomic import atomic_write
from ..resilience.faultinject import FAULTS
from ..resilience.quarantine import quarantine
from .fused import _CORNERS, _EDGES, _FACES, FusedSweepKernel, _compiled_kind

__all__ = [
    "CODEGEN_CACHE_ENV",
    "CODEGEN_MODE_ENV",
    "CODEGEN_STATS",
    "CODEGEN_VERSION",
    "CodegenCache",
    "CodegenStats",
    "CodegenSweepKernel",
    "codegen_available",
    "codegen_cache_dir",
    "codegen_mode",
    "generate_sweep_source",
    "plan_hash",
]

#: bumping this invalidates every cached generated module
CODEGEN_VERSION = 1

#: environment variable overriding the compiled-kernel cache directory
CODEGEN_CACHE_ENV = "REPRO_CODEGEN_CACHE"

#: ``numba`` (default: require numba, njit the generated sweep) or
#: ``python`` (run the generated source interpreted — bit-identical, slow;
#: lets degraded environments and the test suite exercise the full layer)
CODEGEN_MODE_ENV = "REPRO_CODEGEN_MODE"


def codegen_mode() -> str:
    """The active compile mode: ``"numba"`` (default) or ``"python"``."""
    mode = os.environ.get(CODEGEN_MODE_ENV, "numba").strip().lower()
    return mode if mode in ("numba", "python") else "numba"


def codegen_cache_dir() -> Path:
    """Root of the on-disk compiled-kernel cache.

    ``$REPRO_CODEGEN_CACHE`` if set, else ``$XDG_CACHE_HOME/repro/codegen``
    (default ``~/.cache/repro/codegen``).  This path is part of the
    :func:`~repro.core.autotune.machine_fingerprint`, so pointing two runs
    at different caches also separates their tuning entries.
    """
    path = os.environ.get(CODEGEN_CACHE_ENV)
    if path is None:
        base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
            os.path.expanduser("~"), ".cache"
        )
        path = os.path.join(base, "repro", "codegen")
    return Path(path)


def codegen_available() -> tuple[bool, str | None]:
    """Whether the codegen backend can bind in this environment."""
    if codegen_mode() == "python":
        return True, None
    try:
        import numba  # noqa: F401
    except Exception as exc:
        return False, (
            f"numba not importable: {exc}; install it with "
            "`pip install numba` (or `pip install 'repro[numba]'`), or set "
            f"{CODEGEN_MODE_ENV}=python for the interpreted fallback"
        )
    return True, None


class CodegenStats:
    """Process-wide counters over the generated-kernel cache.

    ``generated`` counts modules written to disk (a cold plan), ``loaded``
    counts binds served from an existing on-disk module (a warm start —
    zero source generation and, under numba's own disk cache, zero JIT),
    ``quarantined`` counts corrupt entries moved aside.
    """

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.generated = 0
        self.loaded = 0
        self.quarantined = 0

    def snapshot(self) -> dict[str, int]:
        return {
            "generated": self.generated,
            "loaded": self.loaded,
            "quarantined": self.quarantined,
        }


CODEGEN_STATS = CodegenStats()


# ======================================================================
# source generation
# ======================================================================

_HEADER = "# repro-codegen v{version}\n# kind={kind} parallel={parallel}\n"

_PROLOG = '''\
"""Generated 3.5D whole-sweep kernel (repro.perf.codegen; do not edit).

One call executes a full blocked round: the outer loop runs over tiles
(``prange`` when compiled with ``parallel=True``), and per tile the flat
``meta`` plan replays every schedule step of every z-iteration — loads,
ring-plane computes with boundary-strip refresh, and store seam writes.
"""
try:
    from numba import njit, prange
except ImportError:  # degraded environment: interpreted fallback only
    njit = None
    prange = range


def sweep_py(src3, dst3, rings, shell, geom, meta, counts,
             taps_off, taps_w, coef_a, coef_b, alpha, beta,
             nz, slots, ntiles):
'''

_EPILOG = """

if njit is None:
    sweep_jit = None
else:
    sweep_jit = njit(parallel={parallel}, cache=True)(sweep_py)
"""

# per-tile prolog + the load step, shared by every stencil kind
_TILE_PROLOG = """\
    for ti in prange(ntiles):
        ey0 = geom[ti, 0]
        ex0 = geom[ti, 1]
        enx = geom[ti, 3]
        trings = rings[ti]
        tshell = shell[ti]
        sy_lo = geom[ti, 4]
        sy_hi = geom[ti, 5]
        sx_lo = geom[ti, 6]
        sx_hi = geom[ti, 7]
        for i in range(counts[ti]):
            kind_c = meta[ti, i, 0]
            t = meta[ti, i, 1]
            z = meta[ti, i, 2]
            ly0 = meta[ti, i, 3]
            ly1 = meta[ti, i, 4]
            lx0 = meta[ti, i, 5]
            lx1 = meta[ti, i, 6]
            if kind_c == 0:  # load
                out = trings[0, z % slots]
                for y in range(ly0, ly1):
                    for x in range(enx):
                        out[y, x] = src3[z, ey0 + y, ex0 + x]
                continue
"""

# boundary strips: constant in time, refreshed from the t-1 plane
_STRIPS = """\
            sy0 = meta[ti, i, 7]
            sy1 = meta[ti, i, 8]
            for y in range(sy0, min(sy_lo, sy1)):
                for x in range(enx):
                    out[y, x] = mid[y, x]
            for y in range(max(sy_hi, sy0), sy1):
                for x in range(enx):
                    out[y, x] = mid[y, x]
            for y in range(sy0, sy1):
                for x in range(sx_lo):
                    out[y, x] = mid[y, x]
                for x in range(enx - sx_hi, enx):
                    out[y, x] = mid[y, x]
"""

# shell substitution for the z-pair planes of the radius-1 direct kinds
_Z_PAIR = """\
            if z - 1 < r:
                below = tshell[z - 1]
            elif z - 1 >= nz - r:
                below = tshell[r + (z - 1) - (nz - r)]
            else:
                below = trings[t - 1, (z - 1) % slots]
            mid = trings[t - 1, z % slots]
            if z + 1 >= nz - r:
                above = tshell[r + (z + 1) - (nz - r)]
            else:
                above = trings[t - 1, (z + 1) % slots]
"""

_BODY_7PT = _Z_PAIR + """\
            if kind_c == 2:  # store
                if ly0 < ly1:
                    for y in range(ly0, ly1):
                        for x in range(lx0, lx1):
                            acc = (
                                (below[y, x] + above[y, x])
                                + (mid[y - 1, x] + mid[y + 1, x])
                            ) + (mid[y, x - 1] + mid[y, x + 1])
                            dst3[z, ey0 + y, ex0 + x] = (
                                alpha * mid[y, x] + beta * acc
                            )
                continue
            out = trings[t, z % slots]
            if ly0 < ly1:
                for y in range(ly0, ly1):
                    for x in range(lx0, lx1):
                        acc = (
                            (below[y, x] + above[y, x])
                            + (mid[y - 1, x] + mid[y + 1, x])
                        ) + (mid[y, x - 1] + mid[y, x + 1])
                        out[y, x] = alpha * mid[y, x] + beta * acc
"""

_BODY_VARCO = _Z_PAIR + """\
            store = kind_c == 2
            if ly0 < ly1:
                for y in range(ly0, ly1):
                    for x in range(lx0, lx1):
                        acc = below[y, x] + above[y, x]
                        acc += mid[y - 1, x]
                        acc += mid[y + 1, x]
                        acc += mid[y, x - 1]
                        acc += mid[y, x + 1]
                        v = (
                            coef_a[z, ey0 + y, ex0 + x] * mid[y, x]
                            + coef_b[z, ey0 + y, ex0 + x] * acc
                        )
                        if store:
                            dst3[z, ey0 + y, ex0 + x] = v
                        else:
                            trings[t, z % slots, y, x] = v
            if store:
                continue
            out = trings[t, z % slots]
"""

_BODY_TAPS = """\
            mid = trings[t - 1, z % slots]
            store = kind_c == 2
            if ly0 < ly1:
                for y in range(ly0, ly1):
                    for x in range(lx0, lx1):
                        # accumulate taps in the reference's sorted order,
                        # reading each source plane through the same shell
                        # substitution as the executor
                        zz = z + taps_off[0, 0]
                        yy = y + taps_off[0, 1]
                        xx = x + taps_off[0, 2]
                        if zz < r:
                            v = tshell[zz, yy, xx]
                        elif zz >= nz - r:
                            v = tshell[r + zz - (nz - r), yy, xx]
                        else:
                            v = trings[t - 1, zz % slots, yy, xx]
                        acc = taps_w[0] * v
                        for j in range(1, ntaps):
                            zz = z + taps_off[j, 0]
                            yy = y + taps_off[j, 1]
                            xx = x + taps_off[j, 2]
                            if zz < r:
                                v = tshell[zz, yy, xx]
                            elif zz >= nz - r:
                                v = tshell[r + zz - (nz - r), yy, xx]
                            else:
                                v = trings[t - 1, zz % slots, yy, xx]
                            acc += taps_w[j] * v
                        if store:
                            dst3[z, ey0 + y, ex0 + x] = acc
                        else:
                            trings[t, z % slots, y, x] = acc
            if store:
                continue
            out = trings[t, z % slots]
"""

_BODY_27PT = _Z_PAIR + """\
            store = kind_c == 2
            if ly0 < ly1:
                for y in range(ly0, ly1):
                    for x in range(lx0, lx1):
                        # group sums start from their first offset and
                        # accumulate in the reference generation order
                        sface = below[y + taps_off[0, 1], x + taps_off[0, 2]]
                        for j in range(1, 6):
                            dz = taps_off[j, 0]
                            yy = y + taps_off[j, 1]
                            xx = x + taps_off[j, 2]
                            if dz < 0:
                                sface += below[yy, xx]
                            elif dz > 0:
                                sface += above[yy, xx]
                            else:
                                sface += mid[yy, xx]
                        dz = taps_off[6, 0]
                        yy = y + taps_off[6, 1]
                        xx = x + taps_off[6, 2]
                        if dz < 0:
                            sedge = below[yy, xx]
                        elif dz > 0:
                            sedge = above[yy, xx]
                        else:
                            sedge = mid[yy, xx]
                        for j in range(7, 18):
                            dz = taps_off[j, 0]
                            yy = y + taps_off[j, 1]
                            xx = x + taps_off[j, 2]
                            if dz < 0:
                                sedge += below[yy, xx]
                            elif dz > 0:
                                sedge += above[yy, xx]
                            else:
                                sedge += mid[yy, xx]
                        dz = taps_off[18, 0]
                        yy = y + taps_off[18, 1]
                        xx = x + taps_off[18, 2]
                        if dz < 0:
                            scorner = below[yy, xx]
                        else:
                            scorner = above[yy, xx]
                        for j in range(19, 26):
                            dz = taps_off[j, 0]
                            yy = y + taps_off[j, 1]
                            xx = x + taps_off[j, 2]
                            if dz < 0:
                                scorner += below[yy, xx]
                            else:
                                scorner += above[yy, xx]
                        v = wcenter * mid[y, x]
                        v += wface * sface
                        v += wedge * sedge
                        v += wcorner * scorner
                        if store:
                            dst3[z, ey0 + y, ex0 + x] = v
                        else:
                            trings[t, z % slots, y, x] = v
            if store:
                continue
            out = trings[t, z % slots]
"""

_KIND_SETUP = {
    "7pt": "    r = 1\n",
    "27pt": (
        "    r = 1\n"
        "    wcenter = taps_w[0]\n"
        "    wface = taps_w[1]\n"
        "    wedge = taps_w[2]\n"
        "    wcorner = taps_w[3]\n"
    ),
    "taps": (
        "    r = shell.shape[1] // 2\n"
        "    ntaps = taps_off.shape[0]\n"
    ),
    "varco": "    r = 1\n",
}

_KIND_BODY = {
    "7pt": _BODY_7PT,
    "27pt": _BODY_27PT,
    "taps": _BODY_TAPS,
    "varco": _BODY_VARCO,
}


def generate_sweep_source(kind: str, parallel: bool) -> str:
    """The whole-sweep kernel source for ``kind`` (header excluded)."""
    body = _KIND_BODY.get(kind)
    if body is None:
        raise ValueError(
            f"unknown codegen kind {kind!r}; supported: {sorted(_KIND_BODY)}"
        )
    return (
        _PROLOG
        + _KIND_SETUP[kind]
        + _TILE_PROLOG
        + body
        + _STRIPS
        + _EPILOG.format(parallel=bool(parallel))
    )


def plan_hash(kind: str, parallel: bool) -> str:
    """Content hash of one plan's code-determining signature.

    The generated kernels are geometry-generic — tile extents, schedule
    steps and strip widths are runtime data — so the hash covers exactly
    what determines the generated code: the codegen version, the stencil
    kind, the tile-parallelism flag and the generated source itself.
    """
    source = generate_sweep_source(kind, parallel)
    blob = json.dumps(
        {
            "version": CODEGEN_VERSION,
            "kind": kind,
            "parallel": bool(parallel),
            "source": hashlib.sha256(source.encode()).hexdigest(),
        },
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


# ======================================================================
# on-disk module cache
# ======================================================================

#: imported generated modules, keyed by (resolved path, payload digest) so a
#: rewritten or corrupted file can never be served stale from memory
_MODULE_CACHE: dict[tuple[str, str], object] = {}
_MODULE_SEQ = 0


def clear_module_cache() -> None:
    """Drop in-process imports of generated modules (tests: simulate a
    fresh process so warm-start behavior is observable)."""
    _MODULE_CACHE.clear()


class CodegenCache:
    """On-disk store of generated sweep modules.

    Layout::

        <root>/<machine_fingerprint>/sweep_<kind>_<par|ser>_<planhash>.py

    The fingerprint directory (same fingerprint as the
    :class:`~repro.core.autotune.TuningCache`) isolates artifacts per
    toolchain: upgrading python/numpy/numba lands in a fresh directory, so
    stale compiled artifacts are stranded instead of silently loaded.
    ``numba.njit(cache=True)`` stores its compiled machine code in a
    ``__pycache__`` next to each module, which is what makes a warm start
    pay zero JIT cost.  Entries that fail validation or import are renamed
    to ``*.corrupt`` and regenerated.
    """

    def __init__(self, root: str | os.PathLike | None = None) -> None:
        self.root = Path(root) if root is not None else codegen_cache_dir()

    # ------------------------------------------------------------------
    def dir(self) -> Path:
        """The per-toolchain subdirectory entries live in."""
        from ..core.autotune import machine_fingerprint

        return self.root / machine_fingerprint()

    def path_for(self, kind: str, parallel: bool) -> Path:
        tag = "par" if parallel else "ser"
        return self.dir() / f"sweep_{kind}_{tag}_{plan_hash(kind, parallel)}.py"

    def entries(self) -> list[Path]:
        """Cached module files for the current toolchain fingerprint."""
        try:
            return sorted(self.dir().glob("sweep_*.py"))
        except OSError:
            return []

    def clear(self) -> None:
        for path in self.entries():
            try:
                path.unlink()
            except OSError:
                pass

    # ------------------------------------------------------------------
    def module_for(self, kind: str, parallel: bool):
        """The imported generated module for ``(kind, parallel)``.

        Loads the on-disk entry when present and valid (a *warm start*:
        no source generation, and numba's own disk cache supplies the
        machine code); otherwise generates, persists and imports a fresh
        module.  Corrupt entries — content that does not match the header
        digest, or files that fail to import — are quarantined to
        ``*.corrupt`` and regenerated.
        """
        path = self.path_for(kind, parallel)
        source = generate_sweep_source(kind, parallel)
        text = self._expected_text(kind, parallel, source)
        if path.exists():
            try:
                on_disk = path.read_text(encoding="utf-8")
            except OSError:
                on_disk = None
            if on_disk == text:
                try:
                    mod = self._import(path, text)
                except Exception:
                    self._quarantine(path)
                else:
                    CODEGEN_STATS.loaded += 1
                    return mod
            else:
                self._quarantine(path)
        atomic_write(path, text)
        CODEGEN_STATS.generated += 1
        return self._import(path, text)

    # ------------------------------------------------------------------
    @staticmethod
    def _expected_text(kind: str, parallel: bool, source: str) -> str:
        header = _HEADER.format(
            version=CODEGEN_VERSION, kind=kind, parallel=bool(parallel)
        )
        digest = hashlib.sha256(source.encode()).hexdigest()
        return f"{header}# sha256={digest}\n{source}"

    @staticmethod
    def _quarantine(path: Path) -> None:
        if quarantine(path) is None:
            try:
                path.unlink()
            except OSError:
                pass
        CODEGEN_STATS.quarantined += 1

    @staticmethod
    def _import(path: Path, text: str):
        global _MODULE_SEQ
        key = (str(path.resolve()), hashlib.sha256(text.encode()).hexdigest())
        mod = _MODULE_CACHE.get(key)
        if mod is not None:
            return mod
        _MODULE_SEQ += 1
        name = f"repro_codegen_{path.stem}_{_MODULE_SEQ}"
        spec = importlib.util.spec_from_file_location(name, path)
        if spec is None or spec.loader is None:  # pragma: no cover
            raise ImportError(f"cannot load generated module {path}")
        mod = importlib.util.module_from_spec(spec)
        # registered so numba's caching layer can resolve the module
        sys.modules[name] = mod
        spec.loader.exec_module(mod)
        _MODULE_CACHE[key] = mod
        return mod


# ======================================================================
# the backend adapter + whole-sweep runner
# ======================================================================


class CodegenSweepKernel(FusedSweepKernel):
    """Codegen engine: one generated call per blocked round.

    Inside the 3.5D executors the ``sweep_runner`` hook replaces the whole
    Python tile loop with one generated-kernel call (``prange`` over tiles
    under the parallel executor).  Kernels or layouts the generator cannot
    lower — multi-component fields, non-contiguous buffers, mixed-precision
    variable coefficients, custom kernels — fall through to the inherited
    fused-numpy rounds, so ``--backend codegen`` stays universal.
    """

    engine = "codegen"

    # ------------------------------------------------------------------
    def sweep_runner(self, executor, src, dst, round_t, parallel=False,
                     z_core=None):
        """The (cached) whole-round runner, or ``None`` when unsupported.

        Runners prebind the complete plan — tiles, schedule meta (trimmed
        to the dependence cone of ``z_core``), stacked ring/shell storage
        and the compiled sweep function — and are cached on the executor
        they bind, matched by ping/pong buffer pairing and Z core, so they
        live and die with it and never travel with the kernel.
        """
        FAULTS.fire("backend.compute", detail="codegen")
        if FAULTS.armed("memory.flip"):
            return None  # the ring flip site is in the stepwise path
        cache = executor.sweep_runners
        for runner in cache:
            if (
                type(runner) is _CodegenSweepRunner
                and runner.src_data is src.data
                and runner.dst_data is dst.data
                and runner.round_t == round_t
                and runner.parallel == parallel
                and runner.z_core == z_core
            ):
                return runner
        runner = _CodegenSweepRunner.build(
            self, executor, src, dst, round_t, parallel, z_core
        )
        if runner is None:
            # unsupported here: the fused-numpy volume round, if it pays
            return super().sweep_runner(executor, src, dst, round_t, parallel,
                                        z_core)
        cache.append(runner)
        # ping/pong plus one spare pair (mirrors the fused runner cache)
        del cache[:-4]
        return runner


class _CodegenSweepRunner:
    """One generated call per blocked round over stacked per-tile storage."""

    span = "codegen_round"

    @classmethod
    def build(cls, kernel, executor, src, dst, round_t, parallel, z_core):
        kind = _compiled_kind(kernel.inner, src.data, dst.data)
        if kind is None:
            return None
        mode = codegen_mode()
        if mode != "python":
            ok, _ = codegen_available()
            if not ok:
                return None
        try:
            module = CodegenCache().module_for(kind, parallel)
        except OSError:
            return None  # unwritable cache: the fused-numpy rounds still work
        fn = module.sweep_py if mode == "python" else module.sweep_jit
        if fn is None:
            return None
        return cls(kernel, executor, src, dst, round_t, parallel, kind, fn,
                   z_core)

    def __init__(self, kernel, executor, src, dst, round_t, parallel, kind, fn,
                 z_core):
        self.kernel = kernel
        self.src_data = src.data
        self.dst_data = dst.data
        self.round_t = round_t
        self.parallel = parallel
        self.z_core = z_core
        self.kind = kind
        self.fn = fn
        self.ops_per_update = kernel.ops_per_update
        inner = kernel.inner
        r = kernel.radius
        self.radius = r
        self.nz, self.ny, self.nx = src.shape
        nz, ny, nx = self.nz, self.ny, self.nx
        dtype = src.data.dtype
        esize = kernel.element_size(dtype)
        self.slots = ring_slots(r, executor.concurrent)
        self.tiles = executor._plan_tiles(ny, nx, round_t)
        schedule = executor._get_schedule(nz, round_t, z_core)
        iters = schedule.iterations()
        steps = [
            (s.kind, s.t, s.z) for k in sorted(iters) for s in iters[k]
        ]
        ntiles = len(self.tiles)
        self.ntiles = ntiles

        # --- per-tile geometry + flattened schedule meta ----------------
        geom = np.zeros((ntiles, 8), dtype=np.int64)
        metas: list[list[tuple[int, ...]]] = []
        rb = rp = wb = wp = pts = 0
        max_eny = max_enx = 1
        for ti, tile in enumerate(self.tiles):
            (ey0, ey1), (ex0, ex1) = tile.y.extent, tile.x.extent
            eny, enx = ey1 - ey0, ex1 - ex0
            max_eny, max_enx = max(max_eny, eny), max(max_enx, enx)
            # boundary-strip geometry (mirrors Blocking35D._fill_xy_strips)
            sy_lo = r - ey0 if ey0 < r else 0
            sy_hi = (ny - r) - ey0 if ey1 > ny - r else eny
            sx_lo = r - ex0 if ex0 < r else 0
            sx_hi = ex1 - (nx - r) if ex1 > nx - r else 0
            geom[ti] = (ey0, ex0, eny, enx, sy_lo, sy_hi, sx_lo, sx_hi)
            regions = {
                t: (
                    compute_range(tile.y.core, ny, r, round_t, t),
                    compute_range(tile.x.core, nx, r, round_t, t),
                )
                for t in range(1, round_t + 1)
            }
            rows: list[tuple[int, ...]] = []
            for skind, t, z in steps:
                if skind is StepKind.LOAD:
                    if z < r or z >= nz - r:
                        continue  # shell plane: resident after sync
                    rows.append((0, 0, z, 0, eny, 0, enx, 0, eny))
                    rb += eny * enx * esize
                    rp += 1
                    continue
                (gy0, gy1), (gx0, gx1) = regions[t]
                a0, a1 = gy0 - ey0, gy1 - ey0
                lx0, lx1 = gx0 - ex0, gx1 - ex0
                code = 2 if skind is StepKind.STORE else 1
                if code == 2 and a0 >= a1:
                    continue
                rows.append((code, t, z, a0, max(a0, a1), lx0, lx1, 0, eny))
                if a0 < a1:
                    npts = (a1 - a0) * (lx1 - lx0)
                    pts += npts
                    if code == 2:
                        wb += npts * esize
                        wp += 1
            metas.append(rows)
            # the constant Z shell is re-read once per plane per tile per
            # round on a capacity-limited machine (see _load_shell_planes)
            rb += 2 * r * eny * enx * esize
            rp += 2 * r
        self.geom = geom
        max_steps = max(len(rows) for rows in metas)
        self.meta = np.zeros((ntiles, max_steps, 9), dtype=np.int64)
        self.counts = np.zeros(ntiles, dtype=np.int64)
        for ti, rows in enumerate(metas):
            self.counts[ti] = len(rows)
            if rows:
                self.meta[ti, : len(rows)] = rows
        self._traffic = (rb, rp, wb, wp, pts)

        # --- dedicated stacked storage the generated kernel indexes -----
        self.rings = np.zeros(
            (ntiles, round_t, self.slots, max_eny, max_enx), dtype=dtype
        )
        self.shell = np.zeros((ntiles, 2 * r, max_eny, max_enx), dtype=dtype)
        self._shell_token = None
        self.src3 = src.data[0]
        self.dst3 = dst.data[0]

        # --- stencil constants --------------------------------------------
        scalar = dtype.type
        self.alpha = scalar(0)
        self.beta = scalar(0)
        self.taps_off = np.zeros((0, 3), dtype=np.int64)
        self.taps_w = np.zeros(0, dtype=dtype)
        z3 = np.zeros((0, 0, 0), dtype=dtype)
        self.coef_a = self.coef_b = z3
        if kind == "7pt":
            self.alpha = scalar(inner.alpha)
            self.beta = scalar(inner.beta)
        elif kind == "27pt":
            order = list(_FACES) + list(_EDGES) + list(_CORNERS)
            self.taps_off = np.array(order, dtype=np.int64)
            self.taps_w = np.array(
                [inner.center, inner.face, inner.edge, inner.corner],
                dtype=dtype,
            )
        elif kind == "taps":
            self.taps_off = np.array(inner._order, dtype=np.int64)
            self.taps_w = np.array(
                [inner.taps[o] for o in inner._order], dtype=dtype
            )
        else:  # varco
            self.coef_a = np.ascontiguousarray(inner.alpha, dtype=dtype)
            self.coef_b = np.ascontiguousarray(inner.beta, dtype=dtype)

    # ------------------------------------------------------------------
    def _sync_shell(self) -> None:
        """(Re)copy every tile's constant shell planes into stacked storage."""
        r = self.radius
        nz = self.nz
        for ti in range(self.ntiles):
            ey0, ex0, eny, enx = self.geom_row(ti)
            for z in list(range(r)) + list(range(nz - r, nz)):
                idx = z if z < r else r + z - (nz - r)
                self.shell[ti, idx, :eny, :enx] = self.src3[
                    z, ey0 : ey0 + eny, ex0 : ex0 + enx
                ]

    def geom_row(self, ti: int) -> tuple[int, int, int, int]:
        g = self.geom[ti]
        return int(g[0]), int(g[1]), int(g[2]), int(g[3])

    # ------------------------------------------------------------------
    def run(self, shell_token=None, traffic=None) -> None:
        """Execute one full blocked round and record aggregate traffic."""
        if shell_token is None or self._shell_token is not shell_token:
            self._sync_shell()
            self._shell_token = shell_token
        self.fn(
            self.src3, self.dst3, self.rings, self.shell, self.geom,
            self.meta, self.counts, self.taps_off, self.taps_w,
            self.coef_a, self.coef_b, self.alpha, self.beta,
            self.nz, self.slots, self.ntiles,
        )
        if traffic is not None:
            rb, rp, wb, wp, pts = self._traffic
            if rb or rp:
                traffic.read(rb, planes=rp)
            if wb or wp:
                traffic.write(wb, planes=wp)
            if pts:
                traffic.update(pts, self.ops_per_update)
