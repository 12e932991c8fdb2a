"""Atomic checkpoint/restart for long sweeps.

A blocked sweep's only state between rounds is the grid itself plus the
number of steps already applied, so a checkpoint is exactly that: the field
data and a step counter (plus free-form metadata so a resume can refuse a
snapshot taken by a different experiment).  Snapshots are written with the
same crash-safety discipline as the tuning cache — serialize to a temporary
file in the same directory, then ``os.replace`` — so a crash mid-write can
never destroy the previous good snapshot, and a truncated file found at
load time is quarantined (renamed to ``*.corrupt``), never trusted.

Restart is bit-exact: re-running the remaining rounds from a snapshot
produces the same bits as the uninterrupted run, because each round reads
only the full grid state of the previous one (the test suite asserts this).

Snapshots are **versioned and self-describing**: ``save`` stamps a
``schema_version`` plus the grid's shape and dtype alongside the caller's
metadata, and ``load`` validates all three — an unknown version, an
internally inconsistent snapshot, or a geometry/dtype change between write
and resume (``expected_shape``/``expected_dtype``) raises a clear
:class:`CheckpointError` up front instead of surfacing later as a numpy
broadcast error halfway into the resumed sweep.
"""

from __future__ import annotations

import hashlib
import json
import os
import zipfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .atomic import atomic_write
from .faultinject import FAULTS, ResilienceError
from .quarantine import quarantine

__all__ = [
    "CHECKPOINT_SCHEMA_VERSION",
    "Checkpoint",
    "CheckpointError",
    "CheckpointStore",
    "data_digest",
]

#: version stamped into every snapshot; bumped on layout changes
#: (v2: a sha256 content digest of the grid payload joined the stamp, so
#: bitrot between write and restore is refused instead of trusted)
CHECKPOINT_SCHEMA_VERSION = 2

#: reserved key carrying the schema stamp inside the stored metadata JSON
_SCHEMA_KEY = "_checkpoint"


def data_digest(data: np.ndarray) -> str:
    """sha256 hex digest of an array's raw bytes (C order).

    The one digest of grid payloads: checkpoint and buddy-replica stamps,
    serve job results and the chaos oracles all compare these strings.
    """
    return hashlib.sha256(np.ascontiguousarray(data)).hexdigest()


class CheckpointError(ResilienceError):
    """A snapshot could not be written, or a resume was inconsistent."""


@dataclass
class Checkpoint:
    """One loaded snapshot: grid data, steps already applied, metadata."""

    data: np.ndarray  # (ncomp, nz, ny, nx), as Field3D stores it
    step: int
    meta: dict = field(default_factory=dict)
    schema_version: int = CHECKPOINT_SCHEMA_VERSION


class CheckpointStore:
    """Atomic on-disk snapshots of (grid, step index) at a fixed path."""

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = Path(path)

    def exists(self) -> bool:
        return self.path.exists()

    def save(self, data: np.ndarray, step: int, meta: dict | None = None) -> None:
        """Atomically replace the snapshot with (``data``, ``step``).

        The stored metadata is stamped with the schema version and the
        grid's shape/dtype so :meth:`load` can refuse a stale or foreign
        snapshot with a typed error.
        """
        payload = np.ascontiguousarray(data)
        meta_doc = dict(meta or {})
        meta_doc[_SCHEMA_KEY] = {
            "schema_version": CHECKPOINT_SCHEMA_VERSION,
            "shape": list(data.shape),
            "dtype": str(data.dtype),
            "sha256": data_digest(payload),
        }
        meta_bytes = np.frombuffer(json.dumps(meta_doc).encode(), dtype=np.uint8)
        try:
            atomic_write(self.path, lambda fh: np.savez(
                fh, data=payload, step=np.int64(step), meta=meta_bytes,
            ))
        except OSError as exc:
            raise CheckpointError(
                f"cannot write checkpoint {self.path}: {exc}"
            ) from exc
        if FAULTS.should("disk.bitrot", self.path.name):
            # the persisted payload rots *after* the fsync, inside the grid
            # bytes the content digest covers (np.savez stores them raw; a
            # rot in a zip header field np.load never reads would go
            # unseen): the next load must refuse the snapshot
            from .sdc import rot_file

            start = self.path.read_bytes().find(payload.tobytes())
            rot_file(self.path, offset=start + payload.nbytes // 2)

    def load(
        self,
        expected_shape: tuple[int, ...] | None = None,
        expected_dtype=None,
    ) -> Checkpoint | None:
        """The stored snapshot, or ``None`` (missing or quarantined-corrupt).

        A readable snapshot is *validated* before it is trusted:

        * it must carry a known ``schema_version`` stamp (a pre-versioning
          or future-version snapshot raises :class:`CheckpointError`);
        * the stamped shape/dtype must match the stored payload (an
          inconsistent snapshot raises rather than resuming garbage);
        * when the caller states what geometry it is about to resume
          (``expected_shape``/``expected_dtype``), a mismatch raises a
          clear :class:`CheckpointError` instead of letting the geometry
          change surface as a numpy broadcast error mid-resume.
        """
        try:
            with np.load(self.path, allow_pickle=False) as npz:
                data = npz["data"]
                step = int(npz["step"])
                meta = json.loads(bytes(npz["meta"]).decode() or "{}")
        except FileNotFoundError:
            return None
        except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile):
            self._quarantine()
            return None
        if data.ndim != 4 or step < 0 or not isinstance(meta, dict):
            self._quarantine()
            return None
        stamp = meta.pop(_SCHEMA_KEY, None)
        if not isinstance(stamp, dict) or "schema_version" not in stamp:
            raise CheckpointError(
                f"checkpoint {self.path} carries no schema_version stamp "
                "(written by a pre-versioning build?); refusing to resume "
                "from it — delete the file to start fresh"
            )
        version = stamp["schema_version"]
        if version != CHECKPOINT_SCHEMA_VERSION:
            raise CheckpointError(
                f"checkpoint {self.path} has schema_version {version}; this "
                f"build reads version {CHECKPOINT_SCHEMA_VERSION} — delete "
                "the file or load it with a matching build"
            )
        if (
            list(stamp.get("shape", [])) != list(data.shape)
            or str(stamp.get("dtype", "")) != str(data.dtype)
        ):
            raise CheckpointError(
                f"checkpoint {self.path} is internally inconsistent: stamped "
                f"{stamp.get('shape')}/{stamp.get('dtype')} but stores "
                f"{list(data.shape)}/{data.dtype}"
            )
        digest = data_digest(data)
        if digest != stamp.get("sha256"):
            # bitrot between write and restore: quarantine the evidence and
            # refuse loudly — silently resuming corrupted state would seed
            # every subsequent round with wrong bits
            self._quarantine()
            raise CheckpointError(
                f"checkpoint {self.path} failed its content digest "
                f"(stored {str(stamp.get('sha256'))[:12]}..., recomputed "
                f"{digest[:12]}...); the payload rotted on disk — the file "
                "was quarantined, restart from an earlier state"
            )
        if expected_shape is not None and tuple(expected_shape) != data.shape:
            raise CheckpointError(
                f"checkpoint {self.path} holds a grid of shape "
                f"{data.shape}, but this run uses {tuple(expected_shape)} — "
                "the geometry changed since the snapshot was written"
            )
        if expected_dtype is not None and np.dtype(expected_dtype) != data.dtype:
            raise CheckpointError(
                f"checkpoint {self.path} holds dtype {data.dtype}, but this "
                f"run uses {np.dtype(expected_dtype)} — the precision "
                "changed since the snapshot was written"
            )
        return Checkpoint(data=data, step=step, meta=meta,
                          schema_version=version)

    def _quarantine(self) -> None:
        """Move a corrupt snapshot aside (``*.corrupt``) instead of trusting it.

        Quarantined names are unique and the directory is GC'd to the
        ``$REPRO_CORRUPT_KEEP`` retention cap (see
        :mod:`repro.resilience.quarantine`).
        """
        quarantine(self.path)

    def clear(self) -> None:
        """Delete the snapshot (end of a completed run)."""
        try:
            self.path.unlink()
        except OSError:
            pass
