"""Append-only, crash-safe job journal for the serve daemon.

The journal is the daemon's source of truth across crashes: a job is
"accepted" exactly when its acceptance record is durably appended, and the
zero-loss drain/restart guarantees are phrased against it — every job with
an ``accepted`` record and no terminal record is requeued on restart.

Records are newline-delimited JSON, each stamped with a ``seq`` that
increases in file order and a CRC-32 of its own canonical payload.  That
makes torn writes (a crash — or the ``serve.journal`` fault site —
mid-append) *detectable*: replay verifies every line, quarantines anything
that fails to parse or checksum into ``<journal>.corrupt`` (appending, so
repeated crashes accumulate evidence rather than overwrite it), truncates
a torn tail back to the last good record, and continues.  A corrupt
journal can cost at most the records that were never durably written; it
can never poison the replay or kill the daemon.
"""

from __future__ import annotations

import json
import os
import threading
import zlib
from dataclasses import dataclass, field
from pathlib import Path

from ..resilience.atomic import atomic_write
from ..resilience.faultinject import FAULTS
from ..resilience.quarantine import gc_corrupt

__all__ = ["JobJournal", "JournalReplay"]


def _canonical(doc: dict) -> bytes:
    """The canonical JSON of ``doc``: sorted keys, no spaces."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def _crc(doc: dict) -> int:
    """CRC-32 of the canonical JSON of ``doc`` without its ``crc`` key."""
    return zlib.crc32(_canonical({k: v for k, v in doc.items() if k != "crc"}))


@dataclass
class JournalReplay:
    """What a replay recovered: the good records plus quarantine accounting."""

    records: list[dict] = field(default_factory=list)
    quarantined_records: int = 0
    quarantined_bytes: int = 0
    truncated_tail: bool = False


class JobJournal:
    """Append-only JSONL journal with per-record CRC framing.

    Appends are thread-safe: a record takes its ``seq`` and is written
    under one lock, so file order is seq order.  The fsync runs outside
    that lock, so one record's flush never holds up the next write.
    """

    def __init__(self, path: str | os.PathLike, fsync: bool = True):
        self.path = Path(path)
        self.fsync = fsync
        self._seq = 0
        self._fh = None
        self._lock = threading.Lock()

    # -- writing -------------------------------------------------------
    def _open(self):
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, "ab")
        return self._fh

    def append(self, event: str, *, durable: bool = True,
               on_written=None, **fields) -> dict:
        """Append one record; returns the record as written.

        ``durable`` records are fsynced — acceptance and terminal events
        must survive a crash; progress breadcrumbs may opt out.
        ``on_written()`` runs once the line is written and flushed, before
        the fsync: work that may start ahead of durability (the serve
        daemon dispatches an accepted job there) overlaps the disk flush.
        The ``serve.journal`` fault site simulates a crash mid-append:
        half the serialized line lands on disk with no newline and no
        fsync, which is exactly the torn tail replay must quarantine.
        """
        with self._lock:
            self._seq += 1
            doc = {"seq": self._seq, "ev": event, **fields}
            # one encode: the CRC covers the canonical body, and the crc
            # field is appended to that same string (replay recomputes the
            # canonical body, whatever the key order on disk)
            body = _canonical(doc)
            doc["crc"] = zlib.crc32(body)
            line = b'%s,"crc":%d}\n' % (body[:-1], doc["crc"])
            fh = self._open()
            # the tear fault never applies to "accepted": acceptance is the
            # commit point (fsync-before-reply), and loss before it is
            # modeled by the serve.accept site — the client sees the
            # rejection either way
            if event != "accepted" and FAULTS.should("serve.journal",
                                                     detail=event):
                fh.write(line[: max(1, len(line) // 2)])
                fh.flush()
                return doc
            fh.write(line)
            fh.flush()
            fd = fh.fileno()
        if on_written is not None:
            on_written()
        if durable and self.fsync:
            os.fsync(fd)
        return doc

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    # -- replay --------------------------------------------------------
    def replay(self) -> JournalReplay:
        """Validate every record; quarantine damage; resume the seq counter.

        Replay must run before the first :meth:`append` of a restarted
        daemon: it truncates any torn tail (so new appends start at a
        record boundary) and restores ``seq`` continuity.
        """
        out = JournalReplay()
        self.close()
        try:
            raw = self.path.read_bytes()
        except FileNotFoundError:
            return out
        good_lines: list[bytes] = []
        quarantined: list[bytes] = []
        pos = 0
        while pos < len(raw):
            nl = raw.find(b"\n", pos)
            if nl < 0:
                # unterminated tail: torn by definition
                quarantined.append(raw[pos:])
                out.truncated_tail = True
                break
            line = raw[pos : nl + 1]
            pos = nl + 1
            try:
                doc = json.loads(line.decode())
                if not isinstance(doc, dict) or doc.get("crc") != _crc(doc):
                    raise ValueError("crc mismatch")
            except (ValueError, UnicodeDecodeError):
                quarantined.append(line)
                if pos >= len(raw):
                    out.truncated_tail = True
                continue
            out.records.append(doc)
            good_lines.append(line)
        out.quarantined_records = len(quarantined)
        out.quarantined_bytes = sum(len(q) for q in quarantined)
        if quarantined:
            corrupt = self.path.with_name(self.path.name + ".corrupt")
            with open(corrupt, "ab") as fh:
                fh.writelines(quarantined)
                fh.flush()
                os.fsync(fh.fileno())
            # compact the journal to exactly the validated records, so the
            # damage is quarantined once, not on every later restart
            atomic_write(self.path, b"".join(good_lines))
            # cap the .corrupt graveyard (checkpoints quarantine into the
            # same state directory)
            gc_corrupt(self.path.parent)
        self._seq = max(
            (r["seq"] for r in out.records if isinstance(r.get("seq"), int)),
            default=0,
        )
        return out
