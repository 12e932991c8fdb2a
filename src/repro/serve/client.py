"""Client side of the serve protocol: one request, one reply, no hangs.

:class:`ServeClient` opens a fresh unix-socket connection per request, so
a daemon restart is invisible to the client.  The daemon serves each
connection on a reused handler thread, so a connection costs a connect
and a hand-off, not a thread start; the protocol also answers any number
of requests on one connection for callers that keep it open.  Every
failure mode maps to a typed :class:`ServeUnavailable`
(daemon not running, socket gone, connection dropped mid-reply) so
callers and the CLI can distinguish "the daemon said no" (an ``ok: false``
reply with a reason) from "the daemon is gone".
"""

from __future__ import annotations

import socket
from pathlib import Path

from .protocol import read_message, write_message

__all__ = ["ServeClient", "ServeUnavailable"]


class ServeUnavailable(RuntimeError):
    """The daemon could not be reached or dropped the connection."""


class ServeClient:
    """Thin synchronous client for the serve daemon's unix socket."""

    def __init__(self, socket_path: str, timeout: float = 30.0):
        self.socket_path = Path(socket_path)
        self.timeout = timeout

    def request(self, op: str, **fields) -> dict:
        """Send one ``{"op": ...}`` request and return the reply object."""
        try:
            conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            conn.settimeout(self.timeout)
            conn.connect(str(self.socket_path))
        except OSError as exc:
            raise ServeUnavailable(
                f"cannot reach serve daemon at {self.socket_path}: {exc} "
                "(is `repro serve` running?)"
            ) from exc
        try:
            fh = conn.makefile("rwb")
            write_message(fh, {"op": op, **fields})
            try:
                reply = read_message(fh)
            except ValueError as exc:
                raise ServeUnavailable(
                    f"malformed reply from serve daemon: {exc}"
                ) from exc
            if reply is None:
                # the daemon accepted the connection but closed it before
                # replying — e.g. killed mid-request, or an injected
                # accept-drop tore the connection down; safe to retry
                raise ServeUnavailable(
                    "serve daemon closed the connection without replying; "
                    "the request may not have been accepted — retry it"
                )
            return reply
        except socket.timeout as exc:
            raise ServeUnavailable(
                f"serve daemon did not reply within {self.timeout:g}s"
            ) from exc
        finally:
            try:
                conn.close()
            except OSError:
                pass

    # -- convenience wrappers -----------------------------------------
    def ping(self) -> dict:
        return self.request("ping")

    def submit(self, job: dict) -> dict:
        return self.request("submit", job=job)

    def status(self, job_id: str) -> dict:
        return self.request("status", id=job_id)

    def spans(self, job_id: str) -> list[dict]:
        """The daemon-side spans of a traced job (empty when untraced)."""
        reply = self.request("status", id=job_id, spans=True)
        return reply.get("spans") or [] if reply.get("ok") else []

    def jobs(self) -> dict:
        return self.request("jobs")

    def stats(self, prom: bool = False) -> dict:
        return self.request("stats", prom=prom) if prom else self.request("stats")

    def cancel(self, job_id: str) -> dict:
        return self.request("cancel", id=job_id)

    def drain(self, timeout: float = 60.0) -> dict:
        return self.request("drain", timeout=timeout)

    def wait(self, job_id: str, timeout: float = 120.0,
             poll_s: float = 0.05) -> dict:
        """Poll until the job reaches a terminal status; returns the record."""
        import time as _time

        deadline = _time.monotonic() + timeout
        while True:
            reply = self.status(job_id)
            if not reply.get("ok"):
                return reply
            job = reply["job"]
            if job.get("code") is not None:
                return reply
            if _time.monotonic() > deadline:
                raise ServeUnavailable(
                    f"job {job_id} still {job.get('status')!r} after "
                    f"{timeout:g}s"
                )
            _time.sleep(poll_s)
