"""The blocked executors' side of GuardedSweep's one round loop."""

from __future__ import annotations

import numpy as np

from ..obs.trace import TRACE
from ..stencils.grid import Field3D, copy_shell

__all__ = ["PingPong", "run_rounds"]


class PingPong:
    """Persistent source/destination buffers, one pair per geometry.

    Reusing the same two arrays across runs keeps every cached view —
    tile contexts, shell planes and the sweep runners' instruction
    tuples, which prebind views of the exact buffers — valid from one run
    to the next, so the steady state allocates nothing and rebinds nothing.
    """

    def __init__(self) -> None:
        self._pairs: dict = {}

    def clear(self) -> None:
        self._pairs.clear()

    def open(self, field: Field3D, radius: int, round_fn, close=None):
        """GuardedSweep's ``(state, step, close)`` of a run over ``field``:
        the grid is copied in and the shell across once, under one shell
        token.  A step runs ``round_fn(src, dst, round_t, traffic,
        _shell_token=token)``, which leaves ``src`` (the trusted base)
        alone, and swaps the buffers; a state it did not return last (a
        rolled-back copy) is copied in first, under a fresh token.  Close
        calls ``close()``, if given, and copies the result out once."""
        key = (field.shape, field.ncomp, field.dtype)
        if key not in self._pairs:
            self._pairs[key] = (field.like(), field.like())
        src, dst = self._pairs[key]
        np.copyto(src.data, field.data)
        copy_shell(src, dst, radius)
        token = object()
        index = 0

        def step(state, round_t: int, traffic=None) -> Field3D:
            nonlocal src, dst, token, index
            if state is not src:
                np.copyto(src.data, state.data)
                token = object()
            with TRACE.span("round", index=index, round_t=round_t):
                round_fn(src, dst, round_t, traffic, _shell_token=token)
            src, dst = dst, src
            index += 1
            return src

        def finish(state) -> Field3D:
            if close is not None:
                close()
            return state.copy()

        return src, step, finish


def run_rounds(executor, field: Field3D, steps: int, traffic=None, /,
               **span):
    """A blocked executor's unguarded ``run``: GuardedSweep's loop over its
    ``open_rounds`` with health and integrity off, in a ``sweep`` span."""
    from ..resilience.watchdog import GuardedSweep  # core imports it lazily

    with TRACE.span("sweep", steps=steps, dim_t=executor.dim_t, **span):
        return GuardedSweep(executor, health="off").run(field, steps, traffic)
