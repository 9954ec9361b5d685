"""A forked child process, as the process that forked it sees it.

Both kinds of process the program forks go through :class:`Forked`: the
board hosts a sweep parent or a gateway's keeper forks
(:mod:`repro.experiments.hosts`), and the keeper the gateway forks
(:mod:`repro.gateway.app`).
"""

from __future__ import annotations

import os
import signal
import sys
import time
import traceback
from typing import Callable, Optional

__all__ = ["Forked"]


def _flush_std_streams() -> None:
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (AttributeError, ValueError):
            pass  # no stream, or a closed one


class Forked:
    """One forked process, as the process that forked it sees it.

    The constructor forks; the child runs ``target()`` and leaves
    through ``os._exit`` — 0 when ``target`` returns, 1 after printing
    the traceback of anything it raised — so it never unwinds into the
    parent's stack or runs the parent's exit handlers.  The parent reaps
    the child with ``os.waitpid``: :attr:`exitcode` stays ``None`` until
    then, and reads ``-N`` for a child killed by signal ``N``.
    """

    def __init__(self, target: Callable[[], None]) -> None:
        # Buffered output would otherwise be written by both processes.
        _flush_std_streams()
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                try:
                    target()
                    code = 0
                except BaseException:  # noqa: BLE001 - report, then exit 1
                    traceback.print_exc()
                _flush_std_streams()
            finally:
                os._exit(code)
        self.pid = pid
        self._exitcode: Optional[int] = None

    @property
    def exitcode(self) -> Optional[int]:
        """The exit code once the child is reaped (``None`` while it runs)."""
        if self._exitcode is None:
            pid, status = os.waitpid(self.pid, os.WNOHANG)
            if pid:
                self._exitcode = os.waitstatus_to_exitcode(status)
        return self._exitcode

    def is_alive(self) -> bool:
        """Whether the child still runs (reaps it once it has exited)."""
        return self.exitcode is None

    def join(self, timeout: float) -> None:
        """Wait up to ``timeout`` seconds for the child to exit."""
        deadline = time.monotonic() + timeout
        while self.is_alive() and time.monotonic() < deadline:
            time.sleep(0.002)

    def terminate(self) -> None:
        """Send the child SIGTERM (nothing once it has been reaped)."""
        if self.exitcode is None:
            os.kill(self.pid, signal.SIGTERM)
