"""Graceful shutdown: turn SIGINT/SIGTERM into a clean checkpoint-and-exit.

Installed around the training loop, :class:`GracefulInterrupt` converts the
first SIGINT or SIGTERM into a flag the trainer polls after every optimiser
step: the in-flight step finishes, its checkpoint is written, and
:class:`TrainingInterrupted` propagates so callers can exit with the
conventional ``128 + signum`` status.  A second signal while the flag is
pending still only sets the flag — a hard kill (``SIGKILL``) remains the
escape hatch, and the atomic checkpoint writer guarantees even that leaves no
truncated files.

Handlers are only installed in the main thread (Python forbids them
elsewhere); in worker threads the context manager is a transparent no-op.
"""

from __future__ import annotations

import signal
import threading
from typing import Any

__all__ = ["GracefulInterrupt", "TrainingInterrupted"]


class TrainingInterrupted(RuntimeError):
    """Training stopped cleanly on a signal after writing a checkpoint."""

    def __init__(self, signum: int | None, step: int,
                 checkpoint: "Any | None" = None):
        self.signum = signum
        self.step = step
        self.checkpoint = checkpoint
        name = signal.Signals(signum).name if signum else "interrupt"
        message = f"training interrupted by {name} after step {step}"
        if checkpoint is not None:
            message += f"; resume from checkpoint {checkpoint}"
        super().__init__(message)

    @property
    def exit_code(self) -> int:
        """The conventional shell exit status for this signal."""
        return 128 + (self.signum or signal.SIGINT)


class GracefulInterrupt:
    """Context manager latching SIGINT/SIGTERM into a pollable flag."""

    SIGNALS = (signal.SIGINT, signal.SIGTERM)

    def __init__(self):
        self.requested = False
        self.signum: int | None = None
        self._previous: dict[int, Any] = {}

    def _handle(self, signum, frame) -> None:
        self.requested = True
        self.signum = signum

    def request(self, signum: int = signal.SIGTERM) -> None:
        """Set the flag programmatically (used by tests and embedders)."""
        self._handle(signum, None)

    def __enter__(self) -> "GracefulInterrupt":
        if threading.current_thread() is threading.main_thread():
            for sig in self.SIGNALS:
                try:
                    self._previous[sig] = signal.signal(sig, self._handle)
                except (ValueError, OSError):  # pragma: no cover - platform
                    pass
        return self

    def __exit__(self, *exc_info) -> None:
        for sig, previous in self._previous.items():
            try:
                signal.signal(sig, previous)
            except (ValueError, OSError):  # pragma: no cover - platform
                pass
        self._previous.clear()
