"""Cooperative cancellation and deadline budgets.

The serving layer (:mod:`repro.service`) promises that a timed-out
request *frees its executor slot* instead of orphaning a selection that
nobody will read.  Python threads cannot be killed, so the contract is
cooperative: long-running loops — the greedy pick loops in
:mod:`repro.core.greedy`, the scan loop of Basic-DisC, and the chunked
adjacency builders in :mod:`repro.graph.csr` / :mod:`repro.graph.blocked`
— call :meth:`CancellationToken.checkpoint` every
:data:`CHECKPOINT_EVERY` iterations and abort with
:class:`OperationCancelled` when the budget is spent.  The compiled
selection kernel (:mod:`repro.core._kernel`) checkpoints between its
batches of :data:`CHECKPOINT_EVERY` picks.

The token travels *ambiently* through a :class:`contextvars.ContextVar`
rather than through function signatures: ``disc_select`` and the
heuristic entry points keep their public signatures, and library users
who never create a token pay one ``ContextVar.get()`` per loop (the
checkpoint branch is skipped entirely when no token is installed).

This module is dependency-free on purpose — graph and core modules
import it, and it must never import back into :mod:`repro.service`.
"""

from __future__ import annotations

import contextlib
import time
from contextvars import ContextVar
from typing import Iterator, Optional

__all__ = [
    "CHECKPOINT_EVERY",
    "CancellationToken",
    "OperationCancelled",
    "cancellation_scope",
    "current_token",
]

#: Loop iterations between cooperative checkpoints.  The compiled
#: selection kernel returns to Python after this many picks (tens of
#: microseconds each at 20k objects), so 256 keeps the cancellation
#: latency far below any realistic deadline while making the
#: ``monotonic()`` call invisible in profiles.
CHECKPOINT_EVERY = 256


class OperationCancelled(RuntimeError):
    """A cooperative abort: the deadline passed or the token was cancelled.

    ``source`` records who imposed the budget — ``"client"`` (the
    request carried ``timeout_ms``) maps to HTTP 408, ``"server"`` (the
    server-enforced cap, or an explicit :meth:`CancellationToken.cancel`)
    maps to 504.
    """

    def __init__(self, message: str, *, source: str = "server") -> None:
        super().__init__(message)
        self.source = source


class CancellationToken:
    """One request's cancellation/deadline budget plus its degraded flag.

    Thread-compatible by construction: ``deadline`` and ``source`` are
    immutable after ``__init__``; ``cancel()`` / ``mark_degraded()`` are
    single-reference writes that any racing ``checkpoint()`` observes at
    its next iteration (the tolerance is one checkpoint interval by
    design).
    """

    __slots__ = ("deadline", "source", "degraded", "_cancelled")

    def __init__(
        self, deadline: Optional[float] = None, *, source: str = "server"
    ) -> None:
        #: Absolute ``time.monotonic()`` deadline, or None for no budget.
        self.deadline = deadline
        self.source = source
        #: None, or a short reason string once a degraded artefact (e.g.
        #: a stale adjacency tier) served this request.
        self.degraded: Optional[str] = None
        self._cancelled = False

    @classmethod
    def with_timeout(
        cls, seconds: Optional[float], *, source: str = "server"
    ) -> "CancellationToken":
        """A token expiring ``seconds`` from now (None = no deadline)."""
        if seconds is None:
            return cls(None, source=source)
        return cls(time.monotonic() + float(seconds), source=source)

    # ------------------------------------------------------------------
    def cancel(self) -> None:
        """Request a cooperative abort at the next checkpoint."""
        self._cancelled = True

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def remaining(self) -> Optional[float]:
        """Seconds left in the budget (never negative), None = unbounded."""
        if self.deadline is None:
            return None
        return max(0.0, self.deadline - time.monotonic())

    def expired(self) -> bool:
        return self.deadline is not None and time.monotonic() >= self.deadline

    def mark_degraded(self, reason: str) -> None:
        """Record that a degraded artefact served this request."""
        if self.degraded is None:
            self.degraded = str(reason)

    # ------------------------------------------------------------------
    def checkpoint(self) -> None:
        """Raise :class:`OperationCancelled` if the budget is spent."""
        if self._cancelled:
            raise OperationCancelled("operation cancelled", source=self.source)
        if self.deadline is not None and time.monotonic() >= self.deadline:
            raise OperationCancelled(
                "deadline exceeded", source=self.source
            )

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"CancellationToken(remaining={self.remaining()}, "
            f"source={self.source!r}, cancelled={self._cancelled}, "
            f"degraded={self.degraded!r})"
        )


#: The ambient token of the current (thread's) request, if any.
_CURRENT: ContextVar[Optional[CancellationToken]] = ContextVar(
    "repro_cancellation_token", default=None
)


def current_token() -> Optional[CancellationToken]:
    """The ambient :class:`CancellationToken`, or None outside a scope.

    Hot loops fetch this once before iterating and skip checkpointing
    entirely when it is None, so the library path stays free.
    """
    return _CURRENT.get()


@contextlib.contextmanager
def cancellation_scope(token: Optional[CancellationToken]) -> Iterator[Optional[CancellationToken]]:
    """Install ``token`` as the ambient token for the ``with`` body.

    The serving layer enters this inside the worker thread that runs
    the computation, so no cross-thread context propagation is needed.
    Scopes nest; the previous token is restored on exit.
    """
    handle = _CURRENT.set(token)
    try:
        yield token
    finally:
        _CURRENT.reset(handle)
