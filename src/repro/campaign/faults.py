"""Fault model for the campaign engine: classification + deterministic injection.

Two concerns live here:

* **Classification** — :func:`is_transient` decides whether a worker
  exception is worth retrying (I/O hiccups, broken pipes, timeouts) or
  deterministic (assertion/value errors that will fail identically on
  every attempt, so retrying only wastes campaign time).
* **Injection** — a :class:`FaultPlan` describes *exactly* which task
  attempt should fail and how, so the retry/degradation machinery in
  :mod:`repro.campaign.runner` is testable under both ``jobs=1`` and
  pooled execution.  Plans are plain picklable dataclasses (they ride
  inside each task spec to the worker) and can also be supplied through
  the ``REPRO_FAULT_INJECT`` environment variable, which fork-started
  workers inherit::

      REPRO_FAULT_INJECT="fig9:0:1:OSError"     # shard 0, first attempt only
      REPRO_FAULT_INJECT="fig9:*:*:AssertionError"  # every shard, every attempt
      REPRO_FAULT_INJECT="fig3:2:1:hang;fig9:0:*"   # multiple specs

  Spec grammar: ``experiment:shard:attempt[:kind]`` — ``shard`` and
  ``attempt`` are 1-based ints or ``*`` (any; attempts count from 1),
  ``shard`` is ``-1`` for a whole-run (non-sharded) task, and ``kind``
  is an exception name from :data:`FAULT_KINDS` or ``hang`` (sleep until
  the task wall-clock timeout kills the attempt).  Default kind:
  ``RuntimeError``.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Optional, Tuple

from ..common.errors import ConfigError

#: Environment variable holding a parseable fault plan (see module doc).
FAULT_INJECT_ENV = "REPRO_FAULT_INJECT"


class TaskTimeout(TimeoutError):
    """A campaign task attempt exceeded its ``--task-timeout`` budget."""


class InjectedFault(RuntimeError):
    """Default exception type raised by a fault spec with no ``kind``."""


#: Exception types a fault spec may raise by name.  ``TimeoutError`` and
#: ``OSError`` model transient faults (retried); ``AssertionError`` and
#: friends model deterministic failures (not retried).
FAULT_KINDS = {
    "RuntimeError": InjectedFault,
    "OSError": OSError,
    "IOError": OSError,
    "TimeoutError": TimeoutError,
    "AssertionError": AssertionError,
    "ValueError": ValueError,
    "KeyError": KeyError,
    "MemoryError": MemoryError,
}

#: Special kind: sleep instead of raising (exercises the timeout path).
HANG_KIND = "hang"

#: Exceptions considered transient and therefore retryable.  Note
#: ``TimeoutError`` (and thus :class:`TaskTimeout`) is an ``OSError``
#: subclass, so task timeouts are retried too — a hang under contention
#: may well succeed on a quieter attempt.  ``BrokenProcessPool`` (a
#: pool-level failure, matched by name since it lives in
#: ``concurrent.futures``) is transient: the runner falls back to
#: in-process execution for the tasks the pool lost.
_TRANSIENT_TYPES = (OSError, EOFError, InterruptedError, BrokenPipeError)
_TRANSIENT_NAMES = frozenset({"BrokenProcessPool"})


def is_transient(exc: BaseException) -> bool:
    """Whether ``exc`` is plausibly transient (worth a retry)."""
    if isinstance(exc, _TRANSIENT_TYPES):
        return True
    return type(exc).__name__ in _TRANSIENT_NAMES


@dataclass(frozen=True)
class FaultSpec:
    """Fail one (experiment, shard, attempt) coordinate in a chosen way.

    ``shard_index``/``attempt`` of ``None`` match any value; attempts are
    1-based.  ``kind`` names an entry of :data:`FAULT_KINDS` or ``hang``.
    """

    experiment_id: str
    shard_index: Optional[int] = None
    attempt: Optional[int] = None
    kind: str = "RuntimeError"

    def __post_init__(self) -> None:
        if self.kind != HANG_KIND and self.kind not in FAULT_KINDS:
            raise ConfigError(
                f"unknown fault kind {self.kind!r} "
                f"(want one of {sorted(FAULT_KINDS)} or {HANG_KIND!r})"
            )

    def matches(self, experiment_id: str, shard_index: int, attempt: int) -> bool:
        return (
            experiment_id == self.experiment_id
            and (self.shard_index is None or shard_index == self.shard_index)
            and (self.attempt is None or attempt == self.attempt)
        )

    def fire(self, hang_seconds: float) -> None:
        """Raise the configured exception (or sleep, for ``hang``)."""
        if self.kind == HANG_KIND:
            time.sleep(hang_seconds)
            return
        exc_type = FAULT_KINDS[self.kind]
        raise exc_type(
            f"injected {self.kind} fault "
            f"({self.experiment_id}:{self.shard_index}:{self.attempt})"
        )


def _parse_coord(text: str, what: str) -> Optional[int]:
    if text in ("*", ""):
        return None
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"bad fault-spec {what} {text!r} (want int or '*')") from None


@dataclass(frozen=True)
class FaultPlan:
    """An ordered set of :class:`FaultSpec` records; picklable and inert.

    An empty plan never triggers, so ``FaultPlan()`` is a safe default.
    """

    specs: Tuple[FaultSpec, ...] = ()
    #: How long a ``hang`` fault sleeps; far beyond any sane task timeout.
    hang_seconds: float = 3600.0

    def __bool__(self) -> bool:
        return bool(self.specs)

    @classmethod
    def parse(cls, text: str, hang_seconds: float = 3600.0) -> "FaultPlan":
        """Parse ``exp:shard:attempt[:kind]`` specs separated by ``;`` or ``,``."""
        specs = []
        for chunk in text.replace(",", ";").split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            parts = chunk.split(":")
            if not 3 <= len(parts) <= 4:
                raise ConfigError(
                    f"bad fault spec {chunk!r} (want experiment:shard:attempt[:kind])"
                )
            exp_id = parts[0].strip()
            if not exp_id:
                raise ConfigError(f"bad fault spec {chunk!r}: empty experiment id")
            specs.append(
                FaultSpec(
                    experiment_id=exp_id,
                    shard_index=_parse_coord(parts[1].strip(), "shard"),
                    attempt=_parse_coord(parts[2].strip(), "attempt"),
                    kind=parts[3].strip() if len(parts) == 4 else "RuntimeError",
                )
            )
        return cls(specs=tuple(specs), hang_seconds=hang_seconds)

    @classmethod
    def from_env(cls, environ=None) -> "FaultPlan":
        """The plan described by ``$REPRO_FAULT_INJECT`` (empty when unset)."""
        text = (environ if environ is not None else os.environ).get(
            FAULT_INJECT_ENV, ""
        )
        return cls.parse(text) if text.strip() else cls()

    def trigger(self, experiment_id: str, shard_index: int, attempt: int) -> None:
        """Fire the first spec matching this task attempt, if any."""
        for spec in self.specs:
            if spec.matches(experiment_id, shard_index, attempt):
                spec.fire(self.hang_seconds)
                return
