"""``repro.obs`` — observability: hierarchical stats and profiling.

The subsystem has two legs, tied together by :class:`Observability`:

* :class:`~repro.obs.registry.StatRegistry` — gem5-style dotted-name
  statistics (``core.squashes``, ``l1d.misses``,
  ``defense.cleanup.restores``…) with text and JSON dumps;
* :class:`~repro.obs.profile.Profiler` — wall-clock phase timing for
  experiment runs.

Per-instruction timing and per-squash rollback stages are not kept here:
each :meth:`~repro.cpu.core.Core.run` returns them in its
:class:`~repro.cpu.timing.RunResult` (``timeline`` with
``record_timeline=True``, and ``squashes`` always), which drops nothing.

Attach one ``Observability`` to a core and everything it touches reports::

    obs = Observability()
    h = CacheHierarchy(seed=0, obs=obs)
    core = Core(h, CleanupSpec(h), obs=obs)
    core.run(program)
    print(obs.registry.dump_text())

For code that builds its cores internally (attacks, experiments), install
a *process default* instead — every component constructed while it is set
picks it up::

    with observe(Observability()) as obs:
        UnxpecAttack(...).sample(1)
    obs.dump_json("stats.json")

``python -m repro.experiments <exp> --stats-out PATH`` is exactly this
wrapped around the experiment registry, and ``python -m repro.obs PATH``
pretty-prints the resulting dump.  See ``docs/observability.md``.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from typing import Optional

from .export import (
    parse_openmetrics,
    profiler_to_folded,
    registry_to_openmetrics,
    to_openmetrics,
)
from .profile import Profiler
from .registry import (
    Counter,
    Distribution,
    Formula,
    Gauge,
    Stat,
    StatRegistry,
    nest_dotted,
)

__all__ = [
    "Counter",
    "Distribution",
    "Formula",
    "Gauge",
    "Observability",
    "Profiler",
    "Stat",
    "StatRegistry",
    "get_default_obs",
    "nest_dotted",
    "observe",
    "parse_openmetrics",
    "profiler_to_folded",
    "registry_to_openmetrics",
    "set_default_obs",
    "to_openmetrics",
]


class Observability:
    """One registry + one profiler, attached as a unit."""

    def __init__(
        self,
        registry: Optional[StatRegistry] = None,
        profiler: Optional[Profiler] = None,
    ) -> None:
        self.registry = registry or StatRegistry()
        self.profiler = profiler or Profiler()

    def profile(self, name: str):
        """Context manager accounting wall time under ``name``."""
        return self.profiler.phase(name)

    def to_dict(self) -> dict:
        """The ``--stats-out`` JSON document."""
        return {
            "stats": self.registry.to_dict(),
            "profile": self.profiler.to_dict(),
        }

    def dump_json(self, path: str, indent: int = 2) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=indent, sort_keys=True)
            fh.write("\n")


#: Process-wide default picked up by component constructors (None = off).
_default_obs: Optional[Observability] = None


def get_default_obs() -> Optional[Observability]:
    return _default_obs


def set_default_obs(obs: Optional[Observability]) -> Optional[Observability]:
    """Install ``obs`` as the process default; return the previous one."""
    global _default_obs
    previous = _default_obs
    _default_obs = obs
    return previous


@contextmanager
def observe(obs: Optional[Observability] = None):
    """Scope a default :class:`Observability`; yields it."""
    active = obs or Observability()
    previous = set_default_obs(active)
    try:
        yield active
    finally:
        set_default_obs(previous)
