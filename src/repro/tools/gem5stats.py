"""gem5-style statistics facade (the artifact appendix's interface).

The paper's artifact evaluates Figure 12 by running gem5 twice per
benchmark and extracting three counters from ``benchmark_name.txt``:

* ``sim_ticks`` — total time for ``maxinst_count`` instructions,
* ``system.cpu.fetch.startCycles`` — time for the first
  ``startinst_count`` instructions (the warm-up to subtract), and
* ``system.cpu.iew.lsq.thread0.extraCleanupSquashTimeCyclesXX`` — extra
  time imposed by XX-cycle constant-time rollback,

then computes ``overhead = (no-const or XX-const) / unsafe-time`` over the
post-warm-up window. This module reproduces that exact workflow against
our simulator: :func:`run_gem5_style` runs the program with
``record_timeline=True`` under an attached
:class:`~repro.obs.Observability`, reads the commit boundaries from the
run's **timeline** and the per-squash rollback stages from its **squash
records** (:class:`~repro.cpu.timing.RunResult`), cross-checks both against
the **stat registry**, and ships the registry snapshot with the result.
:func:`parse_stats` reads a rendered stats text back and
:func:`artifact_overhead` implements the appendix's Calculation section
verbatim — so the repository can be driven the way the artifact
documents, not only through :mod:`repro.experiments`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..cache.hierarchy import CacheHierarchy
from ..common.errors import ExperimentError
from ..cpu.core import Core
from ..defense.base import Defense
from ..defense.cleanupspec import CleanupSpec
from ..defense.unsafe import UnsafeBaseline
from ..isa.program import Program
from ..obs import Observability

#: Artifact scheme names (the run_gem5spec.sh scheme_cleanupcache values).
SCHEME_UNSAFE = "UnsafeBaseline"
SCHEME_CLEANUP = "Cleanup_FOR_L1L2"


@dataclass(frozen=True)
class Gem5Stats:
    """The counters the artifact's Extraction step reads."""

    benchmark: str
    scheme: str
    sim_ticks: int
    start_cycles: int
    #: constant -> extra stall cycles in the measurement window.
    extra_cleanup_squash_time: Dict[int, int]
    #: Full hierarchical registry snapshot the counters were derived from.
    registry_snapshot: Dict[str, object] = field(default_factory=dict, compare=False)

    @property
    def measured_ticks(self) -> int:
        """sim_ticks minus warm-up, the appendix's unsafe-time/no-constant."""
        return self.sim_ticks - self.start_cycles

    def render(self) -> str:
        """The benchmark_name.txt the artifact greps."""
        lines = [
            f"# scheme_cleanupcache={self.scheme} benchmark={self.benchmark}",
            f"sim_ticks {self.sim_ticks}",
            f"system.cpu.fetch.startCycles {self.start_cycles}",
        ]
        for const, extra in sorted(self.extra_cleanup_squash_time.items()):
            lines.append(
                "system.cpu.iew.lsq.thread0."
                f"extraCleanupSquashTimeCycles{const} {extra}"
            )
        return "\n".join(lines) + "\n"


def run_gem5_style(
    program: Program,
    scheme: str,
    maxinst_count: int,
    startinst_count: int,
    constants: tuple = (25, 30, 35, 45, 65),
    seed: int = 0,
    benchmark: str = "benchmark",
    obs: Optional[Observability] = None,
) -> Gem5Stats:
    """Run ``program`` under ``scheme`` and produce artifact-style stats.

    Follows the artifact: the first ``startinst_count`` committed
    instructions are warm-up; counters cover instructions up to
    ``maxinst_count``. For ``Cleanup_FOR_L1L2`` the constant-time extras
    are derived per squash as ``max(const, t5) - t5`` over the measurement
    window — exactly what the relaxed scheme would add.

    Every number is read out of the run's :class:`RunResult`: commit
    boundaries from ``timeline``, squash cycles and rollback stages from
    ``squashes``, with the registry's ``core.*`` counters as a consistency
    cross-check (an inconsistent derivation raises). Pass ``obs`` to share
    a registry across runs (the cross-checks compare this run's delta); by
    default each run gets a fresh one, returned via ``registry_snapshot``.
    """
    if not 0 <= startinst_count < maxinst_count:
        raise ExperimentError("need 0 <= startinst_count < maxinst_count")

    obs = obs or Observability()
    hierarchy = CacheHierarchy(seed=seed, obs=obs)
    defense: Defense
    if scheme == SCHEME_UNSAFE:
        defense = UnsafeBaseline(hierarchy)
    elif scheme == SCHEME_CLEANUP:
        defense = CleanupSpec(hierarchy)
    else:
        raise ExperimentError(f"unknown scheme_cleanupcache {scheme!r}")

    core = Core(hierarchy, defense, record_timeline=True, obs=obs)
    reg = obs.registry
    # Pre-run registry values: with a shared obs the counters accumulate
    # across runs, so the cross-checks below compare this run's delta.
    committed_before = reg["core.instructions"].value()
    squashes_before = reg["core.squashes"].value()
    result = core.run(program, max_instructions=max(maxinst_count * 4, 1_000_000))

    # ---- derive the artifact counters from the run record ----
    completes = [t.complete for t in result.timeline]
    # Warm-up boundary: completion time of the startinst_count-th commit.
    start_cycles = 0
    if startinst_count > 0:
        idx = min(startinst_count, len(completes)) - 1
        start_cycles = completes[idx] if idx >= 0 else 0
    end_idx = min(maxinst_count, len(completes)) - 1
    sim_ticks = completes[end_idx] if end_idx >= 0 else result.cycles

    extras: Dict[int, int] = {}
    if scheme == SCHEME_CLEANUP:
        t5s = [
            event.outcome.stage("t5_rollback")
            for event in result.squashes
            if start_cycles <= event.squash_cycle <= sim_ticks
        ]
        for const in constants:
            extras[const] = sum(max(0, const - t5) for t5 in t5s)

    # ---- registry cross-checks: run record and counters must agree ----
    delta_committed = reg["core.instructions"].value() - committed_before
    # The Halt commit is counted but never enters the timeline; everything
    # else must line up exactly.
    if not delta_committed - 1 <= len(completes) <= delta_committed:
        raise ExperimentError(
            f"timeline/registry mismatch: {len(completes)} timeline entries vs "
            f"{delta_committed} committed instructions"
        )
    if reg["core.squashes"].value() - squashes_before != len(result.squashes):
        raise ExperimentError("squash record/registry mismatch on squash count")

    return Gem5Stats(
        benchmark=benchmark,
        scheme=scheme,
        sim_ticks=sim_ticks,
        start_cycles=start_cycles,
        extra_cleanup_squash_time=extras,
        registry_snapshot=reg.to_dict(),
    )


def parse_stats(text: str) -> Dict[str, int]:
    """Parse a rendered stats file back into ``{key: value}``."""
    out: Dict[str, int] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition(" ")
        try:
            out[key] = int(value)
        except ValueError as exc:
            raise ExperimentError(f"malformed stats line: {line!r}") from exc
    return out


def artifact_overhead(
    unsafe: Gem5Stats,
    cleanup: Gem5Stats,
    constant: Optional[int] = None,
) -> float:
    """The appendix's Calculation step.

    * ``unsafe-time``  = sim_ticks - startCycles   (UnsafeBaseline run)
    * ``no-constant``  = sim_ticks - startCycles   (Cleanup run)
    * ``XX-const``     = no-constant + extraCleanupSquashTimeCyclesXX
    * overhead         = (no-const or XX-const) / unsafe-time
    """
    unsafe_time = unsafe.measured_ticks
    if unsafe_time <= 0:
        raise ExperimentError("empty measurement window")
    protected = cleanup.measured_ticks
    if constant is not None:
        try:
            protected += cleanup.extra_cleanup_squash_time[constant]
        except KeyError as exc:
            raise ExperimentError(
                f"no extraCleanupSquashTimeCycles{constant} in the stats"
            ) from exc
    return protected / unsafe_time
