"""``spec``: the twelve synthetic SPEC2017 profiles under three defenses.

Fig. 12's full-scale inputs (12k instruction slots per profile), run under
``UnsafeBaseline``, ``CleanupSpec`` and ``ConstantTimeRollback(65)`` with
noise off, each on a fresh machine. The committed path and the cache
hierarchy do the work: a few thousand squashes over ~412k committed
instructions per pass, and no noise draws, so a rollback or noise
optimisation should not move this workload while a committed-path one
should.
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

from measure import median, peak_rss_mb, percentile

INSTRUCTIONS = 12_000
CT_CONSTANT = 65
#: Paper, Fig. 12: average slowdown of 65-cycle constant-time rollback.
PAPER_CT65_PCT = 72.8
#: Modules imported before any timed work (the set-up probe times them).
IMPORTS = (
    "repro.cache.hierarchy",
    "repro.cpu.core",
    "repro.defense.cleanupspec",
    "repro.defense.constant_time",
    "repro.defense.unsafe",
    "repro.workloads.synth",
)


def setup(seed: int):
    """Synthesize and decode every profile's program."""
    from repro.workloads import synth
    from repro.workloads.profiles import SPEC2017_PROFILES

    programs = []
    for profile in SPEC2017_PROFILES:
        # Through the module attribute, so a traced run sees the call.
        program = synth.synthesize(profile, instructions=INSTRUCTIONS, seed=seed).program
        program.decoded()
        programs.append((profile.name, program))
    return seed, programs


def _defenses():
    from repro.defense.cleanupspec import CleanupSpec
    from repro.defense.constant_time import ConstantTimeRollback
    from repro.defense.unsafe import UnsafeBaseline

    return (
        ("unsafe", UnsafeBaseline),
        ("cleanupspec", CleanupSpec),
        (f"ct{CT_CONSTANT}", lambda h: ConstantTimeRollback(h, CT_CONSTANT)),
    )


def sweep(state, op_s: List[float]) -> Tuple[Dict[str, int], int, int]:
    """One pass: every profile under every defense on a fresh machine.

    Returns (simulated cycles per ``profile/defense``, committed
    instructions, squashes); appends each run's host seconds to ``op_s``.
    """
    from repro.cache.hierarchy import CacheHierarchy
    from repro.cpu.core import Core

    seed, programs = state
    cycles: Dict[str, int] = {}
    insts = squashes = 0
    clock = time.perf_counter
    for name, program in programs:
        for key, factory in _defenses():
            hierarchy = CacheHierarchy(seed=seed)
            core = Core(hierarchy, factory(hierarchy))
            t0 = clock()
            result = core.run(program, max_instructions=20_000_000)
            op_s.append(clock() - t0)
            cycles[f"{name}/{key}"] = result.cycles
            insts += result.instructions
            squashes += len(result.squashes)
    return cycles, insts, squashes


def ct_overhead_pct(cycles: Dict[str, int]) -> float:
    """Average constant-time slowdown over the unsafe baseline, in percent."""
    names = sorted({key.split("/")[0] for key in cycles})
    ratios = [cycles[f"{n}/ct{CT_CONSTANT}"] / cycles[f"{n}/unsafe"] - 1.0 for n in names]
    return 100.0 * sum(ratios) / len(ratios)


def measure(seed: int, seconds: float) -> dict:
    state = setup(seed)
    op_s: List[float] = []
    pass_s: List[float] = []
    problems: List[str] = []
    clock = time.perf_counter
    started = clock()
    first = None
    while not pass_s or clock() - started < seconds:
        t0 = clock()
        cycles, insts, squashes = sweep(state, op_s)
        pass_s.append(clock() - t0)
        if first is None:
            first = (cycles, insts, squashes)
        elif (cycles, insts, squashes) != first:
            problems.append(f"pass {len(pass_s)} simulated differently from pass 1")
    cycles, insts, squashes = first
    ct65 = ct_overhead_pct(cycles)
    detail = {
        "sim_ips": (len(pass_s) * insts / sum(op_s), "1/s"),
        "insts_per_pass": (insts, "count"),
        "squashes_per_pass": (squashes, "count"),
        "pass_s_p50": (median(pass_s), "s"),
        "passes": (len(pass_s), "count"),
        "run_ms_p50": (1e3 * median(op_s), "ms"),
        "runs": (len(op_s), "count"),
        "ct65_pct": (ct65, "%"),
        "ct65_err_pct": (abs(ct65 - PAPER_CT65_PCT), "%"),
    }
    return {
        "e2e": {
            "peak_rss_mb": peak_rss_mb(),
            "pass_s_p90": percentile(pass_s, 90),
            "op_ms_p90": 1e3 * percentile(op_s, 90),
        },
        "detail": detail,
        "pins": {"cycles": cycles},
        "attempted": len(op_s),
        "failed": 0,
        "problems": problems,
    }


def fixed_work(seed: int):
    """Set-up plus one pass: the traced run's unit of work."""
    cycles, _, _ = sweep(setup(seed), [])
    return {"cycles": cycles}, len(cycles)
