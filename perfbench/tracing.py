"""Layer tracing from outside the simulator.

:class:`Tracer` wraps public entry points of the ``repro`` layers on their
classes (or modules) for the duration of a ``with`` block and restores the
original attributes on exit. Every wrapped call is timed and counted;
calls named in ``SPAN_POINTS`` also record a span (name, start, end,
parent). A call's *self* time is its duration minus the time of the wrapped
calls nested inside it, so ``Core.run``'s self time is the core's own
dispatch loop without the cache, defense, noise and decode work it calls.

Spans stay in memory and are written once, by :meth:`Tracer.write_spans`,
after the traced work ends.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

#: Timers whose calls also record a span; the rest are per-access
#: functions that are only counted and timed.
SPAN_POINTS = {"cpu.core", "defense.squash", "attack.prepare", "attack.evset",
               "attack.calibrate", "workloads.synth"}


def _entry_points() -> List[Tuple[str, object, str]]:
    """(timer name, owner, attribute) for every wrapped entry point."""
    from repro.attack import campaign as attack_campaign
    from repro.attack import unxpec
    from repro.cache.hierarchy import CacheHierarchy
    from repro.cpu.core import Core
    from repro.cpu.noise import NoiseModel
    from repro.defense.base import Defense
    from repro.isa.program import Program
    from repro.memory.mshr import MshrFile
    from repro.workloads import synth

    return [
        ("cpu.core", Core, "run"),
        ("defense.squash", Defense, "on_squash"),
        ("cache.access", CacheHierarchy, "access"),
        ("memory.mshr.allocate", MshrFile, "allocate"),
        ("noise", NoiseModel, "system_event"),
        ("noise", NoiseModel, "mem_jitter"),
        ("isa.decode", Program, "decoded"),
        ("attack.prepare", unxpec.UnxpecAttack, "prepare"),
        # Imported by name into repro.attack.unxpec, which is where
        # UnxpecAttack.prepare looks it up.
        ("attack.evset", unxpec, "build_prime_addresses"),
        ("attack.calibrate", attack_campaign.LeakageCampaign, "calibrate"),
        ("workloads.synth", synth, "synthesize"),
    ]


class Timer:
    """Count, total and child seconds of one wrapped entry point."""

    __slots__ = ("calls", "total", "child")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.child = 0.0

    @property
    def self_s(self) -> float:
        return self.total - self.child


class Tracer:
    """Install wrappers with ``with Tracer() as t:``; read ``t.timers``."""

    def __init__(self) -> None:
        self.timers: Dict[str, Timer] = {}
        #: (name, start, end, parent index or -1), in start order.
        self.spans: List[Tuple[str, float, float, int]] = []
        #: Simulated quantities read off the wrapped calls' results.
        self.counts: Dict[str, int] = {}
        self._saved: List[Tuple[object, str, object]] = []
        # One frame per open wrapped call: [child seconds, span index].
        self._stack: List[list] = []

    # -- install / restore ------------------------------------------------

    def __enter__(self) -> "Tracer":
        try:
            for name, owner, attr in _entry_points():
                original = owner.__dict__[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, _POST.get(attr)))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        """Put every saved attribute back, newest first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- the wrapper ----------------------------------------------------

    def _wrap(self, name: str, fn: Callable, post: Optional[Callable]) -> Callable:
        timer = self.timers.setdefault(name, Timer())
        stack = self._stack
        spans = self.spans
        counts = self.counts
        is_span = name in SPAN_POINTS
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0, -1]
            if is_span:
                # Reserve the span's slot now so children can name it.
                frame[1] = len(spans)
                parent = next((f[1] for f in reversed(stack) if f[1] >= 0), -1)
                spans.append((name, 0.0, 0.0, parent))
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                if stack:
                    stack[-1][0] += elapsed
                timer.calls += 1
                timer.total += elapsed
                timer.child += frame[0]
                if is_span:
                    spans[frame[1]] = (name, start, end, spans[frame[1]][3])
            if post is not None:
                post(counts, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- output ---------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        """Write the spans as JSONL, times relative to the first span."""
        t0 = min((s[1] for s in self.spans), default=0.0)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for index, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": index, "name": name, "parent": parent,
                                     "start_s": start - t0, "end_s": end - t0}) + "\n")


def _bump(counts: Dict[str, int], key: str, n: int) -> None:
    counts[key] = counts.get(key, 0) + n


def _after_core_run(counts, args, result) -> None:
    _bump(counts, "insts", result.instructions)
    _bump(counts, "sim_cycles", result.cycles)
    _bump(counts, "squashes", len(result.squashes))


def _after_access(counts, args, result) -> None:
    _bump(counts, "level." + result.level, 1)


def _after_squash(counts, args, outcome) -> None:
    _bump(counts, "stall_cycles", outcome.stall_cycles)
    _bump(counts, "invalidated", outcome.invalidated_l1 + outcome.invalidated_l2)
    _bump(counts, "restored", outcome.restored_l1)


def _after_system_event(counts, args, result) -> None:
    # A disabled model returns without drawing from the generator.
    if args[0].event_prob > 0:
        _bump(counts, "noise_draws", 1)


def _after_mem_jitter(counts, args, result) -> None:
    if args[0].mem_jitter_std > 0:
        _bump(counts, "noise_draws", 1)


#: Result readers keyed by wrapped attribute: (counts, call args, result).
_POST = {
    "run": _after_core_run,
    "access": _after_access,
    "on_squash": _after_squash,
    "system_event": _after_system_event,
    "mem_jitter": _after_mem_jitter,
}


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """The per-layer metrics of a traced in-process run."""
    def timer(name: str) -> Timer:
        return tracer.timers.get(name) or Timer()

    core, access, squash = timer("cpu.core"), timer("cache.access"), timer("defense.squash")
    noise, decode = timer("noise"), timer("isa.decode")
    c = tracer.counts
    insts = c.get("insts", 0)
    return {
        "cpu.core.calls": core.calls,
        "cpu.core.s": core.total,
        "cpu.core.self_s": core.self_s,
        "cpu.core.insts": insts,
        "cpu.core.sim_cycles": c.get("sim_cycles", 0),
        "cpu.core.squashes": c.get("squashes", 0),
        "cpu.core.ns_per_inst": 1e9 * core.total / insts if insts else 0.0,
        "cache.access.calls": access.calls,
        "cache.access.s": access.total,
        "cache.l1": c.get("level.L1", 0),
        "cache.l2": c.get("level.L2", 0),
        "cache.mem": c.get("level.MEM", 0),
        "memory.mshr.allocs": timer("memory.mshr.allocate").calls,
        "defense.squash.calls": squash.calls,
        "defense.squash.s": squash.total,
        "defense.stall_cycles": c.get("stall_cycles", 0),
        "defense.invalidated": c.get("invalidated", 0),
        "defense.restored": c.get("restored", 0),
        "noise.draws": c.get("noise_draws", 0),
        "noise.s": noise.total,
        "isa.decode.calls": decode.calls,
        "isa.decode.s": decode.total,
        "attack.prepare.s": timer("attack.prepare").total,
        "attack.evset.s": timer("attack.evset").total,
        "attack.calibrate.s": timer("attack.calibrate").total,
        "workloads.synth.s": timer("workloads.synth").total,
    }
