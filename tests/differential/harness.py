"""Run one checked-in workload round by round and pin every round.

A *case* is a small JSON-serializable dict describing a deterministic
multi-round workload. Two modes:

* ``"attack"`` — a full :class:`~repro.attack.unxpec.UnxpecAttack` driven
  through a secret-bit sequence (what the campaign engine actually runs);
* ``"program"`` — a raw instruction list executed round after round on a
  bare core with a configurable cache/MSHR geometry, optionally with
  per-round out-of-band DRAM pokes.

:func:`run_case` executes a case and captures a *round record* per round:
latency/cycles/instructions, final registers, the squash records, the
per-instruction timeline, the registry snapshot, and full machine + stats
fingerprints. :func:`pin_round` reduces a record to its golden pin:
the three timing numbers verbatim plus a sha256 over everything else. Each
case's JSON stores the expected pins under ``"golden"``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields as dataclass_fields
from pathlib import Path
from typing import List, Optional

from repro.attack import GadgetParams, UnxpecAttack
from repro.cache.hierarchy import CacheHierarchy
from repro.cache.setassoc import CacheStats
from repro.common.config import CacheGeometry, CoreConfig, SystemConfig
from repro.cpu.core import Core
from repro.cpu.noise import campaign_noise
from repro.cpu.predictor import PredictorStats
from repro.defense.base import Defense
from repro.defense.cachesquash import CacheSquash
from repro.defense.cleanupspec import CleanupSpec
from repro.defense.constant_time import ConstantTimeRollback
from repro.defense.delay_on_miss import DelayOnMiss
from repro.defense.safespec import SafeSpec
from repro.defense.unsafe import UnsafeBaseline
from repro.isa import ProgramBuilder
from repro.memory.dram import DramStats
from repro.memory.mshr import MshrStats
from repro.obs import Observability, set_default_obs

#: Directory of checked-in regression cases (every past model bug and the
#: golden-round configurations live here).
CORPUS_DIR = Path(__file__).parent / "corpus"

#: Round-record fields pinned verbatim.
TIMING_FIELDS = ("latency", "cycles", "instructions")

#: Round-record fields pinned through one sha256.
HASHED_FIELDS = ("registers", "squashes", "timeline", "registry", "machine", "stats")

_DEFENSES = {
    "cleanup": lambda h: CleanupSpec(h),
    "unsafe": lambda h: UnsafeBaseline(h),
    "delay": lambda h: DelayOnMiss(h),
    "constant": lambda h: ConstantTimeRollback(h, constant_cycles=40),
    "safespec": lambda h: SafeSpec(h),
    "cachesquash": lambda h: CacheSquash(h),
}

#: Field-name tuples of the stats bags a round mutates, in the order
#: :func:`stats_fingerprint` zips them with the live bag objects.
_BAG_FIELDS = tuple(
    tuple(f.name for f in dataclass_fields(cls))
    for cls in (CacheStats, CacheStats, DramStats, MshrStats, PredictorStats)
)

#: Integer counters every defense keeps, plus each family's own.
_DEFENSE_COUNTERS = ("squash_count", "total_stall")
_FAMILY_COUNTERS = {
    CleanupSpec: ("total_invalidations_l1", "total_invalidations_l2", "total_restorations"),
    SafeSpec: ("total_shadow_fills", "total_shadow_discards"),
    CacheSquash: ("total_cancelled", "total_cancel_stall"),
}


def build_program(specs) -> object:
    """Assemble instruction specs (forward branches only, so programs
    always terminate); shares the encoding of the specct property tests."""
    b = ProgramBuilder("diff-prop")
    for spec in specs:
        op = spec[0]
        if op == "li":
            b.li(spec[1], spec[2])
        elif op == "op":
            b.op(spec[1], spec[2], spec[3], spec[4])
        elif op == "opi":
            b.opi(spec[1], spec[2], spec[3], spec[4])
        elif op == "load":
            b.load(spec[1], spec[2], spec[3])
        elif op == "store":
            b.store(spec[1], spec[2], spec[3])
        elif op == "flush":
            b.flush(spec[1])
        elif op == "branch":
            b.branch(spec[1], spec[2], spec[3], "end")
        elif op == "fence":
            b.fence()
        else:
            b.nop()
    b.label("end")
    b.halt()
    return b.build()


def _snapshot_set(ways) -> tuple:
    """Per-way snapshot of one set: ``None`` or the full 7-field line tuple."""
    return tuple(
        None
        if line is None
        else (
            line.line_addr,
            line.state,
            line.dirty,
            line.speculative,
            line.epoch,
            line.installed_at,
            line.last_access,
        )
        for line in ways
    )


def _rng_state_key(rng) -> tuple:
    """Hashable canonical form of a numpy Generator's state."""
    state = rng.bit_generator.state
    inner = state["state"]
    return (
        state["bit_generator"],
        tuple(sorted(inner.items())) if isinstance(inner, dict) else inner,
        state.get("has_uint32", 0),
        state.get("uinteger", 0),
    )


def _rng_policies(hierarchy: CacheHierarchy) -> tuple:
    """Replacement policies that hold an RNG (walking NoMo wrappers)."""
    out = []
    for cache in (hierarchy.l1, hierarchy.l2):
        policy = cache.policy
        inner = getattr(policy, "inner", None)
        if inner is not None and hasattr(inner, "_rng"):
            policy = inner
        if hasattr(policy, "_rng"):
            out.append(policy)
    return tuple(out)


def _defense_chain(defense) -> tuple:
    """The defense plus wrapped inner defenses (ConstantTime -> Cleanup)."""
    chain = []
    node = defense
    while isinstance(node, Defense) and node not in chain:
        chain.append(node)
        node = getattr(node, "inner", None)
    return tuple(chain)


def machine_fingerprint(core: Core) -> tuple:
    """Full comparable snapshot of a core's machine state: both cache
    levels, MSHR occupancy, predictor table, replacement-RNG states, DRAM
    contents, speculation epochs and pending coherence downgrades."""
    h = core.hierarchy

    def cache_state(cache) -> tuple:
        return tuple(
            (set_index, _snapshot_set(ways))
            for set_index, ways in enumerate(cache._sets)
            if any(ways)
        )

    mshr_state = tuple(
        sorted(
            (
                e.line_addr,
                e.issue_cycle,
                e.complete_cycle,
                e.speculative,
                -1 if e.victim_line is None else e.victim_line,
                e.victim_dirty,
                e.merged,
            )
            for e in h.mshr._entries.values()
        )
    )
    return (
        cache_state(h.l1),
        cache_state(h.l2),
        mshr_state,
        tuple(sorted(core.predictor._counters.items())),
        tuple(_rng_state_key(p._rng) for p in _rng_policies(h)),
        tuple(sorted(h.dram._words.items())),
        h.tracker._next_epoch,
        tuple(h.tracker.open_epochs()),
        len(h.l1_guard._pending),
    )


def stats_fingerprint(core: Core) -> tuple:
    """Comparable snapshot of every stats bag and defense counter a round
    can mutate, plus the round's divider occupancy (which the wrong path
    changes only through the divider: its issue gate at the squash point
    shows nowhere else)."""
    h = core.hierarchy
    bags = (h.l1.stats, h.l2.stats, h.dram.stats, h.mshr.stats, core.predictor.stats)
    out = [
        tuple(getattr(bag, name) for name in names)
        for bag, names in zip(bags, _BAG_FIELDS)
    ]
    for defense in _defense_chain(core.defense):
        names = _DEFENSE_COUNTERS + _FAMILY_COUNTERS.get(type(defense), ())
        out.append(tuple(getattr(defense, name) for name in names))
    fu = core.fu_pool
    out.append((fu.div_issues, fu.div_contended, fu.div_busy_until))
    return tuple(out)


def _squash_key(event) -> tuple:
    outcome = event.outcome
    return (
        event.branch_pc,
        event.resolve_cycle,
        event.squash_cycle,
        event.fetch_resume,
        event.wrong_path_executed,
        event.transient_loads,
        event.inflight_transient,
        outcome.defense,
        outcome.stall_cycles,
        tuple(sorted(outcome.breakdown.items())),
        outcome.invalidated_l1,
        outcome.invalidated_l2,
        outcome.restored_l1,
    )


def _round_record(core, obs, result, latency) -> dict:
    return {
        "latency": latency,
        "cycles": result.cycles,
        "instructions": result.instructions,
        "registers": tuple(sorted(result.registers.raw.items())),
        "squashes": tuple(_squash_key(e) for e in result.squashes),
        "timeline": tuple(
            (t.pc, t.dispatch, t.start, t.complete, t.level) for t in result.timeline
        ),
        "registry": json.dumps(obs.registry.to_dict(), sort_keys=True, default=str),
        "machine": machine_fingerprint(core),
        "stats": stats_fingerprint(core),
    }


def pin_round(record: dict) -> dict:
    """The golden pin of one round record."""
    pin = {name: record[name] for name in TIMING_FIELDS}
    hashed = repr(tuple(record[name] for name in HASHED_FIELDS))
    pin["sha256"] = hashlib.sha256(hashed.encode()).hexdigest()
    return pin


def _system_config(config: Optional[dict]) -> SystemConfig:
    config = config or {}
    line = 64

    def geo(name: str, sets: int, ways: int) -> CacheGeometry:
        return CacheGeometry(
            name=name, size_bytes=sets * ways * line, ways=ways, sets=sets,
            line_size=line,
        )

    return SystemConfig(
        core=CoreConfig(mshr_entries=config.get("mshr_entries", 16)),
        l1d=geo("L1D", config.get("l1_sets", 64), config.get("l1_ways", 8)),
        l2=geo("L2", config.get("l2_sets", 1024), config.get("l2_ways", 16)),
    )


def run_case(case: dict) -> List[dict]:
    """Execute ``case``; one round record per round."""
    obs = Observability()
    previous = set_default_obs(obs)
    try:
        if case.get("mode", "attack") == "attack":
            return _run_attack_case(case, obs)
        return _run_program_case(case, obs)
    finally:
        set_default_obs(previous)


def _run_attack_case(case, obs) -> List[dict]:
    attack = UnxpecAttack(
        params=GadgetParams(n_loads=case.get("n_loads", 1)),
        use_eviction_sets=case.get("use_eviction_sets", False),
        seed=case.get("seed", 0),
        noise=campaign_noise() if case.get("noise") else None,
        defense_factory=_DEFENSES[case.get("defense", "cleanup")],
    )
    attack.prepare()
    attack.core.record_timeline = True
    rows: List[dict] = []
    for bit in case["bits"]:
        # UnxpecAttack.sample discards the RunResult; take the same steps
        # it takes so both the sample latency and the raw result are
        # visible to the record.
        attack.gadget.set_secret(attack.hierarchy.dram, bit)
        result = attack.core.run(attack._round_program)
        latency = attack._extract(bit, result).latency
        rows.append(_round_record(attack.core, obs, result, latency))
    return rows


def _run_program_case(case, obs) -> List[dict]:
    program = build_program(case["program"])
    hierarchy = CacheHierarchy(
        config=_system_config(case.get("config")), seed=case.get("seed", 0)
    )
    defense = _DEFENSES[case.get("defense", "cleanup")](hierarchy)
    core = Core(
        hierarchy, defense, config=hierarchy.config.core, record_timeline=True
    )
    pokes = case.get("pokes", ())
    rows: List[dict] = []
    for index in range(case.get("rounds", 4)):
        if index < len(pokes):
            for addr, value in pokes[index]:
                hierarchy.dram.poke(addr, value)
        result = core.run(program, max_instructions=10_000)
        rows.append(_round_record(core, obs, result, result.cycles))
    return rows


def load_corpus() -> List[dict]:
    """Checked-in regression cases, sorted by filename for determinism."""
    cases = []
    for path in sorted(CORPUS_DIR.glob("*.json")):
        with open(path) as fh:
            case = json.load(fh)
        case.setdefault("name", path.stem)
        cases.append(case)
    return cases
