"""Committing an epoch from its delta equals the full-cache scan.

``CacheHierarchy.commit_delta`` clears speculative marks by looking up
the epoch's recorded installs instead of visiting every way. The oracle
below is the scan it replaced: it clears every line of the epoch wherever
it sits. Two machines built from the same seed are driven through the
same random sequence of speculative and plain accesses, flushes,
invalidations, CleanupSpec squashes (restorations included) and evictions
on a tiny geometry, over several open epochs at once; at every commit one
machine uses the delta and the other the scan, and every way of both
levels must then hold the same ``(line_addr, speculative, epoch)``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import CacheHierarchy
from repro.common.config import CacheGeometry, SystemConfig
from repro.defense.base import SquashContext
from repro.defense.cleanupspec import CleanupSpec
from repro.obs import Observability

#: Room for four lines per level (thread 0 owns half the L1 ways) and
#: twelve candidate lines: most installs evict at one level or both.
TINY = SystemConfig(
    l1d=CacheGeometry("L1D", 4 * 2 * 64, ways=4, sets=2),
    l2=CacheGeometry("L2", 2 * 2 * 64, ways=2, sets=2),
)
MAX_OPEN = 3


def oracle_commit_epoch(cache, epoch: int) -> int:
    """The former full scan: clear ``epoch``'s marks in every way."""
    cleared = 0
    for ways in cache._sets:
        for line in ways:
            if line is not None and line.speculative and line.epoch == epoch:
                line.commit()
                cleared += 1
    return cleared


def slots(hierarchy) -> list:
    return [
        None if line is None else (line.line_addr, line.speculative, line.epoch)
        for cache in (hierarchy.l1, hierarchy.l2)
        for ways in cache._sets
        for line in ways
    ]


def addr_of(line_number: int) -> int:
    return 0x10000 + line_number * 64


lines = st.integers(0, 11)
spec = st.tuples(st.just("spec"), lines, st.integers(0, MAX_OPEN - 1), st.booleans())
ops = st.one_of(
    spec,
    spec,  # twice: windows should install more often than they end
    st.tuples(st.just("plain"), lines, st.booleans()),
    st.tuples(st.just("flush"), lines),
    st.tuples(st.just("invalidate"), st.sampled_from(["L1", "L2"]), lines),
    st.tuples(st.just("commit"), st.integers(0, MAX_OPEN - 1)),
    st.tuples(st.just("squash"), st.integers(0, MAX_OPEN - 1)),
)


class Twin:
    """One machine plus the epochs it has open."""

    def __init__(self, seed: int) -> None:
        self.h = CacheHierarchy(config=TINY, seed=seed, obs=Observability())
        self.defense = CleanupSpec(self.h)
        self.open: list = []

    def epoch(self, slot: int) -> int:
        if len(self.open) < MAX_OPEN and slot >= len(self.open):
            self.open.append(self.h.open_epoch())
        return self.open[slot % len(self.open)]

    def close(self, slot: int):
        if not self.open:
            return None
        return self.h.tracker.close_epoch(self.open.pop(slot % len(self.open)))

    def apply(self, op, cycle: int, use_delta: bool):
        """Apply ``op``; return the number of marks a commit cleared."""
        kind = op[0]
        h = self.h
        if kind == "spec":
            _, ln, slot, write = op
            h.access(addr_of(ln), cycle, is_write=write, speculative=True,
                     epoch=self.epoch(slot))
        elif kind == "plain":
            h.access(addr_of(op[1]), cycle, is_write=op[2])
        elif kind == "flush":
            h.flush_line(addr_of(op[1]))
        elif kind == "invalidate":
            (h.l1 if op[1] == "L1" else h.l2).invalidate(addr_of(op[2]))
        elif kind == "commit":
            delta = self.close(op[1])
            if delta is not None:
                if use_delta:
                    return h.commit_delta(delta)
                return oracle_commit_epoch(h.l1, delta.epoch) + oracle_commit_epoch(
                    h.l2, delta.epoch
                )
        elif kind == "squash":
            delta = self.close(op[1])
            if delta is not None:
                self.defense.on_squash(
                    SquashContext(
                        resolve_cycle=cycle,
                        delta=delta,
                        inflight_transient=0,
                        older_mem_complete=0,
                    )
                )
        return None


@given(seed=st.integers(0, 7), program=st.lists(ops, min_size=8, max_size=60))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_delta_commit_matches_full_scan(seed, program):
    fast, oracle = Twin(seed), Twin(seed)
    # Finish by committing whatever is still open, so every example commits.
    program = program + [("commit", 0)] * MAX_OPEN
    for cycle, op in enumerate(program):
        cleared_fast = fast.apply(op, cycle, use_delta=True)
        cleared_oracle = oracle.apply(op, cycle, use_delta=False)
        assert cleared_fast == cleared_oracle, (cycle, op)
        assert slots(fast.h) == slots(oracle.h), (cycle, op)
