"""Property test: the core's dispatch schedule obeys the ROB and the
dispatch width.

``Core.run`` models the reorder buffer as a bounded deque of commit cycles
rather than a per-cycle structure. Whatever the program, the recorded
timeline must show what a real ROB would enforce:

* commit is in order — the commit cycle of instruction *i* is the running
  max of ``complete`` over instructions 0..i, and it never decreases;
* instruction *i* dispatches no earlier than instruction *i − rob_entries*
  commits (its ROB entry is still occupied until then);
* at most ``dispatch_width`` instructions share a dispatch cycle.
"""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import CacheHierarchy
from repro.common.config import CoreConfig
from repro.cpu import Core
from repro.defense import CleanupSpec
from repro.isa import ProgramBuilder

REGS = [f"r{i}" for i in range(1, 6)]
BASE = 0x40000

_reg = st.sampled_from(REGS)
_inst = st.one_of(
    st.tuples(st.just("li"), _reg, st.integers(0, 1 << 12)),
    st.tuples(st.just("op"), st.sampled_from(["add", "xor", "mul", "div"]), _reg, _reg, _reg),
    st.tuples(st.just("load"), _reg, st.integers(0, 63)),
    st.tuples(st.just("store"), _reg, st.integers(0, 63)),
    st.tuples(st.just("fence")),
    st.tuples(st.just("nop")),
)


def _build(specs):
    """Straight-line program: loads/stores hit a small region off ``r9``."""
    b = ProgramBuilder("rob-prop")
    b.li("r9", BASE)
    for spec in specs:
        kind = spec[0]
        if kind == "li":
            b.li(spec[1], spec[2])
        elif kind == "op":
            b.op(spec[1], spec[2], spec[3], spec[4])
        elif kind == "load":
            b.load(spec[1], "r9", spec[2] * 64)
        elif kind == "store":
            b.store(spec[1], "r9", spec[2] * 64)
        elif kind == "fence":
            b.fence()
        else:
            b.nop()
    b.halt()
    return b.build()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    specs=st.lists(_inst, min_size=1, max_size=60),
    rob_entries=st.integers(2, 16),
    dispatch_width=st.integers(1, 6),
)
def test_timeline_respects_rob_and_dispatch_width(specs, rob_entries, dispatch_width):
    config = CoreConfig(rob_entries=rob_entries, dispatch_width=dispatch_width)
    h = CacheHierarchy(seed=0)
    core = Core(h, CleanupSpec(h), config=config, record_timeline=True)
    result = core.run(_build(specs))
    timeline = result.timeline
    assert [t.index for t in timeline] == list(range(len(specs) + 1))

    commits = []
    for t in timeline:
        commits.append(max(t.complete, commits[-1]) if commits else t.complete)
    assert all(a <= b for a, b in zip(commits, commits[1:]))
    # The run ends no earlier than its last in-order commit.
    assert result.cycles >= commits[-1]

    for i in range(rob_entries, len(timeline)):
        assert timeline[i].dispatch >= commits[i - rob_entries]

    per_cycle = Counter(t.dispatch for t in timeline)
    assert max(per_cycle.values()) <= dispatch_width
