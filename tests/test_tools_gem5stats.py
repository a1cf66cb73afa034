"""Tests for repro.tools.gem5stats — the artifact-appendix workflow."""

import pytest

from repro.common.errors import ExperimentError
from repro.obs import Observability
from repro.tools.gem5stats import (
    SCHEME_CLEANUP,
    SCHEME_UNSAFE,
    artifact_overhead,
    parse_stats,
    run_gem5_style,
)
from repro.workloads import get_profile, synthesize


@pytest.fixture(scope="module")
def workload():
    return synthesize(get_profile("gcc_r"), instructions=3000, seed=1)


@pytest.fixture(scope="module")
def stats_pair(workload):
    unsafe = run_gem5_style(
        workload.program, SCHEME_UNSAFE, maxinst_count=2500, startinst_count=500
    )
    cleanup = run_gem5_style(
        workload.program, SCHEME_CLEANUP, maxinst_count=2500, startinst_count=500
    )
    return unsafe, cleanup


class TestRunGem5Style:
    def test_counters_sane(self, stats_pair):
        unsafe, cleanup = stats_pair
        assert unsafe.sim_ticks > unsafe.start_cycles > 0
        assert cleanup.sim_ticks >= unsafe.sim_ticks
        assert unsafe.extra_cleanup_squash_time == {}
        assert set(cleanup.extra_cleanup_squash_time) == {25, 30, 35, 45, 65}

    def test_extras_monotone_in_constant(self, stats_pair):
        _, cleanup = stats_pair
        extras = [cleanup.extra_cleanup_squash_time[c] for c in (25, 30, 35, 45, 65)]
        assert all(b >= a for a, b in zip(extras, extras[1:]))
        assert extras[0] > 0  # squashes happened in the window

    def test_unknown_scheme_rejected(self, workload):
        with pytest.raises(ExperimentError):
            run_gem5_style(workload.program, "Bogus", 100, 10)

    def test_window_validation(self, workload):
        with pytest.raises(ExperimentError):
            run_gem5_style(workload.program, SCHEME_UNSAFE, 100, 100)


#: (profile, instructions, seed, maxinst, startinst, scheme) ->
#: (sim_ticks, start_cycles, extraCleanupSquashTimeCycles by constant),
#: recorded when the counters were still derived from an event ring: the
#: derivation from the run record must not move a number.
PINNED = {
    ("gcc_r", 3000, 1, 2500, 500, SCHEME_UNSAFE): (1709, 423, {}),
    ("gcc_r", 3000, 1, 2500, 500, SCHEME_CLEANUP): (
        1785, 478, {25: 425, 30: 510, 35: 595, 45: 765, 65: 1105},
    ),
    ("mcf_r", 4000, 2, 3500, 700, SCHEME_UNSAFE): (3554, 572, {}),
    ("mcf_r", 4000, 2, 3500, 700, SCHEME_CLEANUP): (
        4600, 701, {25: 675, 30: 810, 35: 946, 45: 1256, 65: 1948},
    ),
}


class TestPinnedCounters:
    @pytest.mark.parametrize("key", sorted(PINNED), ids=lambda k: f"{k[0]}-{k[5]}")
    def test_counters_match_pins(self, key):
        profile, n, seed, maxinst, startinst, scheme = key
        program = synthesize(get_profile(profile), instructions=n, seed=seed).program
        stats = run_gem5_style(
            program, scheme, maxinst_count=maxinst, startinst_count=startinst
        )
        assert (
            stats.sim_ticks,
            stats.start_cycles,
            stats.extra_cleanup_squash_time,
        ) == PINNED[key]

    def test_shared_obs_on_real_size_run_matches_fresh_obs(self):
        # 86k committed instructions: more records than any fixed-size
        # buffer a shared Observability could have been built with.
        program = synthesize(get_profile("gcc_r"), instructions=90000, seed=0).program
        kwargs = dict(maxinst_count=80000, startinst_count=5000)
        fresh = run_gem5_style(program, SCHEME_CLEANUP, **kwargs)
        shared_obs = Observability()
        shared = run_gem5_style(program, SCHEME_CLEANUP, obs=shared_obs, **kwargs)
        assert (fresh.sim_ticks, fresh.start_cycles) == (54384, 3796)
        assert shared == fresh
        assert shared_obs.registry["core.instructions"].value() == 86142
        # A second run on the same obs still cross-checks (per-run deltas).
        assert run_gem5_style(program, SCHEME_CLEANUP, obs=shared_obs, **kwargs) == fresh


class TestRenderParse:
    def test_round_trip(self, stats_pair):
        _, cleanup = stats_pair
        text = cleanup.render()
        parsed = parse_stats(text)
        assert parsed["sim_ticks"] == cleanup.sim_ticks
        assert parsed["system.cpu.fetch.startCycles"] == cleanup.start_cycles
        key = "system.cpu.iew.lsq.thread0.extraCleanupSquashTimeCycles65"
        assert parsed[key] == cleanup.extra_cleanup_squash_time[65]

    def test_parse_rejects_garbage(self):
        with pytest.raises(ExperimentError):
            parse_stats("sim_ticks not_a_number")

    def test_parse_skips_comments(self):
        assert parse_stats("# hello\nsim_ticks 5\n") == {"sim_ticks": 5}


class TestArtifactCalculation:
    def test_no_const_overhead_small(self, stats_pair):
        unsafe, cleanup = stats_pair
        ratio = artifact_overhead(unsafe, cleanup)
        assert 1.0 <= ratio < 1.3  # plain CleanupSpec is cheap

    def test_const_overhead_grows(self, stats_pair):
        unsafe, cleanup = stats_pair
        r25 = artifact_overhead(unsafe, cleanup, constant=25)
        r65 = artifact_overhead(unsafe, cleanup, constant=65)
        assert r65 > r25 > artifact_overhead(unsafe, cleanup)

    def test_matches_direct_simulation_roughly(self, workload):
        """The appendix formula approximates a real ConstantTimeRollback run
        when both cover the same (whole-program) window."""
        from repro.cache import CacheHierarchy
        from repro.cpu import Core
        from repro.defense import ConstantTimeRollback, UnsafeBaseline

        total = len(workload.program)
        unsafe = run_gem5_style(workload.program, SCHEME_UNSAFE, total, 0)
        cleanup = run_gem5_style(workload.program, SCHEME_CLEANUP, total, 0)
        formula = artifact_overhead(unsafe, cleanup, constant=65) - 1.0

        def run(mk):
            h = CacheHierarchy(seed=0)
            return Core(h, mk(h)).run(workload.program, max_instructions=10_000_000)

        base = run(lambda h: UnsafeBaseline(h)).cycles
        direct = run(lambda h: ConstantTimeRollback(h, 65)).cycles / base - 1.0
        # The formula adds padding post-hoc (no second-order fetch effects,
        # no t3/t4 interaction); same ballpark is all it promises.
        assert abs(formula - direct) < max(0.15, 0.5 * direct)

    def test_missing_constant_rejected(self, stats_pair):
        unsafe, cleanup = stats_pair
        with pytest.raises(ExperimentError):
            artifact_overhead(unsafe, cleanup, constant=99)
