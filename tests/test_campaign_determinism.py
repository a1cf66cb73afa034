"""Campaign runner determinism and cache-correctness tests.

The load-bearing contract of :mod:`repro.campaign`: tables, metrics, and
checks are bit-identical no matter how many workers execute the shards —
``--jobs 1`` runs in-process, ``--jobs 4`` forks a pool, and both must
produce byte-for-byte the same JSON.  The cache must serve exactly those
bytes back on a same-config rerun and must *miss* whenever the config
changes.
"""

import json

import pytest

from repro.campaign import CampaignRunner, ResultCache
from repro.experiments import get
from repro.experiments.base import ShardableExperiment

#: The representative experiments: a parameter sweep (fig3), a cheap
#: slice-merge (fig9), and a real multi-shard leakage campaign (fig10).
REPRESENTATIVE = ["fig3", "fig9", "fig10"]


def results_json(outcomes) -> str:
    """Canonical byte representation of every result's tables/metrics/checks."""
    return json.dumps(
        {o.experiment_id: o.result.to_json() for o in outcomes},
        sort_keys=True,
        default=str,
    )


def stats_json(outcomes) -> str:
    return json.dumps([o.stats for o in outcomes], sort_keys=True, default=str)


@pytest.fixture(scope="module")
def jobs1_runner():
    runner = CampaignRunner(jobs=1)
    runner.run(ids=REPRESENTATIVE, quick=True, seed=0)
    return runner


@pytest.fixture(scope="module")
def jobs4_runner():
    runner = CampaignRunner(jobs=4)
    runner.run(ids=REPRESENTATIVE, quick=True, seed=0)
    return runner


@pytest.fixture(scope="module")
def jobs1_outcomes(jobs1_runner):
    return jobs1_runner.last_outcomes


@pytest.fixture(scope="module")
def jobs4_outcomes(jobs4_runner):
    return jobs4_runner.last_outcomes


class TestJobsInvariance:
    def test_representative_experiments_are_shardable(self):
        for exp_id in REPRESENTATIVE:
            assert isinstance(get(exp_id), ShardableExperiment), exp_id

    def test_results_bit_identical_across_jobs(self, jobs1_outcomes, jobs4_outcomes):
        assert results_json(jobs1_outcomes) == results_json(jobs4_outcomes)

    def test_merged_stats_identical_across_jobs(self, jobs1_outcomes, jobs4_outcomes):
        assert stats_json(jobs1_outcomes) == stats_json(jobs4_outcomes)

    def test_runner_matches_direct_run(self, jobs1_outcomes):
        """The campaign path and Experiment.run() are the same computation."""
        for outcome in jobs1_outcomes:
            direct = get(outcome.experiment_id).run(quick=True, seed=0)
            assert json.dumps(direct.to_json(), sort_keys=True, default=str) == (
                json.dumps(outcome.result.to_json(), sort_keys=True, default=str)
            )

    def test_shard_plan_independent_of_jobs(self):
        for exp_id in REPRESENTATIVE:
            exp = get(exp_id)
            plan = exp.shard_plan(quick=True, seed=0)
            assert plan == exp.shard_plan(quick=True, seed=0)
            assert [s.index for s in plan] == list(range(len(plan)))


class TestObservabilityInvariance:
    """Canonical events are part of the determinism contract."""

    def test_canonical_events_bit_identical_across_jobs(
        self, jobs1_runner, jobs4_runner
    ):
        from repro.campaign import canonical_events

        e1 = json.dumps(canonical_events(jobs1_runner.last_events), sort_keys=True)
        e4 = json.dumps(canonical_events(jobs4_runner.last_events), sort_keys=True)
        assert e1 == e4

    def test_events_cover_every_planned_shard(self, jobs1_runner):
        events = jobs1_runner.last_events
        for exp_id in REPRESENTATIVE:
            plan = get(exp_id).shard_plan(quick=True, seed=0)
            indices = [s.index for s in plan]
            for kind in ("task.submit", "task.done"):
                shards = [
                    e["shard"]
                    for e in events
                    if e["event"] == kind and e["experiment"] == exp_id
                ]
                assert sorted(shards) == indices, (exp_id, kind)
            assert all(
                e["attempts"] == 1
                for e in events
                if e["event"] == "task.done" and e["experiment"] == exp_id
            )

    def test_live_events_cover_every_task(self, jobs1_runner):
        events = jobs1_runner.last_events
        kinds = [e["event"] for e in events]
        assert kinds[0] == "campaign.start" and kinds[-1] == "campaign.done"
        n_tasks = events[0]["tasks"]
        for wanted in ("task.submit", "task.start", "task.done"):
            assert kinds.count(wanted) == n_tasks, wanted
        assert all("t" in e and "seq" in e for e in events)
        assert [e["seq"] for e in events] == list(range(len(events)))


class TestCacheBehavior:
    IDS = ["fig3", "fig9"]

    def test_second_same_seed_run_hits(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        runner = CampaignRunner(jobs=1, cache=cache)
        cold = runner.run(ids=self.IDS, quick=True, seed=0)
        assert cache.hits == 0 and cache.misses == len(self.IDS)
        assert all(not o.cached for o in cold)

        warm = runner.run(ids=self.IDS, quick=True, seed=0)
        assert cache.hits == len(self.IDS)
        assert all(o.cached for o in warm)
        # The cache serves back the exact same tables/metrics/checks.
        assert results_json(cold) == results_json(warm)

    def test_changed_config_misses(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        runner = CampaignRunner(jobs=1, cache=cache)
        runner.run(ids=["fig9"], quick=True, seed=0)

        seed_changed = runner.run(ids=["fig9"], quick=True, seed=1)
        assert not seed_changed[0].cached
        quick_changed_key = cache.key("fig9", quick=False, seed=0)
        assert quick_changed_key != cache.key("fig9", quick=True, seed=0)

    def test_cached_stats_survive_round_trip(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        runner = CampaignRunner(jobs=1, cache=cache)
        cold = runner.run(ids=["fig3"], quick=True, seed=0)
        warm = runner.run(ids=["fig3"], quick=True, seed=0)
        assert warm[0].cached
        assert stats_json(cold) == stats_json(warm)

    def test_hits_and_misses_counted_by_cache_and_events(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        runner = CampaignRunner(jobs=1, cache=cache)
        runner.run(ids=self.IDS, quick=True, seed=0)  # all misses
        assert runner.last_events[-1]["cache_hits"] == 0
        runner.run(ids=self.IDS, quick=True, seed=0)  # all hits
        assert runner.last_events[-1]["event"] == "campaign.done"
        assert runner.last_events[-1]["cache_hits"] == len(self.IDS)
        assert (cache.hits, cache.misses) == (len(self.IDS), len(self.IDS))

    def test_cache_counters_never_stored_in_entries(self, tmp_path):
        from repro.obs import Observability, observe

        cache = ResultCache(str(tmp_path / "cache"))
        with observe(Observability()):
            CampaignRunner(jobs=1, cache=cache).run(
                ids=["fig9"], quick=True, seed=0
            )
        entry_path = next(
            str(tmp_path / "cache" / f)
            for f in sorted((tmp_path / "cache").iterdir())
            if f.suffix == ".json"
        )
        assert "campaign." not in open(entry_path).read()

    def test_cache_lookup_events_reflect_this_run(self, tmp_path):
        """A cold run submits every shard and hits nothing; a warm run
        submits nothing and reports one hit covering the whole plan."""
        cache = ResultCache(str(tmp_path / "cache"))
        runner = CampaignRunner(jobs=1, cache=cache)
        runner.run(ids=["fig9"], quick=True, seed=0)
        cold = [e["event"] for e in runner.last_events]
        plan = get("fig9").shard_plan(quick=True, seed=0)
        assert cold.count("task.submit") == len(plan)
        assert "task.cache_hit" not in cold

        runner.run(ids=["fig9"], quick=True, seed=0)
        assert "task.submit" not in [e["event"] for e in runner.last_events]
        (hit,) = [e for e in runner.last_events if e["event"] == "task.cache_hit"]
        assert hit["experiment"] == "fig9" and hit["shards"] == len(plan)

    def test_clear_empties_the_cache(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        runner = CampaignRunner(jobs=1, cache=cache)
        runner.run(ids=["fig9"], quick=True, seed=0)
        assert len(cache) == 1
        assert cache.clear() == 1
        assert len(cache) == 0

