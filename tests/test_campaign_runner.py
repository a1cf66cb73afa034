"""Unit tests for the campaign engine's pieces: snapshot merging, cache
keys, outcome plumbing, and the report's timing columns."""

import json
import math
import time


from repro.campaign import (
    CampaignRunner,
    ResultCache,
    campaign_digest,
    code_version,
    merge_snapshots,
    snapshot_with_kinds,
)
from repro.experiments import registry
from repro.experiments.base import Experiment, ExperimentResult
from repro.experiments.report import experiment_timings, render_markdown, write_report
from repro.obs import Profiler, StatRegistry


class TestSnapshotMerge:
    def test_counters_and_gauges_sum(self):
        merged = merge_snapshots(
            [
                {"core.squashes": ("counter", 3), "l1d.misses": ("gauge", 10)},
                {"core.squashes": ("counter", 4), "l1d.misses": ("gauge", 5)},
            ]
        )
        assert merged["core.squashes"] == ("counter", 7)
        assert merged["l1d.misses"] == ("gauge", 15)

    def test_formulas_average(self):
        merged = merge_snapshots(
            [{"core.ipc": ("formula", 1.0)}, {"core.ipc": ("formula", 3.0)}]
        )
        assert merged["core.ipc"] == ("formula", 2.0)

    def test_disjoint_names_pass_through(self):
        merged = merge_snapshots(
            [{"a.x": ("counter", 1)}, {"b.y": ("counter", 2)}]
        )
        assert merged == {"a.x": ("counter", 1), "b.y": ("counter", 2)}

    def test_distribution_moments_pool_exactly(self):
        """Pooled count/total/min/max/mean/stddev equal the whole-sample stats."""
        shards = [[1.0, 2.0, 3.0], [10.0, 20.0], [5.0]]
        snapshots = []
        for samples in shards:
            reg = StatRegistry()
            dist = reg.distribution("defense.stall")
            for v in samples:
                dist.add(v)
            snapshots.append(snapshot_with_kinds(reg))

        whole = StatRegistry().distribution("defense.stall")
        for samples in shards:
            for v in samples:
                whole.add(v)

        kind, entry = merge_snapshots(snapshots)["defense.stall"]
        assert kind == "distribution"
        assert entry["count"] == whole.count
        assert entry["total"] == whole.total
        assert entry["min"] == whole.minimum
        assert entry["max"] == whole.maximum
        assert math.isclose(entry["mean"], whole.mean)
        assert math.isclose(entry["stddev"], whole.stddev)

    def test_merge_order_fixed_regardless_of_input_identity(self):
        """Same snapshots, same order -> byte-identical merge (float safety)."""
        snaps = [
            {"d": ("gauge", 0.1)},
            {"d": ("gauge", 0.2)},
            {"d": ("gauge", 0.3)},
        ]
        a = merge_snapshots([dict(s) for s in snaps])
        b = merge_snapshots([dict(s) for s in snaps])
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


class TestResultCacheUnit:
    def test_key_changes_with_every_config_axis(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        base = cache.key("fig3", quick=True, seed=0)
        assert cache.key("fig9", quick=True, seed=0) != base
        assert cache.key("fig3", quick=False, seed=0) != base
        assert cache.key("fig3", quick=True, seed=1) != base
        assert cache.key("fig3", quick=True, seed=0, extra={"x": 1}) != base
        assert cache.key("fig3", quick=True, seed=0) == base

    def test_code_version_is_stable_hex(self):
        assert code_version() == code_version()
        assert len(code_version()) == 64
        int(code_version(), 16)

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        key = cache.key("fig3", quick=True, seed=0)
        path = cache.put("fig3", key, {"result": {}})
        with open(path, "w") as fh:
            fh.write("{not json")
        assert cache.get("fig3", key) is None
        assert cache.misses == 1

    def test_result_json_round_trip(self):
        result = ExperimentResult(experiment_id="x", title="T", paper_claim="c")
        result.table("t", ["a", "b"]).add(1, "s")
        result.metric("m", 1.25)
        result.check("ok", True, "fine")
        hydrated = ExperimentResult.from_json(
            json.loads(json.dumps(result.to_json()))
        )
        assert hydrated.to_json() == result.to_json()


class _SleepExperiment(Experiment):
    """Does nothing but sleep ``seconds``; registered only inside a test."""

    seconds = 0.0

    def run(self, quick: bool = False, seed: int = 0) -> ExperimentResult:
        time.sleep(self.seconds)
        result = self.new_result()
        result.check("slept", True, f"{self.seconds}s")
        return result


class TestParentSideTimings:
    """The report's time column must come from the runner: worker Profiler
    phases are process-local and invisible after the fork, so the runner
    ships worker-side start/end stamps back with every task result."""

    IDS = ["fig1", "table1"]

    def test_runner_records_parent_wall_clock(self):
        profiler = Profiler()
        CampaignRunner(jobs=2).run(ids=self.IDS, quick=True, seed=0, profiler=profiler)
        timings = experiment_timings(profiler)
        for exp_id in self.IDS:
            assert exp_id in timings, exp_id
            assert timings[exp_id] > 0.0
            assert profiler.calls(f"experiment.{exp_id}") == 1

    def test_queued_experiment_reports_its_own_duration(self, monkeypatch):
        # Two slow experiments occupy both workers; the fast one waits
        # ~1 s in the pool queue and must not count that wait as its time.
        durations = {"slow_a": 1.0, "slow_b": 1.0, "fast": 0.05}
        for exp_id, seconds in durations.items():
            cls = type(exp_id, (_SleepExperiment,), {"id": exp_id, "seconds": seconds})
            monkeypatch.setitem(registry._REGISTRY, exp_id, cls)
        profiler = Profiler()
        outcomes = CampaignRunner(jobs=2).run(
            ids=list(durations), quick=True, seed=0, profiler=profiler
        )
        by_id = {o.experiment_id: o for o in outcomes}
        assert not any(o.failed for o in outcomes)
        assert 0.05 <= by_id["fast"].wall_seconds < 0.5
        assert experiment_timings(profiler)["fast"] == by_id["fast"].wall_seconds
        for exp_id in ("slow_a", "slow_b"):
            assert by_id[exp_id].wall_seconds >= 1.0
            assert by_id[exp_id].speedup <= 1.0

    def test_write_report_with_runner_emits_campaign_columns(self, tmp_path):
        out = tmp_path / "R.md"
        profiler = Profiler()
        cache = ResultCache(str(tmp_path / "cache"))
        runner = CampaignRunner(jobs=2, cache=cache)
        results = write_report(
            str(out), quick=True, seed=0, ids=self.IDS,
            profiler=profiler, runner=runner,
        )
        text = out.read_text()
        assert len(results) == len(self.IDS)
        assert "| time |" in text and "| speedup |" in text and "| cache |" in text
        assert " miss |" in text
        assert "Campaign cache: 0/2 hit (0%)." in text
        # Parent recorded a real wall-clock for each experiment.
        for exp_id in self.IDS:
            assert experiment_timings(profiler)[exp_id] > 0.0

        # Warm rerun flips the cache column to hits.
        warm = tmp_path / "R2.md"
        write_report(
            str(warm), quick=True, seed=0, ids=self.IDS,
            profiler=Profiler(), runner=CampaignRunner(jobs=2, cache=cache),
        )
        warm_text = warm.read_text()
        assert " hit |" in warm_text
        assert "Campaign cache: 2/2 hit (100%)." in warm_text

    def test_render_markdown_without_campaign_info_keeps_old_shape(self):
        result = ExperimentResult(experiment_id="x", title="T", paper_claim="c")
        result.check("ok", True, "fine")
        text = render_markdown([result], elapsed=1.0, timings={"x": 0.5})
        assert "| experiment | title | checks | time |" in text
        assert "speedup" not in text and "cache" not in text


class TestOutcomeMetadata:
    def test_shard_counts_and_digest(self):
        outcomes = CampaignRunner(jobs=1).run(ids=["fig3", "fig1"], quick=True, seed=0)
        by_id = {o.experiment_id: o for o in outcomes}
        assert by_id["fig3"].n_shards == 4  # quick: load counts 1, 2, 4, 8
        assert by_id["fig1"].n_shards == 1  # not shardable: whole-run task
        assert by_id["fig3"].worker_seconds > 0

        digest = campaign_digest(outcomes)
        assert set(digest) == {"fig3", "fig1"}
        assert digest["fig3"]["checks"] == "PPPP"
        assert digest["fig3"]["metrics"]["diff_1_load"] == 22.0
