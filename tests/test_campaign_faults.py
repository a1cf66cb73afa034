"""Fault-tolerance tests for the campaign engine.

The contract under test (docs/campaign.md "Failure model"): a worker
exception never aborts a campaign.  The failing experiment degrades to a
``failed`` :class:`ExperimentOutcome` carrying the error and traceback,
every other experiment completes with bit-identical results, transient
faults retry with backoff, hangs die at ``task_timeout``, and the
lifecycle events (``task.retry``, ``task.failed``, ``campaign.done``)
record what happened.  All of it driven by the deterministic fault-injection plan in
:mod:`repro.campaign.faults`, under both ``jobs=1`` and pooled execution.
"""

import json
import os
import time

import pytest

from repro.campaign import (
    CampaignRunner,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    ResultCache,
    TaskTimeout,
    is_transient,
)
from repro.campaign.runner import ExperimentOutcome, TaskFailure
from repro.common.errors import ConfigError
from repro.experiments.base import ExperimentResult
from repro.experiments.report import experiment_timings, render_markdown, write_report
from repro.obs import Profiler

#: Cheap experiments: fig3 shards 4 ways in ~0.1s, fig1 is one whole-run task.
SHARDED, WHOLE = "fig3", "fig1"


def result_bytes(outcome) -> str:
    return json.dumps(outcome.result.to_json(), sort_keys=True, default=str)


def fail_all(exp_id: str, kind: str = "AssertionError") -> FaultPlan:
    return FaultPlan(specs=(FaultSpec(exp_id, None, None, kind),))


class TestFaultPlanParsing:
    def test_full_spec(self):
        plan = FaultPlan.parse("fig9:0:1:OSError")
        assert plan.specs == (FaultSpec("fig9", 0, 1, "OSError"),)
        assert bool(plan)

    def test_wildcards_and_default_kind(self):
        (spec,) = FaultPlan.parse("fig9:*:*").specs
        assert spec.shard_index is None and spec.attempt is None
        assert spec.kind == "RuntimeError"
        assert spec.matches("fig9", 3, 7)
        assert not spec.matches("fig3", 3, 7)

    def test_multiple_specs_either_separator(self):
        for text in ("a:0:1;b:1:2:hang", "a:0:1,b:1:2:hang"):
            plan = FaultPlan.parse(text)
            assert [s.experiment_id for s in plan.specs] == ["a", "b"]
            assert plan.specs[1].kind == "hang"

    def test_bad_kind_rejected(self):
        with pytest.raises(ConfigError):
            FaultPlan.parse("fig9:0:1:SegfaultError")

    def test_bad_coordinate_rejected(self):
        with pytest.raises(ConfigError):
            FaultPlan.parse("fig9:zero:1")
        with pytest.raises(ConfigError):
            FaultPlan.parse("fig9:0")  # too few fields

    def test_from_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULT_INJECT", raising=False)
        assert not FaultPlan.from_env()
        monkeypatch.setenv("REPRO_FAULT_INJECT", "fig9:0:1:OSError")
        assert FaultPlan.from_env().specs[0].kind == "OSError"

    def test_fire_raises_mapped_type(self):
        with pytest.raises(OSError):
            FaultSpec("x", 0, 1, "OSError").fire(hang_seconds=0)
        with pytest.raises(InjectedFault):
            FaultSpec("x", 0, 1).fire(hang_seconds=0)


class TestTransience:
    def test_classification(self):
        assert is_transient(OSError("io"))
        assert is_transient(TimeoutError("slow"))
        assert is_transient(TaskTimeout("budget"))
        assert is_transient(EOFError("pipe"))
        assert not is_transient(AssertionError("wrong"))
        assert not is_transient(ValueError("bad"))

    def test_broken_process_pool_by_name(self):
        class BrokenProcessPool(Exception):
            pass

        assert is_transient(BrokenProcessPool())


class TestFailureIsolation:
    """One failing experiment must not take down the campaign."""

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_campaign_completes_with_failed_outcome(self, jobs):
        runner = CampaignRunner(jobs=jobs, fault_plan=fail_all(SHARDED), retries=0)
        outcomes = runner.run(ids=[SHARDED, WHOLE], quick=True, seed=0)
        by_id = {o.experiment_id: o for o in outcomes}
        assert set(by_id) == {SHARDED, WHOLE}

        bad = by_id[SHARDED]
        assert bad.failed and not bad.cached
        assert "AssertionError" in bad.error
        assert "injected" in bad.error_traceback
        assert not bad.result.all_passed
        assert bad.result.checks[0].name == "campaign.execution"
        assert "4/4 task(s) failed" in bad.result.checks[0].detail
        assert bad.stats == {}

        good = by_id[WHOLE]
        assert not good.failed and good.result.all_passed

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_other_results_bit_identical_to_fault_free_run(self, jobs):
        clean = CampaignRunner(jobs=1).run(ids=[WHOLE], quick=True, seed=0)[0]
        faulty = CampaignRunner(jobs=jobs, fault_plan=fail_all(SHARDED), retries=0).run(
            ids=[SHARDED, WHOLE], quick=True, seed=0
        )
        good = {o.experiment_id: o for o in faulty}[WHOLE]
        assert result_bytes(good) == result_bytes(clean)

    def test_single_shard_failure_under_pool(self):
        """The acceptance scenario: one shard dies under --jobs 4; the
        campaign finishes, exactly that experiment fails with traceback
        detail, and the untouched experiment is bit-identical."""
        plan = FaultPlan(specs=(FaultSpec(SHARDED, 2, None, "AssertionError"),))
        outcomes = CampaignRunner(jobs=4, fault_plan=plan, retries=0).run(
            ids=[SHARDED, WHOLE], quick=True, seed=0
        )
        by_id = {o.experiment_id: o for o in outcomes}
        bad = by_id[SHARDED]
        assert bad.failed
        assert "1/4 task(s) failed" in bad.result.checks[0].detail
        assert "AssertionError" in bad.error_traceback
        clean = CampaignRunner(jobs=1).run(ids=[WHOLE], quick=True, seed=0)[0]
        assert result_bytes(by_id[WHOLE]) == result_bytes(clean)

    def test_failed_outcomes_are_not_cached(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        CampaignRunner(
            jobs=1, cache=cache, fault_plan=fail_all(SHARDED), retries=0
        ).run(ids=[SHARDED], quick=True, seed=0)
        assert len(cache) == 0
        # A fault-free rerun recomputes and succeeds from the same cache.
        healed = CampaignRunner(jobs=1, cache=cache).run(
            ids=[SHARDED], quick=True, seed=0
        )[0]
        assert not healed.failed and not healed.cached
        assert len(cache) == 1

    def test_profiler_records_failed_experiments_wall_time(self):
        profiler = Profiler()
        CampaignRunner(jobs=1, fault_plan=fail_all(SHARDED), retries=0).run(
            ids=[SHARDED, WHOLE], quick=True, seed=0, profiler=profiler
        )
        timings = experiment_timings(profiler)
        assert timings[SHARDED] > 0.0 and timings[WHOLE] > 0.0

    def test_failures_counted_in_outcome_and_campaign_done(self):
        runner = CampaignRunner(jobs=1, fault_plan=fail_all(SHARDED), retries=0)
        (outcome,) = runner.run(ids=[SHARDED], quick=True, seed=0)
        assert outcome.failed and outcome.retries == 0
        failed = [e for e in runner.last_events if e["event"] == "task.failed"]
        assert sorted(e["shard"] for e in failed) == [0, 1, 2, 3]
        done = runner.last_events[-1]
        assert done["event"] == "campaign.done"
        assert done["failed"] == 1 and done["retries"] == 0


class TestRetry:
    def test_transient_fault_retries_then_succeeds(self):
        plan = FaultPlan(specs=(FaultSpec(SHARDED, 1, 1, "OSError"),))
        outcome = CampaignRunner(
            jobs=1, fault_plan=plan, retries=1, retry_backoff=0.001
        ).run(ids=[SHARDED], quick=True, seed=0)[0]
        assert not outcome.failed
        assert outcome.retries == 1
        assert not any(name.startswith("campaign.") for name in outcome.stats)

    def test_retried_result_identical_to_clean_run(self):
        plan = FaultPlan(specs=(FaultSpec(SHARDED, 1, 1, "OSError"),))
        retried = CampaignRunner(
            jobs=4, fault_plan=plan, retries=1, retry_backoff=0.001
        ).run(ids=[SHARDED], quick=True, seed=0)[0]
        clean = CampaignRunner(jobs=1).run(ids=[SHARDED], quick=True, seed=0)[0]
        assert result_bytes(retried) == result_bytes(clean)

    def test_deterministic_failure_never_retries(self):
        outcome = CampaignRunner(
            jobs=1,
            fault_plan=fail_all(WHOLE, kind="AssertionError"),
            retries=3,
            retry_backoff=0.001,
        ).run(ids=[WHOLE], quick=True, seed=0)[0]
        assert outcome.failed
        assert outcome.retries == 0  # gave up on attempt 1

    def test_retries_exhausted_reports_attempt_count(self):
        outcome = CampaignRunner(
            jobs=1,
            fault_plan=fail_all(WHOLE, kind="OSError"),
            retries=2,
            retry_backoff=0.001,
        ).run(ids=[WHOLE], quick=True, seed=0)[0]
        assert outcome.failed
        assert "after 3 attempt(s)" in outcome.result.checks[0].detail
        assert outcome.retries == 2

    def test_env_injection_drives_jobs1_run(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_INJECT", f"{WHOLE}:-1:*:ValueError")
        outcome = CampaignRunner(jobs=1, retries=0).run(
            ids=[WHOLE], quick=True, seed=0
        )[0]
        assert outcome.failed and "ValueError" in outcome.error


class TestTimeout:
    def test_hanging_task_is_killed_at_budget(self):
        plan = FaultPlan(specs=(FaultSpec(SHARDED, 0, None, "hang"),))
        started = time.monotonic()
        outcome = CampaignRunner(
            jobs=1, fault_plan=plan, retries=0, task_timeout=0.3
        ).run(ids=[SHARDED], quick=True, seed=0)[0]
        assert time.monotonic() - started < 30  # not the 3600s hang
        assert outcome.failed
        assert "TaskTimeout" in outcome.error

    def test_hang_on_first_attempt_only_recovers_via_retry(self):
        plan = FaultPlan(specs=(FaultSpec(SHARDED, 0, 1, "hang"),))
        outcome = CampaignRunner(
            jobs=1, fault_plan=plan, retries=1, retry_backoff=0.001, task_timeout=0.3
        ).run(ids=[SHARDED], quick=True, seed=0)[0]
        assert not outcome.failed
        assert outcome.retries == 1


class TestFaultEvents:
    """The event stream records injected faults: retries with their error,
    the timeout budget that fired, and failed experiments."""

    @staticmethod
    def _task_events(runner, exp_id, shard):
        return [
            (e["event"], e)
            for e in runner.last_events
            if e.get("experiment") == exp_id and e.get("shard") == shard
        ]

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_retry_then_done_recorded(self, jobs):
        plan = FaultPlan(specs=(FaultSpec(SHARDED, 1, 1, "OSError"),))
        runner = CampaignRunner(
            jobs=jobs, fault_plan=plan, retries=1, retry_backoff=0.001
        )
        runner.run(ids=[SHARDED], quick=True, seed=0)
        events = self._task_events(runner, SHARDED, 1)
        kinds = [kind for kind, _ in events]
        assert kinds == ["task.submit", "task.start", "task.retry", "task.done"]
        retry, done = events[2][1], events[3][1]
        assert retry["attempt"] == 1 and "OSError" in retry["error"]
        assert done["attempts"] == 2
        for other in (0, 2, 3):
            (done,) = [e for k, e in self._task_events(runner, SHARDED, other)
                       if k == "task.done"]
            assert done["attempts"] == 1

    def test_timeout_failure_names_the_budget(self):
        plan = FaultPlan(specs=(FaultSpec(SHARDED, 0, None, "hang"),))
        runner = CampaignRunner(jobs=1, fault_plan=plan, retries=0, task_timeout=0.3)
        runner.run(ids=[SHARDED], quick=True, seed=0)
        (failed,) = [e for k, e in self._task_events(runner, SHARDED, 0)
                     if k == "task.failed"]
        assert failed["attempts"] == 1
        assert "TaskTimeout" in failed["error"]
        assert "--task-timeout=0.3s" in failed["error"]

    def test_failed_experiment_marked_in_events(self):
        runner = CampaignRunner(jobs=1, fault_plan=fail_all(SHARDED), retries=0)
        runner.run(ids=[SHARDED], quick=True, seed=0)
        (exp_done,) = [
            e for e in runner.last_events if e["event"] == "experiment.done"
        ]
        assert exp_done["experiment"] == SHARDED
        assert exp_done["status"] == "failed"
        assert runner.last_events[-1]["event"] == "campaign.done"
        assert runner.last_events[-1]["failed"] == 1

    def test_retry_and_failure_events_emitted(self):
        plan = FaultPlan(specs=(FaultSpec(SHARDED, 1, 1, "OSError"),))
        runner = CampaignRunner(
            jobs=1, fault_plan=plan, retries=1, retry_backoff=0.001
        )
        runner.run(ids=[SHARDED], quick=True, seed=0)
        retries = [e for e in runner.last_events if e["event"] == "task.retry"]
        assert len(retries) == 1
        assert retries[0]["shard"] == 1 and retries[0]["attempt"] == 1
        assert "OSError" in retries[0]["error"]

        failing = CampaignRunner(jobs=1, fault_plan=fail_all(SHARDED), retries=0)
        failing.run(ids=[SHARDED], quick=True, seed=0)
        failed = [e for e in failing.last_events if e["event"] == "task.failed"]
        assert len(failed) == 4
        assert all("AssertionError" in e["error"] for e in failed)
        done = [e for e in failing.last_events if e["event"] == "campaign.done"]
        assert done[-1]["failed"] == 1


class TestOutcomeAndReportSurface:
    def test_cached_outcome_speedup_is_neutral(self):
        outcome = ExperimentOutcome(
            experiment_id="x",
            result=ExperimentResult(experiment_id="x", title="t", paper_claim="c"),
            wall_seconds=0.001,  # cache-load time
            worker_seconds=8.0,
            cached=True,
        )
        assert outcome.speedup == 1.0

    def test_uncached_speedup_still_measures_overlap(self):
        outcome = ExperimentOutcome(
            experiment_id="x",
            result=ExperimentResult(experiment_id="x", title="t", paper_claim="c"),
            wall_seconds=2.0,
            worker_seconds=8.0,
        )
        assert outcome.speedup == 4.0

    def test_render_markdown_failed_row_and_details(self):
        result = ExperimentResult(experiment_id="x", title="T", paper_claim="c")
        result.check("campaign.execution", False, "boom")
        text = render_markdown(
            [result],
            timings={"x": 1.0},
            failures={"x": ("OSError('boom')", "Traceback ...\nOSError: boom")},
        )
        assert "**FAILED**" in text
        assert "## Failures" in text
        assert "<details>" in text and "OSError: boom" in text

    def test_render_markdown_without_failures_has_no_section(self):
        result = ExperimentResult(experiment_id="x", title="T", paper_claim="c")
        result.check("ok", True, "fine")
        text = render_markdown([result], timings={"x": 1.0})
        assert "## Failures" not in text and "FAILED" not in text

    def test_write_report_marks_failed_experiment(self, tmp_path):
        out = tmp_path / "R.md"
        runner = CampaignRunner(jobs=1, fault_plan=fail_all(WHOLE), retries=0)
        write_report(str(out), quick=True, seed=0, ids=[WHOLE, SHARDED], runner=runner)
        text = out.read_text()
        assert "**FAILED**" in text and "<details>" in text
        assert f"<code>{WHOLE}</code>" in text
        # The sharded experiment's row is untouched by the failure.
        assert f"| `{SHARDED}` |" in text and "PASS" in text


class TestTaskFailureShape:
    def test_task_failure_is_picklable(self):
        import pickle

        failure = TaskFailure(
            experiment_id="x",
            shard_index=2,
            error="OSError('x')",
            exc_type="OSError",
            traceback="tb",
            attempts=2,
            seconds=0.1,
        )
        assert pickle.loads(pickle.dumps(failure)) == failure


class TestCacheHygiene:
    def test_len_ignores_tmp_orphans(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        (tmp_path / "fig3.deadbeef.json.tmp").write_text("{")
        assert len(cache) == 0

    def test_clear_sweeps_tmp_orphans(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        key = cache.key("fig3", quick=True, seed=0)
        cache.put("fig3", key, {"result": {}})
        (tmp_path / "fig3.deadbeef.json.tmp").write_text("{")
        assert cache.clear() == 1  # orphans removed but not counted
        assert os.listdir(tmp_path) == []

    def test_clear_tolerates_concurrent_deletion(self, tmp_path, monkeypatch):
        cache = ResultCache(str(tmp_path))
        monkeypatch.setattr(os, "listdir", lambda _: ["ghost.json", "ghost.json.tmp"])
        assert cache.clear() == 0


class TestJsonPathFix:
    def test_single_experiment_keeps_path_verbatim(self):
        from repro.experiments.__main__ import _json_path

        assert _json_path("out/res.json", "fig3", multiple=False) == "out/res.json"

    def test_multiple_experiments_prefix_basename_only(self):
        from repro.experiments.__main__ import _json_path

        assert _json_path("out/res.json", "fig3", multiple=True) == os.path.join(
            "out", "fig3_res.json"
        )
        assert _json_path("res.json", "fig3", multiple=True) == "fig3_res.json"


class TestCliOptionRanges:
    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--jobs", "0"),
            ("--jobs", "-3"),
            ("--retries", "-1"),
            ("--task-timeout", "0"),
            ("--task-timeout", "-5"),
        ],
    )
    def test_out_of_range_is_usage_error(self, flag, value, capsys):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit) as exc:
            main(["fig9", "--quick", "--no-cache", flag, value])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err
