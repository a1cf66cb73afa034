"""Tests for repro.tools.trace and the aggregate report writer."""


from repro.cache import CacheHierarchy
from repro.cpu import Core
from repro.defense import CleanupSpec, UnsafeBaseline
from repro.isa import ProgramBuilder
from repro.tools import render_squashes, render_timeline, summarize_run


def recorded_run(defense_cls=UnsafeBaseline, mispredict=False):
    h = CacheHierarchy(seed=0)
    core = Core(h, defense_cls(h), record_timeline=True)
    b = ProgramBuilder("trace-demo")
    b.li("r1", 0x8000)
    b.load("r2", "r1", 0)
    if mispredict:
        b.li("r3", 3)
        b.li("r4", 0x9000)
        b.flush("r4", 0)
        b.fence()
        b.load("r5", "r4", 0)
        b.branch("ge", "r3", "r5", "skip")
        b.load("r6", "r1", 64)
        b.label("skip")
    b.rdtscp("r30")
    b.halt()
    return core.run(b.build())


class TestRenderTimeline:
    def test_contains_instructions_and_levels(self):
        out = render_timeline(recorded_run())
        assert "li r1" in out
        assert "MEM" in out
        assert "=" in out

    def test_empty_timeline_message(self):
        h = CacheHierarchy(seed=0)
        core = Core(h, UnsafeBaseline(h))  # no recording
        b = ProgramBuilder("x")
        b.nop()
        b.halt()
        res = core.run(b.build())
        assert "timeline empty" in render_timeline(res)

    def test_window_clipping(self):
        res = recorded_run()
        out = render_timeline(res, start_cycle=10_000, end_cycle=20_000)
        assert "no instructions" in out

    def test_max_rows(self):
        res = recorded_run(mispredict=True)
        out = render_timeline(res, max_rows=2)
        assert len(out.splitlines()) == 3  # header + 2 rows

    def test_long_instruction_text_truncated(self):
        res = recorded_run()
        out = render_timeline(res, width=40)
        for line in out.splitlines()[1:]:
            assert len(line) < 120


class TestRenderSquashes:
    def test_no_squashes(self):
        assert "no mis-speculations" in render_squashes(recorded_run())

    def test_squash_with_breakdown(self):
        res = recorded_run(defense_cls=CleanupSpec, mispredict=True)
        out = render_squashes(res)
        assert "t5_rollback" in out
        assert str(res.squashes[0].branch_pc) in out


class TestSummarizeRun:
    def test_headline_counters(self):
        res = recorded_run(mispredict=True)
        out = summarize_run(res)
        assert "cycles" in out
        assert "squashes     : 1" in out


class TestReportWriter:
    def test_write_report(self, tmp_path):
        from repro.experiments.report import write_report

        path = tmp_path / "report.md"
        results = write_report(str(path), quick=True, ids=["table1", "fig3"])
        text = path.read_text()
        assert "# unXpec reproduction report" in text
        assert "`fig3`" in text
        assert "PASS" in text
        assert len(results) == 2

    def test_cli_report(self, tmp_path, capsys, monkeypatch):
        from repro.experiments import registry
        from repro.experiments.__main__ import main

        # Keep the CLI test fast: report over a two-experiment registry.
        monkeypatch.setattr(registry, "all_ids", lambda: ["table1", "fig3"])
        out = tmp_path / "r.md"
        code = main(["report", "--quick", "--out", str(out)])
        assert code == 0
        assert out.exists()
        assert "checks passed" in capsys.readouterr().out

    def test_render_markdown_flags_failures(self):
        from repro.experiments.base import ExperimentResult
        from repro.experiments.report import render_markdown

        bad = ExperimentResult(experiment_id="x", title="t", paper_claim="c")
        bad.check("broken", False, "nope")
        text = render_markdown([bad])
        assert "**FAIL**" in text
        assert "0/1" in text

