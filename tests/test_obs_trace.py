"""Tests for repro.obs.profile (the wall-clock phase profiler)."""

import pytest

from repro.obs import Profiler


class TestProfiler:
    def test_phase_accumulates(self):
        p = Profiler()
        with p.phase("setup"):
            pass
        with p.phase("setup"):
            pass
        assert p.calls("setup") == 2
        assert p.seconds("setup") >= 0
        assert p.phases() == ["setup"]

    def test_record_and_total(self):
        p = Profiler()
        p.record("a", 1.5)
        p.record("b", 0.5)
        assert p.total_seconds == pytest.approx(2.0)
        assert p.to_dict()["a"] == {"seconds": 1.5, "calls": 1}

    def test_render_lists_slowest_first(self):
        p = Profiler()
        p.record("fast", 0.1)
        p.record("slow", 2.0)
        out = p.render()
        assert out.index("slow") < out.index("fast")

    def test_clear(self):
        p = Profiler()
        p.record("a", 1.0)
        p.clear()
        assert len(p) == 0
