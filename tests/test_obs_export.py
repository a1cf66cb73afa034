"""Unit tests for :mod:`repro.obs.export` — OpenMetrics + folded stacks."""

import pytest

from repro.common.errors import ConfigError
from repro.obs import Observability, observe
from repro.obs.export import (
    metric_name,
    parse_openmetrics,
    profiler_to_folded,
    registry_to_openmetrics,
    to_openmetrics,
)
from repro.obs.registry import StatRegistry


def populated_registry() -> StatRegistry:
    reg = StatRegistry()
    reg.counter("core.cycles", "total cycles").inc(17945)
    reg.counter("l1d.misses").inc(3)
    reg.gauge("core.temperature").set(41.5)
    dist = reg.distribution("core.run.cycles")
    for v in (126, 2100, 2195):
        dist.add(v)
    cyc = reg["core.cycles"]
    inst = reg.counter("core.instructions")
    inst.inc(4642)
    reg.formula("core.ipc", lambda: inst.value() / max(1, cyc.value()), "IPC")
    return reg


class TestRendering:
    def test_metric_name_mapping(self):
        assert metric_name("l1d.miss_rate") == "repro_l1d_miss_rate"

    def test_counter_and_gauge_lines(self):
        text = registry_to_openmetrics(populated_registry())
        assert "# TYPE repro_core_cycles counter" in text
        assert 'repro_core_cycles_total{stat="core.cycles"} 17945' in text
        assert "# TYPE repro_core_temperature gauge" in text
        assert 'repro_core_temperature{stat="core.temperature"} 41.5' in text

    def test_distribution_renders_as_summary(self):
        text = registry_to_openmetrics(populated_registry())
        assert "# TYPE repro_core_run_cycles summary" in text
        assert 'repro_core_run_cycles_count{stat="core.run.cycles"} 3' in text
        assert 'quantile="0.5"' in text and 'moment="stddev"' in text

    def test_help_lines_from_descs(self):
        text = registry_to_openmetrics(populated_registry())
        assert "# HELP repro_core_cycles total cycles" in text

    def test_ends_with_eof_marker(self):
        assert registry_to_openmetrics(populated_registry()).endswith("# EOF\n")

    def test_non_numeric_value_rejected(self):
        with pytest.raises(ConfigError):
            to_openmetrics({"core.version": "abc"})


class TestRoundTrip:
    def test_full_registry_round_trips_bit_exactly(self):
        reg = populated_registry()
        snapshot, kinds = reg.snapshot(), reg.kinds()
        parsed, parsed_kinds = parse_openmetrics(
            to_openmetrics(snapshot, kinds)
        )
        assert parsed == snapshot
        # Formulas cannot be distinguished from gauges in the wire format.
        expected_kinds = {
            n: ("gauge" if k == "formula" else k) for n, k in kinds.items()
        }
        assert parsed_kinds == expected_kinds

    def test_float_values_survive_repr_exactly(self):
        snapshot = {"x.ratio": 0.2586402213109917}
        parsed, _ = parse_openmetrics(to_openmetrics(snapshot, {"x.ratio": "gauge"}))
        assert parsed["x.ratio"] == 0.2586402213109917

    def test_dotted_name_collisions_survive_via_stat_label(self):
        # a.b_c and a_b.c both mangle to repro_a_b_c; the stat label keeps
        # them apart.
        snapshot = {"a.b_c": 1, "a_b.c": 2}
        parsed, _ = parse_openmetrics(to_openmetrics(snapshot))
        assert parsed == snapshot

    def test_sample_without_stat_label_rejected(self):
        with pytest.raises(ConfigError):
            parse_openmetrics('repro_x{other="y"} 1\n# EOF\n')

    def test_campaign_merged_snapshot_round_trips(self):
        """The campaign merge path: merged worker snapshots round-trip."""
        from repro.campaign import CampaignRunner, merge_snapshots

        runner = CampaignRunner(jobs=1)
        runner.run(ids=["fig9"], quick=True, seed=0)
        merged = merge_snapshots([o.stats for o in runner.last_outcomes])
        snapshot = {n: e for n, (_, e) in merged.items()}
        kinds = {n: k for n, (k, _) in merged.items()}
        parsed, _ = parse_openmetrics(to_openmetrics(snapshot, kinds))
        assert parsed == snapshot


class TestFolded:
    def test_dotted_phases_become_stacks(self):
        profile = {
            "experiment.fig3": {"seconds": 0.065940, "calls": 1},
            "experiment.fig9": {"seconds": 0.001, "calls": 1},
        }
        text = profiler_to_folded(profile)
        assert "experiment;fig3 65940" in text
        assert "experiment;fig9 1000" in text

    def test_empty_profile_renders_empty(self):
        assert profiler_to_folded({}) == ""

    def test_live_profiler_dump(self):
        with observe(Observability()) as obs:
            with obs.profile("a.b"):
                pass
        text = profiler_to_folded(obs.profiler.to_dict())
        assert text.startswith("a;b ")
