"""Tests of the benchmark itself (not of the simulator).

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import measure  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def bench():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_names_are_well_formed(bench):
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert len(names) == len(set(names))


def test_workloads_match_the_runner(bench):
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(run.WORKLOADS)


def test_end_to_end_metrics_match_the_workloads(bench):
    listed = {m["name"] for m in bench["end_to_end"]}
    produced = {"setup_s", "peak_rss_mb", "pass_s_p90", "op_ms_p90"}
    assert listed == produced
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_per_layer_metrics_match_the_tracer(bench):
    from repro.experiments import registry

    listed = {m["name"] for m in bench["per_layer"]}
    in_process = set(tracing.layer_metrics(tracing.Tracer()))
    imports = {f"import.{p}.s" for p in measure.IMPORT_PREFIXES}
    experiments = {f"experiments.{i}.s" for i in registry.all_ids()}
    campaign = {n for n in listed if n.startswith("campaign.")}
    assert in_process | imports | experiments | campaign | {
        "trace.overhead_frac", "host.drift_frac"} == listed


def _originals():
    return [(owner, attr, owner.__dict__[attr]) for _, owner, attr in tracing._entry_points()]


def test_tracer_restores_every_entry_point():
    import workload_spec
    from repro.workloads.profiles import SPEC2017_PROFILES
    from repro.workloads.synth import synthesize

    program = synthesize(SPEC2017_PROFILES[0], instructions=500, seed=0).program
    before = _originals()
    with tracing.Tracer() as tracer:
        for owner, attr, original in before:
            assert owner.__dict__[attr] is not original
        workload_spec.sweep((0, [("p", program)]), [])
    assert [o for _, _, o in _originals()] == [o for _, _, o in before]
    assert tracer.timers["cpu.core"].calls == 3
    assert tracer.counts["insts"] > 0


def test_tracer_restores_after_an_exception():
    before = _originals()
    with pytest.raises(RuntimeError):
        with tracing.Tracer():
            raise RuntimeError("boom")
    assert [o for _, _, o in _originals()] == [o for _, _, o in before]


def test_self_time_excludes_nested_calls():
    tracer = tracing.Tracer()
    access = tracer._wrap("cache.access", lambda: time.sleep(0.002), None)
    mshr = tracer._wrap("memory.mshr.allocate", lambda: time.sleep(0.002), None)
    squash = tracer._wrap("defense.squash", lambda: mshr(), None)
    core = tracer._wrap("cpu.core", lambda: [access(), squash()], None)
    core()
    t = tracer.timers
    # Only direct children count: the allocation inside the squash is
    # already part of the squash's time.
    assert t["cpu.core"].child == pytest.approx(t["cache.access"].total + t["defense.squash"].total)
    assert t["defense.squash"].child == pytest.approx(t["memory.mshr.allocate"].total)
    assert 0 < t["cpu.core"].self_s < t["cpu.core"].total - 0.004
    # Only span points record spans; the squash span's parent is the core's.
    assert [(s[0], s[3]) for s in tracer.spans] == [("cpu.core", -1), ("defense.squash", 0)]
    assert all(end >= start for _, start, end, _ in tracer.spans)


def test_parse_importtime_counts_outermost_matches_only():
    # -X importtime prints a module after its children, two spaces per level.
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 |       scipy._lib",
        "import time:        20 |         30 |     scipy",
        "import time:         5 |          5 |     scipy.stats",
        "import time:       100 |        135 |   repro.analysis",
        "import time:        50 |        185 | repro.experiments.ablations",
        "import time:         7 |          7 | numpy",
    ])
    prefixes = ("scipy", "repro.analysis", "repro.experiments", "numpy", "absent")
    assert measure.parse_importtime(stderr, prefixes) == {
        "scipy": 35e-6, "repro.analysis": 135e-6, "repro.experiments": 185e-6,
        "numpy": 7e-6, "absent": 0.0}


def test_bare_directory_exits_nonzero(tmp_path):
    import shutil
    import subprocess

    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "spec", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
