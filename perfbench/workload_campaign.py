"""``campaign``: the quick paper campaign, cold and then warm, as users run it.

Each pass is a fresh ``python -m repro.experiments all --quick --jobs N``
subprocess (N = the CPUs this process may use). The cold pass runs against
an empty cache directory; the warm reruns read that cache back. This is
the only workload where ``repro.campaign`` (pool, sharding, pickling,
cache writes and reads), the single-shard critical path, ``repro.analysis``
and the scipy import decide the time.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from measure import (IMPORT_PREFIXES, OUT_DIR, Child, jobs, median, parse_importtime,
                     percentile, run_child, sha256)

#: Warm reruns after the cold pass; each must reproduce its results.
WARM_RUNS = 3
#: What the CLI loads before it runs anything (the set-up probe times it).
IMPORTS = ("repro.experiments.__main__", "repro.campaign")
_JSON_SUFFIX = "_res.json"


def setup(seed: int) -> None:
    """Import every experiment module, as the CLI does before dispatch."""
    from repro.experiments import registry

    registry.all_ids()


@dataclass
class Pass:
    """One CLI pass, read back before its directory is deleted."""

    seconds: float
    results: Dict[str, bytes]
    events: List[dict]
    #: The ``--stats-out`` document, when the pass wrote one.
    stats: Optional[dict]
    child: Child

    def task_seconds(self) -> List[float]:
        """Worker-measured seconds of every finished task."""
        return [e["seconds"] for e in self.events if e["event"] == "task.done"]


class CampaignDir:
    """A private cache and output directory, deleted when the run ends."""

    def __init__(self) -> None:
        self.path = OUT_DIR / f"campaign-{os.getpid()}"

    def __enter__(self) -> "CampaignDir":
        shutil.rmtree(self.path, ignore_errors=True)
        self.path.mkdir(parents=True)
        return self

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.path, ignore_errors=True)

    def cli(self, tag: str, seed: int, cache: str, stats: bool = False,
            importtime: bool = False) -> Pass:
        """One CLI pass against cache directory ``cache``, with ``--events-out``."""
        out = self.path / tag
        out.mkdir()
        cmd = [sys.executable]
        if importtime:
            cmd += ["-X", "importtime"]
        cmd += ["-m", "repro.experiments", "all", "--quick", "--jobs", str(jobs()),
                "--seed", str(seed), "--cache-dir", str(self.path / cache),
                "--json", str(out / _JSON_SUFFIX.lstrip("_")),
                "--events-out", str(out / "events.jsonl")]
        if stats:
            cmd += ["--stats-out", str(out / "stats.json")]
        t0 = time.perf_counter()
        child = run_child(cmd)
        seconds = time.perf_counter() - t0
        # 1 means some paper check failed, which the results record; any
        # other code means the CLI itself broke.
        if child.code not in (0, 1):
            raise RuntimeError(f"campaign CLI exited {child.code}:\n{child.err[-2000:]}")
        results = {
            p.name[: -len(_JSON_SUFFIX)]: p.read_bytes()
            for p in sorted(out.glob("*" + _JSON_SUFFIX))
        }
        events = [json.loads(line) for line in
                  (out / "events.jsonl").read_text().splitlines() if line.strip()]
        doc = json.loads((out / "stats.json").read_text()) if stats else None
        return Pass(seconds, results, events, doc, child)


def check_summary(results: Dict[str, bytes]) -> Dict[str, object]:
    """Paper checks attempted and failed, and experiments that did not run."""
    attempted, failed_checks, failed_experiments = 0, [], []
    for exp_id, raw in sorted(results.items()):
        checks = json.loads(raw)["checks"]
        attempted += len(checks)
        for check in checks:
            if check["passed"]:
                continue
            if check["name"] == "campaign.execution":
                failed_experiments.append(exp_id)
            else:
                failed_checks.append(f"{exp_id}:{check['name']}")
    return {"attempted": attempted, "failed_checks": failed_checks,
            "failed_experiments": failed_experiments}


def pins_of(results: Dict[str, bytes]) -> Dict[str, object]:
    return {"experiments": {exp_id: sha256(raw) for exp_id, raw in sorted(results.items())}}


def compare(cold: Dict[str, bytes], other: Dict[str, bytes], label: str) -> List[str]:
    """Every experiment's result must be byte-identical to the cold pass."""
    if sorted(cold) != sorted(other):
        return [f"{label}: experiments {sorted(other)} differ from cold {sorted(cold)}"]
    return [f"{label}: {exp_id} result differs from the cold pass"
            for exp_id in sorted(cold) if cold[exp_id] != other[exp_id]]


def experiment_seconds(events: List[dict]) -> Dict[str, float]:
    """Worker seconds per experiment, summed over its ``task.done`` events."""
    per_exp: Dict[str, float] = {}
    for e in events:
        if e["event"] == "task.done":
            per_exp[e["experiment"]] = per_exp.get(e["experiment"], 0.0) + e["seconds"]
    return per_exp


def result_latencies(events: List[dict]) -> List[float]:
    """Seconds from the campaign's start to each experiment's result."""
    start = next(e["t"] for e in events if e["event"] == "campaign.start")
    return [e["t"] - start for e in events if e["event"] == "experiment.done"]


def measure(seed: int, seconds: float) -> dict:
    with CampaignDir() as work:
        started = time.perf_counter()
        colds: List[Pass] = []
        while not colds or time.perf_counter() - started < seconds:
            # Each cold pass gets its own empty cache directory.
            n = len(colds)
            colds.append(work.cli(f"cold{n}", seed, cache=f"cache{n}"))
        warm = [work.cli(f"warm{i}", seed, cache="cache0") for i in range(WARM_RUNS)]
    cold = colds[0]
    problems: List[str] = []
    for i, other in enumerate(colds[1:], 2):
        problems += compare(cold.results, other.results, f"cold pass {i}")
    for i, rerun in enumerate(warm, 1):
        problems += compare(cold.results, rerun.results, f"warm rerun {i}")
    latencies = [t for c in colds for t in result_latencies(c.events)]
    summary = check_summary(cold.results)
    n_failed = len(summary["failed_checks"]) + len(summary["failed_experiments"])
    detail = {
        "cold_s": (median([c.seconds for c in colds]), "s"),
        "cold_runs": (len(colds), "count"),
        "warm_s": (median([w.seconds for w in warm]), "s"),
        "warm_runs": (len(warm), "count"),
        "cold_peak_rss_mb": (median([c.child.rss_mb for c in colds]), "MB"),
        "results": (len(latencies), "count"),
        "result_ms_p50": (1e3 * median(latencies), "ms"),
        "checks_attempted": (summary["attempted"], "count"),
        "checks_failed_frac": (n_failed / max(1, summary["attempted"]), "frac"),
    }
    return {
        "e2e": {
            "peak_rss_mb": median([w.child.rss_mb for w in warm]),
            "pass_s_p90": percentile([c.seconds for c in colds], 90),
            "op_ms_p90": 1e3 * percentile(latencies, 90),
        },
        "detail": detail,
        "failed_checks": summary["failed_checks"] + summary["failed_experiments"],
        "pins": pins_of(cold.results),
        # One operation is one experiment's result in a cold pass.
        "attempted": len(cold.results) * len(colds),
        "failed": len(summary["failed_experiments"]) * len(colds),
        "problems": problems,
    }


def _stat(stats: dict, dotted: str) -> float:
    node = stats
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return 0
        node = node[part]
    return node if isinstance(node, (int, float)) else 0


def _sum_matching(stats: dict, predicate, prefix: str = "") -> float:
    total = 0
    for key, value in stats.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            total += _sum_matching(value, predicate, name + ".")
        elif isinstance(value, (int, float)) and predicate(name):
            total += value
    return total


def layers_from_artifacts(cold: Pass, warm: Pass, experiment_ids: List[str]) -> Dict[str, float]:
    """Per-layer metrics from the CLI's own ``--events-out``/``--stats-out``.

    The campaign's workers are forked processes, so the in-process tracer
    cannot see them; the CLI's artifacts are the only per-layer source.
    Per-task seconds come from ``task.done`` (worker-side duration), not
    from the report's per-experiment times, which under ``--jobs`` > 1 are
    measured from pool submission.
    """
    cold_events, warm_events = cold.events, warm.events
    per_exp = experiment_seconds(cold_events)
    task_s = cold.task_seconds()
    warm_profile = warm.stats["profile"]
    stats = cold.stats["stats"]

    layers: Dict[str, float] = {
        "campaign.tasks": len(task_s),
        "campaign.task_s_sum": sum(task_s),
        "campaign.task_s_max": max(task_s, default=0.0),
        "campaign.parallel_eff": sum(task_s) / (jobs() * cold.seconds),
        "campaign.retries": sum(1 for e in cold_events if e["event"] == "task.retry"),
        "campaign.failed_tasks": sum(1 for e in cold_events if e["event"] == "task.failed"),
        "campaign.cache_hits": sum(1 for e in warm_events if e["event"] == "task.cache_hit"),
        # Every warm experiment is a cache hit, so its profile entry is
        # the time to load and hydrate that entry.
        "campaign.cache_load_s": sum(
            entry["seconds"] for name, entry in warm_profile.items()
            if name.startswith("experiment.")
        ),
        # Simulated counts merged across workers (no host time: see above).
        "cpu.core.calls": _stat(stats, "core.runs"),
        "cpu.core.insts": _stat(stats, "core.instructions"),
        "cpu.core.sim_cycles": _stat(stats, "core.cycles"),
        "cpu.core.squashes": _stat(stats, "core.squashes"),
        "cache.access.calls": _stat(stats, "l1d.hits") + _stat(stats, "l1d.misses"),
        "cache.l1": _stat(stats, "l1d.hits"),
        "cache.l2": _stat(stats, "l2.hits"),
        "cache.mem": _stat(stats, "l2.misses"),
        "memory.mshr.allocs": _stat(stats, "mshr.allocations"),
        "defense.squash.calls": _stat(stats, "defense.squashes"),
        "defense.stall_cycles": _stat(stats, "defense.stall_cycles"),
        "defense.invalidated": _sum_matching(
            stats.get("defense", {}), lambda n: "invalidations" in n),
        "defense.restored": _sum_matching(
            stats.get("defense", {}), lambda n: n.endswith("restores")),
    }
    for exp_id in experiment_ids:
        layers[f"experiments.{exp_id}.s"] = per_exp.get(exp_id, 0.0)
    return layers


def trace(seed: int, experiment_ids: List[str]) -> dict:
    """Untraced cold+warm, then the same with ``--stats-out`` and import timing."""
    with CampaignDir() as work:
        plain_cold = work.cli("plain-cold", seed, cache="plain-cache")
        plain_warm = work.cli("plain-warm", seed, cache="plain-cache")
        cold = work.cli("cold", seed, cache="traced-cache", stats=True)
        warm = work.cli("warm", seed, cache="traced-cache", stats=True, importtime=True)
        layers = layers_from_artifacts(cold, warm, experiment_ids)
    for prefix, seconds in parse_importtime(warm.child.err, IMPORT_PREFIXES).items():
        layers[f"import.{prefix}.s"] = seconds
    problems = []
    for label, other in (("untraced warm", plain_warm), ("traced cold", cold),
                         ("traced warm", warm)):
        problems += compare(plain_cold.results, other.results, label)
    return {
        "layers": layers,
        "overhead": (cold.seconds + warm.seconds) / (plain_cold.seconds + plain_warm.seconds) - 1.0,
        "pins": pins_of(plain_cold.results),
        "attempted": len(plain_cold.results),
        "failed": len(check_summary(plain_cold.results)["failed_experiments"]),
        "problems": problems,
    }
