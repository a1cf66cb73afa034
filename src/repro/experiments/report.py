"""Aggregate report writer: every experiment, one markdown document.

``python -m repro.experiments report [--quick] [--out PATH]`` runs the
entire registry and writes a single markdown file with a summary
check-matrix followed by each experiment's full tables — the file a
reviewer would diff against the paper. Per-experiment wall-clock is
measured with an :class:`~repro.obs.Profiler` (pass one in to share it
with a wider observability scope, e.g. the CLI's ``--stats-out``).
"""

from __future__ import annotations

import time
from typing import List, Mapping, Optional, Sequence

from ..obs import Profiler
from . import registry
from .base import ExperimentResult

#: Profiler phase prefix for one experiment run.
_PHASE_PREFIX = "experiment."


def run_all(
    quick: bool = False,
    seed: int = 0,
    ids: Optional[Sequence[str]] = None,
    profiler: Optional[Profiler] = None,
) -> List[ExperimentResult]:
    """Run the requested experiments (default: all) and return results.

    When a ``profiler`` is given, each run is timed under the phase
    ``experiment.<id>``.
    """
    results = []
    for exp_id in ids or registry.all_ids():
        exp = registry.get(exp_id)
        if profiler is not None:
            with profiler.phase(_PHASE_PREFIX + exp_id):
                results.append(exp.run(quick=quick, seed=seed))
        else:
            results.append(exp.run(quick=quick, seed=seed))
    return results


def experiment_timings(profiler: Profiler) -> Mapping[str, float]:
    """Extract ``{experiment_id: seconds}`` from a profiler's phases."""
    return {
        name[len(_PHASE_PREFIX) :]: profiler.seconds(name)
        for name in profiler.phases()
        if name.startswith(_PHASE_PREFIX)
    }


def render_markdown(
    results: Sequence[ExperimentResult],
    elapsed: float = 0.0,
    timings: Optional[Mapping[str, float]] = None,
    cache_hits: Optional[Mapping[str, bool]] = None,
    speedups: Optional[Mapping[str, float]] = None,
    failures: Optional[Mapping[str, Sequence[str]]] = None,
) -> str:
    """Render a combined markdown report.

    ``timings`` (``{experiment_id: seconds}``, wall clock) adds a time
    column to the summary matrix; campaign runs additionally pass
    ``speedups`` (worker-seconds / wall-seconds ratio) and
    ``cache_hits`` for their own columns.  ``failures`` maps experiment
    ids whose campaign execution failed to ``(error, traceback)`` pairs;
    those rows render as **FAILED** and the tracebacks land in a
    collapsible section after the summary matrix.
    """
    failures = failures or {}
    total = sum(len(r.checks) for r in results)
    passed = sum(1 for r in results for c in r.checks if c.passed)
    with_time = timings is not None
    with_speedup = speedups is not None
    with_cache = cache_hits is not None
    header = "| experiment | title | checks |"
    rule = "|---|---|---|"
    for enabled, column in (
        (with_time, " time |"),
        (with_speedup, " speedup |"),
        (with_cache, " cache |"),
    ):
        if enabled:
            header += column
            rule += "---|"
    lines = [
        "# unXpec reproduction report",
        "",
        f"{len(results)} experiments, {passed}/{total} paper-vs-measured checks passed"
        + (f" ({elapsed:.0f}s)." if elapsed else "."),
        "",
    ]
    if with_cache and cache_hits:
        hits = sum(1 for hit in cache_hits.values() if hit)
        lines.append(
            f"Campaign cache: {hits}/{len(cache_hits)} hit "
            f"({100 * hits // len(cache_hits)}%)."
        )
        lines.append("")
    lines.extend([header, rule])
    for r in results:
        ok = sum(1 for c in r.checks if c.passed)
        if r.experiment_id in failures:
            status = "**FAILED**"
        else:
            status = "PASS" if r.all_passed else "**FAIL**"
        row = f"| `{r.experiment_id}` | {r.title} | {ok}/{len(r.checks)} {status} |"
        if with_time:
            secs = timings.get(r.experiment_id)
            row += f" {secs:.1f}s |" if secs is not None else " — |"
        if with_speedup:
            cached = cache_hits is not None and cache_hits.get(r.experiment_id)
            ratio = speedups.get(r.experiment_id)
            row += f" {ratio:.1f}x |" if ratio is not None and not cached else " — |"
        if with_cache:
            hit = cache_hits.get(r.experiment_id)
            row += " hit |" if hit else (" miss |" if hit is not None else " — |")
        lines.append(row)
    lines.append("")
    if failures:
        lines.append("## Failures")
        lines.append("")
        for r in results:
            if r.experiment_id not in failures:
                continue
            error, trace = failures[r.experiment_id]
            lines.append("<details>")
            lines.append(f"<summary><code>{r.experiment_id}</code> — {error}</summary>")
            lines.append("")
            lines.append("```")
            lines.append(str(trace).rstrip())
            lines.append("```")
            lines.append("")
            lines.append("</details>")
            lines.append("")
    for r in results:
        lines.append("---")
        lines.append("")
        lines.append("```")
        lines.append(r.render())
        lines.append("```")
        lines.append("")
    return "\n".join(lines)


def write_report(
    path: str,
    quick: bool = False,
    seed: int = 0,
    ids: Optional[Sequence[str]] = None,
    profiler: Optional[Profiler] = None,
    runner=None,
) -> List[ExperimentResult]:
    """Run experiments and write the markdown report to ``path``.

    With a :class:`~repro.campaign.CampaignRunner` as ``runner``, the
    experiments execute through the campaign engine (sharded, cached) and
    the summary matrix gains speedup and cache-hit columns.  Timings are
    wall clock either way; under the campaign engine they come from the
    runner's worker-side stamps (a campaign worker's process-local
    profiler cannot be read from here).
    """
    profiler = profiler if profiler is not None else Profiler()
    started = time.perf_counter()
    if runner is not None:
        outcomes = runner.run(ids=ids, quick=quick, seed=seed, profiler=profiler)
        results = [o.result for o in outcomes]
        text = render_markdown(
            results,
            elapsed=time.perf_counter() - started,
            timings=experiment_timings(profiler),
            cache_hits={o.experiment_id: o.cached for o in outcomes},
            speedups={o.experiment_id: o.speedup for o in outcomes},
            failures={
                o.experiment_id: (o.error, o.error_traceback)
                for o in outcomes
                if o.failed
            },
        )
    else:
        results = run_all(quick=quick, seed=seed, ids=ids, profiler=profiler)
        text = render_markdown(
            results,
            elapsed=time.perf_counter() - started,
            timings=experiment_timings(profiler),
        )
    with open(path, "w") as fh:
        fh.write(text)
    return results
