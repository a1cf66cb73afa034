"""Developer tooling: trace rendering, run summaries, gem5-style stats."""

from .gem5stats import (
    SCHEME_CLEANUP,
    SCHEME_UNSAFE,
    Gem5Stats,
    artifact_overhead,
    parse_stats,
    run_gem5_style,
)
from .trace import render_squashes, render_timeline, summarize_run

__all__ = [
    "render_timeline",
    "render_squashes",
    "summarize_run",
    "Gem5Stats",
    "run_gem5_style",
    "parse_stats",
    "artifact_overhead",
    "SCHEME_UNSAFE",
    "SCHEME_CLEANUP",
]
