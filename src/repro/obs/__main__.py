"""Render a ``--stats-out`` JSON dump: text listing, OpenMetrics, folded.

Usage::

    python -m repro.experiments fig3 --quick --stats-out stats.json
    python -m repro.obs stats.json                      # whole dump
    python -m repro.obs stats.json --prefix l1d         # one subtree
    python -m repro.obs stats.json --format openmetrics # Prometheus textfile
    python -m repro.obs stats.json --format folded      # flamegraph input

This is the one OpenMetrics/folded renderer: it types each metric from the
dump's ``kinds`` section (dotted name -> stat kind), so an offline render
of a campaign dump equals a render of the live merged snapshot.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional


#: Keys whose joint presence marks a distribution's moment dict; a group
#: of plain scalar stats never carries all three.
_MOMENT_KEYS = frozenset({"count", "total", "mean"})


def _is_moments(value: object) -> bool:
    return isinstance(value, dict) and _MOMENT_KEYS <= value.keys()


def _flatten(tree: dict, prefix: str = "") -> "list[tuple]":
    rows = []
    for key in sorted(tree):
        value = tree[key]
        name = f"{prefix}{key}"
        if _is_moments(value):
            for sub, scalar in value.items():
                rows.append((f"{name}::{sub}", scalar))
        elif isinstance(value, dict):
            rows.extend(_flatten(value, prefix=name + "."))
        else:
            rows.append((name, value))
    return rows


def _flatten_snapshot(tree: dict, prefix: str = "") -> dict:
    """Un-nest a stats tree back to ``{dotted name: scalar-or-moments}``.

    The inverse of :func:`repro.obs.nest_dotted` as far as the exporter
    needs: distribution moment dicts stay intact as leaf values.
    """
    flat = {}
    for key in sorted(tree):
        value = tree[key]
        name = f"{prefix}{key}"
        if _is_moments(value):
            flat[name] = value
        elif isinstance(value, dict):
            flat.update(_flatten_snapshot(value, prefix=name + "."))
        else:
            flat[name] = value
    return flat


def _format_cell(value: object) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float) and not value.is_integer():
        return f"{value:>14.6f}"
    if isinstance(value, (int, float)):
        return f"{int(value):>14}"
    # Non-numeric dump values (version strings, enum labels, ...) print
    # as their repr instead of crashing the whole listing.
    return repr(value)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Render a --stats-out JSON dump.",
    )
    parser.add_argument("path", help="stats JSON written by --stats-out")
    parser.add_argument(
        "--prefix", default="", help="only show stats under this dotted prefix"
    )
    parser.add_argument(
        "--format",
        choices=("text", "openmetrics", "folded"),
        default="text",
        help="text listing (default), OpenMetrics/Prometheus textfile, or "
        "folded-stack flamegraph input from the phase profile",
    )
    parser.add_argument(
        "--profile", action="store_true", help="also show the phase-timing table"
    )
    args = parser.parse_args(argv)

    with open(args.path) as fh:
        doc = json.load(fh)

    if args.format == "folded":
        from .export import profiler_to_folded

        sys.stdout.write(profiler_to_folded(doc.get("profile", {})))
        return 0

    stats = doc.get("stats", doc)
    if not isinstance(stats, dict) or not stats:
        print(f"{args.path}: dump has no 'stats' section", file=sys.stderr)
        return 1

    if args.format == "openmetrics":
        from .export import to_openmetrics

        flat = _flatten_snapshot(stats)
        if args.prefix:
            dotted = args.prefix.rstrip(".") + "."
            flat = {
                name: entry
                for name, entry in flat.items()
                if name == args.prefix or name.startswith(dotted)
            }
        sys.stdout.write(to_openmetrics(flat, doc.get("kinds")))
        return 0

    rows = _flatten(stats)
    if args.prefix:
        dotted = args.prefix if args.prefix.endswith(".") else args.prefix + "."
        rows = [
            r
            for r in rows
            if r[0] == args.prefix
            or r[0].startswith(dotted)
            or r[0].startswith(args.prefix + "::")
        ]
    if not rows:
        tops = ", ".join(sorted(stats)) or "(none)"
        print(
            f"no stats match prefix {args.prefix!r}; "
            f"top-level groups: {tops}",
            file=sys.stderr,
        )
        return 1
    width = max(len(name) for name, _ in rows)
    for name, value in rows:
        print(f"{name:<{width}}  {_format_cell(value)}")

    if args.profile and doc.get("profile"):
        print()
        phases = doc["profile"]
        pw = max(len(p) for p in phases)
        print(f"{'phase':<{pw}}  {'seconds':>10}  {'calls':>6}")
        for name in sorted(phases, key=lambda p: -phases[p]["seconds"]):
            entry = phases[name]
            print(f"{name:<{pw}}  {entry['seconds']:>10.3f}  {entry['calls']:>6}")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:  # e.g. `python -m repro.obs dump | head`
        sys.exit(0)
