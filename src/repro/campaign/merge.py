"""Folding per-shard observability snapshots back into one view.

Workers cannot ship :class:`~repro.obs.registry.StatRegistry` objects
across process boundaries (gauges hold closures over live components), so
each task returns a *snapshot with kinds* — the plain
``{name: dump value}`` mapping plus ``{name: kind}`` — and the parent
merges them here.

Merge rules, applied in shard-index order so floating-point results are
independent of worker count:

* ``counter`` / ``gauge`` — sum (gauges are pull-sums of component
  counters, so summing across shards is the campaign-wide aggregate);
* ``distribution`` — exact pooled count / total / min / max / mean /
  stddev; percentiles are count-weighted means of the shard percentiles
  (approximate, and documented as such in docs/campaign.md);
* ``formula`` — arithmetic mean across shards (a derived ratio such as
  IPC cannot be recovered exactly from dump values alone).
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

from ..obs import StatRegistry

#: A picklable registry dump: {name: (kind, entry)}.
StatSnapshot = Dict[str, Tuple[str, object]]

_PERCENTILE_KEYS = ("p50", "p90", "p99")


def snapshot_with_kinds(registry: StatRegistry) -> StatSnapshot:
    """Serialize a registry into the picklable merge format."""
    kinds = registry.kinds()
    return {
        name: (kinds[name], entry) for name, entry in registry.snapshot().items()
    }


def _merge_distributions(entries: Sequence[dict]) -> dict:
    counts = [e["count"] for e in entries]
    total_count = sum(counts)
    if total_count == 0:
        return dict(entries[0])
    total = sum(e["total"] for e in entries)
    mean = total / total_count
    # Pooled sample variance from per-shard (n, mean, stddev) via the
    # standard M2 combination; shards with n < 2 contribute no M2 term.
    m2 = 0.0
    for e in entries:
        n = e["count"]
        if n >= 2:
            m2 += e["stddev"] ** 2 * (n - 1)
        if n >= 1:
            m2 += n * (e["mean"] - mean) ** 2
    stddev = math.sqrt(m2 / (total_count - 1)) if total_count >= 2 else 0.0
    merged = {
        "count": total_count,
        "total": total,
        "min": min(e["min"] for e in entries if e["count"]),
        "max": max(e["max"] for e in entries if e["count"]),
        "mean": mean,
        "stddev": stddev,
    }
    for key in _PERCENTILE_KEYS:
        merged[key] = (
            sum(e[key] * e["count"] for e in entries if e["count"]) / total_count
        )
    return merged


def merge_snapshots(snapshots: Sequence[StatSnapshot]) -> StatSnapshot:
    """Fold task snapshots (in shard order) into one campaign-wide snapshot."""
    merged: Dict[str, Tuple[str, List[object]]] = {}
    for snap in snapshots:
        for name, (kind, entry) in snap.items():
            if name in merged:
                prev_kind, entries = merged[name]
                if prev_kind == kind:
                    entries.append(entry)
                # Mismatched kinds across shards: keep the first sighting.
            else:
                merged[name] = (kind, [entry])

    out: StatSnapshot = {}
    for name, (kind, entries) in merged.items():
        if kind == "distribution":
            out[name] = (kind, _merge_distributions(entries))
        elif kind == "formula":
            out[name] = (kind, sum(entries) / len(entries))
        else:  # counter, gauge, unknown scalar kinds
            out[name] = (kind, sum(entries))
    return out


def snapshot_values(snapshot: StatSnapshot) -> Dict[str, object]:
    """Drop the kind tags: plain ``{name: entry}`` for nesting/dumping."""
    return {name: entry for name, (_, entry) in snapshot.items()}
