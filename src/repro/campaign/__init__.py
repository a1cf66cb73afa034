"""``repro.campaign`` — parallel, cached experiment campaign execution.

The paper's evaluation is thousands of independent secret-bit trials per
figure; this package shards them across ``multiprocessing`` workers with
per-shard deterministic RNG substreams, caches merged results on disk
keyed by (experiment, config, code version), and folds per-shard stat
registries and result tables back into one report.  ``--jobs 1`` and
``--jobs N`` produce bit-identical tables/metrics/checks.

Entry points::

    from repro.campaign import CampaignRunner, ResultCache

    runner = CampaignRunner(jobs=8, cache=ResultCache(".campaign-cache"))
    outcomes = runner.run(quick=True, seed=0)

or on the command line::

    python -m repro.experiments --jobs 8            # full cached report
    python -m repro.experiments all --jobs 4 --no-cache

See docs/campaign.md for the architecture and determinism contract.
"""

from __future__ import annotations

from typing import Dict, Sequence

from .cache import CACHE_SCHEMA, ResultCache, code_version
from .events import (
    EVENT_ORDER,
    CampaignEventLog,
    canonical_events,
    read_events,
)
from .faults import (
    FAULT_INJECT_ENV,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    TaskTimeout,
    is_transient,
)
from .merge import (
    StatSnapshot,
    merge_snapshots,
    snapshot_values,
    snapshot_with_kinds,
)
from .runner import CampaignRunner, ExperimentOutcome, TaskFailure
from .sharding import shard_seed, split_trials

__all__ = [
    "CACHE_SCHEMA",
    "CampaignEventLog",
    "CampaignRunner",
    "EVENT_ORDER",
    "ExperimentOutcome",
    "FAULT_INJECT_ENV",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "ResultCache",
    "StatSnapshot",
    "TaskFailure",
    "TaskTimeout",
    "campaign_digest",
    "canonical_events",
    "code_version",
    "is_transient",
    "merge_snapshots",
    "read_events",
    "shard_seed",
    "snapshot_values",
    "snapshot_with_kinds",
    "split_trials",
]


def campaign_digest(
    outcomes: Sequence[ExperimentOutcome], ndigits: int = 6
) -> Dict[str, dict]:
    """Compact fixed-seed regression digest of a campaign.

    Per experiment: the check pass/fail vector (as a ``"PF"`` string in
    check order) and every metric rounded to ``ndigits``.  Golden-value
    tests freeze this so runner refactors cannot silently change results.
    """
    digest: Dict[str, dict] = {}
    for outcome in outcomes:
        r = outcome.result
        digest[outcome.experiment_id] = {
            "checks": "".join("P" if c.passed else "F" for c in r.checks),
            "metrics": {
                name: round(float(value), ndigits)
                for name, value in sorted(r.metrics.items())
            },
        }
    return digest
