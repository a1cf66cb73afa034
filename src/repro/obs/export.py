"""Exportable metric formats: OpenMetrics text and folded stacks.

Two renderers turn the in-process observability state into the formats
external tooling already speaks:

* :func:`to_openmetrics` — a Prometheus-textfile / OpenMetrics rendering
  of a :class:`~repro.obs.registry.StatRegistry` snapshot.  Dotted stat
  names become metric names with ``.`` → ``_`` under a ``repro_``
  namespace, and every sample carries the original dotted name as a
  ``stat`` label, which makes the mapping collision-proof and lets
  :func:`parse_openmetrics` round-trip the exact snapshot (values are
  printed with ``repr`` so floats survive bit-exactly).  Stat kinds map
  to metric types: counter → ``counter``, gauge/formula → ``gauge``,
  distribution → ``summary`` (count/sum/quantiles) plus ``moment``
  -labelled gauges for min/max/mean/stddev.

* :func:`profiler_to_folded` — the :class:`~repro.obs.profile.Profiler`
  phase table as folded stacks (``a;b;c <microseconds>``), the input
  format of ``flamegraph.pl`` and every speedscope-style viewer.  Dotted
  phase names become stack frames.

``python -m repro.obs <dump> --format openmetrics|folded`` renders a
``--stats-out`` dump through these, typing each metric from the dump's
``kinds`` section.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

from ..common.errors import ConfigError

#: Metric-name namespace; keeps repro metrics greppable on a shared node.
NAMESPACE = "repro"

#: Distribution entry keys exported as the summary's quantile series.
_QUANTILES = {"p50": "0.5", "p90": "0.9", "p99": "0.99"}

#: Distribution entry keys exported as moment-labelled gauge series.
_MOMENTS = ("min", "max", "mean", "stddev")


def metric_name(dotted: str) -> str:
    """``l1d.miss_rate`` → ``repro_l1d_miss_rate``."""
    return f"{NAMESPACE}_{dotted.replace('.', '_')}"


def _format_value(value: object) -> str:
    """Round-trippable sample value text (repr keeps float bits exact)."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, float)):
        return repr(value)
    raise ConfigError(f"non-numeric stat value {value!r} cannot be exported")


def _escape_label(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def to_openmetrics(
    snapshot: Mapping[str, object],
    kinds: Optional[Mapping[str, str]] = None,
    descs: Optional[Mapping[str, str]] = None,
) -> str:
    """Render a flat ``{dotted name: dump value}`` snapshot as OpenMetrics.

    ``snapshot`` is what :meth:`StatRegistry.snapshot` (or the campaign
    merge) produces: scalars for counters/gauges/formulas, moment dicts
    for distributions.  ``kinds`` (from :meth:`StatRegistry.kinds` or the
    campaign snapshot-with-kinds) selects the metric type; without it,
    dict entries render as summaries and scalars as untyped gauges.
    """
    kinds = kinds or {}
    descs = descs or {}
    lines: List[str] = []
    for name in sorted(snapshot):
        entry = snapshot[name]
        metric = metric_name(name)
        kind = kinds.get(name, "distribution" if isinstance(entry, dict) else "gauge")
        label = f'stat="{_escape_label(name)}"'
        desc = descs.get(name, "")
        if desc:
            lines.append(f"# HELP {metric} {_escape_label(desc)}")
        if isinstance(entry, dict):
            lines.append(f"# TYPE {metric} summary")
            lines.append(f"{metric}_count{{{label}}} {_format_value(entry['count'])}")
            lines.append(f"{metric}_sum{{{label}}} {_format_value(entry['total'])}")
            for key, quantile in _QUANTILES.items():
                lines.append(
                    f'{metric}{{{label},quantile="{quantile}"}} '
                    f"{_format_value(entry[key])}"
                )
            for moment in _MOMENTS:
                lines.append(
                    f'{metric}{{{label},moment="{moment}"}} '
                    f"{_format_value(entry[moment])}"
                )
        elif kind == "counter":
            lines.append(f"# TYPE {metric} counter")
            lines.append(f"{metric}_total{{{label}}} {_format_value(entry)}")
        else:  # gauge, formula, unknown scalar kinds
            lines.append(f"# TYPE {metric} gauge")
            lines.append(f"{metric}{{{label}}} {_format_value(entry)}")
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def registry_to_openmetrics(registry) -> str:
    """Convenience: render a live :class:`StatRegistry` directly."""
    descs = {name: registry[name].desc for name in registry.names()}
    return to_openmetrics(registry.snapshot(), registry.kinds(), descs)


def _parse_number(text: str) -> object:
    try:
        return int(text)
    except ValueError:
        return float(text)


def _parse_labels(text: str) -> Dict[str, str]:
    labels: Dict[str, str] = {}
    for part in text.split('",'):
        key, _, raw = part.partition('="')
        value = raw.rstrip('"')
        labels[key.strip()] = (
            value.replace("\\n", "\n").replace('\\"', '"').replace("\\\\", "\\")
        )
    return labels


_INVERSE_QUANTILES = {q: key for key, q in _QUANTILES.items()}


def parse_openmetrics(text: str) -> Tuple[Dict[str, object], Dict[str, str]]:
    """Parse :func:`to_openmetrics` output back to ``(snapshot, kinds)``.

    The inverse used by the round-trip tests and by downstream tooling
    that wants the snapshot without a Prometheus client: summaries
    reassemble into distribution moment dicts, ``_total`` samples into
    counters, plain samples into gauges.
    """
    snapshot: Dict[str, object] = {}
    kinds: Dict[str, str] = {}
    types: Dict[str, str] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line == "# EOF":
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 3 and parts[1] == "TYPE":
                types[parts[2]] = parts[3] if len(parts) > 3 else ""
            continue
        sample, _, value_text = line.rpartition(" ")
        metric, _, label_text = sample.partition("{")
        labels = _parse_labels(label_text.rstrip("}"))
        dotted = labels.get("stat")
        if dotted is None:
            raise ConfigError(f"sample without a stat label: {line!r}")
        value = _parse_number(value_text)
        base = metric
        for suffix in ("_total", "_count", "_sum"):
            if metric.endswith(suffix) and types.get(metric[: -len(suffix)]):
                base = metric[: -len(suffix)]
                break
        mtype = types.get(base, "gauge")
        if mtype == "summary":
            entry = snapshot.setdefault(dotted, {})
            kinds[dotted] = "distribution"
            if metric.endswith("_count"):
                entry["count"] = value
            elif metric.endswith("_sum"):
                entry["total"] = value
            elif "quantile" in labels:
                entry[_INVERSE_QUANTILES[labels["quantile"]]] = value
            elif "moment" in labels:
                entry[labels["moment"]] = value
        elif mtype == "counter":
            snapshot[dotted] = value
            kinds[dotted] = "counter"
        else:
            snapshot[dotted] = value
            kinds[dotted] = "gauge"
    return snapshot, kinds


def profiler_to_folded(profile: Mapping[str, dict]) -> str:
    """Render a profiler dump as folded stacks (flamegraph input).

    ``profile`` is :meth:`Profiler.to_dict` output (``{phase: {"seconds":
    s, "calls": n}}``) — dotted phase names become semicolon-separated
    stack frames, values are integer microseconds (flamegraph.pl wants
    integers; a microsecond floor loses nothing at experiment scale).
    """
    lines = []
    for name in sorted(profile):
        entry = profile[name]
        stack = name.replace(".", ";")
        lines.append(f"{stack} {int(round(entry['seconds'] * 1e6))}")
    return "\n".join(lines) + ("\n" if lines else "")
