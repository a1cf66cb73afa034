"""Execution-trace rendering: waterfalls and squash breakdowns.

Debugging a timing channel means staring at *when* things happened. These
helpers render a :class:`~repro.cpu.timing.RunResult` — the one per-run
record of instructions and squashes:

* :func:`render_timeline` — an ASCII waterfall of a run recorded with
  ``Core(record_timeline=True)``: one row per committed instruction, bars
  spanning dispatch→start→complete;
* :func:`render_squashes` — one line per mis-speculation with its
  wrong-path size and the defense's stall breakdown (T3/T4/T5…).

Example::

    h = CacheHierarchy()
    core = Core(h, CleanupSpec(h), record_timeline=True)
    result = core.run(program)
    print(render_timeline(result))
    print(render_squashes(result))
"""

from __future__ import annotations

from typing import List, Optional

from ..cpu.timing import RunResult

#: Bar glyphs: queued (dispatch→start) and executing (start→complete).
_QUEUE_CHAR = "."
_EXEC_CHAR = "="


def _scale(cycle: int, t0: int, t1: int, width: int) -> int:
    if t1 <= t0:
        return 0
    pos = (cycle - t0) * (width - 1) // (t1 - t0)
    return max(0, min(width - 1, pos))


def render_timeline(
    result: RunResult,
    width: int = 64,
    max_rows: Optional[int] = None,
    start_cycle: int = 0,
    end_cycle: Optional[int] = None,
) -> str:
    """ASCII waterfall of a run recorded with ``record_timeline=True``.

    ``width`` is the number of character columns the cycle axis maps onto;
    ``start_cycle``/``end_cycle`` clip the view window.
    """
    entries = result.timeline
    if not entries:
        return "(timeline empty — run the core with record_timeline=True)"
    t_end = end_cycle if end_cycle is not None else max(e.complete for e in entries)
    visible = [
        e for e in entries if e.complete >= start_cycle and e.dispatch <= t_end
    ]
    if max_rows is not None:
        visible = visible[:max_rows]
    if not visible:
        return "(no instructions in the requested window)"

    label_width = max(len(e.text) for e in visible)
    label_width = min(label_width, 28)
    header = (
        f"{'idx':>4} {'inst':<{label_width}} "
        f"|{str(start_cycle):<{width // 2 - 1}}{str(t_end):>{width - width // 2 - 1}}|"
    )
    lines: List[str] = [header]
    for e in visible:
        row = [" "] * width
        d = _scale(max(e.dispatch, start_cycle), start_cycle, t_end, width)
        s = _scale(max(e.start, start_cycle), start_cycle, t_end, width)
        c = _scale(min(e.complete, t_end), start_cycle, t_end, width)
        for i in range(d, s):
            row[i] = _QUEUE_CHAR
        for i in range(s, c + 1):
            row[i] = _EXEC_CHAR
        level = f" {e.level}" if e.level else ""
        text = e.text if len(e.text) <= label_width else e.text[: label_width - 1] + "~"
        lines.append(f"{e.index:>4} {text:<{label_width}} |{''.join(row)}|{level}")
    return "\n".join(lines)


def render_squashes(result: RunResult) -> str:
    """One line per mis-speculation with the defense's stage breakdown."""
    if not result.squashes:
        return "(no mis-speculations)"
    lines = [
        f"{'pc':>5} {'resolve':>8} {'squash':>7} {'resume':>7} "
        f"{'wp-inst':>7} {'loads':>5} {'stall':>5}  breakdown"
    ]
    for e in result.squashes:
        stages = ", ".join(f"{k}={v}" for k, v in e.outcome.breakdown.items() if v)
        lines.append(
            f"{e.branch_pc:>5} {e.resolve_cycle:>8} {e.squash_cycle:>7} "
            f"{e.fetch_resume:>7} {e.wrong_path_executed:>7} "
            f"{e.transient_loads:>5} {e.outcome.stall_cycles:>5}  "
            f"[{stages or 'none'}]"
        )
    return "\n".join(lines)


def summarize_run(result: RunResult) -> str:
    """Headline counters of a run."""
    lines = [
        f"program      : {result.program_name}",
        f"cycles       : {result.cycles}",
        f"instructions : {result.instructions}",
        f"IPC          : {result.instructions / max(1, result.cycles):.2f}",
        f"squashes     : {result.mispredictions}",
        f"defense stall: {result.total_defense_stall} cycles",
    ]
    if result.noise_event_cycles:
        lines.append(f"noise events : {result.noise_event_cycles} cycles")
    return "\n".join(lines)
