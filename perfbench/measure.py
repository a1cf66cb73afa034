"""Shared measurement helpers for the perfbench runner.

Nothing here imports ``repro``: the set-up probes time a fresh interpreter's
import of the simulator, so the runner's own modules must stay light.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = ROOT / "perfbench"
OUT_DIR = BENCH_DIR / "out"
PINS_PATH = BENCH_DIR / "pins.json"

#: Module prefixes whose cumulative import time traced runs report.
IMPORT_PREFIXES = ("repro.analysis", "repro.experiments", "scipy", "numpy")
#: Every child process gets at most this long; the runner as a whole must
#: finish well inside the 180-second budget of one benchmark run.
CHILD_TIMEOUT_S = 150.0


def jobs() -> int:
    """The campaign's ``--jobs``: the CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def percentile(values: Sequence[float], pct: int) -> float:
    """Inclusive-method percentile (exact order statistic interpolation)."""
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def peak_rss_mb() -> float:
    """Peak RSS of this process."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_json(value: object) -> str:
    return sha256(json.dumps(value, sort_keys=True, separators=(",", ":")).encode())


@dataclass
class Child:
    """A finished child process."""

    code: int
    out: str
    err: str
    #: Peak RSS of the child and of every descendant it waited for.
    rss_mb: float


def run_child(cmd: List[str]) -> Child:
    """Run ``cmd`` from the checkout root in its own process group.

    The child is reaped with ``wait4`` to read its own peak RSS. Once it
    has exited, or after ``CHILD_TIMEOUT_S``, the whole group is killed:
    the campaign CLI forks a worker pool, and killing only the direct
    child could leave workers behind.
    """
    tmp = OUT_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    # The checkout's sources, and temporary files kept inside the checkout.
    env = dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(tmp))
    with tempfile.TemporaryFile("w+", dir=tmp) as out, \
            tempfile.TemporaryFile("w+", dir=tmp) as err:
        proc = subprocess.Popen(cmd, cwd=str(ROOT), env=env, stdout=out,
                                stderr=err, text=True, start_new_session=True)
        deadline = time.monotonic() + CHILD_TIMEOUT_S
        timed_out = False
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                timed_out = True
                os.killpg(proc.pid, signal.SIGKILL)
                pid, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.002)
        proc.returncode = os.waitstatus_to_exitcode(status)
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass  # the group is already empty
        if timed_out:
            raise RuntimeError(f"timed out after {CHILD_TIMEOUT_S:.0f}s: {' '.join(cmd)}")
        out.seek(0)
        err.seek(0)
        return Child(proc.returncode, out.read(), err.read(), usage.ru_maxrss / 1024.0)


def load_calibration_loop():
    """``calibration_loop`` from ``benchmarks/conftest.py``, imported as-is.

    It times a fixed pure-Python loop; running it before and after a
    workload shows how much the host's speed drifted during the run.
    """
    path = ROOT / "benchmarks" / "conftest.py"
    spec = importlib.util.spec_from_file_location("_perfbench_bench_conftest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.calibration_loop


def parse_importtime(stderr: str, prefixes: Iterable[str]) -> Dict[str, float]:
    """Cumulative import seconds per module prefix from ``-X importtime``.

    For each prefix, sums the cumulative time of the outermost imports whose
    module is the prefix or one of its submodules; nested matches are
    already inside their ancestor's cumulative time. ``importtime`` prints
    a module after its children, with two spaces of indent per level.
    """
    rows: List[Tuple[int, str, int]] = []
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue  # the header line
        name_field = parts[2]
        depth = (len(name_field) - len(name_field.lstrip(" ")) - 1) // 2
        rows.append((depth, name_field.strip(), int(parts[1])))
    totals: Dict[str, float] = {}
    for prefix in prefixes:
        def matches(mod: str) -> bool:
            return mod == prefix or mod.startswith(prefix + ".")

        total_us = 0
        # Walk parents-first (reverse order); the stack holds each open
        # ancestor's depth and whether it (or an ancestor) matched.
        stack: List[Tuple[int, bool]] = []
        for depth, mod, cumulative_us in reversed(rows):
            while stack and stack[-1][0] >= depth:
                stack.pop()
            inside = bool(stack) and stack[-1][1]
            hit = matches(mod)
            if hit and not inside:
                total_us += cumulative_us
            stack.append((depth, inside or hit))
        totals[prefix] = total_us / 1e6
    return totals


def load_pins() -> Dict[str, dict]:
    if not PINS_PATH.is_file():
        return {}
    return json.loads(PINS_PATH.read_text())


def write_pins(pins: Dict[str, dict]) -> None:
    PINS_PATH.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")


def pin_mismatches(expected: object, got: object, path: str = "pin") -> List[str]:
    """Human-readable differences between two (nested) pin dictionaries."""
    if isinstance(expected, dict) and isinstance(got, dict):
        problems = []
        for key in sorted(set(expected) | set(got)):
            problems += pin_mismatches(expected.get(key), got.get(key), f"{path}.{key}")
        return problems
    return [] if expected == got else [f"{path}: expected {expected!r}, got {got!r}"]


def src_present() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def add_src_to_path() -> None:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
