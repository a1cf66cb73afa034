"""Observability overhead benchmarks.

The acceptance bar for `repro.obs`: an attached `Observability()` (the
stat registry and profiler) must add < 15% wall-clock to a default
`Core.run` on the synthetic workload the micro-benchmarks use. These
benchmarks time the instrumented run next to the bare run, and one plain
(non-timed) test asserts the bound directly on min-of-N measurements.
"""

import time

from repro.cache import CacheHierarchy
from repro.cpu import Core
from repro.defense import CleanupSpec
from repro.obs import Observability
from repro.workloads import get_profile, synthesize


def _workload():
    return synthesize(get_profile("gcc_r"), instructions=3000, seed=0)


def _run_bare(program):
    h = CacheHierarchy(seed=0)
    return Core(h, CleanupSpec(h)).run(program, max_instructions=10_000_000)


def _run_observed(program):
    obs = Observability()
    h = CacheHierarchy(seed=0, obs=obs)
    core = Core(h, CleanupSpec(h), obs=obs)
    return core.run(program, max_instructions=10_000_000)


def test_workload_bare(benchmark):
    program = _workload().program
    result = benchmark.pedantic(lambda: _run_bare(program), rounds=3, iterations=1)
    assert result.stats is None


def test_workload_observed(benchmark):
    program = _workload().program
    result = benchmark.pedantic(lambda: _run_observed(program), rounds=3, iterations=1)
    assert result.stats["core"]["instructions"] == result.instructions


def test_observed_overhead_under_budget():
    """Instrumentation stays under the 15% wall-clock bar.

    Min-of-N is robust to scheduler noise: the fastest observed run is the
    closest estimate of the true cost on a busy machine.
    """
    program = _workload().program

    def timed(fn):
        started = time.perf_counter()
        fn()
        return time.perf_counter() - started

    # warm up once each so neither side pays first-call cache cost, then
    # alternate measurements so both sides see the same machine conditions
    _run_bare(program)
    _run_observed(program)
    bare = observed = float("inf")
    for _ in range(20):
        bare = min(bare, timed(lambda: _run_bare(program)))
        observed = min(observed, timed(lambda: _run_observed(program)))

    overhead = observed / bare - 1.0
    assert overhead < 0.15, f"obs overhead {overhead:.1%} >= 15%"
