"""Corpus replay: every checked-in case must reproduce its golden pins.

The corpus pins the golden-round configurations (plain, eviction-set,
noisy), one case per defense family, and raw-program cases exercising
out-of-band DRAM pokes, tiny cache/MSHR geometries, wild effective
addresses and the divider. Each case stores, per round, the latency,
cycles and instruction count plus a sha256 over the rest of the round
record (registers, squashes, per-instruction timeline, registry, machine and
stats fingerprints), so any change to machine state shows up here even
when the timing happens to match.
"""

from __future__ import annotations

import pytest

from tests.differential.harness import load_corpus, pin_round, run_case

_CASES = load_corpus()


@pytest.mark.parametrize("case", _CASES, ids=[c["name"] for c in _CASES])
def test_corpus_case_matches_golden_pins(case):
    assert [pin_round(record) for record in run_case(case)] == case["golden"]


def test_corpus_is_not_empty():
    # Nine seeded cases; new regression cases get added over time and
    # must never be deleted wholesale.
    assert len(_CASES) >= 9
