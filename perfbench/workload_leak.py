"""``leak``: a closed loop leaking a seeded bitstring with unXpec.

One process runs :class:`~repro.attack.campaign.LeakageCampaign` over an
``UnxpecAttack`` with eviction sets and the calibrated campaign noise,
against CleanupSpec, one sample per bit. Each operation leaks one bit and
the next starts when it returns. The wrong path, the rollback, the cache
and MSHR, and one noise draw per committed instruction do the work.
"""

from __future__ import annotations

import random
import time
from typing import Dict, List, Tuple

from measure import median, peak_rss_mb, percentile, sha256_json

#: Bits per block; a block is the unit of ``pass_s_p90``.
BLOCK_BITS = 256
#: Blocks every run leaks, however fast the host: the pins and the model
#: metrics cover exactly these, so they do not depend on host speed.
MODEL_BLOCKS = 8
#: Paper, Fig. 6 with eviction sets: secret-1 minus secret-0 latency.
PAPER_GAP_CYCLES = 32.0
#: Modules imported before any timed work (the set-up probe times them).
IMPORTS = ("repro.attack", "repro.cpu.noise")


def secret_blocks(seed: int):
    """Endless seeded blocks of secret bits (the workload's inputs)."""
    rng = random.Random(f"perfbench-leak-{seed}")
    while True:
        yield [rng.getrandbits(1) for _ in range(BLOCK_BITS)]


def setup(seed: int):
    """Attack, machine and calibrated decoder: everything before bit one."""
    from repro.attack import LeakageCampaign, UnxpecAttack
    from repro.cpu.noise import campaign_noise

    attack = UnxpecAttack(use_eviction_sets=True, noise=campaign_noise(), seed=seed)
    attack.prepare()
    campaign = LeakageCampaign(attack, samples_per_bit=1)
    campaign.calibrate()
    return campaign


def leak(campaign, seed: int, min_blocks: int, seconds: float):
    """Leak blocks until ``seconds`` have passed and ``min_blocks`` are done.

    Returns (bit records, per-bit seconds, per-block seconds).
    """
    records = []
    round_s: List[float] = []
    block_s: List[float] = []
    clock = time.perf_counter
    started = clock()
    for block in secret_blocks(seed):
        if len(block_s) >= min_blocks and clock() - started >= seconds:
            break
        block_start = clock()
        for bit in block:
            t0 = clock()
            records.append(campaign.run([bit]).records[0])
            round_s.append(clock() - t0)
        block_s.append(clock() - block_start)
    return records, round_s, block_s


def model_outputs(records) -> Tuple[Dict[str, object], Dict[str, Tuple[float, str]]]:
    """Pins and model-accuracy metrics over the first ``MODEL_BLOCKS``."""
    head = records[: MODEL_BLOCKS * BLOCK_BITS]
    latencies = [r.latency for r in head]
    guesses = [r.guess for r in head]
    ones = [r.latency for r in head if r.secret]
    zeros = [r.latency for r in head if not r.secret]
    gap = sum(ones) / len(ones) - sum(zeros) / len(zeros)
    errors = sum(1 for r in head if not r.correct)
    pins = {"latency_sha256": sha256_json(latencies), "bits_sha256": sha256_json(guesses)}
    model = {
        "model_bits": (len(head), "count"),
        "bit_error_frac": (errors / len(head), "frac"),
        "gap_cycles": (gap, "cycles"),
        "gap_err_cycles": (abs(gap - PAPER_GAP_CYCLES), "cycles"),
    }
    return pins, model


def measure(seed: int, seconds: float) -> dict:
    campaign = setup(seed)
    records, round_s, block_s = leak(campaign, seed, MODEL_BLOCKS, seconds)
    pins, model = model_outputs(records)
    detail = {
        "bits_per_s": (len(round_s) / sum(block_s), "1/s"),
        "block_s_p50": (median(block_s), "s"),
        "blocks": (len(block_s), "count"),
        "round_ms_p50": (1e3 * median(round_s), "ms"),
        "round_ms_p99": (1e3 * percentile(round_s, 99), "ms"),
        "rounds": (len(round_s), "count"),
        **model,
    }
    return {
        "e2e": {
            "peak_rss_mb": peak_rss_mb(),
            "pass_s_p90": percentile(block_s, 90),
            "op_ms_p90": 1e3 * percentile(round_s, 90),
        },
        "detail": detail,
        "pins": pins,
        "attempted": len(records),
        "failed": 0,
        "problems": [],
    }


def fixed_work(seed: int):
    """Set-up plus ``MODEL_BLOCKS`` blocks: the traced run's unit of work."""
    campaign = setup(seed)
    records, _, _ = leak(campaign, seed, MODEL_BLOCKS, 0.0)
    return model_outputs(records)[0], len(records)
