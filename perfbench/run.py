"""Benchmark runner: one workload, one seed, one JSON result.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload campaign|leak|spec \\
        [--seed N] [--seconds S] [--trace 0|1] [--repin]

``--trace 0`` measures the end-to-end metrics with tracing off. ``--trace 1``
runs the workload's fixed unit of work twice, untraced and then traced,
and reports the per-layer metrics, the tracing overhead and the host drift.
Both modes check the simulated outputs: at the pinned seed they must equal
``perfbench/pins.json``, and a traced run must reproduce its untraced twin.

The last stdout line is the result object (``correct``, ``attempted``,
``failed``, ``metrics``); the line before it carries the workload's
detail metrics, the host drift and any correctness problems. Exit code 0
means the outputs were correct, 1 that a check failed, 2 that there is no
simulator source to measure.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time
from typing import Dict, List

import measure
from measure import OUT_DIR, ROOT, median

WORKLOADS = {
    "campaign": "workload_campaign",
    "leak": "workload_leak",
    "spec": "workload_spec",
}
#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 5
MODEL_NOTE = (
    "The simulator is unvalidated against hardware; *_err metrics are errors "
    "against the paper's gem5 numbers."
)


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repin", action="store_true",
                        help="record this run's simulated outputs as the pins for its seed")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def setup_probe(module, seed: int) -> int:
    """Child side of a set-up measurement: import and set up, report seconds."""
    t0 = time.perf_counter()
    for name in module.IMPORTS:
        importlib.import_module(name)
    module.setup(seed)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))
    return 0


def probe_child(workload: str, seed: int, importtime: bool = False):
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else [])
    cmd += [__file__, "--workload", workload, "--seed", str(seed), "--setup-probe"]
    child = measure.run_child(cmd)
    if child.code != 0:
        raise RuntimeError(f"set-up probe exited {child.code}:\n{child.err[-2000:]}")
    return json.loads(child.out.splitlines()[-1])["setup_s"], child.err


def untraced(module, args) -> dict:
    # Set-ups before and after the measurement, so that a burst of host
    # load at either end moves at most a minority of them.
    setup_s = [probe_child(args.workload, args.seed)[0] for _ in range(SETUP_REPS // 2 + 1)]
    for name in module.IMPORTS:
        importlib.import_module(name)
    body = module.measure(args.seed, args.seconds)
    setup_s += [probe_child(args.workload, args.seed)[0] for _ in range(SETUP_REPS // 2)]
    body["e2e"]["setup_s"] = median(setup_s)
    body["detail"]["setup_runs"] = (len(setup_s), "count")
    return body


def traced(module, args, layer_names: List[str]) -> dict:
    from tracing import Tracer, layer_metrics

    if args.workload == "campaign":
        ids = [n.split(".")[1] for n in layer_names if n.startswith("experiments.")]
        return module.trace(args.seed, ids)
    _, importtime = probe_child(args.workload, args.seed, importtime=True)
    for name in module.IMPORTS:
        importlib.import_module(name)
    clock = time.perf_counter
    t0 = clock()
    pins, attempted = module.fixed_work(args.seed)
    untraced_s = clock() - t0
    with Tracer() as tracer:
        t0 = clock()
        traced_pins, _ = module.fixed_work(args.seed)
        traced_s = clock() - t0
    tracer.write_spans(OUT_DIR / f"{args.workload}-seed{args.seed}-spans.jsonl")
    layers = layer_metrics(tracer)
    for prefix, seconds in measure.parse_importtime(importtime, measure.IMPORT_PREFIXES).items():
        layers[f"import.{prefix}.s"] = seconds
    problems = [f"traced run: {p}" for p in measure.pin_mismatches(pins, traced_pins)]
    return {"layers": layers, "pins": pins, "problems": problems,
            "overhead": traced_s / untraced_s - 1.0, "attempted": attempted, "failed": 0}


def check_pins(workload: str, seed: int, got: Dict[str, object], repin: bool) -> List[str]:
    pins = measure.load_pins()
    if repin:
        pins[workload] = {"seed": seed, "pins": got}
        measure.write_pins(pins)
        return []
    stored = pins.get(workload)
    if stored is None or stored["seed"] != seed:
        return []
    return measure.pin_mismatches(stored["pins"], got)


def select(values: Dict[str, float], spec: List[dict], problems: List[str]) -> Dict[str, dict]:
    """The metrics ``BENCHMARK.json`` lists, in its order, with its units.

    A metric the workload does not exercise reads 0; a name the workload
    produced that the file does not list is a problem, never dropped.
    """
    known = {m["name"] for m in spec}
    problems += [f"unlisted metric {name}" for name in sorted(set(values) - known)]
    return {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in spec}


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not measure.src_present():
        print(f"perfbench: no simulator sources under {measure.SRC}", file=sys.stderr)
        return 2
    measure.add_src_to_path()
    module = importlib.import_module(WORKLOADS[args.workload])
    if args.setup_probe:
        return setup_probe(module, args.seed)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    calibration_loop = measure.load_calibration_loop()
    cal_before = calibration_loop()
    if args.trace:
        body = traced(module, args, [m["name"] for m in bench["per_layer"]])
    else:
        body = untraced(module, args)
    cal_after = calibration_loop()
    drift = cal_after / cal_before - 1.0

    problems = list(body["problems"])
    problems += check_pins(args.workload, args.seed, body["pins"], args.repin)
    if args.trace:
        body["layers"]["trace.overhead_frac"] = body["overhead"]
        body["layers"]["host.drift_frac"] = drift
        metrics = select(body["layers"], bench["per_layer"], problems)
    else:
        metrics = select(body["e2e"], bench["end_to_end"], problems)

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "host": {"calibration_before_s": cal_before, "calibration_after_s": cal_after,
                 "drift_frac": drift},
        "problems": problems,
        "model_note": MODEL_NOTE,
    }
    if args.trace:
        detail["tracing_overhead_frac"] = body["overhead"]
    else:
        detail["detail"] = {k: {"value": v, "unit": u} for k, (v, u) in body["detail"].items()}
        if "failed_checks" in body:
            detail["failed_paper_checks"] = body["failed_checks"]
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": not problems, "attempted": body["attempted"],
                      "failed": body["failed"], "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
