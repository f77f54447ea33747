#!/usr/bin/env python3
"""Steadiness of the serving benchmark: k runs per workload, spread vs bounds.

Run from the repository root:

    python3 perfbench/steady.py --runs 10                 # every workload, seeds 1..10
    python3 perfbench/steady.py --runs 5 --workloads net-video --first-seed 11
    python3 perfbench/steady.py --short                   # quick self-check

For each workload and metric it prints the median, the interquartile range
(``statistics.quantiles(values, n=4)``) as a share of the median, the
min-max, and the bound from ``BENCHMARK.json``.  A spread above a third of
its bound is flagged, except for ``setup_s``, whose bound limits a shift
of the median, not the spread.  The share of failed operations must be the
same in every run.

``--short`` runs every workload (the ungated ones too) once for a couple of
seconds, traced and untraced, with every check on, then once with
``--self-test-wrong``, which must fail; it exits nonzero if anything is off.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Workloads run.py has but BENCHMARK.json does not gate on (README.md says why).
UNGATED = ("cascade-pool", "net-video")


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, seconds: float, trace: int, *extra: str):
    """One benchmark run; returns ``(exit code, result dict or None, output)``."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result, proc.stdout + proc.stderr


def spread(values: list[float]) -> tuple[float, float]:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else float("inf")


def steadiness(args) -> int:
    bench = spec()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    status = 0
    for workload in workloads:
        values: dict[str, list[float]] = {}
        shares = set()
        for seed in range(args.first_seed, args.first_seed + args.runs):
            code, result, output = run_once(workload, seed, seconds, 0)
            if code != 0 or result is None or not result["correct"]:
                print(f"{workload} seed {seed}: run failed (exit {code})\n{output[-2000:]}")
                status = 1
                continue
            shares.add(result["failed"] / result["attempted"])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"\n{workload}: {args.runs} runs of {seconds} s, failed shares {sorted(shares)}")
        if len(shares) > 1:
            status = 1
        print(f"  {'metric':<18}{'median':>12}{'IQR/med':>9}{'bound':>7}  {'min - max':<24}")
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            median, rel = spread(vals)
            bound = bounds.get(name, float("nan"))
            flag = "" if name == "setup_s" or rel <= bound / 3 else "  <-- above bound/3"
            if flag:
                status = 1
            print(f"  {name:<18}{median:>12.4g}{rel:>9.1%}{bound:>7.2f}  "
                  f"{min(vals):.4g} - {max(vals):.4g}{flag}")
    return status


def short() -> int:
    """Every workload once, traced and untraced, plus the wrong-answer self-test."""
    bench = spec()
    gated = [w["name"] for w in bench["workloads"]]
    status = 0
    for workload in gated + [w for w in UNGATED if w not in gated]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            code, result, output = run_once(workload, 1, 2, trace)
            ok = code == 0 and result is not None and result["correct"] and result["failed"] == 0
            if ok and (trace == 0 or workload in gated):
                ok = set(result["metrics"]) == {m["name"] for m in bench[group]}
            print(f"{workload:<14} trace={trace}: {'ok' if ok else 'FAILED'}")
            if not ok:
                print(output[-2000:])
                status = 1
        code, result, _ = run_once(workload, 1, 1, 0, "--self-test-wrong")
        caught = code != 0 and result is not None and not result["correct"]
        print(f"{workload:<14} one wrong answer: {'caught' if caught else 'NOT CAUGHT'}")
        status |= 0 if caught else 1
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="run length (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--workloads", type=lambda s: s.split(","), default=None)
    parser.add_argument("--short", action="store_true")
    args = parser.parse_args()
    if args.short:
        return short()
    if args.runs < 2:
        parser.error("--runs must be at least 2")
    return steadiness(args)


if __name__ == "__main__":
    sys.exit(main())
