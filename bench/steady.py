"""Steadiness of the benchmark: run each workload several times and compare.

    python3 bench/steady.py --runs 10                  # every workload, seeds 1..10
    python3 bench/steady.py --runs 5 --workloads udp-paired --first-seed 101
    python3 bench/steady.py --runs 3 --trace 1         # per-layer metrics

Each run is ``bench/run.py`` in its own process, one after another, with
its own seed and BENCHMARK.json's run length. For each metric the table
shows the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``), the spread (q3 - q1) / median,
and the spread against the metric's bound: "ok" below a third of the
bound, "wide" below the bound, "OVER" at or above it. ``setup_s`` is one
cold set-up per run, so only its median is held to the bound. The exit
code is 1 if any run fails, any spread is OVER, or the share of failed
operations differs between runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    bad = False
    for workload in args.workloads:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            res = run_once(workload, seed, args.seconds, args.trace)
            results.append(res)
            print(f"{workload} seed {seed}: correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']} " + " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()),
                  flush=True)
        shares = {r["failed"] / r["attempted"] for r in results}
        if not all(r["correct"] for r in results) or len(shares) != 1:
            bad = True
        print(f"\n{workload}: {args.runs} runs, all correct: {all(r['correct'] for r in results)}, "
              f"failed shares: {sorted(shares)}")
        print(f"  {'metric':40} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            bound = m.get("bound")
            verdict = ""
            if bound is not None and m["name"] != "setup_s":
                verdict = "ok" if spread < bound / 3 else "wide" if spread < bound else "OVER"
                bad |= verdict == "OVER"
            print(f"  {m['name']:40} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} "
                  f"{'' if bound is None else bound:>6} {verdict}")
        print(flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
