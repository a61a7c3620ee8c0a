"""Run one benchmark workload for a fixed time and print its figures.

    python3 bench/run.py --workload udp-paired --seed 3 --seconds 20 --trace 0

Run it from the root of a source tree: it imports ``traincap`` from
``src/`` beside this directory and nothing else. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``. Other figures go
to standard error. The traced run alternates untraced and traced rounds,
reports the tracing overhead as the traced rounds' end-to-end figures
against the untraced ones, and writes its spans to
``bench/out/trace-<workload>-seed<n>.jsonl``.
"""

import time

T0_NS = time.monotonic_ns()  # set-up is timed from here, before any other import

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

# Per-layer figures that come from the untraced rounds of the traced run:
# each is one workload's own end-to-end quantity, which other workloads
# do not have, so it cannot be an end-to-end metric of every workload.
UNTRACED_LAYER_FIGURES = {
    "cli.tables_s": "tables_s",
    "cli.jitter_tables_s": "jitter_tables_s",
    "cli.simulate_pkts_per_s": "simulate_pkts_per_s",
    "session.reflect_in_gbps": "reflect_in_gbps",
    "session.reflect_out_gbps": "reflect_out_gbps",
}


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_program():
    """Import traincap from this tree's src/, or exit 2 if it is missing."""
    if not (SRC / "traincap" / "__init__.py").is_file():
        print(f"bench: no traincap sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import traincap

    if SRC not in Path(traincap.__file__).resolve().parents:
        print(f"bench: imported traincap from {traincap.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = _parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    _import_program()
    import checks
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    tmp_dir = OUT_DIR / f"tmp-{args.workload}-{args.seed}"
    tmp_dir.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer() if args.trace else None
    wl = workloads.WORKLOADS[args.workload](args.seed, tmp_dir, tracer)
    untraced, traced = [], []
    correct = True
    try:
        wl.setup()
        setup_s = (time.monotonic_ns() - T0_NS) / 1e9
        if tracer is not None:
            targets = tracing.module_targets() + wl.trace_targets()
        end = time.monotonic() + args.seconds
        index = 1
        while True:
            if tracer is not None and index % 2 == 0:
                with tracing.installed(tracer, targets):
                    traced.append(wl.round(index))
            else:
                untraced.append(wl.round(index))
            index += 1
            if time.monotonic() >= end and (tracer is None or traced):
                break
    except checks.CheckError as exc:
        print(f"bench: check failed: {exc}", file=sys.stderr)
        correct = False
    finally:
        wl.close()
        shutil.rmtree(tmp_dir, ignore_errors=True)
    if not correct or not untraced:
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}}))
        return 1

    rounds = untraced + traced
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    figures = wl.figures(untraced)
    # Set-up is scaled to the nominal host like the figures, by the run's own host speed.
    setup = {"setup_s": setup_s * workloads.REF_NS / figures["host_speed_ns"], "raw.setup_s": setup_s}
    figures.update(setup)
    stalls = sum(r.get("stalled", 0) for r in rounds)
    leftover = sum(r.get("leftover", 0) for r in rounds)
    print(f"bench: {args.workload} seed {args.seed}: {len(rounds)} rounds, {attempted} operations, "
          f"{failed} failed, {stalls} sessions left out for a host pause, {leftover} stray datagrams",
          file=sys.stderr)
    print("bench: figures " + json.dumps(figures), file=sys.stderr)

    if tracer is None:
        metrics = {m["name"]: _metric(figures[m["name"]], m["unit"]) for m in spec["end_to_end"]}
    else:
        traced_figures = {**setup, **wl.figures(traced)}
        overhead = {
            m["name"]: traced_figures[m["name"]] / figures[m["name"]] - 1
            for m in spec["end_to_end"] if m["name"] != "setup_s"
        }
        print("bench: tracing overhead (traced / untraced - 1) " + json.dumps(overhead), file=sys.stderr)
        layers = tracing.per_layer(tracer.aggregates(), len(traced))
        layers.update({name: figures.get(src, 0.0) for name, src in UNTRACED_LAYER_FIGURES.items()})
        layers["session.host_pause_sessions"] = stalls
        layers["trace.overhead_host_ns_per_pkt"] = overhead["host_ns_per_pkt"]
        metrics = {m["name"]: _metric(layers[m["name"]], m["unit"]) for m in spec["per_layer"]}
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(trace_path, {
            "workload": args.workload, "seed": args.seed, "untraced": figures,
            "traced": traced_figures, "overhead": overhead, "per_layer": layers,
        })
        print(f"bench: spans written to {trace_path}", file=sys.stderr)

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
