"""The repository benchmark: one command, two workloads.

Usage::

    python3 perfbench/run.py --workload video_1080p --seed 1 --seconds 10 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the
workload again with spans and counters collected and prints every
per-layer metric. The metric names and units are the ones declared in
``BENCHMARK.json``; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import sys

import harness

WORKLOADS = ("video_1080p", "serve_vga_streams")


def _declared(trace: bool) -> list:
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def _run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if workload == "serve_vga_streams":
        import serve_workload

        return serve_workload.run(seed, seconds, trace)
    import engine_workloads

    return engine_workloads.run(engine_workloads.VIDEO, seed, seconds, trace)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if not (harness.SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {harness.SRC}",
              file=sys.stderr)
        return 2
    harness.prepare_process()

    trace = bool(args.trace)
    result = _run(args.workload, args.seed, args.seconds, trace)
    metrics = result["metrics"]
    declared = _declared(trace)
    if sorted(metrics) != sorted(declared):
        missing = sorted(set(declared) - set(metrics))
        extra = sorted(set(metrics) - set(declared))
        print(f"perfbench: metrics differ from BENCHMARK.json "
              f"(missing {missing}, undeclared {extra})", file=sys.stderr)
        return 1

    outcomes = result["outcomes"]
    info = result["info"]
    for name in declared:
        value, unit = metrics[name]
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    if not trace:
        print(f"{args.workload} frame_ms_tail is p{info['tail_pct']} "
              f"of {info['latency_samples']} samples")
    print(f"{args.workload} failed_frac = {outcomes.failed_frac:.6g} frac "
          f"({outcomes.failed} of {outcomes.attempted})")
    print("info " + json.dumps(info, default=str))
    print(json.dumps({
        "correct": outcomes.failed == 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {
            name: {"value": metrics[name][0], "unit": metrics[name][1]}
            for name in declared
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
