"""Run one workload over several seeds and report each metric's spread.

Usage::

    python3 perfbench/spread.py --workload serve_vga_streams --seeds 1-5

For every end-to-end metric it prints the median over the runs and the
quartile spread, (Q3 - Q1) / median with ``statistics.quantiles(n=4)``,
next to the metric's bound from ``BENCHMARK.json``, with the run length
``run_seconds`` declared there. A benchmark is steady when every spread
stays below a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import calc
import harness


def _seeds(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-5", help="inclusive range, e.g. 1-10")
    args = parser.parse_args(argv)
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())

    values = {}
    for seed in _seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
             "--trace", "0"],
            cwd=harness.ROOT, capture_output=True, text=True, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: output check failed", file=sys.stderr)
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(
            f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()),
            flush=True)

    print(f"{'metric':<18}{'median':>12}{'spread':>9}{'bound':>7}  steady")
    for m in spec["end_to_end"]:
        vals = values[m["name"]]
        spread = calc.quartile_spread(vals)
        steady = "yes" if spread < m["bound"] / 3 else "no"
        print(f"{m['name']:<18}{statistics.median(vals):>12.5g}{spread:>9.4f}"
              f"{m['bound']:>7}  {steady}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
