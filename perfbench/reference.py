"""Regenerate the reference figures of perfbench/README.md.

    python3 perfbench/reference.py [--seeds 1,2,...] [--seconds S]

For every workload: untraced runs over the seeds (median and quartile spread
of each end-to-end metric), one run at the CLI's default jobs and BLAS
threads (`run.py --defaults`), and one traced run whose per-layer figures are
printed in full. Run from the root of a source checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def bench(workload, seed, seconds, *extra):
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), *extra]
    done = subprocess.run(argv, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: outputs failed their checks\n{done.stderr}")
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    ap.add_argument("--seconds", type=float, default=28)
    args = ap.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]

    import numpy
    import scipy

    print(f"cores {os.cpu_count()}, numpy {numpy.__version__}, scipy {scipy.__version__}, "
          f"{len(seeds)} seeds, {args.seconds:g} s per run")
    print("\n| workload | metric | median | (Q3-Q1)/median | --defaults run |")
    print("|---|---|---|---|---|")
    traced = {}
    for name in WORKLOADS:
        runs = [bench(name, s, args.seconds, "--trace", "0") for s in seeds]
        defaults = bench(name, seeds[0], args.seconds, "--trace", "0", "--defaults")
        for metric, first in runs[0]["metrics"].items():
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            med = statistics.median(values)
            print(f"| {name} | {metric} ({first['unit']}) | {med:.4g} | {(q3 - q1) / med:.3f} "
                  f"| {defaults['metrics'][metric]['value']:.4g} |")
        traced[name] = bench(name, seeds[0], args.seconds, "--trace", "1")["metrics"]

    names = list(traced)
    print("\n| per-layer metric | " + " | ".join(names) + " |")
    print("|---|" + "---|" * len(names))
    for metric, first in traced[names[0]].items():
        cells = " | ".join(f"{traced[n][metric]['value']:.4g}" for n in names)
        print(f"| {metric} ({first['unit']}) | {cells} |")


if __name__ == "__main__":
    main()
