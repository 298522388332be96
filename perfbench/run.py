"""Benchmark of the rabi-relax command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see workloads.py) from the root of a source checkout, one
child process at a time, each child a fresh `rabi-relax` call on the
checkout's `src/` with one BLAS thread and `--jobs 1`, on the same one CPU
as this process. It first times one call that does no work, the run's one
cold set-up, and then repeats whole rounds of the workload's calls, at least
two, while another round still fits in S seconds. Every output is checked;
the last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics:
  wall_s       sum over the round's calls of each call's median over rounds
  setup_s      time of the set-up call
  peak_rss_mb  largest peak RSS of any child
--trace 1 runs each call twice in a row, plain and then traced (tracing.py),
and reports the per-layer metrics, the medians over rounds, with
trace.overhead_s the wall_s statistic of the traced calls minus that of the
plain ones.

Both times are wall times rescaled to one reference speed of the host. The
speed of a core on a shared host drifts by up to 1.8x, over seconds and over
minutes (README.md), and a fixed kernel on the same core slows with it. So a
thread of this process times a small kernel (SpeedGauge) on the same CPU
before, during and after each call, and the call's wall time is multiplied
by KERNEL_REF_S over the mean kernel time.

--defaults runs the children at the CLI's default jobs and BLAS threads, for
reference figures only.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
LAUNCH = "import sys; from rabi_relax.cli import main; sys.exit(main())"
# CPU time of one SpeedGauge kernel at the reference speed: about the fast
# level of the 2-vCPU reference host in README.md
KERNEL_REF_S = 0.0025


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--defaults", action="store_true",
                    help="default jobs and BLAS threads (reference figures only)")
    return ap.parse_args(argv)


class SpeedGauge:
    """Samples the speed of this process's CPU around and during a call.

    The kernel mixes interpreted Python with small LAPACK calls, as a CLI call
    does. It is timed BRACKET times before and after the call, and every
    INTERVAL_S during it by a thread that shares the CPU with the child (and
    takes about 4% of it). Its thread CPU time is taken, not its wall time,
    which would count the waits for the child.
    """

    BRACKET = 8
    INTERVAL_S = 0.1

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.eigvals = np.linalg.eigvals
        self.square = rng.standard_normal((41, 41)) + 1j * rng.standard_normal((41, 41))

    def kernel_s(self) -> float:
        start = time.thread_time()
        acc = {}
        for i in range(1500):
            acc[i % 97] = acc.get(i % 97, 0) + len(str(i))
        self.eigvals(self.square)
        self.eigvals(self.square)
        return time.thread_time() - start

    def measure(self, wait):
        """(wait(), mean kernel time before, during and after wait())."""
        samples = [self.kernel_s() for _ in range(self.BRACKET)]
        stop = threading.Event()

        def sample():
            while not stop.wait(self.INTERVAL_S):
                samples.append(self.kernel_s())

        sampler = threading.Thread(target=sample)
        sampler.start()
        try:
            result = wait()
        finally:
            stop.set()
            sampler.join()
        samples.extend(self.kernel_s() for _ in range(self.BRACKET))
        return result, statistics.fmean(samples)


class Runner:
    """Starts one CLI child at a time and records its rescaled wall time and peak RSS."""

    def __init__(self, workdir: Path, pinned: bool):
        self.workdir = workdir
        self.pinned = pinned
        self.gauge = SpeedGauge()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.attempted = 0
        self.failed = 0
        self.peak_rss_mb = 0.0

    def run(self, call, traced: bool = False):
        """(wall seconds at the reference speed, output text or None if the
        call failed, spans or None)."""
        cfg = self.workdir / f"{call.name}.cfg"
        out = self.workdir / f"{call.name}.out"
        spans_path = self.workdir / f"{call.name}.spans.json"
        cfg.write_text(call.config_text())
        head = ([sys.executable, str(HERE / "tracing.py"), str(spans_path)] if traced
                else [sys.executable, "-c", LAUNCH])
        argv = head + [call.command, "--config", str(cfg), "--out", str(out)]
        if self.pinned:
            argv += ["--jobs", "1"]
        self.attempted += 1
        with open(self.workdir / f"{call.name}.err", "wb") as err:
            def launch():
                start = time.perf_counter()
                child = subprocess.Popen(argv, env=self.env, cwd=self.workdir,
                                         stdout=subprocess.DEVNULL, stderr=err)
                try:
                    _, status, usage = os.wait4(child.pid, 0)
                except BaseException:
                    child.kill()
                    child.wait()
                    raise
                return time.perf_counter() - start, status, usage

            (wall, status, usage), kernel = self.gauge.measure(launch)
        wall *= KERNEL_REF_S / kernel
        self.peak_rss_mb = max(self.peak_rss_mb, usage.ru_maxrss / 1024.0)
        if os.waitstatus_to_exitcode(status) != 0:
            self.failed += 1
            return wall, None, None
        spans = json.loads(spans_path.read_text()) if traced else None
        return wall, out.read_text(), spans


def run_checked(runner, workload, call, errors, traced=False):
    """Run one call and append what its output check finds to errors."""
    wall, text, spans = runner.run(call, traced)
    if text is not None:
        try:
            errors.extend(workload.check(call, text))
        except (ValueError, IndexError) as exc:
            errors.append(f"{call.name}: unreadable output ({exc})")
    return wall, spans


def per_round(rounds) -> float:
    """Sum over calls of each call's median wall time across rounds."""
    return sum(statistics.median(walls) for walls in zip(*rounds))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rabi_relax" / "cli.py").is_file():
        print(f"run.py: no rabi_relax sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    pinned = not args.defaults
    if args.trace and not pinned:
        print("run.py: --trace 1 needs pinned children (no --defaults)", file=sys.stderr)
        return 2
    if pinned:  # before numpy loads here; the children inherit both
        os.environ.update({var: "1" for var in THREAD_VARS})
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(HERE))
    import oracle
    import tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}; choose from "
              + ", ".join(WORKLOADS), file=sys.stderr)
        return 2
    try:
        oracle.self_check()
    except oracle.OracleError as exc:
        print(f"run.py: reference computations fail their closed-form checks: {exc}",
              file=sys.stderr)
        return 1
    workload = WORKLOADS[args.workload](args.seed)

    workdir = HERE / "out" / workload.name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    runner = Runner(workdir, pinned)
    errors = []

    start = time.perf_counter()
    metrics = {}
    if not args.trace:
        setup = run_checked(runner, workload, workload.setup, errors)[0]
        first = time.perf_counter()
        rounds = []
        while True:
            rounds.append([run_checked(runner, workload, call, errors)[0]
                           for call in workload.calls])
            now = time.perf_counter()
            if len(rounds) > 1 and now - start + (now - first) / len(rounds) > args.seconds:
                break
        metrics["wall_s"] = {"value": per_round(rounds), "unit": "s"}
        metrics["setup_s"] = {"value": setup, "unit": "s"}
        metrics["peak_rss_mb"] = {"value": runner.peak_rss_mb, "unit": "MB"}
    else:
        # plain and traced runs of a call back to back see the same host phase
        plain, traced, layers = [], [], []
        while True:
            plain.append([])
            traced.append([])
            span_lists = []
            for call in workload.calls:
                plain[-1].append(run_checked(runner, workload, call, errors)[0])
                wall, spans = run_checked(runner, workload, call, errors, traced=True)
                traced[-1].append(wall)
                if spans is not None:
                    span_lists.append(spans)
            layers.append(tracing.layer_metrics(span_lists))
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(layers) > args.seconds:
                break
        units = dict(tracing.PER_LAYER)
        for name in layers[0]:
            metrics[name] = {"value": statistics.median(m[name] for m in layers),
                             "unit": units[name]}
        metrics["trace.overhead_s"] = {
            "value": per_round(traced) - per_round(plain), "unit": "s"}

    for line in dict.fromkeys(errors):
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps({"correct": not errors, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
