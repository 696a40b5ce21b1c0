"""One benchmark process: set up a workload, run its timed loop, print a JSON line.

run.py starts this with the BLAS thread count already pinned in the
environment.  The last line of standard output is the result; diagnostics go
to standard error.
"""

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time
from array import array
from pathlib import Path

from spans import Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def op_s_tail(walls):
    """Highest listed percentile with at least ten ops beyond it, or None."""
    walls = sorted(walls)
    for p in TAIL_PERCENTILES:
        if len(walls) * (1.0 - p / 100.0) >= 10:
            return p, walls[min(len(walls) - 1, math.ceil(p / 100.0 * len(walls)) - 1)]
    return None


class Tally:
    """Outcomes of a run's ops, checked round by round outside the timed
    intervals; only a few floats per op are kept, not the op's outputs."""

    MAX_PROBLEMS = 50

    def __init__(self, wl):
        self.wl = wl
        self.walls = array("d")
        self.rel_errs = array("d")
        self.risks = array("d")
        self.attempted = self.failed = self.n_problems = 0
        self.problems = []
        self.timed_s = 0.0

    def add(self, ops, wall):
        self.timed_s += wall
        found = self.wl.problems(ops)   # also fills e2_path's rel_err
        self.n_problems += len(found)
        self.problems += found[:self.MAX_PROBLEMS - len(self.problems)]
        for op in ops:
            self.attempted += 1
            if not op.ok:
                self.failed += 1
            elif op.timed:
                self.walls.append(op.wall)
                self.rel_errs.append(op.rel_err)
                if op.target_risk is not None:
                    self.risks.append(op.target_risk)


def run_round(wl, r, tracer=None):
    t = time.perf_counter()
    ops = wl.run_round(r, tracer)
    return ops, time.perf_counter() - t


def timed_loop(wl, seconds):
    tally = Tally(wl)
    rounds = 0
    while tally.timed_s < seconds:
        tally.add(*run_round(wl, rounds))
        rounds += 1
    return tally, rounds


def traced_loop(wl, seconds, spans_path):
    """Runs each round untraced and traced, alternating which goes first, so
    the overhead compares the same work under the same conditions."""
    tracer = Tracer()
    tally = Tally(wl)
    wall = {False: 0.0, True: 0.0}
    rounds = []
    while tally.timed_s < seconds:
        r = len(rounds)
        for traced in ((False, True) if r % 2 == 0 else (True, False)):
            try:
                if traced:
                    tracer.round = r
                    tracer.install(wl.namespace, wl.traced_names)
                ops, w = run_round(wl, r, tracer if traced else None)
            finally:
                tracer.restore()
            wall[traced] += w
            tally.add(ops, w)
        rounds.append(r)
    metrics = layer_metrics(tracer, rounds, wl.expected_layers)
    metrics["trace.overhead_frac"] = (wall[True] - wall[False]) / wall[False]
    tracer.write(spans_path)
    return tally, metrics


def end_to_end(tally):
    metrics = {
        "ops_per_s": len(tally.walls) / tally.timed_s,
        "op_s_p50": statistics.median(tally.walls) if tally.walls else float("nan"),
    }
    info = {"timed_ops": len(tally.walls), "timed_phase_s": tally.timed_s}
    if tally.rel_errs:
        info["rel_err_p50"] = statistics.median(tally.rel_errs)
    if tally.risks:
        info["target_risk_p50"] = statistics.median(tally.risks)
    tail = op_s_tail(tally.walls)
    if tail is not None:
        info["op_s_tail"] = {"percentile": tail[0], "value": tail[1],
                             "ops": len(tally.walls)}
    return metrics, info


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {k: os.environ.get(k) for k in BLAS_ENV},
    }


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--threads", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--spans-out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    for key in BLAS_ENV:
        if os.environ.get(key) != str(args.threads):
            raise SystemExit(f"{key} is not pinned to {args.threads}")
    sys.path.insert(0, str(SRC))
    import shiftweight
    if Path(shiftweight.__file__).resolve().parent != SRC / "shiftweight":
        raise SystemExit(f"shiftweight imported from {shiftweight.__file__}, "
                         f"not from {SRC}")
    import workloads

    wl = workloads.WORKLOADS[args.workload](
        args.seed, workloads.SMOKE if args.smoke else workloads.FULL)
    wl.prepare()
    wl.warm_up()
    setup_s = time.monotonic() - args.spawned_at
    result = {"setup_s": setup_s}
    if not args.setup_only:
        if args.trace:
            tally, metrics = traced_loop(wl, args.seconds, args.spans_out)
            info = {}
        else:
            tally, rounds = timed_loop(wl, args.seconds)
            metrics, info = end_to_end(tally)
            metrics["peak_rss_mb"] = \
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            info["rounds"] = rounds
        info["problems_found"] = tally.n_problems
        result.update({
            "metrics": metrics,
            "info": info,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "problems": tally.problems,
            "env": environment(),
        })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
