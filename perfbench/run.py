"""shiftweight benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: kernel_dense, categorical_erm, e2_path (see NOTES.md).  The
package is imported from ``src/`` of the checkout this file sits in.  Every
measurement runs in a child process (worker.py) with the BLAS thread count
pinned.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a separate traced run.  Human-readable lines come first;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The environment and
the full result are also written to ``perfbench_out/``.

Exit codes: 0 when a result was printed, 2 for bad arguments or a checkout
without ``src/shiftweight``, 3 when a measuring process failed.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import BLAS_ENV

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
OUT_DIR = ROOT / "perfbench_out"
WORKLOADS = ("kernel_dense", "categorical_erm", "e2_path")
# One BLAS thread: a two-thread BLAS call waits for its slower thread, so a
# stall on either core stalls the call.  Measured on a 2-core x86-64 machine
# (OpenBLAS 0.3.31): the kernel_dense E4 cell took 8.2-10.1 s at 2 threads and
# 11.5-12.5 s at 1 thread.  Never more than the cores this process may use.
BLAS_THREADS = 1
SETUP_SAMPLES = 5           # processes whose set-up time is measured per run
TIME_BUDGET_S = 170.0       # for every child process of one run together
UNITS = {"ops_per_s": "1/s", "op_s_p50": "s", "peak_rss_mb": "MB"}


def unit_of(name):
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith(("_share", "_frac")):
        return "ratio"
    return "count"


def git_sha():
    """Commit of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "shiftweight").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


class ChildFailed(Exception):
    pass


def spawn(args, threads, deadline, setup_only=False):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.update({k: str(threads) for k in BLAS_ENV})
    OUT_DIR.mkdir(exist_ok=True)
    cmd = [sys.executable, "-B", str(WORKER),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--threads", str(threads),
           "--spans-out", str(OUT_DIR / f"{args.workload}.spans.jsonl")]
    if setup_only:
        cmd.append("--setup-only")
    if args.smoke:
        cmd.append("--smoke")
    cmd += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              cwd=ROOT, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:   # run() has killed and reaped the child
        raise ChildFailed("measuring process exceeded the time budget") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"measuring process exited with {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes for the benchmark's own smoke test")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "shiftweight" / "__init__.py").is_file():
        print(f"error: no src/shiftweight under {ROOT}", file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    threads = min(BLAS_THREADS, nproc)
    deadline = time.monotonic() + TIME_BUDGET_S
    try:
        setups = [] if args.trace else [
            spawn(args, threads, deadline, setup_only=True)["setup_s"]
            for _ in range(SETUP_SAMPLES - 1)]
        res = spawn(args, threads, deadline)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    metrics = dict(res["metrics"])
    if not args.trace:
        setups.append(res["setup_s"])
        metrics["setup_s"] = statistics.median(setups)
    env = dict(res["env"], git_sha=git_sha(), src_sha256=src_digest(),
               nproc=nproc, blas_threads=threads, seed=args.seed,
               workload=args.workload, trace=args.trace, smoke=args.smoke)
    info = dict(res["info"], setup_samples_s=setups,
                fail_frac=res["failed"] / max(res["attempted"], 1))
    out = {"correct": res["info"]["problems_found"] == 0, "attempted": res["attempted"],
           "failed": res["failed"],
           "metrics": {k: {"value": v, "unit": unit_of(k)}
                       for k, v in sorted(metrics.items())}}

    print("env " + json.dumps(env))
    for name, m in out["metrics"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    # reported but not gated; NOTES.md says why
    if "op_s_tail" in info:
        t = info["op_s_tail"]
        print(f"{args.workload} op_s_tail = {t['value']:.6g} s "
              f"(p{t['percentile']:g} of {t['ops']} ops)")
    for name in ("rel_err_p50", "target_risk_p50"):
        if name in info:
            print(f"{args.workload} {name} = {info[name]:.6g} ratio")
    print(f"{args.workload} fail_frac = {info['fail_frac']:.6g} ratio "
          f"({res['failed']} of {res['attempted']})")
    for problem in res["problems"]:
        print(f"CHECK FAILED: {problem}")
    with open(OUT_DIR / f"{args.workload}.trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump({"env": env, "info": info, "problems": res["problems"],
                   "result": out}, fh, indent=1)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
