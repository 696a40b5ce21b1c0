"""Smoke test of the benchmark at tiny sizes, with no timing gates.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_smoke.py

Checks that run.py emits every workload and metric named in BENCHMARK.json
with its unit, that it refuses a checkout without the package, and that each
output check rejects a deliberately perturbed estimate.
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import shiftweight as sw     # noqa: E402
import workloads             # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.2", "--trace", str(trace), "--smoke"],
        stdout=subprocess.PIPE, text=True, cwd=cwd, timeout=170)
    return proc.returncode, proc.stdout.strip().splitlines()


# e2_path is not gated (NOTES.md says why) but must keep running
@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload",
                         [w["name"] for w in BENCH["workloads"]] + ["e2_path"])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    code, lines = run_bench(workload, trace)
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = BENCH["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert math.isfinite(got["value"]), m["name"]
    for m in wanted:
        assert any(line.startswith(f"{workload} {m['name']} = ") for line in lines)


def test_refuses_a_checkout_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = run_bench("e2_path", 0, cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)


def _kernel_estimate(n=1000, seed=5):
    cfg = sw.RegressionSynthConfig(0.2, 0.8, seed=seed)
    ds = sw.gen_regression(cfg, n, n)
    sp = sw.split_alpha(ds, 0.5, seed=seed)
    u = sw.train_kernel_regressor((sp.erm_x, sp.erm_y))
    km = sw.estimate_kernel_moments((sp.est_x, sp.est_y), ds.target_x, u)
    return sw.e3_direct(km), sw.true_weight_function(cfg)


def _kernel_rel_err(est, omega):
    return sw.relative_error(lambda ys: sw.evaluate_weight(est, 1.0, ys), omega,
                             "functional")


def test_kernel_check_rejects_a_perturbed_estimate():
    est, omega = _kernel_estimate()
    assert workloads.kernel_problems([_kernel_rel_err(est, omega)]) == []
    est.beta = 3.0 * est.beta
    assert workloads.kernel_problems([_kernel_rel_err(est, omega)])
    assert workloads.kernel_problems([float("nan")])


def _categorical_triple(n=2000, k=4, seed=5):
    cfg = sw.CategoricalSynthConfig(k, 0.5, seed)
    ds = sw.gen_categorical(cfg, n, n)
    sp = sw.split_alpha(ds, 0.5, seed=seed)
    g = sw.train_hypercube((sp.erm_x, sp.erm_y), k)
    mom = sw.estimate_categorical_moments((sp.est_x, sp.est_y), ds.target_x, g, k)
    delta_T = sw.categorical_radii(g.output_dim, k, 0.5, n, n, 0.1)[2]
    return mom, delta_T, sw.true_weight_categorical(cfg)


def test_categorical_check_rejects_a_perturbed_estimate():
    wl = workloads.CategoricalERM(3, workloads.SMOKE)
    (op,) = wl.run_round(0)
    assert op.ok and wl.problems([op]) == []
    calls = op.extra["calls"]
    assert len(calls) == 2
    args, kwargs, est = calls[0]
    calls[0] = (args, kwargs, dataclasses.replace(est, theta_hat=est.theta_hat + 1.0))
    assert wl.problems([op])
    del calls[0]
    assert wl.problems([op])        # a solve the check no longer sees
    assert wl.rel_err_problems([float("inf")])


def test_e2_check_rejects_a_perturbed_solution():
    mom, delta_T, _ = _categorical_triple()
    T = np.asarray(mom.T_hat)
    b = np.asarray(mom.q_hat - mom.p_hat)
    for scale in (0.0, 0.1, 1.0, 3.0):
        theta = sw.e2_regularized(mom, scale * delta_T).theta_hat
        assert workloads.e2_problems(T, b, scale * delta_T, theta) == []
        assert workloads.e2_problems(T, b, scale * delta_T, theta + 1.0)


def test_risk_check_rejects_out_of_range_values():
    assert workloads.risk_problems([0.0, 0.25, 1.0]) == []
    assert workloads.risk_problems([1.5])
    assert workloads.risk_problems([None])
