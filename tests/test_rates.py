"""The paper's n^-1/2 rate.  On the categorical path, in a regime where it
is live: E1 with the hypercube statistic at noise_std 0.1, seeds 0-5,
n = m in {2000, 8000, 32000, 128000}, no ERM (about 1.6 s for the 24 cells
on one core).  burn_in_ok first holds at n = 128000 there.  E2 takes the
kink in that regime at reg_scale 0.1 and gives the same numbers, bit for
bit, so these checks cover it too.  On the kernel path, where the bound is
vacuous at every affordable n, a rate test is the check that can fail: E3
at the runner's defaults, seeds 0-19, n = m in {500, 2000, 8000}, no ERM
(about 0.2 s for the 60 cells), and E4 on the same cells at reg_scale 0.1.

The bands come from the spread over seeds 0-119 (categorical) and 0-399
(kernel), measured on a 2-core x86-64 machine, one BLAS thread."""

import numpy as np
import pytest

from shiftweight import build_config
from shiftweight.experiments import run_experiment

NS = (2000, 8000, 32000, 128000)
SEEDS = tuple(range(6))


@pytest.fixture(scope="module")
def cells():
    cfg = build_config({"scenario": "categorical_vs_n", "estimator": "E1",
                        "statistic_mode": "hypercube", "noise_std": 0.1,
                        "sweep": NS, "seeds": SEEDS})
    return {(r["seed"], r["n"]): r for r in run_experiment(cfg)
            if r["seed"] in SEEDS}


def _log_log_slope(values):
    return float(np.polyfit(np.log(NS), np.log(values), 1)[0])


def test_epsilon_delta_falls_as_n_to_the_minus_half(cells):
    """Per seed, the fitted log-log slope of epsilon_delta against n lies
    within 0.1 of -1/2.  Seeds 0-5 give -0.511 to -0.497; over seeds
    0-119 the slopes run from -0.570 to -0.467."""
    for seed in SEEDS:
        slope = _log_log_slope([cells[seed, n]["epsilon_delta"] for n in NS])
        assert abs(slope + 0.5) <= 0.1, f"seed {seed}: slope {slope:.3f}"


def test_median_relative_error_falls_with_n(cells):
    """The log-log slope of the across-seed median relative_error against n
    is at most -0.25.  Seeds 0-5 give -0.51.  Over the 20 disjoint groups
    of six seeds in 0-119 the slope runs from -0.75 to -0.28, so a tighter
    gate would fail on some groups of seeds; per-seed slopes run from -0.99
    to +0.09, too wide for a per-seed gate.  An estimator that stopped
    converging would give a slope near 0."""
    medians = [np.median([cells[seed, n]["relative_error"] for seed in SEEDS])
               for n in NS]
    slope = _log_log_slope(medians)
    assert slope <= -0.25, f"slope {slope:.3f}, medians {medians}"


KERNEL_NS = (500, 2000, 8000)
KERNEL_SEEDS = tuple(range(20))


def test_e3_median_relative_error_falls_with_n():
    """The log-log slope of E3's across-seed median relative_error against n
    is at most -0.25.  Seeds 0-19 give medians 0.127, 0.051 and 0.025, a
    slope of -0.59.  Over the 20 disjoint groups of twenty seeds in 0-399
    the slope runs from -0.59 to -0.31 (median -0.43), so the gate holds on
    every group; per-seed slopes run from -0.97 to +0.39.  An estimator that
    stopped converging would give a slope near 0."""
    cfg = build_config({"scenario": "functional_vs_n", "estimator": "E3",
                        "sweep": KERNEL_NS, "seeds": KERNEL_SEEDS})
    rel = {(r["seed"], r["n"]): r["relative_error"]
           for r in run_experiment(cfg) if r["seed"] != "median"}
    medians = [np.median([rel[seed, n] for seed in KERNEL_SEEDS])
               for n in KERNEL_NS]
    slope = float(np.polyfit(np.log(KERNEL_NS), np.log(medians), 1)[0])
    assert slope <= -0.25, f"slope {slope:.3f}, medians {medians}"


def test_e4_median_relative_error_falls_with_n():
    """The log-log slope of E4's across-seed median relative_error against n,
    at the runner's auto radius with reg_scale 0.1, is at most -0.1.  Seeds
    0-19 give medians 0.296, 0.264 and 0.206, a slope of -0.13.  Over the 20
    disjoint groups of twenty seeds in 0-399 the slope runs from -0.146 to
    -0.124 (median -0.137), so the gate holds on every group with a margin
    as wide as that spread; per-seed slopes run from -0.19 to -0.08.  E4's
    regularization bias slows it against E3: at reg_scale 1.0 the bias
    dominates and the slope is -0.02, which this gate fails, as it would an
    estimator that stopped converging."""
    cfg = build_config({"scenario": "functional_vs_n", "estimator": "E4",
                        "reg_scale": 0.1, "sweep": KERNEL_NS,
                        "seeds": KERNEL_SEEDS})
    rel = {(r["seed"], r["n"]): r["relative_error"]
           for r in run_experiment(cfg) if r["seed"] != "median"}
    medians = [np.median([rel[seed, n] for seed in KERNEL_SEEDS])
               for n in KERNEL_NS]
    slope = float(np.polyfit(np.log(KERNEL_NS), np.log(medians), 1)[0])
    assert slope <= -0.1, f"slope {slope:.3f}, medians {medians}"
