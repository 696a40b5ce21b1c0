"""Confidence radii, composite error bound, and divergence diagnostics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftweight import (CategoricalSynthConfig, NonFiniteInput,
                         RegressionSynthConfig, categorical_radii, composite_epsilon,
                         confidence_report, divergence_report,
                         functional_radii, gen_categorical,
                         population_moments_categorical, source_density,
                         true_weight_function)
from shiftweight.datagen import class_centers

# Frozen hand evaluations of the radius formulas (computed once with
# math.log / math.sqrt in a standalone script, independent of this package).
DP_HAND = 0.19206455826398416      # sqrt(2/200 * ln 40)
DT_HAND = 0.5920828749203193       # 2 * sqrt(4/200 * ln 80)
DQ_FUN_HAND = 0.17308183826022852  # 2 * sqrt(2/800 * ln 20)
EPS_HAND = 1.4646686564386333      # composite bound, d=k=2, n=m=800, delta=0.1


def test_categorical_radius_p_matches_hand_value():
    dp, _, _ = categorical_radii(d=2, k=2, alpha=0.5, n=400, m=400, delta=0.1)
    assert abs(dp - DP_HAND) < 1e-6
    assert abs(dp - math.sqrt(2 / 200 * math.log(2 * 2 / 0.1))) < 1e-12


def test_categorical_radius_T_matches_hand_value():
    _, _, dT = categorical_radii(d=2, k=2, alpha=0.5, n=400, m=400, delta=0.1)
    assert abs(dT - DT_HAND) < 1e-6
    assert abs(dT - 2 * math.sqrt(2 * 2 / 200 * math.log(2 * 4 / 0.1))) < 1e-12


def test_functional_radius_q_matches_hand_value():
    _, dq, _ = functional_radii(alpha=0.5, n=400, m=800, delta=0.1)
    assert abs(dq - DQ_FUN_HAND) < 1e-6
    assert abs(dq - 2 * math.sqrt(2 / 800 * math.log(2 / 0.1))) < 1e-12


def test_categorical_radius_q_uses_target_count():
    _, dq, _ = categorical_radii(d=3, k=4, alpha=0.5, n=1000, m=250, delta=0.2)
    assert abs(dq - math.sqrt(3 / 250 * math.log(6 / 0.2))) < 1e-12


def test_functional_radii_p_equals_T():
    dp, _, dT = functional_radii(alpha=0.3, n=1700, m=900, delta=0.05)
    assert dp == dT


@given(st.integers(1, 20), st.integers(2, 20),
       st.floats(0.05, 1.0), st.integers(10, 10 ** 6),
       st.integers(10, 10 ** 6), st.floats(0.001, 0.999))
@settings(max_examples=60)
def test_categorical_radii_match_symbolic_rederivation(d, k, alpha, n, m, delta):
    """Each radius equals the closed-form expression re-typed here."""
    dp, dq, dT = categorical_radii(d, k, alpha, n, m, delta)
    an = alpha * n
    assert abs(dp - math.sqrt(d / an * math.log(2 * d / delta))) < 1e-12
    assert abs(dq - math.sqrt(d / m * math.log(2 * d / delta))) < 1e-12
    assert abs(dT - 2 * math.sqrt(2 * d / an * math.log(2 * (d + k) / delta))) < 1e-12
    assert dp >= 0 and dq >= 0 and dT >= 0


@given(st.floats(0.05, 1.0), st.integers(10, 10 ** 6), st.integers(10, 10 ** 6),
       st.floats(0.001, 0.999))
@settings(max_examples=60)
def test_functional_radii_match_symbolic_rederivation(alpha, n, m, delta):
    dp, dq, dT = functional_radii(alpha, n, m, delta)
    an = alpha * n
    assert abs(dp - 2 * math.sqrt(2 / an * math.log(2 / delta))) < 1e-12
    assert abs(dq - 2 * math.sqrt(2 / m * math.log(2 / delta))) < 1e-12
    assert dp == dT


def test_radii_shrink_with_more_samples():
    small = categorical_radii(4, 4, 0.5, 500, 500, 0.1)
    large = categorical_radii(4, 4, 0.5, 5000, 5000, 0.1)
    assert all(l < s for s, l in zip(small, large))
    fs = functional_radii(0.5, 500, 500, 0.1)
    fl = functional_radii(0.5, 5000, 5000, 0.1)
    assert all(l < s for s, l in zip(fs, fl))


def test_radii_grow_as_delta_shrinks():
    loose = categorical_radii(4, 4, 0.5, 1000, 1000, 0.2)
    tight = categorical_radii(4, 4, 0.5, 1000, 1000, 0.01)
    assert all(t > l for l, t in zip(loose, tight))


@pytest.mark.parametrize("delta", [0.0, 1.0, -0.3, 1.7])
def test_invalid_delta_rejected(delta):
    with pytest.raises(ValueError):
        categorical_radii(2, 2, 0.5, 100, 100, delta)
    with pytest.raises(ValueError):
        functional_radii(0.5, 100, 100, delta)


@pytest.mark.parametrize("d, k, bad", [(0, 4, "d"), (4, 0, "k"), (2.5, 4, "d"),
                                       (4, float("nan"), "k")])
def test_invalid_counts_rejected(d, k, bad):
    """d = 0 used to fail as a bare math domain error, k = 0 and a NaN k
    gave radii, and a fractional d went on into the logarithm."""
    with pytest.raises(ValueError, match=f"{bad} must be an integer"):
        categorical_radii(d, k, 0.5, 100, 100, 0.1)


@pytest.mark.parametrize("alpha, n, m", [(-0.5, -100, 100), (0.0, 100, 100),
                                         (0.5, 0, 100), (0.5, 100, 0),
                                         (0.5, 100, -1)])
def test_invalid_sample_counts_rejected(alpha, n, m):
    """alpha, n and m are each checked: a negative alpha with a negative n
    used to give radii, since only their product was tested, and
    confidence_report gave epsilon_delta 37.9 from them."""
    with pytest.raises(ValueError, match="sample counts must be positive"):
        categorical_radii(2, 2, alpha, n, m, 0.1)
    with pytest.raises(ValueError, match="sample counts must be positive"):
        functional_radii(alpha, n, m, 0.1)
    with pytest.raises(ValueError, match="sample counts must be positive"):
        confidence_report("functional", alpha, n, m, 0.1, 1.0, 1.0)


def test_composite_epsilon_formula():
    eps = composite_epsilon((0.1, 0.2, 0.3), proxy_inv_norm=1.5, theta_max=2.0)
    assert abs(eps - 2 * 1.5 * (0.2 + 0.1 + 2.0 * 0.3)) < 1e-15


def test_composite_epsilon_zero_radii():
    assert composite_epsilon((0.0, 0.0, 0.0), 10.0, 5.0) == 0.0


def test_confidence_report_rejects_unknown_path():
    with pytest.raises(ValueError):
        confidence_report("other", 0.5, 800, 800, 0.1, 1.0, 1.0, d=2, k=2)


def test_confidence_report_matches_hand_evaluated_bound():
    """Composite bound at d=k=2, alpha=0.5, n=m=800, delta=0.1, proxy=1,
    theta_max=1: radii are evaluated at delta/3 and combined with prefactor 2."""
    rep = confidence_report("categorical", alpha=0.5, n=800, m=800, delta=0.1,
                            proxy_inv_norm=1.0, theta_max=1.0, d=2, k=2)
    assert abs(rep.epsilon_delta - EPS_HAND) < 1e-12
    # re-derive longhand
    dp = math.sqrt(2 / 400 * math.log(6 * 2 / 0.1))
    dq = math.sqrt(2 / 800 * math.log(6 * 2 / 0.1))
    dT = 2 * math.sqrt(2 * 2 / 400 * math.log(6 * 4 / 0.1))
    assert abs(rep.epsilon_delta - 2 * (dq + dp + dT)) < 1e-12
    assert abs(rep.delta_p - dp) < 1e-12
    assert abs(rep.delta_q - dq) < 1e-12
    assert abs(rep.delta_T - dT) < 1e-12


def test_confidence_report_functional_prefactor():
    """The functional bound carries an overall factor 4 relative to each
    sqrt(2 ln(6/delta)/count) term (internal 2 times prefactor 2)."""
    rep = confidence_report("functional", alpha=0.5, n=800, m=800, delta=0.1,
                            proxy_inv_norm=1.0, theta_max=1.0)
    t_an = math.sqrt(2 / 400 * math.log(6 / 0.1))
    t_m = math.sqrt(2 / 800 * math.log(6 / 0.1))
    expected = 4 * (t_m + t_an + 1.0 * t_an)
    assert abs(rep.epsilon_delta - expected) < 1e-12


def test_confidence_report_shrinks_with_samples():
    small = confidence_report("categorical", 0.5, 800, 800, 0.1, 1.0, 1.0,
                              d=2, k=2)
    large = confidence_report("categorical", 0.5, 3200, 3200, 0.1, 1.0, 1.0,
                              d=2, k=2)
    assert large.epsilon_delta < small.epsilon_delta


def test_divergence_report_categorical_oracle():
    """Shifted four-class problem: sup weight 3, second moment 7/3."""
    omega = np.array([3.0, 1 / 3, 3.0, 1 / 3])
    p = np.array([1 / 8, 3 / 8, 1 / 8, 3 / 8])
    d_inf, d_second = divergence_report(omega, p)
    assert d_inf == 3.0
    assert abs(d_second - 7 / 3) < 1e-12


def test_divergence_report_no_shift():
    d_inf, d_second = divergence_report(np.ones(5), np.full(5, 0.2))
    assert d_inf == 1.0
    assert abs(d_second - 1.0) < 1e-12


def test_divergence_report_functional_sup_at_right_edge():
    """For the increasing rational weight (a=0.2, b=0.8) the sup is w(1) = 1.5."""
    cfg = RegressionSynthConfig(a=0.2, b=0.8)
    d_inf, d_second = divergence_report(true_weight_function(cfg),
                                        source_density(cfg))
    assert abs(d_inf - 1.5) < 1e-9
    assert d_second >= 1.0


def test_divergence_report_rejects_negative_weight():
    with pytest.raises(ValueError):
        divergence_report(np.array([-0.5, 2.5]), np.array([0.5, 0.5]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_divergence_report_rejects_non_finite_input(bad):
    """NaN used to pass both checks (the mass test is False on NaN) and
    came back as (nan, nan)."""
    with pytest.raises(NonFiniteInput, match="omega"):
        divergence_report(np.array([bad, 1.0]), np.array([0.5, 0.5]))
    with pytest.raises(NonFiniteInput, match="p_source"):
        divergence_report(np.array([1.0, 1.0]), np.array([bad, 0.5]))
    cfg = RegressionSynthConfig(a=0.2, b=0.8)
    omega, pdf = true_weight_function(cfg), source_density(cfg)
    with pytest.raises(NonFiniteInput, match="omega"):
        divergence_report(lambda ys: np.where(ys > 0.5, bad, omega(ys)), pdf)
    with pytest.raises(NonFiniteInput, match="p_source"):
        divergence_report(omega, lambda ys: np.where(ys > 0.5, bad, pdf(ys)))


def test_divergence_report_rejects_non_unit_mean():
    with pytest.raises(ValueError):
        divergence_report(np.array([2.0, 2.0]), np.array([0.5, 0.5]))


def test_divergence_report_checks_a_weight_function():
    """The function path applies the vector path's two checks on its grid."""
    cfg = RegressionSynthConfig(a=0.2, b=0.8)
    omega, pdf = true_weight_function(cfg), source_density(cfg)
    with pytest.raises(ValueError, match="nonnegative"):
        divergence_report(lambda ys: omega(ys) - 1.0, pdf)
    with pytest.raises(ValueError, match="expected 1"):
        divergence_report(lambda ys: 2.0 * omega(ys), pdf)


def test_empirical_target_mean_covered_by_radius():
    """Block-empirical validity check: over 200 disjoint target blocks of 2000
    samples each (shared class centers), |q_hat - q| <= Delta_q holds in at
    least 90% of blocks, with q analytic."""
    cfg = CategoricalSynthConfig(4, seed=0)
    pop = population_moments_categorical(cfg)
    trials, block = 200, 2000
    ds = gen_categorical(cfg, 10, trials * block)
    centers = class_centers(cfg)

    def g(x):
        lab = np.argmin(np.abs(x[:, None] - centers[None, :]), axis=1)
        return np.eye(4)[lab]

    _, dq, _ = categorical_radii(4, 4, 0.5, 2 * block, block, 0.1)
    hits = 0
    for t in range(trials):
        chunk = ds.target_x[t * block:(t + 1) * block]
        q_hat = g(chunk).mean(axis=0)
        if np.linalg.norm(q_hat - pop.q_hat) <= dq:
            hits += 1
    assert hits >= 0.9 * trials, f"coverage {hits}/{trials}"
