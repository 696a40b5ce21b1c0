"""Weighted ERM, bounded-loss evaluation, and the gamma blend."""

import logging

import numpy as np
import pytest

from shiftweight import (DataError, blend_gamma, oracle_target_risk,
                         train_kernel_regressor, weighted_erm)
from shiftweight.erm import FittedModel


def _exact_count_labels(counts):
    return np.repeat(np.arange(len(counts)), counts)


def _clustered(y, spread=0.05, seed=0):
    rng = np.random.default_rng(seed)
    return y.astype(float) + spread * rng.standard_normal(len(y))


def test_blend_gamma_values():
    theta = np.array([2.0, -2.0 / 3, -2.0 / 3, -2.0 / 3])
    np.testing.assert_allclose(blend_gamma(theta, 1.0),
                               [3.0, 1.0 / 3, 1.0 / 3, 1.0 / 3])
    np.testing.assert_allclose(blend_gamma(theta, 0.5),
                               [2.0, 2.0 / 3, 2.0 / 3, 2.0 / 3])
    np.testing.assert_array_equal(blend_gamma(theta, 0.0), 1.0)


def test_blend_gamma_validates_range():
    for bad in (-0.01, 1.01):
        with pytest.raises(ValueError):
            blend_gamma(np.zeros(3), bad)


def test_vector_and_callable_weights_agree():
    y = _exact_count_labels([12, 12, 12])
    x = _clustered(y)
    vec = np.array([1.0, 2.0, 0.5])
    res_v = weighted_erm((x, y), vec, k=3)
    res_c = weighted_erm((x, y), lambda ys: vec[np.asarray(ys, dtype=int)],
                         k=3)
    assert res_v.train_weighted_risk == res_c.train_weighted_risk
    probe = np.linspace(-0.5, 2.5, 40)
    np.testing.assert_array_equal(res_v.model.predict(probe),
                                  res_c.model.predict(probe))


def test_change_of_measure_risk_identity_exact_counts():
    """With x a deterministic function of y and exact class counts matching
    p and q, the omega-weighted source risk of any fitted classifier equals
    its target risk; here with omega = q / p = (3, 1/3, 3, 1/3)."""
    n = 80
    y_src = _exact_count_labels([10, 30, 10, 30])
    y_tgt = _exact_count_labels([30, 10, 30, 10])
    x_src = y_src.astype(float)
    x_tgt = y_tgt.astype(float)
    omega = np.array([3.0, 1.0 / 3, 3.0, 1.0 / 3])
    res = weighted_erm((x_src, y_src), omega, k=4)
    assert len(y_src) == n
    tgt = oracle_target_risk(res.model, x_tgt, y_tgt)
    assert res.train_weighted_risk == pytest.approx(tgt, abs=1e-12)


def test_zero_weight_class_matches_training_without_it():
    """Zeroing one class's weight and dropping that class from the sample
    both yield perfect separable fits on the remaining classes."""
    y = _exact_count_labels([15, 15, 15])
    x = _clustered(y, seed=3)
    keep = y != 2
    res_zero = weighted_erm((x, y), np.array([1.0, 1.0, 0.0]), k=3)
    res_drop = weighted_erm((x[keep], y[keep]), np.array([1.0, 1.0]), k=2)
    assert res_zero.train_weighted_risk == pytest.approx(0.0, abs=1e-9)
    assert res_drop.train_weighted_risk == pytest.approx(0.0, abs=1e-9)
    np.testing.assert_array_equal(res_zero.model.predict(x[keep]), y[keep])
    np.testing.assert_array_equal(res_drop.model.predict(x[keep]), y[keep])


def test_negative_weights_clamped_with_warning(caplog):
    y = _exact_count_labels([10, 10])
    x = _clustered(y, seed=4)
    with caplog.at_level(logging.WARNING, logger="shiftweight"):
        res = weighted_erm((x, y), np.array([1.0, -0.5]), k=2)
    assert any("clamped" in rec.message for rec in caplog.records)
    assert np.isfinite(res.train_weighted_risk)


def test_degenerate_weights_raise():
    y = _exact_count_labels([5, 5])
    x = _clustered(y, seed=5)
    with pytest.raises(ValueError):
        weighted_erm((x, y), np.array([0.0, 0.0]), k=2)
    with pytest.raises(ValueError):
        weighted_erm((x, y), np.array([1.0, np.inf]), k=2)
    with pytest.raises(ValueError):
        weighted_erm((x, y), np.array([1.0, np.nan]), k=2)


def test_empty_split_and_unknown_family_raise():
    with pytest.raises(ValueError):
        weighted_erm((np.array([]), np.array([])), np.ones(2), k=2)
    y = _exact_count_labels([5, 5])
    with pytest.raises(ValueError):
        weighted_erm((_clustered(y), y), np.ones(2), family="nearest")


def test_kernel_ridge_family_with_callable_weights():
    rng = np.random.default_rng(6)
    x = rng.uniform(0, 1, 150)
    y = np.sin(3 * x) + 0.02 * rng.standard_normal(150)
    res = weighted_erm((x, y), lambda ys: np.ones_like(ys),
                       family="kernel_ridge", bandwidth=0.3)
    probe = np.linspace(0.1, 0.9, 25)
    assert np.max(np.abs(res.model.predict(probe) - np.sin(3 * probe))) < 0.15
    assert 0.0 <= res.train_weighted_risk < 0.05


def test_kernel_ridge_rejects_a_newton_start():
    x = np.linspace(0.0, 1.0, 40)
    with pytest.raises(DataError, match="start"):
        weighted_erm((x, np.sin(3 * x)), lambda ys: np.ones_like(ys),
                     family="kernel_ridge", start=np.zeros((33, 2)))


def _real_labels(n=300, seed=12):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1, n)
    return x, np.sin(3 * x) + 0.1 * rng.standard_normal(n)


def test_kernel_ridge_on_the_statistics_factor_matches_a_fresh_one():
    """Kernel-ridge ERM started from u.coef, the Gram factor of u's training
    covariates, predicts what it predicts when it builds the factor itself,
    bit for bit.  Its train_weighted_risk is scored from the in-sample fit
    phi a + ybar; that is the risk of the predictor at the covariates up to
    rounding."""
    x, y = _real_labels()
    u = train_kernel_regressor((x, y), bandwidth=0.5)

    def omega(ys):
        return 1.0 + 0.5 * np.cos(3 * ys)

    shared = weighted_erm((x, y), omega, "kernel_ridge", bandwidth=0.5,
                          start=u.coef)
    fresh = weighted_erm((x, y), omega, "kernel_ridge", bandwidth=0.5)
    probe = np.linspace(-0.2, 1.2, 97)
    np.testing.assert_array_equal(shared.model.predict(probe),
                                  fresh.model.predict(probe))
    assert shared.train_weighted_risk == fresh.train_weighted_risk
    risk_of_predictor = float(np.mean(
        omega(y) * np.clip((fresh.model.predict(x) - y) ** 2, 0.0, 1.0)))
    assert shared.train_weighted_risk == pytest.approx(risk_of_predictor,
                                                       rel=1e-12, abs=0.0)


@pytest.mark.parametrize("change", ("one ulp", "shorter split", "bandwidth"))
def test_kernel_ridge_rejects_a_factor_of_other_covariates(change):
    """A factor is taken only for the covariates it was built on, equal
    value for value, and at its bandwidth; anything else raises rather
    than being silently rebuilt."""
    x, y = _real_labels()
    u = train_kernel_regressor((x, y), bandwidth=0.5)
    bandwidth = 0.5
    if change == "one ulp":
        x = x.copy()
        x[7] = np.nextafter(x[7], 2.0)
    elif change == "shorter split":
        x, y = x[:-1], y[:-1]
    else:
        bandwidth = np.nextafter(0.5, 1.0)
    with pytest.raises(DataError, match="start"):
        weighted_erm((x, y), lambda ys: np.ones_like(ys), "kernel_ridge",
                     bandwidth=bandwidth, start=u.coef)


def test_oracle_risk_constant_classifier_exact_fraction():
    model = FittedModel("logistic",
                        lambda xq: np.zeros(len(xq), dtype=int))
    y = np.array([0, 0, 0, 1, 2, 2, 2, 3])
    assert oracle_target_risk(model, np.zeros(8), y) == 5.0 / 8.0


def test_oracle_risk_random_classifier_near_chance():
    rng = np.random.default_rng(8)
    model = FittedModel("logistic",
                        lambda xq: rng.integers(0, 4, len(xq)))
    y = rng.integers(0, 4, 10 ** 4)
    risk = oracle_target_risk(model, np.zeros(10 ** 4), y)
    assert abs(risk - 0.75) < 0.03


def test_oracle_risk_perfect_classifier_near_zero():
    y_train = _exact_count_labels([30, 30, 30])
    x_train = _clustered(y_train, seed=9)
    res = weighted_erm((x_train, y_train), np.ones(3), k=3)
    y_new = _exact_count_labels([20, 20, 20])
    x_new = _clustered(y_new, seed=10)
    assert oracle_target_risk(res.model, x_new, y_new) <= 0.02


def test_oracle_risk_clips_squared_error():
    model = FittedModel("kernel_ridge", lambda xq: np.zeros(len(xq)))
    assert oracle_target_risk(model, np.zeros(1), np.array([2.0])) == 1.0
    assert oracle_target_risk(model, np.zeros(1), np.array([0.5])) == 0.25

