"""Statistic-function training: simplex, hypercube, and kernel regression."""

import numpy as np
import pytest

from shiftweight import (CategoricalSynthConfig, RegressionSynthConfig,
                         gaussian_gram, gen_categorical, gen_regression,
                         train_hypercube, train_kernel_regressor,
                         split_alpha, train_simplex, weighted_erm)
from shiftweight import predictors
from shiftweight.predictors import (GramFactor, feature_plan,
                                    gaussian_pivoted_cholesky, logistic_fit,
                                    rbf_features)


def _blobs(rng, k, per_class, spread=0.05, gap=10.0):
    """Well-separated 1-D class blobs: class c sits near c * gap."""
    x = np.concatenate([c * gap + spread * rng.normal(size=per_class)
                        for c in range(k)])
    y = np.repeat(np.arange(k), per_class)
    return x, y


def test_rbf_features_have_constant_column():
    x = np.linspace(0, 1, 7)
    feats = rbf_features(x, centers=np.array([0.2, 0.8]), scale=0.5)
    assert feats.shape == (7, 3)
    np.testing.assert_array_equal(feats[:, -1], 1.0)
    assert feats[:, :2].max() <= 1.0 and feats[:, :2].min() >= 0.0


def test_feature_plan_scale_positive_even_for_constant_input():
    centers, scale = feature_plan(np.zeros(50))
    assert scale > 0
    assert np.all(centers == 0)


def test_simplex_outputs_live_on_the_simplex():
    rng = np.random.default_rng(0)
    x, y = _blobs(rng, 3, 40)
    g = train_simplex((x, y), 3)
    out = g(rng.uniform(-20, 40, size=300))
    assert out.shape == (300, 3)
    assert out.min() >= 0.0
    np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-9)


def test_simplex_separable_blobs_accurate():
    rng = np.random.default_rng(1)
    x, y = _blobs(rng, 2, 60)
    g = train_simplex((x, y), 2)
    xh, yh = _blobs(np.random.default_rng(2), 2, 60)
    acc = float(np.mean(np.argmax(g(xh), axis=1) == yh))
    assert acc > 0.9


def test_simplex_single_point_per_class_memorizes():
    x = np.array([0.0, 10.0, 20.0])
    y = np.array([0, 1, 2])
    g = train_simplex((x, y), 3)
    assert list(np.argmax(g(x), axis=1)) == [0, 1, 2]


def test_simplex_random_labels_give_near_uniform_outputs():
    """Labels independent of x leave nothing to learn; every predicted
    class probability stays within 0.2 of 1/k."""
    rng = np.random.default_rng(1)
    x = rng.uniform(0, 1, size=2000)
    y = rng.integers(0, 4, size=2000)
    g = train_simplex((x, y), 4)
    out = g(x)
    assert np.all(np.abs(out - 0.25) < 0.2)


def test_missing_class_raises_with_class_named():
    x = np.array([0.0, 1.0, 2.0])
    y = np.array([0, 0, 2])
    with pytest.raises(ValueError, match="class 1"):
        train_simplex((x, y), 3)
    with pytest.raises(ValueError, match="class 1"):
        train_hypercube((x, y), 3)


@pytest.mark.parametrize("k", (2, 4, 6))
def test_statistic_and_erm_share_one_logistic_fit(k):
    """The simplex statistic is the softmax, and weighted logistic ERM the
    argmax, of the weighted multinomial logistic fit on the RBF features of
    the training covariates, bit for bit."""
    for n in (500, 2000, 4000):
        ds = gen_categorical(CategoricalSynthConfig(k, 0.5, n + k), n, n)
        x, y, xq = ds.source_x, ds.source_y, ds.target_x
        centers, scale = feature_plan(x)
        feats = rbf_features(x, centers, scale)
        feats_q = rbf_features(xq, centers, scale)

        z = feats_q @ logistic_fit(x, y, k)[2]
        ez = np.exp(z - z.max(axis=1, keepdims=True))
        np.testing.assert_array_equal(train_simplex((x, y), k)(xq),
                                      ez / ez.sum(axis=1, keepdims=True))

        for omega in (np.ones(k), np.linspace(0.5, 2.0, k)):
            W = logistic_fit(x, y, k, omega[y])[2]
            fit = weighted_erm((x, y), omega, "logistic", k=k)
            np.testing.assert_array_equal(fit.model.predict(xq),
                                          np.argmax(feats_q @ W, axis=1))
            assert fit.train_weighted_risk == float(
                np.mean(omega[y] * (np.argmax(feats @ W, axis=1) != y)))


@pytest.mark.parametrize("k", (2, 4, 8))
def test_simplex_outputs_are_the_row_major_softmax(k):
    """On a benchmark-sized ERM split (n = m = 8000, alpha 0.5) the simplex
    statistic's outputs are, bit for bit, the row-major softmax of its
    logits, in a C-ordered (n, k) array.  At k = 8 a softmax summed along
    the classes of a class-major copy rounds differently in 0.46 of the
    rows."""
    ds = gen_categorical(CategoricalSynthConfig(k, 0.5, 101000), 8000, 8000)
    sp = split_alpha(ds, 0.5, seed=101000)
    g = train_simplex((sp.erm_x, sp.erm_y), k)
    centers, scale = feature_plan(sp.erm_x)
    for xq in (sp.est_x, ds.target_x):
        z = rbf_features(xq, centers, scale) @ g.coef
        ez = np.exp(z - z.max(axis=1, keepdims=True))
        out = g(xq)
        np.testing.assert_array_equal(out, ez / ez.sum(axis=1, keepdims=True))
        assert out.flags.c_contiguous


def test_hypercube_outputs_clipped_to_unit_cube():
    rng = np.random.default_rng(4)
    x, y = _blobs(rng, 3, 50)
    g = train_hypercube((x, y), 3)
    out = g(rng.uniform(-30, 60, size=500))
    assert out.min() >= -1.0 and out.max() <= 1.0


def test_hypercube_separable_blobs_hit_corners():
    rng = np.random.default_rng(5)
    x, y = _blobs(rng, 3, 80)
    g = train_hypercube((x, y), 3)
    out = g(x)
    corners = np.eye(3)[y]
    assert np.max(np.abs(out - corners)) < 0.1


def test_hypercube_constant_features_return_class_frequencies():
    """With uninformative covariates least squares predicts the label mean."""
    x = np.zeros(40)
    y = np.array([0] * 10 + [1] * 30)
    g = train_hypercube((x, y), 2)
    out = g(np.zeros(5))
    np.testing.assert_allclose(out, [[0.25, 0.75]] * 5, atol=1e-3)


def test_hypercube_symmetric_blobs_reflect():
    rng = np.random.default_rng(6)
    x = np.concatenate([-5 + 0.3 * rng.normal(size=200),
                        5 + 0.3 * rng.normal(size=200)])
    y = np.repeat([0, 1], 200)
    g = train_hypercube((x, y), 2)
    m0 = g(x[:200]).mean(axis=0)
    m1 = g(x[200:]).mean(axis=0)
    np.testing.assert_allclose(m0, m1[::-1], atol=0.05)


def test_gaussian_gram_known_entry():
    """kappa at distance sigma * sqrt(2 ln 2) is exactly one half."""
    sigma = 0.9
    d = sigma * np.sqrt(2 * np.log(2))
    K = gaussian_gram(np.array([0.0, d]), np.array([0.0, d]), sigma)
    np.testing.assert_allclose(np.diag(K), 1.0, atol=1e-15)
    assert abs(K[0, 1] - 0.5) < 1e-12
    assert abs(K[1, 0] - 0.5) < 1e-12


def test_kernel_regressor_interpolates_at_tiny_ridge(monkeypatch):
    monkeypatch.setattr(predictors, "RIDGE", 1e-8)
    x = np.linspace(0, 1, 25)
    y = x.copy()
    u = train_kernel_regressor((x, y), bandwidth=0.9)
    np.testing.assert_allclose(u(x), y, atol=1e-3)


def test_kernel_regressor_heavy_ridge_returns_mean(monkeypatch):
    monkeypatch.setattr(predictors, "RIDGE", 1e9)
    rng = np.random.default_rng(7)
    x = rng.uniform(0, 1, 60)
    y = rng.uniform(0, 1, 60)
    u = train_kernel_regressor((x, y), bandwidth=0.9)
    np.testing.assert_allclose(u(x), y.mean(), atol=1e-6)


def test_kernel_regressor_learns_noisy_identity():
    cfg = RegressionSynthConfig(0.2, 0.8, noise_std=0.1, seed=8)
    ds = gen_regression(cfg, 1000, 500)
    u = train_kernel_regressor((ds.source_x, ds.source_y))
    pred = u(ds.target_x)
    rmse = float(np.sqrt(np.mean((pred - ds.target_y_oracle) ** 2)))
    assert rmse <= 2 * cfg.noise_std


def test_kernel_regressor_deterministic():
    rng = np.random.default_rng(9)
    x = rng.uniform(0, 1, 80)
    y = np.sin(3 * x)
    u1 = train_kernel_regressor((x, y), 0.9)
    u2 = train_kernel_regressor((x, y), 0.9)
    q = rng.uniform(0, 1, 40)
    np.testing.assert_array_equal(u1(q), u2(q))


def test_kernel_regressor_rejects_bad_hyperparameters():
    x = np.linspace(0, 1, 10)
    with pytest.raises(ValueError):
        train_kernel_regressor((x, x), bandwidth=0.0)


def test_statistic_fn_metadata():
    rng = np.random.default_rng(10)
    x, y = _blobs(rng, 4, 30)
    g = train_simplex((x, y), 4)
    h = train_hypercube((x, y), 4)
    assert g.mode == "Simplex" and g.output_dim == 4
    assert h.mode == "HyperCube" and h.output_dim == 4 and h.coef is None
    np.testing.assert_array_equal(
        g.coef, logistic_fit(x, y, 4)[2])
    # u.coef is the Gram factor of u's training covariates, bit for bit, in
    # owned arrays: not a view of the factor's wider column buffer
    x2 = np.linspace(0, 1, 12)
    u = train_kernel_regressor((x2, x2), bandwidth=0.7)
    assert u.mode == "KernelRegressor" and u.output_dim == 1
    phi, pivots, _ = gaussian_pivoted_cholesky(x2, 0.7)
    assert isinstance(u.coef, GramFactor) and u.coef.bandwidth == 0.7
    np.testing.assert_array_equal(u.coef.points, x2)
    np.testing.assert_array_equal(u.coef.phi, phi)
    np.testing.assert_array_equal(u.coef.pivots, pivots)
    assert phi.base.shape[1] > phi.shape[1]
    assert u.coef.points.flags.owndata and u.coef.phi.flags.owndata
    assert u.coef.phi.flags.f_contiguous
