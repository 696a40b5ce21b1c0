"""Synthetic generators, analytic weights, and the alpha split."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftweight import (CategoricalSynthConfig, RegressionSynthConfig,
                         gen_categorical, gen_regression, label_masses,
                         source_density, split_alpha, true_weight_categorical,
                         true_weight_function)
from shiftweight.datagen import _inv_cdf_tilted, class_centers


def test_four_class_marginals():
    """k=4: source [1/8, 3/8, 1/8, 3/8], target the swap."""
    p, q = label_masses(CategoricalSynthConfig(4))
    np.testing.assert_allclose(p, [1 / 8, 3 / 8, 1 / 8, 3 / 8], atol=1e-15)
    np.testing.assert_allclose(q, [3 / 8, 1 / 8, 3 / 8, 1 / 8], atol=1e-15)


def test_four_class_true_weight_and_theta():
    omega = true_weight_categorical(CategoricalSynthConfig(4))
    np.testing.assert_allclose(omega, [3, 1 / 3, 3, 1 / 3], atol=1e-15)
    np.testing.assert_allclose(omega - 1, [2, -2 / 3, 2, -2 / 3], atol=1e-15)


def test_equal_masses_override_removes_shift():
    cfg = CategoricalSynthConfig(2, equal_masses=True)
    p, q = label_masses(cfg)
    np.testing.assert_array_equal(p, q)
    np.testing.assert_allclose(true_weight_categorical(cfg), 1.0, atol=1e-15)


@given(st.integers(2, 12))
def test_marginals_are_distributions(k):
    p, q = label_masses(CategoricalSynthConfig(k))
    assert abs(p.sum() - 1.0) < 1e-12
    assert abs(q.sum() - 1.0) < 1e-12
    assert p.min() > 0 and q.min() > 0


def test_odd_k_alternating_pattern_normalized():
    """k=3: raw masses (1, 3, 1)/3 normalize to (1/5, 3/5, 1/5)."""
    p, q = label_masses(CategoricalSynthConfig(3))
    np.testing.assert_allclose(p, [0.2, 0.6, 0.2], atol=1e-15)
    np.testing.assert_allclose(q, [0.6 / 1.4, 0.2 / 1.4, 0.6 / 1.4], atol=1e-15)


def test_config_validation():
    with pytest.raises(ValueError):
        CategoricalSynthConfig(1)
    with pytest.raises(ValueError):
        CategoricalSynthConfig(4, noise_std=0.0)
    with pytest.raises(ValueError):
        # equal to its int, so it used to pass, and gen_categorical then
        # failed with a raw TypeError from numpy's choice
        CategoricalSynthConfig(4.0)
    with pytest.raises(ValueError):
        RegressionSynthConfig(a=0.2, b=0.8, noise_std=0.0)
    with pytest.raises(ValueError):
        RegressionSynthConfig(a=0.0, b=0.5)
    with pytest.raises(ValueError):
        RegressionSynthConfig(a=0.5, b=1.0)


def test_numpy_integer_class_count_passes():
    ds = gen_categorical(CategoricalSynthConfig(np.int64(3)), 20, 20)
    assert set(np.unique(ds.source_y)) <= {0, 1, 2}


def test_gen_categorical_shapes_and_oracle():
    ds = gen_categorical(CategoricalSynthConfig(4, seed=3), 100, 50)
    assert ds.n == 100 and ds.m == 50
    assert ds.source_x.shape == (100,) and ds.source_y.shape == (100,)
    assert ds.target_x.shape == (50,)
    assert ds.target_y_oracle.shape == (50,)
    assert set(np.unique(ds.source_y)) <= {0, 1, 2, 3}


def test_gen_categorical_rejects_empty():
    with pytest.raises(ValueError):
        gen_categorical(CategoricalSynthConfig(4), 0, 10)
    with pytest.raises(ValueError):
        gen_categorical(CategoricalSynthConfig(4), 10, 0)
    with pytest.raises(ValueError, match="n must be an integer"):
        # used to fail with a raw TypeError from numpy's choice
        gen_categorical(CategoricalSynthConfig(4), 2.5, 10)


def test_gen_regression_rejects_empty():
    for n, m in ((0, 10), (10, 0), (2.5, 10), (10, 2.5)):
        with pytest.raises(ValueError, match="at least 1"):
            gen_regression(RegressionSynthConfig(0.2, 0.8), n, m)


def test_same_seed_bit_identical():
    a = gen_categorical(CategoricalSynthConfig(4, seed=11), 200, 200)
    b = gen_categorical(CategoricalSynthConfig(4, seed=11), 200, 200)
    np.testing.assert_array_equal(a.source_x, b.source_x)
    np.testing.assert_array_equal(a.source_y, b.source_y)
    np.testing.assert_array_equal(a.target_x, b.target_x)
    c = gen_categorical(CategoricalSynthConfig(4, seed=12), 200, 200)
    assert not np.array_equal(a.source_x, c.source_x)

    r1 = gen_regression(RegressionSynthConfig(0.2, 0.8, seed=5), 100, 100)
    r2 = gen_regression(RegressionSynthConfig(0.2, 0.8, seed=5), 100, 100)
    np.testing.assert_array_equal(r1.source_y, r2.source_y)
    np.testing.assert_array_equal(r1.target_x, r2.target_x)


def _gen_categorical_draws(cfg, n, m):
    """The categorical generator's seed consumption written out: center
    offsets, source labels, source noise, target labels, target noise."""
    p, q = label_masses(cfg)
    k = cfg.num_classes
    rng = np.random.default_rng(cfg.seed)
    centers = np.arange(k) + cfg.noise_std * rng.normal(size=k)
    sy = rng.choice(k, size=n, p=p)
    sx = centers[sy] + cfg.noise_std * rng.normal(size=n)
    ty = rng.choice(k, size=m, p=q)
    tx = centers[ty] + cfg.noise_std * rng.normal(size=m)
    return centers, sx, sy, tx, ty


@pytest.mark.parametrize("k", range(2, 9))
def test_gen_categorical_draw_order_is_pinned(k):
    for seed in range(5):
        cfg = CategoricalSynthConfig(k, seed=seed)
        ds = gen_categorical(cfg, 300, 200)
        centers, sx, sy, tx, ty = _gen_categorical_draws(cfg, 300, 200)
        np.testing.assert_array_equal(class_centers(cfg), centers)
        for got, want in ((ds.source_x, sx), (ds.source_y, sy),
                          (ds.target_x, tx), (ds.target_y_oracle, ty)):
            np.testing.assert_array_equal(got, want)


def test_covariates_cluster_at_class_centers():
    cfg = CategoricalSynthConfig(4, noise_std=0.5, seed=7)
    ds = gen_categorical(cfg, 20000, 10)
    centers = class_centers(cfg)
    resid = ds.source_x - centers[ds.source_y]
    assert abs(resid.mean()) < 0.02
    assert abs(resid.std() - 0.5) < 0.02


def test_source_label_frequencies_match_marginal():
    """Monte Carlo sanity at one million draws: each class frequency within
    three binomial standard deviations of its analytic mass."""
    cfg = CategoricalSynthConfig(4, seed=1)
    ds = gen_categorical(cfg, 10 ** 6, 10)
    p, _ = label_masses(cfg)
    freq = np.bincount(ds.source_y, minlength=4) / 10 ** 6
    tol = 3 * np.sqrt(p * (1 - p) / 10 ** 6)
    assert np.all(np.abs(freq - p) <= tol)


def test_regression_weight_spot_values():
    """(2by + 1 - b) / (2ay + 1 - a) at y = 0, 1/2, 1 for a=0.2, b=0.8."""
    omega = true_weight_function(RegressionSynthConfig(0.2, 0.8))
    assert abs(omega(0.0) - 0.25) < 1e-15
    assert abs(omega(0.5) - 1.0) < 1e-15
    assert abs(omega(1.0) - 1.5) < 1e-15


def test_regression_weight_no_shift_is_one():
    omega = true_weight_function(RegressionSynthConfig(0.5, 0.5))
    ys = np.linspace(0, 1, 17)
    np.testing.assert_allclose(omega(ys), 1.0, atol=1e-15)


def test_weight_integrates_to_one_under_source():
    """E_P[omega] = 1: the weight times the source density is the target
    density, which integrates to 1."""
    cfg = RegressionSynthConfig(0.3, 0.7)
    ys = np.linspace(0, 1, 20001)
    w = true_weight_function(cfg)(ys)
    pdf = source_density(cfg)(ys)
    assert abs(np.trapezoid(w * pdf, ys) - 1.0) < 1e-9


@given(st.floats(1e-6, 1 - 1e-6), st.floats(0.01, 0.99))
@settings(max_examples=80)
def test_inverse_cdf_inverts_the_tilted_cdf(u, a):
    y = float(_inv_cdf_tilted(np.array([u]), a)[0])
    assert 0.0 <= y <= 1.0 + 1e-12
    assert abs((1 - a) * y + a * y * y - u) < 1e-10


def test_inverse_cdf_spot_values():
    """For a=0.2 the CDF is 0.8y + 0.2y^2: F(0.25)=0.2125, F(0.5)=0.45,
    F(0.75)=0.7125, so the inverse maps those masses back."""
    got = _inv_cdf_tilted(np.array([0.2125, 0.45, 0.7125]), 0.2)
    np.testing.assert_allclose(got, [0.25, 0.5, 0.75], atol=1e-12)


def test_inverse_cdf_tiny_tilt_falls_back_to_uniform():
    u = np.array([0.0, 0.3, 1.0])
    np.testing.assert_array_equal(_inv_cdf_tilted(u, 1e-12), u)


def test_empirical_regression_cdf_matches_analytic():
    """Empirical CDF of 1e5 source draws vs (1-a)y + ay^2 at three quantiles."""
    cfg = RegressionSynthConfig(0.2, 0.8, seed=9)
    ds = gen_regression(cfg, 10 ** 5, 10)
    for y0, f0 in ((0.25, 0.2125), (0.5, 0.45), (0.75, 0.7125)):
        emp = float(np.mean(ds.source_y <= y0))
        assert abs(emp - f0) < 0.01, f"CDF at {y0}: {emp} vs {f0}"


def test_regression_covariate_is_label_plus_noise():
    cfg = RegressionSynthConfig(0.2, 0.8, noise_std=0.1, seed=2)
    ds = gen_regression(cfg, 50000, 10)
    resid = ds.source_x - ds.source_y
    assert abs(resid.mean()) < 0.005
    assert abs(resid.std() - 0.1) < 0.005


def test_split_sizes_follow_ceiling_convention():
    ds = gen_categorical(CategoricalSynthConfig(4, seed=0), 100, 10)
    sp = split_alpha(ds, 0.5)
    assert len(sp.est_x) == 50 and len(sp.erm_x) == 50

    ds = gen_categorical(CategoricalSynthConfig(4, seed=0), 101, 10)
    sp = split_alpha(ds, 0.5)
    assert len(sp.est_x) == 51 and len(sp.erm_x) == 50


def test_split_alpha_one_puts_everything_in_estimation():
    ds = gen_categorical(CategoricalSynthConfig(4, seed=0), 40, 10)
    sp = split_alpha(ds, 1.0)
    assert len(sp.est_x) == 40 and len(sp.erm_x) == 0


def test_split_partitions_source():
    ds = gen_categorical(CategoricalSynthConfig(4, seed=0), 97, 10)
    sp = split_alpha(ds, 0.37, seed=4)
    joined = np.sort(np.concatenate([sp.est_idx, sp.erm_idx]))
    np.testing.assert_array_equal(joined, np.arange(97))
    np.testing.assert_array_equal(ds.source_x[sp.est_idx], sp.est_x)
    np.testing.assert_array_equal(ds.source_y[sp.erm_idx], sp.erm_y)


def test_split_rejects_bad_alpha():
    ds = gen_categorical(CategoricalSynthConfig(4, seed=0), 10, 10)
    with pytest.raises(ValueError):
        split_alpha(ds, 0.0)
    with pytest.raises(ValueError):
        split_alpha(ds, 1.2)


def test_split_deterministic_given_seed():
    ds = gen_categorical(CategoricalSynthConfig(4, seed=0), 64, 10)
    a = split_alpha(ds, 0.5, seed=8)
    b = split_alpha(ds, 0.5, seed=8)
    np.testing.assert_array_equal(a.est_idx, b.est_idx)
    c = split_alpha(ds, 0.5, seed=9)
    assert not np.array_equal(a.est_idx, c.est_idx)
