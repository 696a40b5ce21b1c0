"""Empirical moment estimators: confusion operator and Gram factors."""

import numpy as np
import pytest

from shiftweight import (CategoricalSynthConfig, DataError, NonFiniteInput,
                         ShiftWeightError, e1_direct,
                         estimate_categorical_moments,
                         estimate_kernel_moments, gen_categorical,
                         population_moments_categorical, split_alpha,
                         train_kernel_regressor, train_simplex)
from shiftweight.datagen import class_centers, label_masses
from shiftweight.predictors import (FACTOR_TOL, gaussian_gram,
                                    gaussian_pivoted_cholesky)


def _rounding(factor):
    """Rounding slack of phi @ phi.T and of the tracked residual, rank r."""
    return 2 * (factor.shape[1] + 1) * np.finfo(float).eps


def _identity_stat(k):
    """One-hot statistic that reads the class straight off the covariate."""
    def g(x):
        return np.eye(k)[np.asarray(x, dtype=int)]
    return g


def test_perfect_classifier_gives_diagonal_operator():
    """Balanced two-class sample with an oracle one-hot statistic: the joint
    operator is diag(0.5, 0.5)."""
    x = np.array([0.0, 1.0])
    y = np.array([0, 1])
    mom = estimate_categorical_moments((x, y), x, _identity_stat(2), 2)
    np.testing.assert_array_equal(mom.T_hat, [[0.5, 0.0], [0.0, 0.5]])


def test_identical_source_and_target_covariates_equalize_means():
    rng = np.random.default_rng(0)
    x = rng.normal(size=30)
    y = rng.integers(0, 3, size=30)
    y[:3] = [0, 1, 2]

    def g(xs):
        return np.stack([np.tanh(xs), np.cos(xs)], axis=1)

    mom = estimate_categorical_moments((x, y), x.copy(), g, 3)
    np.testing.assert_array_equal(mom.q_hat, mom.p_hat)


def test_rank_one_average_by_hand():
    """Two samples, outputs (1,0) and (0,1), both labeled 0: column 0 averages
    to (0.5, 0.5) and column 1 stays zero."""
    outs = np.array([[1.0, 0.0], [0.0, 1.0]])

    def g(xs):
        return outs[np.asarray(xs, dtype=int)]

    mom = estimate_categorical_moments((np.array([0.0, 1.0]),
                                        np.array([0, 0])),
                                       np.array([0.0]), g, 2)
    np.testing.assert_array_equal(mom.T_hat[:, 0], [0.5, 0.5])
    np.testing.assert_array_equal(mom.T_hat[:, 1], [0.0, 0.0])


def test_row_sums_reproduce_source_mean_exactly():
    """T_hat @ 1 and p_hat are the same empirical average, bit for bit."""
    cfg = CategoricalSynthConfig(4, seed=1)
    ds = gen_categorical(cfg, 400, 300)
    sp = split_alpha(ds, 0.6, seed=1)
    g = train_simplex((sp.erm_x, sp.erm_y), 4)
    mom = estimate_categorical_moments((sp.est_x, sp.est_y), ds.target_x, g, 4)
    np.testing.assert_array_equal(mom.T_hat.sum(axis=1), mom.p_hat)


def test_simplex_moments_form_empirical_joint():
    cfg = CategoricalSynthConfig(4, seed=2)
    ds = gen_categorical(cfg, 500, 200)
    sp = split_alpha(ds, 0.5, seed=2)
    g = train_simplex((sp.erm_x, sp.erm_y), 4)
    mom = estimate_categorical_moments((sp.est_x, sp.est_y), ds.target_x, g, 4)
    assert mom.T_hat.min() >= 0.0
    assert abs(mom.T_hat.sum() - 1.0) < 1e-9
    assert mom.p_hat.min() >= -1.0 and mom.p_hat.max() <= 1.0
    assert mom.q_hat.min() >= -1.0 and mom.q_hat.max() <= 1.0
    assert mom.n_est == len(sp.est_x) and mom.m == ds.m


def test_moment_counts_recorded():
    x = np.linspace(0, 3, 12)
    y = np.tile([0, 1, 2, 3], 3)
    mom = estimate_categorical_moments((x, y), np.zeros(7), _identity_stat(4), 4)
    assert mom.n_est == 12 and mom.m == 7


def test_empty_split_rejected():
    with pytest.raises(ValueError):
        estimate_categorical_moments((np.array([]), np.array([])),
                                     np.zeros(3), _identity_stat(2), 2)
    with pytest.raises(ValueError):
        estimate_categorical_moments((np.zeros(3), np.zeros(3, dtype=int)),
                                     np.array([]), _identity_stat(2), 2)


def test_label_out_of_range_rejected():
    with pytest.raises(ValueError):
        estimate_categorical_moments((np.zeros(2), np.array([0, 5])),
                                     np.zeros(2), _identity_stat(2), 2)


@pytest.mark.parametrize("bad, message", ((1.5, "class label 1.5 is not an integer"),
                                          (2, "class label 2 outside 0..1"),
                                          (-1, "class label -1 outside 0..1")))
def test_categorical_moments_reject_bad_class_labels(bad, message):
    """A label of 1.5 is not counted as class 1, and one outside 0..k-1 is
    not left to fail as a raw ValueError."""
    with pytest.raises(DataError, match=message):
        estimate_categorical_moments((np.zeros(3), np.array([0.0, 1.0, bad])),
                                     np.zeros(2), _identity_stat(2), 2)


def test_population_moments_recover_theta_exactly():
    """Feeding analytic population moments to the direct estimator returns the
    analytic shift with no sampling error."""
    cfg = CategoricalSynthConfig(4, seed=0)
    pop = population_moments_categorical(cfg)
    est = e1_direct(pop)
    np.testing.assert_allclose(est.theta_hat, [2, -2 / 3, 2, -2 / 3],
                               atol=1e-10)


def test_population_operator_columns_are_conditional_masses():
    cfg = CategoricalSynthConfig(5, seed=3)
    pop = population_moments_categorical(cfg)
    p, q = label_masses(cfg)
    np.testing.assert_allclose(pop.T_hat.sum(axis=0), p, atol=1e-12)
    np.testing.assert_allclose(pop.p_hat, pop.T_hat.sum(axis=1), atol=1e-15)
    assert abs(pop.q_hat.sum() - 1.0) < 1e-12


def _population_moments_ndtr(cfg):
    """The population triple with scipy's ndtr as the normal CDF."""
    from scipy.special import ndtr

    p, q = label_masses(cfg)
    centers = class_centers(cfg)
    k = cfg.num_classes
    order = np.argsort(centers)
    cuts = 0.5 * (centers[order][:-1] + centers[order][1:])
    lo = np.concatenate(([-np.inf], cuts))
    hi = np.concatenate((cuts, [np.inf]))
    M = np.zeros((k, k))
    for pos in range(k):
        M[order[pos], :] = (ndtr((hi[pos] - centers) / cfg.noise_std)
                            - ndtr((lo[pos] - centers) / cfg.noise_std))
    return M * p[None, :], M @ p, M @ q


def test_population_moments_match_the_ndtr_reference():
    """The erfc-based normal CDF gives the same triple as scipy's ndtr to
    1e-15 for k = 2..8 and noise 0.1..2 over 20 seeds."""
    for seed, noise in enumerate(np.linspace(0.1, 2.0, 20)):
        for k in range(2, 9):
            cfg = CategoricalSynthConfig(k, noise_std=noise, seed=seed)
            pop = population_moments_categorical(cfg)
            for got, ref in zip((pop.T_hat, pop.p_hat, pop.q_hat),
                                _population_moments_ndtr(cfg)):
                np.testing.assert_allclose(got, ref, rtol=0, atol=1e-15)


def test_empirical_operator_converges_to_population():
    """Median spectral error of T_hat vs the analytic operator shrinks from
    n=500 to n=4000 (20 seeds, shared centers via the oracle statistic)."""
    cfg = CategoricalSynthConfig(4, seed=0)
    pop = population_moments_categorical(cfg)
    centers = class_centers(cfg)

    def g(x):
        return np.eye(4)[np.argmin(np.abs(x[:, None] - centers[None, :]),
                                   axis=1)]

    big = gen_categorical(cfg, 200000, 10)
    rng = np.random.default_rng(42)
    errs = {500: [], 4000: []}
    for n in errs:
        for _ in range(20):
            idx = rng.choice(200000, size=n, replace=False)
            mom = estimate_categorical_moments(
                (big.source_x[idx], big.source_y[idx]), np.zeros(4), g, 4)
            errs[n].append(np.linalg.norm(mom.T_hat - pop.T_hat, 2))
    assert np.median(errs[4000]) < np.median(errs[500])


def _gram(factor):
    return factor @ factor.T


def test_kernel_gram_all_ones_for_identical_labels():
    x = np.linspace(0, 1, 6)
    y = np.full(6, 0.3)
    u = train_kernel_regressor((x, np.linspace(0, 1, 6)))
    km = estimate_kernel_moments((x, y), x, u, bandwidth=0.9)
    assert km.phi.shape == (6, 1)
    np.testing.assert_allclose(_gram(km.phi), 1.0, atol=1e-15)


def test_kernel_gram_half_at_known_distance():
    d = 0.9 * np.sqrt(2 * np.log(2))
    y = np.array([0.0, d])
    x = np.array([0.0, d])
    u = train_kernel_regressor((x, y), ridge=1e-8)
    km = estimate_kernel_moments((x, y), x, u, bandwidth=0.9)
    assert abs(_gram(km.phi)[0, 1] - 0.5) < 1e-12


def test_kernel_blocks_match_double_loop():
    """Gram blocks of a 3 + 2 instance, read off the factors, against
    brute-force pairwise kernels."""
    xs = np.array([0.1, 0.5, 0.9])
    ys = np.array([0.2, 0.4, 0.8])
    xt = np.array([0.3, 0.7])
    u = train_kernel_regressor((xs, ys), bandwidth=0.9, ridge=1e-2)
    km = estimate_kernel_moments((xs, ys), xt, u, bandwidth=0.9)

    def kappa(a, b):
        return np.exp(-(a - b) ** 2 / (2 * 0.9 ** 2))

    us, ut = u(xs), u(xt)
    K_yy = _gram(km.phi)
    G = _gram(gaussian_pivoted_cholesky(np.concatenate([us, ut]), 0.9)[0])
    G_uu, G_ut, G_tt = G[:3, :3], G[:3, 3:], G[3:, 3:]
    for i in range(3):
        for j in range(3):
            assert abs(K_yy[i, j] - kappa(ys[i], ys[j])) < 1e-14
            assert abs(G_uu[i, j] - kappa(us[i], us[j])) < 1e-14
        for l in range(2):
            assert abs(G_ut[i, l] - kappa(us[i], ut[l])) < 1e-14
    for l in range(2):
        for l2 in range(2):
            assert abs(G_tt[l, l2] - kappa(ut[l], ut[l2])) < 1e-14


def test_kernel_moments_metadata_and_psd():
    rng = np.random.default_rng(4)
    xs = rng.uniform(0, 1, 40)
    ys = rng.uniform(0, 1, 40)
    xt = rng.uniform(0, 1, 25)
    u = train_kernel_regressor((xs, ys))
    km = estimate_kernel_moments((xs, ys), xt, u, bandwidth=0.7)
    assert km.kappa_bar == 1.0
    assert km.bandwidth == 0.7
    assert km.n_est == 40 and km.m == 25
    np.testing.assert_array_equal(km.anchors, ys)
    us, ut = u(xs), u(xt)
    psi = gaussian_pivoted_cholesky(np.concatenate([us, ut]), 0.7)[0]
    # the reduced system is built from the u-image factor of these points
    np.testing.assert_array_equal(km.B, psi[:40].T @ km.phi / 40)
    np.testing.assert_array_equal(km.b, psi[40:].mean(axis=0)
                                  - psi[:40].mean(axis=0))
    assert psi.shape[0] == 40 + 25
    assert 0.0 <= km.factor_residual <= FACTOR_TOL
    for pts, factor in ((km.anchors, km.phi), (us, psi[:40]),
                        (ut, psi[40:])):
        G = _gram(factor)
        np.testing.assert_allclose(G, G.T, atol=1e-15)
        evals = np.linalg.eigvalsh(G)
        assert evals.min() > -1e-10
        # the factor reproduces the exact block, whose entries lie in (0, 1]
        exact = gaussian_gram(pts, pts, 0.7)
        assert exact.min() > 0.0 and exact.max() <= 1.0
        assert np.abs(G - exact).max() <= km.factor_residual + _rounding(factor)


def test_kernel_moments_reject_bad_bandwidth():
    x = np.linspace(0, 1, 5)
    u = train_kernel_regressor((x, x))
    with pytest.raises(ValueError):
        estimate_kernel_moments((x, x), x, u, bandwidth=0.0)


# ===================== non-finite inputs =====================

def _bad(values, at, bad):
    out = np.array(values, dtype=float)
    out[at] = bad
    return out


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_categorical_moments_reject_non_finite_inputs(bad):
    x = np.arange(4, dtype=float) % 2
    y = np.array([0, 1, 0, 1])
    g = _identity_stat(2)

    def poisoned(xs):
        out = g(xs).astype(float)
        out[0, 0] = bad
        return out

    cases = [((x, _bad(y, 1, bad)), x, g, "labels"),
             ((x, y), _bad(x, 2, bad), g, "target_covariates"),
             ((x, y), x, poisoned, "source_statistic")]
    for split, target_x, stat, field in cases:
        with pytest.raises(NonFiniteInput) as exc:
            estimate_categorical_moments(split, target_x, stat, 2)
        assert exc.value.field == field
        assert isinstance(exc.value, ValueError)
        assert isinstance(exc.value, ShiftWeightError)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_kernel_moments_reject_non_finite_inputs(bad):
    x = np.linspace(0, 1, 6)
    y = np.linspace(0, 1, 6)
    u = train_kernel_regressor((x, y))

    def poisoned(xs):
        out = u(xs)
        out[-1] = bad
        return out

    cases = [((x, _bad(y, 0, bad)), x, u, "labels"),
             ((x, y), _bad(x, 3, bad), u, "target_covariates"),
             ((x, y), x, poisoned, "source_statistic")]
    for split, target_x, stat, field in cases:
        with pytest.raises(NonFiniteInput) as exc:
            estimate_kernel_moments(split, target_x, stat)
        assert exc.value.field == field
        assert isinstance(exc.value, ValueError)
        assert isinstance(exc.value, ShiftWeightError)
