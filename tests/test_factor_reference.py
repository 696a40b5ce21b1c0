"""The low-rank factor path against dense Gram-block references.

The library builds no dense n x n or n x m kernel block.  The dense algebra
lives here as the reference, assembled from the same anchors, u-images and
bandwidth as the kernel moments.  The statistic u is checked against dense
kernel ridge regression on its training split.

The Gaussian blocks and the pivoted Cholesky factor are also checked bit for
bit against their straightforward forms (np.unique, one temporary per step,
np.stack), which the in-place library versions must reproduce exactly.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import cho_factor, cho_solve, eigh

from shiftweight import (RegressionSynthConfig, e3_direct, e4_regularized,
                         estimate_kernel_moments, evaluate_weight,
                         functional_radii, gen_regression,
                         operator_inverse_norm_proxy, split_alpha,
                         theta_function, train_kernel_regressor, weighted_erm)
from shiftweight.functional import EIG_TOL
from shiftweight.predictors import (FACTOR_TOL, _safe_spd_solve,
                                    feature_plan, gaussian_gram,
                                    gaussian_pivoted_cholesky, rbf_features)

GRID = np.linspace(0.0, 1.0, 100)
CASES = [(n, seed) for n in (500, 2000) for seed in range(3)]
AGREE = 1e-9                # max |factor - dense| on the grid and on predictions


@functools.lru_cache(maxsize=None)
def _fit(n, seed):
    cfg = RegressionSynthConfig(0.2, 0.8, seed=seed)
    ds = gen_regression(cfg, n, n)
    sp = split_alpha(ds, 0.5, seed=seed)
    return ds, sp, train_kernel_regressor((sp.erm_x, sp.erm_y))


@functools.lru_cache(maxsize=None)
def _case(n, seed):
    ds, sp, u = _fit(n, seed)
    km = estimate_kernel_moments((sp.est_x, sp.est_y), ds.target_x, u)
    lam = 0.1 * functional_radii(0.5, n, n, 0.1, km.kappa_bar)[2]
    return ds, sp, km, lam


@functools.lru_cache(maxsize=None)
def _u_images(n, seed):
    """u at the estimation-split and target points of a case."""
    ds, sp, u = _fit(n, seed)
    return u(sp.est_x), u(ds.target_x)


def _dense_system(n, seed):
    _, _, km, _ = _case(n, seed)
    u_src, u_tgt = _u_images(n, seed)
    bw, N = km.bandwidth, km.n_est
    K = gaussian_gram(km.anchors, km.anchors, bw)
    G_uu = gaussian_gram(u_src, u_src, bw)
    G_ut = gaussian_gram(u_src, u_tgt, bw)
    A = K / N
    S = A @ G_uu @ A
    rhs = A @ (G_ut.sum(axis=1) / km.m - G_uu.sum(axis=1) / N)
    return K, G_uu, S, rhs


def _dense_e3(n, seed):
    _, _, S, rhs = _dense_system(n, seed)
    w, V = eigh(S)
    keep = w > EIG_TOL * w[-1]
    Vk = V[:, keep]
    return Vk @ ((Vk.T @ rhs) / w[keep]), int(keep.sum())


def _dense_e4(n, seed):
    _, _, km, lam = _case(n, seed)
    K, _, S, rhs = _dense_system(n, seed)
    M = S + lam * K + 1e-12 * np.eye(km.n_est)
    return cho_solve(cho_factor(M, lower=True), rhs)


def _dense_theta(km, beta):
    return gaussian_gram(GRID, km.anchors, km.bandwidth) @ beta


def _eig_factor(K):
    """F with K ~ F F^T from the eigenpairs of K above the factor tolerance."""
    w, V = eigh(K)
    keep = w > FACTOR_TOL * w[-1]
    return V[:, keep] * np.sqrt(w[keep])


def _dense_proxy(n, seed):
    """The proxy's operator built densely: no generalized eigenproblem and no
    jitter, factors from eigh of the exact blocks, the same cutoff."""
    _, _, km, _ = _case(n, seed)
    K_yy, G_uu, _, _ = _dense_system(n, seed)
    s = np.linalg.svd(_eig_factor(G_uu).T @ _eig_factor(K_yy) / km.n_est,
                      compute_uv=False)
    kept = s[s * s > EIG_TOL * s[0] * s[0]]
    return 1.0 / float(kept.min())


def _dense_weighted_krr(x, y, w, bandwidth, ridge=1e-2):
    sw = np.sqrt(w)
    ybar = float((w * y).sum() / w.sum())
    K = gaussian_gram(x, x, bandwidth)
    M = (sw[:, None] * K) * sw[None, :] + ridge * np.eye(len(x))
    coef = sw * _safe_spd_solve(M, sw * (y - ybar))
    return lambda xq: gaussian_gram(xq, x, bandwidth) @ coef + ybar


@pytest.mark.parametrize("n, seed", CASES)
def test_e3_matches_dense_reference(n, seed):
    _, _, km, _ = _case(n, seed)
    est = e3_direct(km)
    beta, rank_kept = _dense_e3(n, seed)
    assert est.diagnostics["rank_kept"] == rank_kept
    gap = np.abs(theta_function(est)(GRID) - _dense_theta(km, beta)).max()
    assert gap <= AGREE, f"E3 theta differs by {gap:.3g}"


@pytest.mark.parametrize("n, seed", CASES)
def test_e4_matches_dense_reference(n, seed):
    _, _, km, lam = _case(n, seed)
    est = e4_regularized(km, lam)
    beta = _dense_e4(n, seed)
    gap = np.abs(theta_function(est)(GRID) - _dense_theta(km, beta)).max()
    assert gap <= AGREE, f"E4 theta differs by {gap:.3g}"
    K = gaussian_gram(km.anchors, km.anchors, km.bandwidth)
    assert est.rkhs_norm == pytest.approx(math.sqrt(beta @ K @ beta), rel=1e-6)


@pytest.mark.parametrize("n, seed", CASES)
def test_e4_matches_the_normal_equations_solve(n, seed):
    """E4's closed form on the SVD of B against the Cholesky solve of its
    normal equations (B^T B + (lam + 1e-12) I) a = B^T b, in factor
    coordinates, at lam > 0."""
    _, _, km, lam = _case(n, seed)
    assert lam > 0
    B = km.B
    ref = _safe_spd_solve(B.T @ B + (lam + 1e-12) * np.eye(B.shape[1]),
                          B.T @ km.b)
    a = km.phi[km.pivots].T @ e4_regularized(km, lam).beta
    assert np.linalg.norm(a - ref) <= 1e-10 * np.linalg.norm(ref)


@pytest.mark.parametrize("n, seed", CASES)
def test_proxy_matches_dense_reference(n, seed):
    _, _, km, _ = _case(n, seed)
    proxy = operator_inverse_norm_proxy(km)
    assert proxy == pytest.approx(_dense_proxy(n, seed), rel=AGREE)


@pytest.mark.parametrize("seed", range(3))
def test_proxy_stable_under_tiny_perturbations_of_u(seed):
    """A 1e-12 relative perturbation of u's values may not move the proxy by
    more than 1e-9 relative."""
    ds, sp, km, _ = _case(2000, seed)
    rng = np.random.default_rng(seed)
    fit = train_kernel_regressor((sp.erm_x, sp.erm_y))

    def u(x):
        return fit(x) * (1.0 + 1e-12 * rng.standard_normal(len(x)))

    km2 = estimate_kernel_moments((sp.est_x, sp.est_y), ds.target_x, u)
    assert operator_inverse_norm_proxy(km2) == pytest.approx(
        operator_inverse_norm_proxy(km), rel=AGREE)


@pytest.mark.parametrize("n, seed", CASES)
def test_statistic_u_matches_dense_krr(n, seed):
    """The Nystrom u against dense kernel ridge regression (unit weights) on
    its training split, at the estimation and target points."""
    ds, sp, km, _ = _case(n, seed)
    dense = _dense_weighted_krr(sp.erm_x, sp.erm_y, np.ones(len(sp.erm_x)),
                                km.bandwidth)
    for points, values in zip((sp.est_x, ds.target_x), _u_images(n, seed)):
        gap = np.abs(values - dense(points)).max()
        assert gap <= AGREE, f"u differs from dense KRR by {gap:.3g}"


@pytest.mark.parametrize("n, seed", CASES)
def test_weighted_krr_matches_dense_reference(n, seed):
    ds, sp, km, lam = _case(n, seed)
    est = e4_regularized(km, lam)
    fit = weighted_erm((sp.erm_x, sp.erm_y),
                       lambda ys: evaluate_weight(est, 1.0, ys),
                       "kernel_ridge", bandwidth=km.bandwidth)
    w = np.maximum(evaluate_weight(est, 1.0, sp.erm_y), 0.0)
    dense = _dense_weighted_krr(sp.erm_x, sp.erm_y, w, km.bandwidth)
    gap = np.abs(fit.model.predict(ds.target_x) - dense(ds.target_x)).max()
    assert gap <= AGREE, f"weighted KRR predictions differ by {gap:.3g}"


@settings(max_examples=200, deadline=None)
@given(points=arrays(np.float64, st.integers(1, 60),
                     elements=st.floats(-3.0, 3.0)),
       bandwidth=st.floats(0.01, 10.0))
def test_factor_residual_bounds_every_entry(points, bandwidth):
    """max |K - phi phi^T| <= residual <= FACTOR_TOL, up to the rounding of
    forming phi phi^T and of the tracked residual diagonal (a few ulps per
    factor column)."""
    phi, pivots, residual = gaussian_pivoted_cholesky(points, bandwidth)
    r = phi.shape[1]
    rounding = 2 * (r + 1) * np.finfo(float).eps
    K = gaussian_gram(points, points, bandwidth)
    assert np.abs(K - phi @ phi.T).max() <= residual + rounding
    assert 0.0 <= residual <= FACTOR_TOL
    assert len(set(points[pivots].tolist())) == r      # distinct pivot points
    np.testing.assert_array_equal(np.triu(phi[pivots], 1), 0.0)


# ===================== bit-for-bit references =====================

def _reference_gram(a, b, bandwidth):
    a = np.asarray(a, dtype=float).reshape(-1)
    b = np.asarray(b, dtype=float).reshape(-1)
    d2 = (a[:, None] - b[None, :]) ** 2
    return np.exp(-d2 / (2.0 * bandwidth * bandwidth))


def _reference_rbf_features(x, centers, scale):
    x = np.asarray(x, dtype=float).reshape(-1)
    d2 = (x[:, None] - centers[None, :]) ** 2
    f = np.exp(-d2 / (2.0 * scale * scale))
    return np.concatenate([f, np.ones((len(x), 1))], axis=1)


def _reference_factor(points, bandwidth):
    x = np.asarray(points, dtype=float).reshape(-1)
    vals, first, inv = np.unique(x, return_index=True, return_inverse=True)
    diag = np.ones(len(vals))
    cols, piv = [], []
    while len(piv) < len(vals):
        p = int(np.argmax(diag))
        if diag[p] <= FACTOR_TOL:
            break
        col = _reference_gram(vals, vals[p], bandwidth)[:, 0]
        for c in cols:
            col -= c[p] * c
        col /= math.sqrt(diag[p])
        col[piv] = 0.0
        cols.append(col)
        piv.append(p)
        diag -= col * col
        diag[p] = 0.0
    phi = np.stack(cols, axis=1) if cols else np.zeros((len(vals), 0))
    return phi[inv.reshape(-1)], first[piv], float(diag.max(initial=0.0))


def _assert_same_bits(got, want):
    """Equal shape, dtype, memory order and bits: 0.0 and -0.0 differ here."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.flags["C_CONTIGUOUS"] == want.flags["C_CONTIGUOUS"]
    np.testing.assert_array_equal(got.view(np.uint8), want.view(np.uint8))


def _assert_same_factor(points, bandwidth):
    phi, pivots, residual = gaussian_pivoted_cholesky(points, bandwidth)
    ref_phi, ref_pivots, ref_residual = _reference_factor(points, bandwidth)
    _assert_same_bits(phi, ref_phi)
    _assert_same_bits(pivots, ref_pivots)
    assert np.float64(residual).tobytes() == np.float64(ref_residual).tobytes()


# few distinct values, signed zeros among them, so most draws repeat points
_POINTS = arrays(np.float64, st.integers(1, 60),
                 elements=st.one_of(st.sampled_from([0.0, -0.0, 0.25, -1.5]),
                                    st.floats(-3.0, 3.0)))


@settings(max_examples=200, deadline=None)
@given(points=_POINTS, bandwidth=st.floats(0.01, 10.0))
def test_factor_matches_reference_bit_for_bit(points, bandwidth):
    _assert_same_factor(points, bandwidth)


@pytest.mark.parametrize("points", ([0.7], [-0.0], [0.0, -0.0, 0.0],
                                    [-0.0, 0.0, 1.0, -0.0]))
def test_factor_of_single_and_signed_zero_points(points):
    _assert_same_factor(np.array(points), 0.5)


def test_factor_matches_reference_at_benchmark_size():
    """12000 points with about 4000 distinct values, the size of a
    kernel_dense cell's u-images; at bandwidth 0.2 the rank passes 64, so the
    column buffer is widened twice.  Then the u-images of a real cell."""
    points = np.round(np.random.default_rng(3).standard_normal(12000), 3)
    for bandwidth in (0.9, 0.2):
        _assert_same_factor(points, bandwidth)
    assert gaussian_pivoted_cholesky(points, 0.2)[0].shape[1] > 64
    _, _, km, _ = _case(2000, 0)
    _assert_same_factor(np.concatenate(_u_images(2000, 0)), km.bandwidth)


@settings(max_examples=200, deadline=None)
@given(a=_POINTS, b=_POINTS, bandwidth=st.floats(0.01, 10.0))
def test_gram_matches_reference_bit_for_bit(a, b, bandwidth):
    _assert_same_bits(gaussian_gram(a, b, bandwidth),
                      _reference_gram(a, b, bandwidth))


@settings(max_examples=200, deadline=None)
@given(x=_POINTS, n_centers=st.integers(1, 40))
def test_rbf_features_match_reference_bit_for_bit(x, n_centers):
    centers, scale = feature_plan(x, n_centers)
    _assert_same_bits(rbf_features(x, centers, scale),
                      _reference_rbf_features(x, centers, scale))
