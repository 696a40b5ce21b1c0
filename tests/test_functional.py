"""RKHS estimators on the anchor span: solver exactness, spectra, burn-in."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftweight import (RegressionSynthConfig, SingularOperator,
                         check_burn_in_functional, confidence_report,
                         e3_direct, e4_objective, e4_regularized,
                         estimate_kernel_moments, evaluate_weight,
                         functional_radii, gen_regression,
                         operator_inverse_norm_proxy, relative_error,
                         residual_norm_sq, split_alpha,
                         train_kernel_regressor, true_weight_function)
from shiftweight.functional import EIG_TOL
from shiftweight.predictors import (FACTOR_TOL, gaussian_gram,
                                    gaussian_pivoted_cholesky)

# required n at proxy = 2, alpha = 0.5, delta = 0.1:
# 256 * ln(60), evaluated independently
BURN_IN_REQUIRED_FUN = 1048.1522079288577


def _km_from_points(ys, us, ut, bandwidth=0.5):
    """KernelMoments from anchor labels and image points: the covariates are
    the image points themselves and u is the identity."""
    return estimate_kernel_moments(
        (np.asarray(us, dtype=float), np.asarray(ys, dtype=float)),
        np.asarray(ut, dtype=float), lambda v: v, bandwidth=bandwidth)


def _dense(km, u_src, u_tgt):
    """Dense reference: the Gram blocks (K_yy, G_uu, G_ut, G_tt) built from
    the anchors and the u-images of the estimation and target points."""
    bw = km.bandwidth
    return (gaussian_gram(km.anchors, km.anchors, bw),
            gaussian_gram(u_src, u_src, bw),
            gaussian_gram(u_src, u_tgt, bw),
            gaussian_gram(u_tgt, u_tgt, bw))


def _dense_normal_system(km, u_src, u_tgt):
    K, G_uu, G_ut, _ = _dense(km, u_src, u_tgt)
    N = km.n_est
    A = K / N
    S = A @ G_uu @ A
    rhs = A @ (G_ut.sum(axis=1) / km.m - G_uu.sum(axis=1) / N)
    return K, S, rhs


def _on_all_anchors(km, beta):
    """Pivot-anchor coefficients as a coefficient vector over every anchor."""
    full = np.zeros(km.n_est)
    full[km.pivots] = beta
    return full


def _instance_with_images(seed, n=20, m=12, a=0.2, b=0.8):
    """KernelMoments of a seeded instance, with the u-images of its
    estimation and target points."""
    cfg = RegressionSynthConfig(a, b, seed=seed)
    ds = gen_regression(cfg, n, m)
    sp = split_alpha(ds, 0.5, seed=seed)
    u = train_kernel_regressor((sp.erm_x, sp.erm_y))
    km = estimate_kernel_moments((sp.est_x, sp.est_y), ds.target_x, u)
    return km, u(sp.est_x), u(ds.target_x)


def _instance(seed, n=20, m=12, a=0.2, b=0.8):
    return _instance_with_images(seed, n, m, a, b)[0]


def test_e4_zero_rhs_gives_zero_function():
    """Identical source and target image sets make the moment difference
    vanish, so the regularized solution is exactly zero."""
    rng = np.random.default_rng(0)
    x = rng.uniform(0, 1, 16)
    y = rng.uniform(0, 1, 16)
    u = train_kernel_regressor((x, y))
    km = estimate_kernel_moments((x, y), x.copy(), u)
    est = e4_regularized(km, lam=0.3)
    np.testing.assert_array_equal(est.beta, 0.0)
    np.testing.assert_allclose(evaluate_weight(est, 1.0, np.linspace(0, 1, 9)),
                               1.0, atol=1e-15)
    est3 = e3_direct(km)
    np.testing.assert_allclose(est3.beta, 0.0, atol=1e-12)


def test_e4_solves_the_normal_equations():
    """The returned coefficients satisfy (S + (lam + jitter) K) beta = rhs,
    re-assembled here from dense Gram blocks; the jitter is added in factor
    coordinates, where the identity is K."""
    km, us, ut = _instance_with_images(1)
    lam = 0.05
    est = e4_regularized(km, lam)
    K, S, rhs = _dense_normal_system(km, us, ut)
    lhs = (S + (lam + est.diagnostics["jitter"]) * K) \
        @ _on_all_anchors(km, est.beta)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_e4_gradient_matches_finite_differences():
    """Central differences of J at the solver output, step 1e-6, along each
    pivot-anchor coefficient, against the dense gradient."""
    km, us, ut = _instance_with_images(2, n=20, m=10)
    lam = 0.02
    est = e4_regularized(km, lam)
    beta = est.beta
    K, S, rhs = _dense_normal_system(km, us, ut)
    full = _on_all_anchors(km, beta)
    analytic = (2.0 * (S @ full - rhs) + 2.0 * lam * (K @ full))[km.pivots]
    h = 1e-6
    r = len(beta)
    fd = np.zeros(r)
    for i in range(r):
        e = np.zeros(r)
        e[i] = h
        fd[i] = (e4_objective(km, lam, beta + e)
                 - e4_objective(km, lam, beta - e)) / (2 * h)
    scale = max(1.0, float(np.linalg.norm(analytic)))
    assert np.linalg.norm(fd - analytic) / scale < 1e-5


def test_e4_beats_random_search():
    """Convex global-optimality audit on a small instance: 1e5 random points
    in the sup-norm ball of radius 5 never improve the objective."""
    km, us, ut = _instance_with_images(3, n=16, m=8)
    lam = 0.1
    est = e4_regularized(km, lam)
    j_star = e4_objective(km, lam, est.beta)
    rng = np.random.default_rng(33)
    pts = rng.uniform(-5, 5, size=(10 ** 5, km.n_est))
    N = km.n_est
    K, S, rhs = _dense_normal_system(km, us, ut)
    _, G_uu, G_ut, G_tt = _dense(km, us, ut)
    const = float(G_tt.sum()) / km.m ** 2 \
        - 2.0 / (km.m * N) * float(G_ut.sum()) \
        + float(G_uu.sum()) / N ** 2
    # vectorized J over all candidates (quadratic expansion around beta = 0)
    quad = np.einsum("ij,jk,ik->i", pts, S + lam * K, pts)
    lin = pts @ rhs
    js = quad - 2.0 * lin + const
    assert j_star <= js.min() + 1e-9


def test_residual_identity_against_feature_quadrature():
    """The Gram-block residual norm matches an explicit frequency-grid feature
    expansion of the same RKHS element."""
    km = _instance(4, n=18, m=10)
    est = e4_regularized(km, 0.05)
    via_gram = residual_norm_sq(km, est.beta)

    # reconstruct the residual's expansion coefficients and point set
    N, m, sigma = km.n_est, km.m, km.bandwidth
    cfg = RegressionSynthConfig(0.2, 0.8, seed=4)
    ds = gen_regression(cfg, 18, 10)
    sp = split_alpha(ds, 0.5, seed=4)
    u = train_kernel_regressor((sp.erm_x, sp.erm_y))
    pts = np.concatenate([u(sp.est_x), u(ds.target_x)])
    theta_at_anchors = gaussian_gram(km.anchors, est.anchors, sigma) @ est.beta
    coefs = np.concatenate([theta_at_anchors / N + np.full(N, 1.0 / N),
                            np.full(m, -1.0 / m)])

    ws = np.linspace(-12.0 / sigma, 12.0 / sigma, 8001)
    dw = ws[1] - ws[0]
    dens = sigma / math.sqrt(2 * math.pi) * np.exp(-0.5 * sigma ** 2 * ws ** 2)
    cos_part = np.cos(ws[:, None] * pts[None, :]) @ coefs
    sin_part = np.sin(ws[:, None] * pts[None, :]) @ coefs
    via_features = float(np.sum(dens * (cos_part ** 2 + sin_part ** 2)) * dw)
    assert abs(via_gram - via_features) < 1e-3 * max(1.0, abs(via_gram))


def test_e4_rejects_negative_lambda():
    with pytest.raises(ValueError):
        e4_regularized(_instance(5), -0.1)


def test_e4_drops_the_direction_of_a_zero_singular_value():
    """A B with an exactly zero singular value at lam = 0: a is finite and
    has no component along that right singular vector."""
    km = _km_from_points([0.0, 1.0, 2.0], [0.0, 1.0, 2.0], [0.5, 1.5])
    km.B = np.zeros_like(km.B)
    km.B[0, 0], km.B[1, 1] = 0.5, 0.2
    _, s, Vt = np.linalg.svd(km.B, full_matrices=False)
    assert s[-1] == 0.0
    est = e4_regularized(km, 0.0)
    a = km.phi[km.pivots].T @ est.beta          # factor coordinates
    assert np.all(np.isfinite(a))
    assert abs(a @ Vt[-1]) <= 1e-15 * np.linalg.norm(a)


def test_e3_matches_barely_regularized_e4_when_nothing_truncated():
    km = _km_from_points([0.0, 1.0, 2.0], [0.0, 1.0, 2.0],
                         [0.4, 1.6], bandwidth=0.5)
    est3 = e3_direct(km)
    assert est3.diagnostics["rank_kept"] == 3
    est4 = e4_regularized(km, 1e-15)
    grid = np.linspace(0, 2, 50)
    w3 = evaluate_weight(est3, 1.0, grid)
    w4 = evaluate_weight(est4, 1.0, grid)
    assert np.max(np.abs(w3 - w4)) < 1e-6


def test_e3_truncates_and_reports_condition_number():
    km = _instance(6, n=24, m=12)
    est = e3_direct(km)
    assert est.diagnostics["condition_number"] >= 1.0
    assert 1 <= est.diagnostics["rank_kept"] <= km.n_est
    assert est.method == "E3" and est.lambda_used == 0.0


def test_e3_degenerate_spectrum_raises():
    km = _km_from_points([0.0, 0.0], [0.0, 0.0], [0.0])
    km.B[:] = 0.0                   # G_uu = 0: the operator vanishes
    with pytest.raises(SingularOperator):
        e3_direct(km)


def test_diagnostics_report_the_factors():
    """Both estimators report the factor ranks and the residual that bounds
    every entry of K - phi phi^T, next to their existing keys."""
    km, us, ut = _instance_with_images(14, n=40, m=20)
    psi = gaussian_pivoted_cholesky(np.concatenate([us, ut]), km.bandwidth)[0]
    e3 = e3_direct(km).diagnostics
    e4 = e4_regularized(km, 0.05).diagnostics
    assert {"condition_number", "spectrum_max", "spectrum_min_kept",
            "rank_kept", "residual_sq"} <= set(e3)
    assert {"jitter", "residual_sq", "objective"} <= set(e4)
    for diag in (e3, e4):
        assert diag["factor_rank_y"] == km.phi.shape[1] >= 1
        assert diag["factor_rank_u"] == psi.shape[1] >= 1
        assert diag["factor_residual"] == km.factor_residual
        assert 0.0 <= diag["factor_residual"] <= FACTOR_TOL


def test_rkhs_norm_consistent_with_quadratic_form():
    """rkhs_norm, ||a||, is sqrt(beta^T K beta) over the pivot anchors up to
    rounding.  Over these 60 estimates (30 instances, E3 and E4) the two are
    bit-equal on 20 and at most 6.8e-15 relative apart, so the 1e-13 gate
    leaves about 15x for rounding."""
    for seed in range(30):
        km = _instance(seed)
        for est in (e3_direct(km), e4_regularized(km, 0.03)):
            K = gaussian_gram(est.anchors, est.anchors, km.bandwidth)
            again = math.sqrt(max(float(est.beta @ K @ est.beta), 0.0))
            assert est.rkhs_norm == pytest.approx(again, rel=1e-13, abs=0.0), \
                f"instance {seed}, {est.method}"


def test_evaluate_weight_gamma_zero_is_identically_one():
    km = _instance(8)
    est = e4_regularized(km, 0.05)
    out = evaluate_weight(est, 0.0, np.linspace(0, 1, 13))
    np.testing.assert_array_equal(out, 1.0)


def test_evaluate_weight_zero_coefficients_give_one():
    km = _instance(9)
    est = e4_regularized(km, 0.05)
    est.beta = np.zeros_like(est.beta)
    out = evaluate_weight(est, 1.0, np.linspace(0, 1, 7))
    np.testing.assert_array_equal(out, 1.0)


def test_evaluate_weight_single_anchor_closed_form():
    """One anchor with coefficient 2 queried at the anchor itself: the kernel
    is 1 there, so the gamma = 0.5 weight is exactly 2."""
    km = _km_from_points([0.3], [0.3], [0.3], bandwidth=0.9)
    est = e4_regularized(km, 0.0)
    est.beta = np.array([2.0])
    out = evaluate_weight(est, 0.5, np.array([0.3]))
    np.testing.assert_allclose(out, [2.0], atol=1e-15)


def test_evaluate_weight_validates_gamma():
    km = _instance(10)
    est = e4_regularized(km, 0.05)
    for bad in (-0.1, 1.1):
        with pytest.raises(ValueError):
            evaluate_weight(est, bad, np.array([0.5]))


def test_no_shift_estimate_stays_near_constant_one():
    """a = b leaves nothing to estimate; the regularized weight stays within
    0.2 relative grid error of the constant 1."""
    cfg = RegressionSynthConfig(0.4, 0.4, seed=11)
    ds = gen_regression(cfg, 2000, 2000)
    sp = split_alpha(ds, 0.5, seed=11)
    u = train_kernel_regressor((sp.erm_x, sp.erm_y))
    km = estimate_kernel_moments((sp.est_x, sp.est_y), ds.target_x, u)
    lam = functional_radii(0.5, 2000, 2000, 0.1)[2]
    est = e4_regularized(km, lam)
    rel = relative_error(lambda ys: evaluate_weight(est, 1.0, ys),
                         lambda ys: np.ones_like(np.asarray(ys, dtype=float)),
                         "functional")
    assert rel < 0.2


def test_direct_estimate_improves_with_more_samples():
    """Median grid error of the direct (truncated-inverse) estimate at
    n = m = 4000 is no worse than at n = m = 500 over 10 seeds."""
    def run(n, seed):
        cfg = RegressionSynthConfig(0.2, 0.8, seed=seed)
        ds = gen_regression(cfg, n, n)
        sp = split_alpha(ds, 0.5, seed=seed)
        u = train_kernel_regressor((sp.erm_x, sp.erm_y))
        km = estimate_kernel_moments((sp.est_x, sp.est_y), ds.target_x, u)
        est = e3_direct(km)
        return relative_error(lambda ys: evaluate_weight(est, 1.0, ys),
                              true_weight_function(cfg), "functional")

    small = np.median([run(500, s) for s in range(10)])
    large = np.median([run(4000, s) for s in range(10)])
    assert large <= small, f"median error grew: {small} -> {large}"


def test_estimation_error_covered_by_functional_bound():
    """Grid error of the regularized estimate against the composite radius,
    50 seeded trials at delta = 0.1: covered in at least 90%."""
    grid = np.linspace(0, 1, 100)
    hits = 0
    trials = 50
    for seed in range(trials):
        cfg = RegressionSynthConfig(0.2, 0.8, seed=seed)
        ds = gen_regression(cfg, 800, 800)
        sp = split_alpha(ds, 0.5, seed=seed)
        u = train_kernel_regressor((sp.erm_x, sp.erm_y))
        km = estimate_kernel_moments((sp.est_x, sp.est_y), ds.target_x, u)
        lam = functional_radii(0.5, 800, 800, 0.1)[2]
        est = e4_regularized(km, lam)
        theta_err = evaluate_weight(est, 1.0, grid) \
            - true_weight_function(cfg)(grid)
        proxy = operator_inverse_norm_proxy(km)
        rep = confidence_report("functional", 0.5, 800, 800, 0.1, proxy,
                                theta_max=3.0)
        if np.linalg.norm(theta_err) <= rep.epsilon_delta:
            hits += 1
    assert hits >= 0.9 * trials, f"coverage {hits}/{trials}"


def test_operator_proxy_positive_and_finite():
    km = _instance(12, n=60, m=30)
    proxy = operator_inverse_norm_proxy(km)
    assert np.isfinite(proxy) and proxy > 0


@pytest.mark.parametrize("seed", range(3))
def test_operator_proxy_ignores_the_order_of_the_split(seed):
    """Permuting the estimation split's (x, y) pairs leaves the proxy within
    1e-9 relative."""
    cfg = RegressionSynthConfig(0.2, 0.8, seed=seed)
    ds = gen_regression(cfg, 2000, 2000)
    sp = split_alpha(ds, 0.5, seed=seed)
    u = train_kernel_regressor((sp.erm_x, sp.erm_y))
    perm = np.random.default_rng(100 + seed).permutation(len(sp.est_x))
    proxy = operator_inverse_norm_proxy(
        estimate_kernel_moments((sp.est_x, sp.est_y), ds.target_x, u))
    permuted = operator_inverse_norm_proxy(estimate_kernel_moments(
        (sp.est_x[perm], sp.est_y[perm]), ds.target_x, u))
    assert np.isfinite(proxy) and proxy > 0
    assert permuted == pytest.approx(proxy, rel=1e-9)


def _runner_km(n, seed, bandwidth, a=0.2, b=0.8):
    """KernelMoments of a runner cell: u fitted and the moments built at one
    bandwidth, m = n."""
    ds = gen_regression(RegressionSynthConfig(a, b, seed=seed), n, n)
    sp = split_alpha(ds, 0.5, seed=seed)
    u = train_kernel_regressor((sp.erm_x, sp.erm_y), bandwidth=bandwidth)
    return estimate_kernel_moments((sp.est_x, sp.est_y), ds.target_x, u,
                                   bandwidth=bandwidth)


@pytest.mark.parametrize("bandwidth", (0.5, 0.9))
@pytest.mark.parametrize("n", (500, 2000))
def test_proxy_inverts_exactly_the_directions_e3_keeps(n, bandwidth):
    """One rank rule: the proxy is 1 / sigma_min over the directions E3
    inverts, and the singular values of B at or above 1 / proxy are as many
    as E3's rank_kept (seeds 0-2)."""
    for seed in range(3):
        km = _runner_km(n, seed, bandwidth)
        diag = e3_direct(km).diagnostics
        proxy = operator_inverse_norm_proxy(km)
        assert proxy == pytest.approx(
            1.0 / math.sqrt(diag["spectrum_min_kept"]), rel=1e-12)
        s = np.linalg.svd(km.B, compute_uv=False)
        assert int((s * proxy >= 1.0 - 1e-12).sum()) == diag["rank_kept"]


@pytest.mark.parametrize("bandwidth, rank",
                         ((0.5, 4), (0.7, 3), (0.9, 3), (1.2, 3)))
def test_e3_rank_kept_with_margin_around_the_cutoff(bandwidth, rank):
    """On runner cells (n = 500, seeds 0-4, (a, b) of (0.2, 0.8) and
    (0.3, 0.7)) E3 keeps these ranks, and EIG_TOL lies at least 2x below the
    last kept sigma^2 / sigma_max^2 and 2x above the first dropped one."""
    for a, b in ((0.2, 0.8), (0.3, 0.7)):
        for seed in range(5):
            km = _runner_km(500, seed, bandwidth, a, b)
            assert e3_direct(km).diagnostics["rank_kept"] == rank
            s = np.linalg.svd(km.B, compute_uv=False)
            ratio = (s / s[0]) ** 2
            assert ratio[rank - 1] >= 2 * EIG_TOL
            assert ratio[rank] <= EIG_TOL / 2


_SAMPLES = st.tuples(st.integers(0, 2 ** 32 - 1), st.integers(20, 400),
                     st.floats(0.05, 0.95), st.floats(0.05, 0.95))


def _moments(seed, n, a, b, target_is_source=False):
    cfg = RegressionSynthConfig(a, b, seed=seed)
    ds = gen_regression(cfg, n, n)
    sp = split_alpha(ds, 0.5, seed=seed)
    u = train_kernel_regressor((sp.erm_x, sp.erm_y))
    target = sp.est_x if target_is_source else ds.target_x
    return estimate_kernel_moments((sp.est_x, sp.est_y), target, u)


@given(_SAMPLES, st.floats(1e-6, 1.0))
@settings(max_examples=40, deadline=None)
def test_e3_e4_no_shift_gives_zero(sample, lam):
    """The target sample equal to the source sample leaves no moment
    difference, so both estimates are the zero function."""
    km = _moments(*sample, target_is_source=True)
    assert e3_direct(km).rkhs_norm <= 1e-9
    assert e4_regularized(km, lam).rkhs_norm <= 1e-9


@given(_SAMPLES, st.floats(1e-6, 10.0), st.floats(1e-6, 10.0))
@settings(max_examples=40, deadline=None)
def test_e4_rkhs_norm_does_not_grow_with_lam(sample, lam1, lam2):
    km = _moments(*sample)
    lo, hi = sorted((lam1, lam2))
    assert e4_regularized(km, hi).rkhs_norm \
        <= e4_regularized(km, lo).rkhs_norm * (1.0 + 1e-9)


def test_functional_burn_in_threshold():
    assert abs(BURN_IN_REQUIRED_FUN - 256 * math.log(60)) < 1e-9
    assert check_burn_in_functional(1100, 0.5, 0.1, 2.0)
    assert not check_burn_in_functional(1000, 0.5, 0.1, 2.0)


def test_functional_burn_in_edge_cases():
    assert check_burn_in_functional(1, 0.5, 0.1, 0.0)
    assert not check_burn_in_functional(10 ** 12, 0.5, 0.1, float("inf"))
    with pytest.raises(ValueError):
        check_burn_in_functional(100, 0.5, 1.5, 1.0)
