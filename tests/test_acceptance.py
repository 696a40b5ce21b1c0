"""Acceptance checks: one test per shipped guarantee.

Each test is self-contained and pins its tolerances inline.  The heavy
qualitative-curve reproductions (criteria 4, 5, 6, 9) dominate the runtime;
everything else is sub-second.
"""

import math

import numpy as np
import pytest

from shiftweight import (CategoricalSynthConfig, RegressionSynthConfig,
                         blend_gamma, categorical_radii, confidence_report,
                         divergence_report, e1_direct, e2_regularized,
                         e4_objective, e4_regularized,
                         estimate_categorical_moments, estimate_kernel_moments,
                         evaluate_weight, functional_radii, gen_categorical,
                         gen_regression, label_masses, oracle_target_risk,
                         population_moments_categorical, relative_error,
                         split_alpha, train_hypercube, train_kernel_regressor,
                         train_simplex, true_weight_categorical,
                         true_weight_function, weighted_erm)
from shiftweight.cli import main
from shiftweight.erm import FittedModel
from shiftweight.moments import MomentEstimates
from shiftweight.predictors import gaussian_gram

THETA_TRUE_K4 = np.array([2.0, -2.0 / 3, 2.0, -2.0 / 3])


def _categorical_cell(cfg, n, m, seed, trainer, k):
    ds = gen_categorical(cfg, n, m)
    sp = split_alpha(ds, 0.5, seed=seed)
    g = trainer((sp.erm_x, sp.erm_y), k)
    mom = estimate_categorical_moments((sp.est_x, sp.est_y), ds.target_x, g, k)
    return ds, sp, mom


def _functional_fit(seed, n, lam_scale=0.1, a=0.2, b=0.8):
    cfg = RegressionSynthConfig(a, b, seed=seed)
    ds = gen_regression(cfg, n, n)
    sp = split_alpha(ds, 0.5, seed=seed)
    u = train_kernel_regressor((sp.erm_x, sp.erm_y))
    km = estimate_kernel_moments((sp.est_x, sp.est_y), ds.target_x, u)
    lam = lam_scale * functional_radii(0.5, n, n, 0.1, km.kappa_bar)[2]
    est = e4_regularized(km, lam)
    return relative_error(lambda ys: evaluate_weight(est, 1.0, ys),
                          true_weight_function(cfg), "functional")


def test_criterion_01_exact_oracle_recovery():
    """Population moments of the k = 4 generator recover theta exactly."""
    cfg = CategoricalSynthConfig(4, 0.5, seed=0)
    mom = population_moments_categorical(cfg)
    direct = e1_direct(mom, 0.5, 1000, 0.1)
    np.testing.assert_allclose(direct.theta_hat, THETA_TRUE_K4, atol=1e-10)
    ridgeless = e2_regularized(mom, 0.0)
    np.testing.assert_allclose(ridgeless.theta_hat, THETA_TRUE_K4, atol=1e-8)


def test_criterion_02_hand_computed_two_by_two():
    p = np.array([0.5, 0.5])
    mom = MomentEstimates(np.array([[0.8, 0.1], [0.2, 0.9]]),
                          p, p + np.array([0.07, -0.07]), 100, 100)
    est = e1_direct(mom, 0.5, 100, 0.1)
    np.testing.assert_allclose(est.theta_hat, [0.1, -0.1], atol=1e-12)


def test_criterion_03_concentration_radii_match_hand_values():
    dp_hand = math.sqrt(2.0 / 200.0 * math.log(2 * 2 / 0.1))
    dt_hand = 2.0 * math.sqrt(2 * 2.0 / 200.0 * math.log(2 * (2 + 2) / 0.1))
    dq_hand = 2.0 * math.sqrt(2.0 / 800.0 * math.log(2 / 0.1))
    assert dp_hand == pytest.approx(0.19206455826398416, abs=1e-15)
    assert dt_hand == pytest.approx(0.5920828749203193, abs=1e-15)
    assert dq_hand == pytest.approx(0.17308183826022852, abs=1e-15)
    cat = categorical_radii(2, 2, 0.5, 400, 400, 0.1)
    fun = functional_radii(0.5, 800, 800, 0.1, 1.0)
    assert abs(cat[0] - dp_hand) < 1e-6
    assert abs(cat[2] - dt_hand) < 1e-6
    assert abs(fun[1] - dq_hand) < 1e-6


def test_criterion_04_bound_coverage():
    """Realized coefficient error inside epsilon(delta) in >= 90% of
    50 seeded trials at k = d = 4, n = m = 4000."""
    hits = 0
    trials = 50
    radius = categorical_radii(4, 4, 0.5, 4000, 4000, 0.1)[2]
    for seed in range(trials):
        cfg = CategoricalSynthConfig(4, 0.5, seed=seed)
        _, _, mom = _categorical_cell(cfg, 4000, 4000, seed, train_simplex, 4)
        est = e2_regularized(mom, radius, theta_cap=3.0)
        err = float(np.linalg.norm(est.theta_hat - THETA_TRUE_K4))
        rep = confidence_report("categorical", 0.5, 4000, 4000, 0.1,
                                1.0 / est.diagnostics["sigma_min"], 3.0,
                                d=4, k=4)
        hits += err <= rep.epsilon_delta
    assert hits >= 0.9 * trials, f"coverage {hits}/{trials}"


def test_criterion_05_categorical_convergence_and_mode_comparison():
    """Median error falls from n = 500 to n = 8000 for both statistics and
    the hypercube statistic is at least as accurate at n = 8000."""
    med = {}
    for name, trainer in (("simplex", train_simplex),
                          ("hypercube", train_hypercube)):
        for n in (500, 8000):
            errs = []
            for seed in range(20):
                cfg = CategoricalSynthConfig(4, 1.0, seed=seed)
                _, _, mom = _categorical_cell(cfg, n, n, seed, trainer, 4)
                est = e1_direct(mom, 0.5, n, 0.1)
                errs.append(relative_error(est.omega_hat,
                                           true_weight_categorical(cfg)))
            med[name, n] = float(np.median(errs))
    assert med["simplex", 8000] < med["simplex", 500], f"{med}"
    assert med["hypercube", 8000] < med["hypercube", 500], f"{med}"
    assert med["hypercube", 8000] <= med["simplex", 8000], f"{med}"


def test_criterion_06_functional_convergence():
    """Median grid error decreases across n = m in (500, 2000, 8000) and
    lands at or below 0.3."""
    meds = [float(np.median([_functional_fit(seed, n) for seed in range(10)]))
            for n in (500, 2000, 8000)]
    assert meds[0] > meds[1] > meds[2], f"medians {meds}"
    assert meds[2] <= 0.3, f"final median {meds[2]}"


def _dense_e4_terms(km, u_src, u_tgt):
    """Dense reference for J(beta) = beta^T (S + lam K) beta - 2 rhs^T beta
    + const over all anchors, from Gram blocks of the anchors and the
    u-images of the estimation and target points."""
    bw, N = km.bandwidth, km.n_est
    K = gaussian_gram(km.anchors, km.anchors, bw)
    G_uu = gaussian_gram(u_src, u_src, bw)
    G_ut = gaussian_gram(u_src, u_tgt, bw)
    G_tt = gaussian_gram(u_tgt, u_tgt, bw)
    A = K / N
    S = A @ G_uu @ A
    rhs = A @ (G_ut.sum(axis=1) / km.m - G_uu.sum(axis=1) / N)
    const = float(G_tt.sum()) / km.m ** 2 \
        - 2.0 / (km.m * N) * float(G_ut.sum()) \
        + float(G_uu.sum()) / N ** 2
    return K, S, rhs, const


def test_criterion_07_e4_solver_correctness():
    # gradient against central differences on a 10-anchor instance, along
    # the pivot-anchor coefficients the estimate carries
    cfg = RegressionSynthConfig(0.2, 0.8, seed=21)
    ds = gen_regression(cfg, 20, 10)
    sp = split_alpha(ds, 0.5, seed=21)
    u = train_kernel_regressor((sp.erm_x, sp.erm_y))
    km = estimate_kernel_moments((sp.est_x, sp.est_y), ds.target_x, u)
    lam = 0.05
    beta = e4_regularized(km, lam).beta
    K, S, rhs, _ = _dense_e4_terms(km, u(sp.est_x), u(ds.target_x))
    full = np.zeros(km.n_est)
    full[km.pivots] = beta
    grad = (2.0 * (S @ full - rhs) + 2.0 * lam * (K @ full))[km.pivots]
    h = 1e-6
    fd = np.array([(e4_objective(km, lam, beta + h * e)
                    - e4_objective(km, lam, beta - h * e)) / (2 * h)
                   for e in np.eye(len(beta))])
    rel = np.linalg.norm(fd - grad) / max(1.0, float(np.linalg.norm(grad)))
    assert rel < 1e-5, f"gradient mismatch {rel}"

    # random-search global optimality on a 12-point instance (N + m = 12)
    ds = gen_regression(cfg, 12, 6)
    sp = split_alpha(ds, 0.5, seed=21)
    u = train_kernel_regressor((sp.erm_x, sp.erm_y))
    km = estimate_kernel_moments((sp.est_x, sp.est_y), ds.target_x, u)
    est = e4_regularized(km, lam)
    j_star = e4_objective(km, lam, est.beta)
    N = km.n_est
    K, S, rhs, const = _dense_e4_terms(km, u(sp.est_x), u(ds.target_x))
    rng = np.random.default_rng(7)
    pts = rng.uniform(-5.0, 5.0, size=(10 ** 5, N))
    js = np.einsum("ij,jk,ik->i", pts, S + lam * K, pts) \
        - 2.0 * (pts @ rhs) + const
    # e4_objective on pivot-supported points against the dense expansion
    spot_pts = np.zeros((50, N))
    spot_pts[:, km.pivots] = pts[:50, :len(km.pivots)]
    spot_js = np.einsum("ij,jk,ik->i", spot_pts, S + lam * K, spot_pts) \
        - 2.0 * (spot_pts @ rhs) + const
    spot = np.array([e4_objective(km, lam, p[km.pivots]) for p in spot_pts])
    np.testing.assert_allclose(spot, spot_js, rtol=1e-10, atol=1e-12)
    assert j_star <= float(js.min()) + 1e-9, \
        f"random search beat solver by {j_star - js.min()}"


def test_criterion_08_change_of_measure_identity():
    """omega-weighted source risk of a fixed classifier equals its target
    risk within 0.01 at 1e5 samples per side."""
    cfg = CategoricalSynthConfig(4, 0.5, seed=0)
    ds = gen_categorical(cfg, 10 ** 5, 10 ** 5)
    model = FittedModel(
        "logistic",
        lambda xq: np.clip(np.rint(xq), 0, 3).astype(int))
    omega = true_weight_categorical(cfg)
    errs = model.predict(ds.source_x) != ds.source_y
    weighted_source = float(np.mean(omega[ds.source_y] * errs))
    target = oracle_target_risk(model, ds.target_x, ds.target_y_oracle)
    assert abs(weighted_source - target) < 0.01, \
        f"{weighted_source} vs {target}"


def test_criterion_09_weighted_erm_beats_unweighted():
    """Median oracle target risk over 20 seeds: full weighting wins."""
    risks = {0.0: [], 1.0: []}
    radius = 0.1 * categorical_radii(4, 4, 0.5, 8000, 8000, 0.1)[2]
    for seed in range(20):
        cfg = CategoricalSynthConfig(4, 0.5, seed=seed)
        ds, sp, mom = _categorical_cell(cfg, 8000, 8000, seed,
                                        train_simplex, 4)
        est = e2_regularized(mom, radius)
        for gamma in (0.0, 1.0):
            weights = blend_gamma(est.theta_hat, gamma)
            fit = weighted_erm((sp.erm_x, sp.erm_y), weights, k=4,
                               gamma=gamma)
            risks[gamma].append(oracle_target_risk(
                fit.model, ds.target_x, ds.target_y_oracle))
    med0 = float(np.median(risks[0.0]))
    med1 = float(np.median(risks[1.0]))
    assert med1 < med0, f"gamma=1 median {med1} vs gamma=0 median {med0}"


def test_criterion_10_divergence_diagnostics_exact():
    cfg = CategoricalSynthConfig(4, 0.5, seed=0)
    p, _ = label_masses(cfg)
    d_inf, d_second = divergence_report(true_weight_categorical(cfg), p)
    assert d_inf == pytest.approx(3.0, abs=1e-12)
    assert d_second == pytest.approx(7.0 / 3.0, abs=1e-12)


def test_criterion_11_deterministic_csv(tmp_path):
    """Identical config and seeds give byte-identical CSV once the timestamp
    header line and the wall-clock column are set aside."""
    cfg_path = tmp_path / "det.cfg"
    cfg_path.write_text(
        "scenario = categorical_vs_n\n"
        "estimator = E2\n"
        "sweep = 300, 600\n"
        "seeds = 0, 1, 2\n"
        "k = 3\n", encoding="utf-8")

    def run(name):
        out = tmp_path / name
        assert main(["run", str(cfg_path), "--out", str(out), "--quiet"]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0].startswith("# generated ")
        header = lines[1].split(",")
        wall = header.index("wall_ms")
        body = []
        for line in lines[1:]:
            cells = line.split(",")
            if cells[0] != "scenario":
                cells[wall] = ""
            body.append(",".join(cells))
        return "\n".join(body)

    assert run("a.csv") == run("b.csv")
