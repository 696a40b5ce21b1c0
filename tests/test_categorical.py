"""Direct and regularized estimators for the categorical shift vector."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftweight import (NonFiniteInput, SingularOperator,
                         check_burn_in_categorical, confidence_report,
                         e1_direct, e2_regularized)
from shiftweight.categorical import _objective, _svd_checked
from shiftweight.moments import MomentEstimates

# required sample size at ||T_pinv|| = 1, d = k = 2, alpha = 0.5, delta = 0.1:
# (32/0.5) * 1 * 2 * ln(6*4/0.1), evaluated independently
BURN_IN_REQUIRED = 701.5217821877749


def _mom(T, diff, p=None):
    """MomentEstimates with q - p equal to diff (p defaults to zero)."""
    T = np.asarray(T, dtype=float)
    p = np.zeros(T.shape[0]) if p is None else np.asarray(p, dtype=float)
    return MomentEstimates(T, p, p + np.asarray(diff, dtype=float), 100, 100)


HAND_T = [[0.8, 0.1], [0.2, 0.9]]
HAND_DIFF = [0.07, -0.07]


def test_e1_identity_operator_passes_through():
    est = e1_direct(_mom(np.eye(2), [0.2, -0.2]))
    np.testing.assert_allclose(est.theta_hat, [0.2, -0.2], atol=1e-14)
    np.testing.assert_allclose(est.omega_hat, [1.2, 0.8], atol=1e-14)


def test_e1_hand_inverted_two_by_two():
    """T = [[0.8, 0.1], [0.2, 0.9]] has det 0.7; the inverse applied to
    (0.07, -0.07) gives exactly (0.1, -0.1)."""
    est = e1_direct(_mom(HAND_T, HAND_DIFF))
    np.testing.assert_allclose(est.theta_hat, [0.1, -0.1], atol=1e-12)


def test_e1_no_shift_returns_zero():
    p = np.array([0.4, 0.6])
    mom = MomentEstimates(np.asarray(HAND_T, float), p, p.copy(), 50, 50)
    est = e1_direct(mom)
    np.testing.assert_allclose(est.theta_hat, 0.0, atol=1e-14)


def test_e1_reports_singular_spectrum():
    T = np.array([[0.5, 0.5], [0.5, 0.5]])
    with pytest.raises(SingularOperator) as exc:
        e1_direct(_mom(T, [0.1, -0.1]))
    assert exc.value.spectrum is not None
    assert min(exc.value.spectrum) < 1e-12 * max(exc.value.spectrum)


def test_e1_rejects_wide_operator():
    T = np.array([[0.5, 0.2, 0.3]])
    with pytest.raises(SingularOperator):
        e1_direct(_mom(T, [0.1]))


def test_e1_tall_operator_least_squares():
    """d > k: the pseudo-inverse solves the overdetermined system."""
    rng = np.random.default_rng(0)
    T = rng.uniform(0.1, 1.0, size=(5, 3))
    theta = np.array([0.5, -0.25, 0.1])
    est = e1_direct(_mom(T, T @ theta))
    np.testing.assert_allclose(est.theta_hat, theta, atol=1e-10)


def test_e1_diagnostics_expose_spectrum():
    est = e1_direct(_mom(HAND_T, HAND_DIFF))
    s = np.linalg.svd(np.asarray(HAND_T), compute_uv=False)
    assert abs(est.diagnostics["sigma_min"] - s[-1]) < 1e-14
    assert abs(est.diagnostics["sigma_max"] - s[0]) < 1e-14
    assert est.method == "E1"


@given(st.floats(1e-6, 1e6))
@settings(max_examples=40)
def test_e1_scale_invariance(c):
    """Scaling T and q - p jointly by c > 0 leaves theta unchanged."""
    base = e1_direct(_mom(HAND_T, HAND_DIFF)).theta_hat
    scaled = e1_direct(_mom(np.asarray(HAND_T) * c,
                            np.asarray(HAND_DIFF) * c)).theta_hat
    np.testing.assert_allclose(scaled, base, atol=1e-12, rtol=1e-9)


def test_omega_is_one_plus_theta():
    est = e1_direct(_mom(HAND_T, HAND_DIFF))
    np.testing.assert_array_equal(est.omega_hat, 1.0 + est.theta_hat)


# ===================== regularized estimator =====================

def test_e2_zero_weight_matches_direct():
    direct = e1_direct(_mom(HAND_T, HAND_DIFF))
    reg = e2_regularized(_mom(HAND_T, HAND_DIFF), delta_T=0.0)
    np.testing.assert_allclose(reg.theta_hat, direct.theta_hat, atol=1e-8)
    assert reg.method == "E2"


def test_e2_huge_weight_kills_solution():
    est = e2_regularized(_mom(HAND_T, HAND_DIFF), delta_T=1e6)
    np.testing.assert_array_equal(est.theta_hat, 0.0)


def test_e2_zero_threshold_is_sharp():
    """theta = 0 is optimal iff ||T^T b|| <= delta_T * ||b||; check both sides
    of the boundary."""
    T = np.asarray(HAND_T)
    b = np.asarray(HAND_DIFF)
    pull = np.linalg.norm(T.T @ b) / np.linalg.norm(b)
    at_zero = e2_regularized(_mom(T, b), delta_T=pull * 1.001)
    np.testing.assert_array_equal(at_zero.theta_hat, 0.0)
    off_zero = e2_regularized(_mom(T, b), delta_T=pull * 0.92)
    assert np.linalg.norm(off_zero.theta_hat) > 0


def test_e2_small_weight_on_hand_instance_stays_at_exact_solution():
    """With delta_T = 0.01 the unregularized solution still zeroes the
    residual and absorbs the penalty kink, so the optimum is unchanged; the
    objective also survives a random-search optimality audit."""
    mom = _mom(HAND_T, HAND_DIFF)
    est = e2_regularized(mom, delta_T=0.01)
    np.testing.assert_allclose(est.theta_hat, [0.1, -0.1], atol=1e-12)

    T = np.asarray(HAND_T)
    b = np.asarray(HAND_DIFF)
    j_star = _objective(T, b, 0.01, est.theta_hat)
    j_e1 = _objective(T, b, 0.01, np.array([0.1, -0.1]))
    assert j_star <= j_e1 + 1e-9

    rng = np.random.default_rng(1)
    pts = rng.normal(size=(10 ** 6, 2))
    pts *= (rng.random(10 ** 6) ** 0.5 / np.linalg.norm(pts, axis=1))[:, None]
    r = pts @ T.T - b
    j_rand = np.linalg.norm(r, axis=1) + 0.01 * np.linalg.norm(pts, axis=1)
    assert j_star <= j_rand.min() + 1e-9


def test_e2_iterative_regime_reaches_stationarity():
    """A shrunk but nonzero optimum satisfies the first-order condition
    T^T r / ||r|| = -delta_T * theta / ||theta||."""
    rng = np.random.default_rng(2)
    T = rng.uniform(0.05, 1.0, size=(6, 4))
    b = rng.normal(size=6)
    delta_T = 0.6 * np.linalg.norm(T.T @ b) / np.linalg.norm(b)
    est = e2_regularized(_mom(T, b), delta_T=delta_T)
    theta = est.theta_hat
    assert np.linalg.norm(theta) > 0
    r = T @ theta - b
    assert np.linalg.norm(r) > 0
    grad = T.T @ r / np.linalg.norm(r)
    subgrad = delta_T * theta / np.linalg.norm(theta)
    np.testing.assert_allclose(grad, -subgrad, atol=1e-6)


def test_e2_objective_never_increases():
    """The solution is no worse than theta = 0, whose objective is ||b||."""
    rng = np.random.default_rng(3)
    T = rng.uniform(0.05, 1.0, size=(5, 3))
    b = rng.normal(size=5)
    delta_T = 0.4 * np.linalg.norm(T.T @ b) / np.linalg.norm(b)
    est = e2_regularized(_mom(T, b), delta_T=delta_T)
    assert est.diagnostics["objective"] <= np.linalg.norm(b)


def test_e2_beats_random_search_on_random_instances():
    rng = np.random.default_rng(4)
    for trial in range(5):
        T = rng.uniform(0.05, 1.0, size=(4, 3))
        b = rng.normal(size=4) * 0.3
        delta_T = rng.uniform(0.0, 1.0) * np.linalg.norm(T.T @ b) \
            / np.linalg.norm(b)
        est = e2_regularized(_mom(T, b), delta_T=delta_T)
        j_star = _objective(T, b, delta_T, est.theta_hat)
        pts = rng.normal(size=(10 ** 5, 3))
        js = (np.linalg.norm(pts @ T.T - b, axis=1)
              + delta_T * np.linalg.norm(pts, axis=1))
        assert j_star <= js.min() + 1e-9, f"trial {trial}"


def test_e2_cap_diagnostic():
    est = e2_regularized(_mom(HAND_T, HAND_DIFF), delta_T=0.0, theta_cap=0.05)
    assert est.diagnostics["cap_exceeded"]
    est2 = e2_regularized(_mom(HAND_T, HAND_DIFF), delta_T=0.0, theta_cap=10.0)
    assert not est2.diagnostics["cap_exceeded"]


def test_e2_rejects_negative_weight():
    with pytest.raises(ValueError):
        e2_regularized(_mom(HAND_T, HAND_DIFF), delta_T=-0.1)


def _kkt(T, b, delta_T, theta):
    """First-order residual ||T^T r / ||r|| + delta_T theta / ||theta|| ||."""
    r = T @ theta - b
    return np.linalg.norm(T.T @ r / np.linalg.norm(r)
                          + delta_T * theta / np.linalg.norm(theta))


def test_e2_interior_root_is_stationary_where_a_grid_scan_stopped_early():
    """On this instance a secular function that forms T theta - b directly
    changes sign from rounding alone near t ~ 1e-16 sigma_max^2, so a solver
    taking the first sign change on a log grid lands on a spurious root.  An
    answer from such a solver had objective 0.117938601747789 and KKT
    residual 1.8e-4."""
    rng = np.random.default_rng(120)
    T = rng.uniform(0.05, 1.0, (3, 3))
    b = 0.1 * rng.normal(size=3)
    delta_T = rng.uniform(0.1, 0.9) * np.linalg.norm(T.T @ b) / np.linalg.norm(b)
    est = e2_regularized(_mom(T, b), delta_T)
    assert est.diagnostics["solution_path"] == "secular-root"
    assert _kkt(T, b, delta_T, est.theta_hat) <= 1e-9
    assert est.diagnostics["kkt_residual"] <= 1e-9
    assert _objective(T, b, delta_T, est.theta_hat) <= 0.117938601747789 - 2e-7


def test_e2_just_below_the_zero_threshold_returns_zero():
    """A delta_T a few ulps below the zero threshold makes rho 1 to working
    precision, where rounding in psi swamps the margin of the bracket's upper
    end; E2 must still solve, with theta negligible against T^+ b."""
    for seed in range(40):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 7))
        d = k + int(rng.integers(0, 3))
        T = rng.uniform(0.05, 1.0, (d, k))
        b = rng.normal(size=d)
        delta_T = np.linalg.norm(T.T @ b) / np.linalg.norm(b)
        scale = np.linalg.norm(np.linalg.pinv(T) @ b)
        for _ in range(12):
            delta_T = np.nextafter(delta_T, 0.0)
            theta = e2_regularized(_mom(T, b), delta_T).theta_hat
            assert np.linalg.norm(theta) <= 1e-12 * scale


def test_e2_root_below_working_precision_returns_the_kink():
    """b sits 1e-12 off the range of a tall T, so the residual test of the kink
    shortcut fails; with delta_T = 1e-6 the root lies below eps sigma_min^2,
    where theta(t) equals the pseudo-inverse solution to working precision."""
    rng = np.random.default_rng(5)
    T = rng.uniform(0.05, 1.0, (3, 2))
    off_range = np.linalg.svd(T)[0][:, 2]
    b = T @ np.array([0.3, -0.2]) + 1e-12 * off_range
    est = e2_regularized(_mom(T, b), 1e-6)
    theta0 = np.linalg.pinv(T) @ b
    assert est.diagnostics["solution_path"] == "kink-shortcut"
    assert est.diagnostics["iterations"] > 0
    np.testing.assert_allclose(est.theta_hat, theta0, atol=1e-15)
    for t in np.geomspace(1e-20, 1.0, 41):
        ridge = np.linalg.solve(T.T @ T + t * np.eye(2), T.T @ b)
        assert est.diagnostics["objective"] <= _objective(T, b, 1e-6, ridge) + 1e-16


def test_e2_diagnostics_name_the_regime():
    T = np.asarray(HAND_T)
    b = np.asarray(HAND_DIFF)
    pull = np.linalg.norm(T.T @ b) / np.linalg.norm(b)
    for delta_T, path in ((pull * 1.001, "zero-shortcut"), (0.0, "pinv-shortcut"),
                          (0.01, "kink-shortcut"), (0.99 * pull, "secular-root")):
        d = e2_regularized(_mom(T, b), delta_T).diagnostics
        assert d["solution_path"] == path
        assert isinstance(d["iterations"], int)
        assert (d["iterations"] > 0) == (path == "secular-root")
        if path != "secular-root":
            assert d["kkt_residual"] == 0.0


def test_e2_op_inv_norm_follows_the_burn_in_rank_rule():
    """Full rank: 1 / sigma_min, bit for bit as E1 reports it.  A zero
    singular value: inf, where check_burn_in_categorical returns False."""
    mom = _mom(HAND_T, HAND_DIFF)
    assert e2_regularized(mom, 0.01).diagnostics["op_inv_norm"] \
        == e1_direct(mom).diagnostics["op_inv_norm"]
    singular = _mom([[0.8, 0.0], [0.2, 0.0]], HAND_DIFF)
    diag = e2_regularized(singular, 0.01).diagnostics
    assert diag["sigma_min"] == 0.0 and diag["op_inv_norm"] == math.inf
    assert not check_burn_in_categorical(singular, 2, 2, 0.5, 10 ** 9, 0.1)


@pytest.mark.parametrize("T", (HAND_T, [[0.6, 0.1, 0.3], [0.1, 0.7, 0.2]],
                               [[0.8, 0.0], [0.2, 0.0]],
                               [[0.5, 0.5], [0.5, 0.5], [0.0, 0.0]]),
                         ids=("full-rank", "wide", "zero-column", "rank-one"))
def test_svd_checked_states_the_inverse_norm_for_both_estimators(T):
    """_svd_checked's ||T_hat^+|| is 1 / sigma_min at full column rank and
    inf on a wide or rank-deficient T_hat.  E1 raises exactly where it is
    inf and otherwise reports it, and E2 reports it in either case."""
    mom = _mom(T, np.full(len(T), 0.01))
    _, s, _, op_inv_norm = _svd_checked(mom.T_hat)
    if T is HAND_T:
        assert op_inv_norm == 1.0 / s[-1] and type(op_inv_norm) is float
        assert e1_direct(mom).diagnostics["op_inv_norm"] == op_inv_norm
    else:
        assert op_inv_norm == math.inf
        with pytest.raises(SingularOperator):
            e1_direct(mom)
    assert e2_regularized(mom, 0.01).diagnostics["op_inv_norm"] == op_inv_norm


def test_wide_operator_is_rank_deficient_under_one_rule():
    """d = 2 < k = 3: theta is unidentified along the null space of T, so E1
    raises, E2's op_inv_norm is inf, burn-in never holds and the confidence
    bound is infinite, although all d singular values are well above the
    cutoff."""
    mom = _mom([[0.6, 0.1, 0.3], [0.1, 0.7, 0.2]], [0.05, -0.05])
    with pytest.raises(SingularOperator):
        e1_direct(mom)
    op_inv_norm = e2_regularized(mom, 0.01).diagnostics["op_inv_norm"]
    assert op_inv_norm == math.inf
    assert not check_burn_in_categorical(mom, 2, 3, 0.5, 10 ** 6, 0.1)
    rep = confidence_report("categorical", 0.5, 10 ** 6, 10 ** 6, 0.1,
                            op_inv_norm, 10.0, d=2, k=3)
    assert rep.epsilon_delta == math.inf


def brentq_reference(T, b, delta_T):
    """(theta, solution_path) of E2 with the interior solved by scipy's brentq:
    the bracket's lower end steps down by 10x until psi changes sign, then
    brentq finds the root."""
    from scipy.optimize import brentq

    eps = np.finfo(float).eps
    U, s, Vt = np.linalg.svd(T, full_matrices=False)
    c = U.T @ b
    smax = float(s[0])
    nb = float(np.linalg.norm(b))
    pull = float(np.linalg.norm(s * c))
    rank_mask = s > 1e-12 * max(smax, 1e-300)
    s_kept = np.where(rank_mask, s, np.inf)
    theta0 = Vt.T @ (c / s_kept)
    zero = np.zeros(T.shape[1])
    if nb == 0.0 or pull <= delta_T * nb:
        return zero, "zero-shortcut"
    if delta_T == 0.0:
        return theta0, "pinv-shortcut"
    if (np.linalg.norm(T @ theta0 - b) <= 1e-13 * max(1.0, nb)
            and delta_T * np.linalg.norm(c / s_kept ** 2) <= np.linalg.norm(theta0)):
        return theta0, "kink-shortcut"
    out = b - U @ c if U.shape[0] > U.shape[1] else np.zeros_like(b)
    out_sq = float(out @ out)

    def psi(t):
        w = 1.0 / (s * s + t)
        return (delta_T * math.sqrt(float(np.sum((t * w * c) ** 2)) + out_sq)
                / float(np.linalg.norm(s * w * c)) - t)

    rho = delta_T * nb / pull
    hi = 2.0 * rho * smax * smax / (1.0 - rho)
    floor = eps * float(s[rank_mask][-1]) ** 2
    lo = hi
    while lo >= floor and psi(lo) < 0.0:
        hi, lo = lo, lo * 0.1
    if lo < floor:
        return theta0, "kink-shortcut"
    if lo == hi:
        return zero, "zero-shortcut"
    t = brentq(psi, lo, hi, xtol=np.finfo(float).tiny, rtol=4 * eps)
    return Vt.T @ (s / (s * s + t) * c), "secular-root"


def test_e2_bisection_matches_the_brentq_reference():
    """On random instances, some with two nearly collinear columns, E2 takes the
    reference's regime, lands within 1e-10 of its theta and is no worse in
    objective."""
    rng = np.random.default_rng(2024)
    paths = Counter()
    for _ in range(4000):
        k = int(rng.integers(2, 9))
        d = k + int(rng.integers(0, 3))
        T = rng.uniform(0.05, 1.0, (d, k))
        if rng.random() < 0.2:
            i, j = rng.choice(k, 2, replace=False)
            T[:, j] = T[:, i] + 10.0 ** rng.uniform(-10, -4) * rng.normal(size=d)
        b = rng.normal(size=d) * 10.0 ** rng.uniform(-3, 1)
        pull = np.linalg.norm(T.T @ b) / np.linalg.norm(b)
        delta_T = rng.uniform(0.0, 1.05) * pull
        ref, ref_path = brentq_reference(T, b, delta_T)
        est = e2_regularized(_mom(T, b), delta_T)
        path = est.diagnostics["solution_path"]
        paths[path] += 1
        assert path == ref_path
        assert np.linalg.norm(est.theta_hat - ref) <= 1e-10 * np.linalg.norm(ref)
        assert (est.diagnostics["objective"]
                <= _objective(T, b, delta_T, ref) + 1e-15 * max(1.0, np.linalg.norm(b)))
    assert min(paths[p] for p in ("zero-shortcut", "kink-shortcut", "secular-root")) > 0


# ===================== properties =====================

@st.composite
def _instances(draw, wide=True):
    """(T, b, delta_T) with T uniform in [0.05, 1]; d ranges over k - 2 .. k + 2
    (d >= k unless wide), and delta_T over [0, 1.2] x the zero threshold."""
    k = draw(st.integers(2, 6))
    d = draw(st.integers(max(1, k - 2) if wide else k, k + 2))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    T = rng.uniform(0.05, 1.0, (d, k))
    b = rng.normal(size=d) * 10.0 ** rng.uniform(-3, 1)
    if draw(st.booleans()):
        b = T @ rng.normal(size=k) * 0.1       # b in the range of T
    pull = np.linalg.norm(T.T @ b) / np.linalg.norm(b)
    return T, b, draw(st.floats(0.0, 1.2)) * pull


@given(_instances(wide=False), st.randoms())
@settings(max_examples=60, deadline=None)
def test_e1_e2_permute_with_the_classes(inst, rnd):
    """Relabelling the classes permutes the columns of T and the entries of theta."""
    T, b, delta_T = inst
    perm = list(range(T.shape[1]))
    rnd.shuffle(perm)
    tol = 1e-10
    for solve in (lambda m: e1_direct(m), lambda m: e2_regularized(m, delta_T)):
        base = solve(_mom(T, b)).theta_hat
        permuted = solve(_mom(T[:, perm], b)).theta_hat
        np.testing.assert_allclose(permuted, base[perm],
                                   atol=tol * max(1.0, np.linalg.norm(base)))


@given(_instances(wide=False))
@settings(max_examples=40, deadline=None)
def test_e1_e2_no_shift_gives_zero(inst):
    T, _, delta_T = inst
    p = np.full(T.shape[0], 1.0 / T.shape[0])
    mom = MomentEstimates(T, p, p.copy(), 100, 100)
    np.testing.assert_array_equal(e1_direct(mom).theta_hat, 0.0)
    np.testing.assert_array_equal(e2_regularized(mom, delta_T).theta_hat, 0.0)


@given(_instances())
@settings(max_examples=200, deadline=None)
def test_e2_interior_solves_are_stationary(inst):
    T, b, delta_T = inst
    d = e2_regularized(_mom(T, b), delta_T).diagnostics
    if d["solution_path"] == "secular-root":
        assert d["kkt_residual"] <= 1e-9


# ===================== non-finite inputs =====================

@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_categorical_estimators_reject_non_finite_inputs(bad):
    T_bad = np.array(HAND_T)
    T_bad[1, 0] = bad
    for call in (lambda m: e1_direct(m), lambda m: e2_regularized(m, 0.1),
                 lambda m: check_burn_in_categorical(m, 2, 2, 0.5, 1000, 0.1)):
        with pytest.raises(NonFiniteInput) as exc:
            call(_mom(T_bad, HAND_DIFF))
        assert exc.value.field == "T_hat"
    for call in (lambda m: e1_direct(m), lambda m: e2_regularized(m, 0.1)):
        with pytest.raises(NonFiniteInput) as exc:
            call(_mom(HAND_T, [0.07, bad]))
        assert exc.value.field == "q_hat"


# ===================== burn-in =====================

def _identity_mom():
    return _mom(np.eye(2), [0.0, 0.0])


def test_burn_in_threshold_evaluates_the_formula():
    assert abs(BURN_IN_REQUIRED
               - (32 / 0.5) * 1.0 * 2 * math.log(6 * 4 / 0.1)) < 1e-9


def test_burn_in_true_above_threshold():
    assert check_burn_in_categorical(_identity_mom(), d=2, k=2, alpha=0.5,
                                     n=702, delta=0.1)


def test_burn_in_false_below_threshold():
    assert not check_burn_in_categorical(_identity_mom(), d=2, k=2, alpha=0.5,
                                         n=701, delta=0.1)
    assert not check_burn_in_categorical(_identity_mom(), d=2, k=2, alpha=0.5,
                                         n=500, delta=0.1)
    assert not check_burn_in_categorical(_identity_mom(), d=2, k=2, alpha=0.5,
                                         n=400, delta=0.1)


def test_burn_in_near_singular_never_satisfied():
    T = np.array([[0.5, 0.5 + 1e-15], [0.5, 0.5]])
    mom = _mom(T, [0.0, 0.0])
    assert not check_burn_in_categorical(mom, 2, 2, 0.5, 10 ** 12, 0.1)
