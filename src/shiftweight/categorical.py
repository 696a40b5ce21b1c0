"""Direct (pseudo-inverse) and regularized estimators for the categorical shift vector."""

import math
from dataclasses import dataclass

import numpy as np

from .concentration import burn_in_holds
from .errors import SingularOperator, require_finite

RANK_TOL = 1e-12            # relative singular value cutoff
EPS = np.finfo(float).eps   # unit roundoff


@dataclass
class CategoricalWeightEstimate:
    theta_hat: np.ndarray
    omega_hat: np.ndarray   # 1 + theta_hat, before any gamma blending
    method: str             # "E1" or "E2"
    diagnostics: dict


def _svd_checked(T_hat):
    """Thin SVD (U, s, Vt) of the finite d x k matrix T_hat, and ||T_hat^+||:
    1 / sigma_min when T_hat has full column rank k (k singular values,
    d >= k, the smallest above RANK_TOL times the largest), inf otherwise."""
    require_finite(T_hat=T_hat)
    U, s, Vt = np.linalg.svd(T_hat, full_matrices=False)
    full_rank = len(s) == T_hat.shape[1] > 0 and s[-1] > RANK_TOL * s[0]
    return U, s, Vt, float(1.0 / s[-1]) if full_rank else math.inf


def _shift_vector(mom):
    """b = q_hat - p_hat, after checking both inputs are finite."""
    require_finite(p_hat=mom.p_hat, q_hat=mom.q_hat)
    return np.asarray(mom.q_hat - mom.p_hat, dtype=float)


def e1_direct(mom, alpha=None, n=None, delta=None):
    """theta_hat = pinv(T_hat) (q_hat - p_hat), with a hard rank check.

    Passing (alpha, n, delta) additionally fills the burn-in flag in the
    diagnostics; otherwise the flag is None.
    """
    T = np.asarray(mom.T_hat, dtype=float)
    d, k = T.shape
    U, s, Vt, op_inv_norm = _svd_checked(T)
    if op_inv_norm == math.inf:
        raise SingularOperator(f"forward operator lacks full column rank k={k}",
                               spectrum=s)
    r = _shift_vector(mom)
    theta = Vt.T @ ((U.T @ r) / s)
    diag = {
        "sigma_min": float(s[-1]),
        "sigma_max": float(s[0]),
        "op_inv_norm": op_inv_norm,
        "burn_in_ok": None,
    }
    if alpha is not None and n is not None and delta is not None:
        diag["burn_in_ok"] = burn_in_holds("categorical", alpha, n, delta,
                                           op_inv_norm, d=d, k=k)
    return CategoricalWeightEstimate(theta, 1.0 + theta, "E1", diag)


def check_burn_in_categorical(mom, d, k, alpha, n, delta):
    """concentration.burn_in_holds with ||T_hat^+|| for the unobservable
    population norm; without full column rank it is inf and the check fails."""
    _, _, _, op_inv_norm = _svd_checked(np.asarray(mom.T_hat, dtype=float))
    return burn_in_holds("categorical", alpha, n, delta, op_inv_norm, d=d, k=k)


# ===================== E2: regularized program =====================
#
#   min_theta  J(theta) = ||T theta - b|| + delta_T ||theta||   (norms NOT squared)
#
# J is convex, so a stationary point is the global minimizer.  With the SVD
# T = U diag(s) V^T and c = U^T b, exactly one of four regimes holds:
#   zero     ||T^T b|| <= delta_T ||b||: the subgradient at 0 contains 0;
#   pinv     delta_T = 0: least squares, min-norm solution theta0 = T^+ b;
#   kink     T theta0 = b and delta_T ||(T^+)^T theta0|| <= ||theta0||: the
#            residual term's subgradient ball absorbs the penalty gradient;
#   interior theta(t) = (T^T T + t I)^-1 T^T b at the root of the secular
#            equation psi(t) = delta_T ||r(t)|| / ||theta(t)|| - t = 0.
# psi is evaluated in the SVD basis, where neither norm cancels (cf. the
# trust-region secular equation of More & Sorensen 1983).
#
# psi changes sign at most once on t > 0, so bisection finds its root.  psi(t)
# has the sign of delta_T^2 - F(t) with F(t) = t^2 ||theta(t)||^2 / ||r(t)||^2.
# F is a weighted mean of the s_i^2, with weights c_i^2 / (s_i^2 + t)^2 plus
# out_sq / t^2 on the value 0 (out is the part of b outside the range of U).
# As t grows the weights shift toward the larger s_i, so F rises with t.


def _objective(T, b, delta_T, theta):
    return float(np.linalg.norm(T @ theta - b) + delta_T * np.linalg.norm(theta))


def e2_regularized(mom, delta_T, theta_cap=10.0):
    """Regularized estimate; delta_T is the operator confidence radius weight."""
    if not 0 <= delta_T < math.inf:
        raise ValueError("delta_T must be finite and nonnegative")
    if not theta_cap > 0:
        raise ValueError("theta_cap must be positive")
    T = np.asarray(mom.T_hat, dtype=float)
    U, s, Vt, op_inv_norm = _svd_checked(T)
    b = _shift_vector(mom)
    c = U.T @ b
    smax = float(s[0]) if len(s) else 0.0
    nb = float(np.linalg.norm(b))
    pull = float(np.linalg.norm(s * c))       # ||T^T b||, as the bracket below uses it
    rank_mask = s > RANK_TOL * max(smax, 1e-300)
    s_kept = np.where(rank_mask, s, np.inf)   # inf kills dropped directions in 1/s
    theta0 = Vt.T @ (c / s_kept)

    evals = 0
    kkt = 0.0
    if nb == 0.0 or pull <= delta_T * nb:
        theta, how = np.zeros(T.shape[1]), "zero-shortcut"
    elif delta_T == 0.0:
        theta, how = theta0, "pinv-shortcut"
    elif (np.linalg.norm(T @ theta0 - b) <= 1e-13 * max(1.0, nb)
          and delta_T * np.linalg.norm(c / s_kept ** 2) <= np.linalg.norm(theta0)):
        theta, how = theta0, "kink-shortcut"
    else:
        # the part of b outside the range of U; zero when U is square
        out = b - U @ c if U.shape[0] > U.shape[1] else np.zeros_like(b)
        out_sq = float(out @ out)

        def psi(t):
            nonlocal evals
            evals += 1
            w = 1.0 / (s * s + t)
            return (delta_T * math.sqrt(float(np.sum((t * w * c) ** 2)) + out_sq)
                    / float(np.linalg.norm(s * w * c)) - t)

        # psi(hi) <= -rho smax^2 < 0, since ||theta(t)|| >= ||T^T b|| / (smax^2 + t)
        # and ||r(t)|| <= ||b||; rho < 1 because the zero test failed.
        rho = delta_T * nb / pull
        hi = 2.0 * rho * smax * smax / (1.0 - rho)
        # Below EPS s_kept_min^2, theta(t) equals theta0 to working precision.
        floor = EPS * float(s[rank_mask][-1]) ** 2
        if hi < floor:
            theta, how = theta0, "kink-shortcut"
        elif psi(hi) >= 0.0:
            # psi(hi) >= 0 breaks the bound only through rounding, which
            # outweighs its margin once rho is 1 to working precision; theta(hi)
            # is then zero to working precision
            theta, how = np.zeros(T.shape[1]), "zero-shortcut"
        elif psi(floor) < 0.0:
            theta, how = theta0, "kink-shortcut"
        else:
            # halve [floor, hi] in the order of the doubles, which for positive
            # doubles is the order of their bit patterns, until the ends touch
            lo, hi = np.array([floor, hi]).view(np.int64).tolist()
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if psi(float(np.int64(mid).view(np.float64))) < 0.0:
                    hi = mid
                else:
                    lo = mid
            t = float(np.int64(hi).view(np.float64))
            w = 1.0 / (s * s + t)
            theta, how = Vt.T @ (s * w * c), "secular-root"
            # r(t) in the SVD basis: T theta - b cancels as the root nears the kink
            r = -(U @ (t * w * c)) - out
            kkt = float(np.linalg.norm(T.T @ r / np.linalg.norm(r)
                                       + delta_T * theta / np.linalg.norm(theta)))

    diag = {
        "sigma_min": float(s[-1]),
        "sigma_max": smax,
        # inf where E1 raises and check_burn_in_categorical returns False
        "op_inv_norm": op_inv_norm,
        "objective": _objective(T, b, delta_T, theta),
        "iterations": evals,
        "solution_path": how,
        "kkt_residual": kkt,
        "cap_exceeded": float(np.linalg.norm(theta)) > theta_cap,
    }
    return CategoricalWeightEstimate(theta, 1.0 + theta, "E2", diag)
