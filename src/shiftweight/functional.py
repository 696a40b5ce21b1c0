"""RKHS estimators for the continuous-label shift function, solved on the anchor span.

The unknown is theta(y) = sum_j beta_j kernel(y_j, y) over the estimation-
split source labels (the anchors).  With the Gram factors of KernelMoments,
theta has factor coordinates a = phi^T beta, ||theta||_H = ||a||, and the
moment residual is ||B a - b|| with B = psi_s^T phi / N and
b = mean(psi_t) - mean(psi_s), built once as KernelMoments.B and .b, so every
solve is r x r.  Estimates keep their coefficients on the pivot anchors,
beta_P = phi[pivots]^-T a.

Both estimators and the bound's proxy read one thin SVD B = U diag(s) V^T and
one rank rule: a direction is kept when s^2 > EIG_TOL * s_max^2.
"""

from dataclasses import dataclass

import numpy as np

from .concentration import burn_in_holds
from .errors import SingularOperator, require_finite
from .predictors import gaussian_gram, pivot_coefficients

EIG_TOL = 2e-7              # relative cutoff on sigma(B)^2, see _spectrum
JITTER = 1e-12              # ridge shift E4 adds to lam


@dataclass
class FunctionalWeightEstimate:
    beta: np.ndarray        # representer coefficients over the pivot anchors
    anchors: np.ndarray     # the pivot anchors
    method: str             # "E3" or "E4"
    lambda_used: float
    rkhs_norm: float        # ||theta||_H = ||a||, a the factor coordinates
    bandwidth: float
    diagnostics: dict


def residual_norm_sq(km, beta):
    """||T_hat theta - q_hat + p_hat||^2 in the RKHS for theta with
    coefficients beta over the pivot anchors (the estimates' representation)."""
    a = km.phi[km.pivots].T @ np.asarray(beta, dtype=float)   # factor coordinates
    r = km.B @ a - km.b
    return float(r @ r)


def e4_objective(km, lam, beta):
    """The squared relaxed objective J(beta) = residual^2 + lam * ||theta||_H^2,
    beta over the pivot anchors; ||theta||_H^2 = a @ a."""
    a = km.phi[km.pivots].T @ np.asarray(beta, dtype=float)
    return residual_norm_sq(km, beta) + lam * float(a @ a)


def _estimate(km, a, method, lam, diag):
    beta = pivot_coefficients(km.phi, km.pivots, a)
    diag.update(residual_sq=residual_norm_sq(km, beta),
                factor_rank_y=km.phi.shape[1], factor_rank_u=km.B.shape[0],
                factor_residual=km.factor_residual)
    return FunctionalWeightEstimate(beta, km.anchors[km.pivots], method,
                                    float(lam), float(np.linalg.norm(a)),
                                    km.bandwidth, diag)


def _spectrum(km):
    """The thin SVD B = U diag(s) Vt, s descending, and the mask of the kept
    directions, s^2 > EIG_TOL * s_max^2 (none when B is zero)."""
    U, s, Vt = np.linalg.svd(km.B, full_matrices=False)
    keep = s * s > EIG_TOL * s.max(initial=0.0) ** 2
    return U, s, Vt, keep


def e4_regularized(km, lam):
    """Ridge-regularized estimate on the anchor span; lam equal to the operator
    confidence radius gives the default high-probability estimator, other lam
    values are the general-regularization variant.  Solves
    (B^T B + (lam + JITTER) I) a = B^T b in factor coordinates, in closed form
    on the SVD B = U diag(s) V^T: a = V (U^T b / (s + (lam + JITTER) / s)).
    A zero singular value drops its direction."""
    if not 0 <= lam < np.inf:
        raise ValueError("lam must be finite and nonnegative")
    U, s, Vt, _ = _spectrum(km)
    with np.errstate(divide="ignore"):
        shrink = s + (lam + JITTER) / s     # inf where s is 0
    a = Vt.T @ ((U.T @ km.b) / shrink)
    est = _estimate(km, a, "E4", lam, {"jitter": JITTER})
    est.diagnostics["objective"] = e4_objective(km, lam, est.beta)
    return est


def e3_direct(km):
    """Direct estimate: the truncated pseudo-inverse of the span-restricted
    operator in the RKHS metric, a = V_k (U_k^T b / s_k) over the directions
    _spectrum keeps.  Diagnostics state the spectrum in sigma^2."""
    U, s, Vt, keep = _spectrum(km)
    if not keep.any():
        raise SingularOperator("operator spectrum entirely below threshold",
                               spectrum=s * s)
    sk = s[keep]
    a = Vt[keep].T @ ((U[:, keep].T @ km.b) / sk)
    w = sk * sk
    diag = {
        "condition_number": float(w[0] / w[-1]),
        "spectrum_max": float(w[0]),
        "spectrum_min_kept": float(w[-1]),
        "rank_kept": int(keep.sum()),
    }
    return _estimate(km, a, "E3", 0.0, diag)


def theta_function(est):
    """The estimated shift function theta_hat as a callable on label values;
    a NaN or infinite label raises NonFiniteInput."""
    def theta(ys):
        require_finite(labels=ys)
        K = gaussian_gram(ys, est.anchors, est.bandwidth)
        return K @ est.beta
    return theta


def evaluate_weight(est, gamma, ys):
    """Blended weight values 1 + gamma * theta_hat(y) at the given labels."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must lie in [0, 1], got {gamma}")
    if len(est.anchors) == 0:
        raise ValueError("estimate has no anchors")
    return 1.0 + gamma * theta_function(est)(np.asarray(ys, dtype=float))


def operator_inverse_norm_proxy(km):
    """Norm of e3_direct's truncated inverse: 1 / sigma_min of B over the
    directions _spectrum keeps, inf when none is kept."""
    _, s, _, keep = _spectrum(km)
    return 1.0 / float(s[keep][-1]) if keep.any() else float("inf")


def check_burn_in_functional(n, alpha, delta, op_inv_norm_proxy):
    """concentration.burn_in_holds on the kernel path, the proxy for ||T^+||."""
    return burn_in_holds("functional", alpha, n, delta, op_inv_norm_proxy)
