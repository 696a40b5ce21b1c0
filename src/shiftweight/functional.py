"""RKHS estimators for the continuous-label shift function, solved on the anchor span.

The unknown is theta(y) = sum_j beta_j kernel(y_j, y) over the estimation-
split source labels (the anchors).  With the Gram factors of KernelMoments,
theta has factor coordinates a = phi^T beta, ||theta||_H = ||a||, and the
moment residual is ||B a - b|| with B = psi_s^T phi / N and
b = mean(psi_t) - mean(psi_s), built once as KernelMoments.B and .b, so every
solve is r x r.  Estimates keep their coefficients on the pivot anchors,
beta_P = phi[pivots]^-T a.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularOperator
from .predictors import gaussian_gram, pivot_coefficients

EIG_TOL = 1e-10             # relative spectral cutoff for the direct inverse
JITTER = 1e-12              # ridge shift E4 adds to lam


@dataclass
class FunctionalWeightEstimate:
    beta: np.ndarray        # representer coefficients over the pivot anchors
    anchors: np.ndarray     # the pivot anchors
    method: str             # "E3" or "E4"
    lambda_used: float
    rkhs_norm: float        # sqrt(beta^T kernel(anchors, anchors) beta)
    bandwidth: float
    diagnostics: dict


def _rkhs_norm_sq(anchors, beta, bandwidth):
    return float(beta @ gaussian_gram(anchors, anchors, bandwidth) @ beta)


def residual_norm_sq(km, beta):
    """||T_hat theta - q_hat + p_hat||^2 in the RKHS for theta with
    coefficients beta over the pivot anchors (the estimates' representation)."""
    a = km.phi[km.pivots].T @ np.asarray(beta, dtype=float)   # factor coordinates
    r = km.B @ a - km.b
    return float(r @ r)


def e4_objective(km, lam, beta):
    """The squared relaxed objective J(beta) = residual^2 + lam * ||theta||_H^2,
    beta over the pivot anchors."""
    return residual_norm_sq(km, beta) \
        + lam * _rkhs_norm_sq(km.anchors[km.pivots], beta, km.bandwidth)


def _estimate(km, a, method, lam, diag):
    beta = pivot_coefficients(km.phi, km.pivots, a)
    anchors = km.anchors[km.pivots]
    rn = math.sqrt(max(_rkhs_norm_sq(anchors, beta, km.bandwidth), 0.0))
    diag.update(residual_sq=residual_norm_sq(km, beta),
                factor_rank_y=km.phi.shape[1], factor_rank_u=km.B.shape[0],
                factor_residual=km.factor_residual)
    return FunctionalWeightEstimate(beta, anchors, method, float(lam), rn,
                                    km.bandwidth, diag)


def e4_regularized(km, lam):
    """Ridge-regularized estimate on the anchor span; lam equal to the operator
    confidence radius gives the default high-probability estimator, other lam
    values are the general-regularization variant.  Solves
    (B^T B + (lam + JITTER) I) a = B^T b in factor coordinates, in closed form
    on the SVD B = U diag(s) V^T: a = V (U^T b / (s + (lam + JITTER) / s)).
    A zero singular value drops its direction."""
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    U, s, Vt = np.linalg.svd(km.B, full_matrices=False)
    with np.errstate(divide="ignore"):
        shrink = s + (lam + JITTER) / s     # inf where s is 0
    a = Vt.T @ ((U.T @ km.b) / shrink)
    est = _estimate(km, a, "E4", lam, {"jitter": JITTER})
    est.diagnostics["objective"] = e4_objective(km, lam, est.beta)
    return est


def e3_direct(km):
    """Direct estimate: spectral-truncated pseudo-inverse of the span-restricted
    operator (eigenvalues below EIG_TOL times the largest are discarded).

    With phi = QR, the operator S = phi B^T B phi^T has the nonzero spectrum
    of the r x r core R B^T B R^T, which is decomposed instead."""
    R = np.linalg.qr(km.phi, mode="r")
    BR = km.B @ R.T
    w, V = np.linalg.eigh(BR.T @ BR)
    wmax = float(w[-1]) if len(w) else 0.0
    keep = w > EIG_TOL * max(wmax, 0.0)
    if wmax <= 0 or not np.any(keep):
        raise SingularOperator("operator spectrum entirely below threshold",
                               spectrum=w)
    Vk = V[:, keep]
    a = R.T @ (Vk @ ((Vk.T @ (BR.T @ km.b)) / w[keep]))
    diag = {
        "condition_number": wmax / float(w[keep].min()),
        "spectrum_max": wmax,
        "spectrum_min_kept": float(w[keep].min()),
        "rank_kept": int(keep.sum()),
    }
    return _estimate(km, a, "E3", 0.0, diag)


def theta_function(est):
    """The estimated shift function theta_hat as a callable on label values."""
    def theta(ys):
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
    """Proxy for the inverse-operator norm on the resolvable span.

    The squared singular values of the span-restricted operator are the
    generalized eigenvalues of (S, K_yy) on range phi, with S = phi B^T B phi^T;
    there they are the eigenvalues of B^T B, i.e. sigma(B)^2.  The proxy is
    1 / sigma_min over the singular values of B with sigma^2 > EIG_TOL *
    sigma_max^2 (the cutoff of e3_direct), and inf when none is positive.
    """
    s = np.linalg.svd(km.B, compute_uv=False)
    smax = float(s[0]) if len(s) else 0.0
    kept = s[s * s > EIG_TOL * smax * smax]
    if smax <= 0 or len(kept) == 0:
        return float("inf")
    return 1.0 / float(kept.min())


def check_burn_in_functional(n, alpha, delta, kappa_bar, op_inv_norm_proxy):
    """True iff n meets the direct-estimator sample threshold for the kernel path."""
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    required = (32.0 / alpha) * op_inv_norm_proxy ** 2 * kappa_bar ** 2 \
        * math.log(6.0 / delta)
    return n >= required
