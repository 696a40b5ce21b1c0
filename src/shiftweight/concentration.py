"""Finite-sample confidence radii, composite error bounds, and divergence diagnostics."""

import math
from dataclasses import dataclass

import numpy as np

from .errors import require_counts, require_finite

# Natural logs everywhere: the radii come from exponential tail bounds.


def _check_delta(delta):
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")


def categorical_radii(d, k, alpha, n, m, delta):
    """Confidence radii (delta_p, delta_q, delta_T) for the categorical moment estimates.

    d is the statistic output dimension, k the number of classes, alpha*n the
    estimation-split size, m the target sample count.  Each radius bounds the
    corresponding estimation error with probability at least 1 - delta.
    """
    _check_delta(delta)
    require_counts(d=d, k=k)
    if not (alpha > 0 and n > 0 and m > 0):
        raise ValueError("alpha and sample counts must be positive")
    an = alpha * n
    delta_p = math.sqrt(d / an * math.log(2.0 * d / delta))
    delta_q = math.sqrt(d / m * math.log(2.0 * d / delta))
    delta_T = 2.0 * math.sqrt(2.0 * d / an * math.log(2.0 * (d + k) / delta))
    return delta_p, delta_q, delta_T


def functional_radii(alpha, n, m, delta):
    """Confidence radii (delta_p, delta_q, delta_T) for the kernel moment estimates.

    The Gaussian kernel is bounded by 1, the sup that scales each radius.
    delta_T equals delta_p; only the target radius sees m.
    """
    _check_delta(delta)
    if not (alpha > 0 and n > 0 and m > 0):
        raise ValueError("alpha and sample counts must be positive")
    delta_p = 2.0 * math.sqrt(2.0 / (alpha * n) * math.log(2.0 / delta))
    delta_q = 2.0 * math.sqrt(2.0 / m * math.log(2.0 / delta))
    return delta_p, delta_q, delta_p


def union_radii(path, alpha, n, m, delta, d=None, k=None):
    """The path's radii at delta / 3, the union bound over the three moment
    events; the categorical path reads d and k.  delta_T does not see m."""
    _check_delta(delta)     # the radii at delta / 3 would accept [1, 3)
    if path == "categorical":
        return categorical_radii(d, k, alpha, n, m, delta / 3.0)
    if path == "functional":
        return functional_radii(alpha, n, m, delta / 3.0)
    raise ValueError(f"unknown path {path!r}")


def burn_in_holds(path, alpha, n, delta, op_inv_norm, d=None, k=None):
    """True iff n is past burn-in, 2 ||T^+|| delta_T <= 1 with delta_T from
    union_radii (m passed as n), which checks alpha and n.  An infinite
    ||T^+|| fails the test; a NaN input, or n = 0, raises ValueError."""
    if not op_inv_norm >= 0:
        raise ValueError("||T^+|| must be nonnegative")
    delta_T = union_radii(path, alpha, n, n, delta, d, k)[2]
    return bool(2.0 * op_inv_norm * delta_T <= 1.0)


def composite_epsilon(radii, proxy_inv_norm, theta_max):
    """Composite high-probability bound on ||theta_hat - theta||.

    radii must be the three confidence radii evaluated at delta/3 (the union
    bound over the three moment events).  With those inputs the single formula
    2 * ||T^-1|| * (delta_q + delta_p + theta_max * delta_T) reproduces both
    published bound shapes: the functional radii carry an internal factor 2, so
    this equals the prefactor-4 form of the normed-label-space bound.
    The proxy may be inf (a rank-deficient operator), giving an infinite bound.
    """
    delta_p, delta_q, delta_T = radii
    if not all(r >= 0 for r in radii):
        raise ValueError("radii must be nonnegative")
    if not (proxy_inv_norm > 0 and theta_max > 0):
        raise ValueError("proxy_inv_norm and theta_max must be positive")
    return 2.0 * proxy_inv_norm * (delta_q + delta_p + theta_max * delta_T)


@dataclass(frozen=True)
class ConfidenceReport:
    delta_p: float          # radii at delta/3, the values epsilon_delta is built from
    delta_q: float
    delta_T: float
    epsilon_delta: float


def confidence_report(path, alpha, n, m, delta, proxy_inv_norm, theta_max,
                      d=None, k=None):
    """Assemble the per-run ConfidenceReport from the radii of union_radii."""
    radii = union_radii(path, alpha, n, m, delta, d, k)
    eps = composite_epsilon(radii, proxy_inv_norm, theta_max)
    return ConfidenceReport(radii[0], radii[1], radii[2], eps)


DIVERGENCE_GRID = 2001      # points of the grid on [0, 1] a weight function is read on


def divergence_report(omega, p_source):
    """Divergence diagnostics (d_inf, d_second) of a weight against the source marginal.

    Categorical: omega and p_source are vectors, d_inf = max omega and
    d_second = sum_i p_i * omega_i^2.  Continuous: omega and p_source are
    callables on [0, 1]; the sup and the second moment are taken on the grid.
    Validates omega >= 0 and E_P[omega] = 1 within 1e-6; NaN or inf in
    either input (on the grid) raises NonFiniteInput.
    """
    if callable(omega):
        ys = np.linspace(0.0, 1.0, DIVERGENCE_GRID)
        w = np.asarray(omega(ys), dtype=float)
        p = np.asarray(p_source(ys), dtype=float)

        def mean(v):
            return float(np.trapezoid(v * p, ys))
    else:
        w = np.asarray(omega, dtype=float)
        p = np.asarray(p_source, dtype=float)

        def mean(v):
            return float(p @ v)
    require_finite(omega=w, p_source=p)
    if w.min() < 0:
        raise ValueError("weight must be nonnegative")
    mass = mean(w)
    if abs(mass - 1.0) > 1e-6:
        raise ValueError(f"E_P[omega] = {mass}, expected 1")
    return float(w.max()), mean(w * w)
