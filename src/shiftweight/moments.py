"""Empirical moment estimates: the confusion-operator triple and its kernel analogue."""

import math
from dataclasses import dataclass

import numpy as np

from .datagen import class_centers, label_masses
from .errors import DataError, require_finite, require_paired
from .predictors import class_labels, gaussian_pivoted_cholesky, gram_factor


@dataclass
class MomentEstimates:
    T_hat: np.ndarray       # (d, k)
    p_hat: np.ndarray       # (d,)  source statistic mean
    q_hat: np.ndarray       # (d,)  target statistic mean
    n_est: int
    m: int


@dataclass
class KernelMoments:
    """Kernel moments on the sample span, held as low-rank Gram factors.

    kernel(y_i, y_j) ~ phi @ phi.T over the anchors, and the kernel over the
    u-images [u(x_i), u(x'_l)] ~ psi @ psi.T; every entry of either remainder
    is at most factor_residual.  psi enters only through B and b, the reduced
    system every estimator solves in: theta with factor coordinates a has
    moment residual ||B a - b||.
    """
    anchors: np.ndarray     # the estimation-split source labels y_i, (N,)
    phi: np.ndarray         # anchor Gram factor, (N, r)
    pivots: np.ndarray      # anchor indices of phi's pivots; phi[pivots] is lower triangular
    B: np.ndarray           # psi_s^T phi / N over the source rows psi_s of psi, (s, r)
    b: np.ndarray           # mean(psi_t) - mean(psi_s), (s,)
    factor_residual: float  # largest residual diagonal of the two factors
    bandwidth: float
    n_est: int
    m: int


def _checked_sample(est_split, target_x):
    """The split's covariates and labels and the target covariates, both
    covariate arrays as floats; an empty split or target set, or a label
    count that differs from the covariates', raises DataError, NaN or inf
    covariates NonFiniteInput."""
    x, y = est_split
    x = np.asarray(x, dtype=float)
    target_x = np.asarray(target_x, dtype=float)
    if len(x) == 0 or len(target_x) == 0:
        raise DataError("empty estimation split or target set")
    require_paired(x, y)
    require_finite(source_covariates=x, target_covariates=target_x)
    return x, y, target_x


def estimate_categorical_moments(est_split, target_x, g, k):
    """Empirical (T_hat, p_hat, q_hat) from the estimation split and target covariates.

    T_hat averages g(x_i) e_{y_i}^T over the split; p_hat and q_hat average g
    over source and target covariates.  g gives one d-vector per point.
    """
    x, y, target_x = _checked_sample(est_split, target_x)
    y = class_labels(y, k)
    n = len(x)
    gs = np.asarray(g(x), dtype=float)
    gt = np.asarray(g(target_x), dtype=float)
    if gs.ndim != 2 or len(gs) != n or gt.shape != (len(target_x), gs.shape[1]):
        raise DataError(f"g gave shapes {gs.shape} and {gt.shape} for {n} "
                        f"source and {len(target_x)} target points")
    require_finite(source_statistic=gs, target_statistic=gt)
    # column j accumulates g over class-j samples
    T_hat = np.array([np.bincount(y, weights=col, minlength=k) for col in gs.T])
    T_hat /= n
    p_hat = T_hat.sum(axis=1)          # same empirical average as mean g, row-summed
    q_hat = gt.mean(axis=0)
    return MomentEstimates(T_hat, p_hat, q_hat, n, len(target_x))


def estimate_kernel_moments(est_split, target_x, u, bandwidth=0.9):
    """Low-rank factor representation of the kernel moments on the sample span.

    The anchors are the estimation-split labels; target points enter only
    through the target rows of the u-image factor.
    """
    x, y, target_x = _checked_sample(est_split, target_x)
    require_finite(labels=y)
    u_src = np.asarray(u(x), dtype=float).reshape(-1)
    u_tgt = np.asarray(u(target_x), dtype=float).reshape(-1)
    N = len(x)
    if u_src.shape != (N,) or u_tgt.shape != (len(target_x),):
        raise DataError(f"u gave {u_src.size} and {u_tgt.size} values for "
                        f"{N} source and {len(target_x)} target points")
    require_finite(source_statistic=u_src, target_statistic=u_tgt)
    anchor = gram_factor(y, bandwidth)
    psi, _, res_u = gaussian_pivoted_cholesky(np.concatenate([u_src, u_tgt]),
                                              bandwidth)
    # G_uu, the G_ut row sums and G_tt.sum() all act through psi
    psi_s, psi_t = psi[:N], psi[N:]
    return KernelMoments(
        anchors=anchor.points,
        phi=anchor.phi,
        pivots=anchor.pivots,
        B=psi_s.T @ anchor.phi / N,
        b=psi_t.mean(axis=0) - psi_s.mean(axis=0),
        factor_residual=max(anchor.residual, res_u),
        bandwidth=bandwidth,
        n_est=N,
        m=len(target_x),
    )


def population_moments_categorical(cfg):
    """Analytic population moments for the categorical generator.

    Uses the nearest-center one-hot classifier as the statistic; its class-
    conditional confusion probabilities are exact Gaussian interval masses over
    the midpoint decision boundaries, so the returned triple is the exact
    (T_g, p_g, q_g) of that statistic.  Sample counts are 0: nothing was drawn.
    """
    def normal_cdf(z):
        return np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in z])

    p, q = label_masses(cfg)
    centers = class_centers(cfg)
    k = cfg.num_classes
    order = np.argsort(centers)
    sorted_c = centers[order]
    cuts = 0.5 * (sorted_c[:-1] + sorted_c[1:])
    lo = np.concatenate(([-np.inf], cuts))
    hi = np.concatenate((cuts, [np.inf]))
    M = np.zeros((k, k))
    for pos in range(k):
        i = order[pos]          # class owning this interval of the real line
        zhi = (hi[pos] - centers) / cfg.noise_std
        zlo = (lo[pos] - centers) / cfg.noise_std
        M[i, :] = normal_cdf(zhi) - normal_cdf(zlo)
    T = M * p[None, :]
    return MomentEstimates(T, M @ p, M @ q, 0, 0)
