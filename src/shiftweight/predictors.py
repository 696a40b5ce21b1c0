"""Statistic functions g (categorical) and u (regression) trained on source data.

These feed the moment estimators; they are not the final ERM model.  Training is
deterministic: fixed feature construction, a least-squares or given start,
full-batch steps.
"""

import math
from typing import NamedTuple

import numpy as np

from .errors import DataError, IllConditioned, require_finite, require_paired


class StatisticFn:
    """Trained statistic; maps covariates (n,) to (n, d) outputs, or (n,) in kernel mode.
    coef is what a weighted ERM fit on the same covariates can start from:
    the softmax weights of the simplex statistic (a Newton start for
    logistic fits), the GramFactor of the kernel regressor's training
    covariates (the factor kernel-ridge ERM would build), None on the
    hypercube statistic.  NaN or inf covariates raise NonFiniteInput."""

    def __init__(self, mode, output_dim, fn, coef=None):
        self.mode = mode
        self.output_dim = output_dim
        self.coef = coef
        self._fn = fn

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        require_finite(covariates=x)
        return self._fn(x)


# ===================== shared feature machinery =====================

N_CENTERS = 32


def _gaussian_block(a, b, bandwidth, out):
    """Writes kernel(a_i, b_j) = exp(-(a_i - b_j)^2 / (2 bandwidth^2)) into
    out, shape (len(a), len(b)), in place: subtract, square, divide by
    -2 bandwidth^2, exp.  (-d)/c and d/(-c) round alike, so this is the
    rounding of the expression np.exp(-(a - b) ** 2 / (2 h^2))."""
    np.subtract(a[:, None], b[None, :], out=out)
    np.square(out, out=out)
    out /= -2.0 * bandwidth * bandwidth
    np.exp(out, out=out)
    return out


def rbf_features(x, centers, scale):
    """Gaussian bumps at fixed centers plus a constant column, shape
    (len(x), len(centers) + 1) in column-major order: built center-major, as
    the transpose of a C-ordered (p, n) block, so each pass runs along the
    samples.  (c - x)^2 and (x - c)^2 round alike, so the values are those
    of the sample-major build."""
    x = np.asarray(x, dtype=float).reshape(-1)
    feats = np.empty((len(centers) + 1, len(x)))
    _gaussian_block(centers, x, scale, feats[:-1])
    feats[-1] = 1.0
    return feats.T


def feature_plan(x):
    """Deterministic centers (N_CENTERS quantiles) and length scale for the features."""
    x = np.asarray(x, dtype=float).reshape(-1)
    require_finite(covariates=x)
    qs = (np.arange(N_CENTERS) + 0.5) / N_CENTERS
    centers = np.quantile(x, qs)
    gaps = np.diff(np.sort(centers))
    scale = 2.0 * (np.median(gaps) if len(gaps) else 0.0)
    scale = max(scale, 1e-8)
    return centers, scale


def class_labels(y, k):
    """y as integer class labels in 0..k-1; anything else raises a typed error
    instead of being wrapped round by negative indexing."""
    y = np.asarray(y)
    require_finite(labels=y)
    labels = y.astype(int)
    if np.any(labels != y):
        raise DataError(f"class label {y[labels != y][0]} is not an integer")
    outside = (labels < 0) | (labels >= k)
    if np.any(outside):
        raise DataError(f"class label {labels[outside][0]} outside 0..{k - 1}")
    return labels


def _check_classes_present(y, k):
    present = np.bincount(class_labels(y, k), minlength=k)
    for c in range(k):
        if present[c] == 0:
            raise DataError(f"class {c} absent from training data")


def _safe_spd_solve(a, b):
    """Solves a x = b for a symmetric positive definite.  A non-finite a or b,
    or an a that is not numerically positive definite (its Cholesky
    factorization fails), raises IllConditioned."""
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise IllConditioned("matrix or right-hand side contains NaN or inf")
    try:
        np.linalg.cholesky(a)       # the positive-definiteness check
    except np.linalg.LinAlgError as exc:
        raise IllConditioned(f"Cholesky factorization failed: {exc}") from None
    return np.linalg.solve(a, b)


# ===================== categorical statistics =====================

REG = 1e-4                  # ridge on the logistic weights; the Hessian is >= REG I
RIDGE = 1e-2                # ridge of the kernel ridge fits (u and kernel-ridge ERM)
# The least-squares start's ridge, C n REG, is the objective's REG in the
# units of the start's Gram F^T W F.  Near the minimizer the loss's Hessian
# along one class's logits is about F^T W diag(c) F / n + REG I for a
# logit-space curvature c = p (1 - p) <= 1/4; times n / c that is
# F^T W F + (n REG / c) I, so C = 1/c.  C = 16 (c = 1/16) is a fixed
# constant, not a setting.  A c taken from the data, the mean curvature of
# the least-squares probabilities, divides by zero at k = 2 with one class
# weighted 0.
# Newton steps from the start, unit and linspace(0.5, 2, k) class weights,
# summed over 20 fits per cell (ERM splits at n = m = 8000, noise_std 0.5,
# seeds 101000-101009; noise cells at k = 4, n = m = 4000, seeds 300-309):
#
#   ridge             k=2  k=3  k=4  k=6  k=8   noise 0.1 / 0.3 / 1.0
#   1e-8 tr/p         102  127  135  139  134   150 / 139 / 120
#   8 n REG            88  106  111  125  133   147 / 130 / 102
#   16 n REG           93  103  107  120  133   142 / 128 / 101
C = 16
NEWTON_TOL = 1e-14          # stop once the Newton decrement is at most this
NEWTON_MAX_STEPS = 50
# Every Newton direction comes from conjugate gradients on exact Hessian
# products, until the residual is at most CG_TOL times the gradient,
# preconditioned by the inverse of the binned Hessian: the samples pooled
# into BINS equal-width covariate bins (_binned_hessian).  It is refreshed
# at the first HESSIAN_ASSEMBLIES iterates; later ones keep the last.  CG
# that meets non-positive curvature or runs CG_MAX_ITER iterations, or a
# binned Hessian that is not finite or not positive definite, assembles
# that iterate's exact Hessian instead, and its inverse preconditions the
# later iterates.  Fit time against two exact assemblies (at iterates 0-1,
# CG after them) on the six benchmark ERM-split fits (seeds
# 101000-101002, unit and linspace(0.5, 2, 4) weights, n = 4000, k = 4;
# median and quartiles of 15 alternating in-process pairs, 1 BLAS thread),
# and the Newton steps and Hessian products per fit:
#
#   bins  refreshed at     fit time            steps  products
#    48   iterates 0-1     0.825 (0.757-0.907)  5.17    32.2
#    64   iterates 0-1     0.811 (0.804-0.821)  5.17    30.3
#    96   iterates 0-1     0.796 (0.786-0.801)  5.17    28.5
#   128   iterates 0-1     0.805 (0.796-0.854)  5.17    27.8
#   256   iterates 0-1     0.791 (0.779-0.797)  5.17    25.8
#   512   iterates 0-1     0.853 (0.841-0.863)  5.17    25.8
#   128   iterate 0 only   1.020 (0.960-1.045)  5.17    56.7
#   128   iterates 0-2     0.856 (0.850-0.895)  5.17    20.3
#   128   every iterate    1.026 (1.008-1.029)  5.17    18.8
#
# 96-256 bins are alike within the pairs' spread.  Two exact assemblies
# took 20.0 products a fit.  No variant assembled, and each left W within
# 1.4e-14 relative of the two-assembly fit.  A binned
# Hessian takes about 0.5 ms and its inverse 0.95 ms, an exact assembly
# 2.7 ms and a product 0.14 ms.
HESSIAN_ASSEMBLIES = 2
BINS = 128
CG_TOL = 1e-8
CG_MAX_ITER = 20


def _least_squares_start(feats, onehot, w, g):
    """Logits near the minimizer of the weighted logistic loss, for a Newton
    start.  The w-weighted one-hot least squares F W_ls ~ onehot estimates
    the reweighted class posterior, so no class-weight term is needed; the
    start regresses log max(F W_ls, 1/n) on F with the same Gram.  Both
    solves take the ridge C n REG, the logistic objective's own ridge in
    the Gram's units, so the start stays small along near-null directions
    of the features, as the minimizer does.  The weighted features
    sqrt(w) F are written into g, the caller's n x p scratch, so no copy of
    the features is made."""
    n, p = feats.shape
    sw = np.sqrt(w)
    np.multiply(feats, sw[:, None], out=g)
    gram = g.T @ g
    gram += C * n * REG * np.eye(p)
    W_ls = _safe_spd_solve(gram, ((onehot * sw) @ g).T)
    logp = np.log(np.maximum(W_ls.T @ feats.T, 1.0 / n))      # (k, n)
    return _safe_spd_solve(gram, ((logp * sw) @ g).T)


def _pair_blocks(k, p, pair_gram):
    """The (k p, k p) Hessian of the weighted logistic loss, class-major
    like the flattened (k, p) gradient, from pair_gram(a, b), the p x p
    Gram F^T diag(w p_a p_b / n) F of the class pair a < b (or an
    approximation of it).  Block (a, b) couples W[:, a] and W[:, b]: off the
    diagonal it is minus that Gram; the probabilities sum to one, so each
    diagonal block is minus the sum of the others in its block row.  The
    result is a sum of (e_a - e_b)(e_a - e_b)^T kron Gram terms plus REG I."""
    hess = np.zeros((k, p, k, p))
    for a in range(k):
        for b in range(a + 1, k):
            gram = pair_gram(a, b)
            hess[a, :, b] = hess[b, :, a] = -gram
            hess[a, :, a] += gram
            hess[b, :, b] += gram
    return hess.reshape(k * p, k * p) + REG * np.eye(k * p)


def _assemble_hessian(feats, w, probs, g):
    """The exact Hessian at the (k, n) probabilities: one n x p scaling and
    Gram per class pair.  g is an n x p scratch in the order of feats."""
    n, p = feats.shape

    def pair_gram(a, b):
        np.multiply(feats, np.sqrt(w * probs[a] * probs[b] / n)[:, None],
                    out=g)
        return g.T @ g

    return _pair_blocks(len(probs), p, pair_gram)


def _covariate_bins(x):
    """The bin of each covariate among BINS equal-width bins over
    [min x, max x]; one bin when the range is 0."""
    lo, width = x.min(), np.ptp(x)
    if not width > 0:
        return np.zeros(len(x), dtype=np.intp)
    return np.minimum(((x - lo) / width * BINS).astype(np.intp), BINS - 1)


def _binned_hessian(x, bins, w, probs, centers, scale):
    """The Hessian at the (k, n) probabilities with the samples pooled into
    their covariate bins: for each class pair, a bin's weight
    c = sum w p_a p_b / n sits at the bin's c-weighted mean covariate, so
    the pair's Gram is taken over at most BINS feature rows instead of n.
    Like the exact Hessian it is positive definite by construction (a sum of
    (e_a - e_b)(e_a - e_b)^T kron Gram terms plus REG I).  The features vary
    on the feature plan's length scale, about five bin widths on the
    benchmark splits, so it is close to the exact one."""
    n = len(x)

    def pair_gram(a, b):
        c = w * probs[a] * probs[b] / n
        mass = np.bincount(bins, weights=c)
        held = mass > 0
        mean = np.bincount(bins, weights=c * x)[held] / mass[held]
        g = rbf_features(mean, centers, scale) * np.sqrt(mass[held])[:, None]
        return g.T @ g

    return _pair_blocks(len(probs), len(centers) + 1, pair_gram)


def _spd_inverse(a):
    """The inverse of the symmetric positive definite a, or None when a is
    not finite or its Cholesky factorization fails."""
    try:
        return _safe_spd_solve(a, np.eye(len(a)))
    except IllConditioned:
        return None


def _hessian_product(feats, w, probs, V):
    """The Hessian at the (k, n) probabilities times the (k, p) direction V,
    without assembling it: with the logit directions Z = V F^T, row a of
    the product is F^T (w p_a (Z_a - sum_b p_b Z_b)) / n + REG V_a.  About
    2 n p k multiply-adds, against the n p^2 k (k - 1) / 2 of an
    assembly."""
    z = V @ feats.T
    z *= probs
    z -= probs * z.sum(axis=0)
    z *= w
    out = z @ feats
    out /= len(w)
    out += REG * V
    return out


def _conjugate_gradients(product, b, precond):
    """Solves H x = b for the (k, p) right-hand side b by conjugate
    gradients on the products product(V) = H V, preconditioned by the
    (k p, k p) matrix precond ~ H^-1.  Returns x once the residual is at
    most CG_TOL ||b||, or None when a direction has curvature that is not
    positive (NaN included) or CG_MAX_ITER iterations do not converge."""
    x = np.zeros_like(b)
    r = b.copy()
    goal = CG_TOL * np.linalg.norm(b)
    z = (precond @ r.reshape(-1)).reshape(b.shape)
    d = z
    rz = float(np.sum(r * z))
    for _ in range(CG_MAX_ITER):
        hd = product(d)
        curv = float(np.sum(d * hd))
        if not curv > 0:
            return None
        alpha = rz / curv
        x += alpha * d
        r -= alpha * hd
        if np.linalg.norm(r) <= goal:
            return x
        z = (precond @ r.reshape(-1)).reshape(b.shape)
        rz_next = float(np.sum(r * z))
        d = z + (rz_next / rz) * d
        rz = rz_next
    return None


def _newton_direction(grad, assemble, product, precond):
    """The Newton direction H^-1 grad for the (k, p) gradient, and the
    Hessian assembled for it (None when none was).  With precond, the
    inverse of a binned or an earlier assembled Hessian, by
    _conjugate_gradients on the exact products product(V) = H V.  Without
    it, or when CG gives up, from assemble()'s Hessian by _safe_spd_solve,
    which raises IllConditioned on a Hessian that is non-finite or not
    numerically positive definite."""
    if precond is not None:
        step = _conjugate_gradients(product, grad, precond)
        if step is not None:
            return step, None
    hess = assemble()
    return _safe_spd_solve(hess, grad.reshape(-1)).reshape(grad.shape), hess


def _softmax(z):
    """Probabilities over axis 0 of the (k, n) logits z, which it max-shifts
    in place, and the log normalizer log sum_a exp(z_a) of the shifted z.
    Sums follow z's memory order: on the transpose of a row-major (n, k)
    array they are a row-major softmax's, bit for bit."""
    z -= z.max(axis=0)
    ez = np.exp(z)
    total = ez.sum(axis=0)
    ez /= total
    return ez, np.log(total)


def logistic_fit(x, y, k, w=None, start=None):
    """Weighted multinomial logistic regression on the RBF features of x.
    Returns the logits function xq -> (len(xq), k), the logits at x (the
    values that function gives at x) and the (p, k) weights W.

    W minimizes sum_i w_i CE_i / n + REG/2 ||W||^2 (w = None: unit weights)
    by damped Newton from start, a Newton start for W such as the weights of
    an earlier fit on the same x (when None, the least-squares logits of
    _least_squares_start; pass zeros to start there): each step is halved
    until the loss drops by a quarter of the decrement g^T H^-1 g.  The
    direction H^-1 g comes from _newton_direction: conjugate gradients on
    exact Hessian products, preconditioned by the inverse of the binned
    Hessian (_binned_hessian), refreshed at the first HESSIAN_ASSEMBLIES
    iterates.  The fit stops once that decrement is at most NEWTON_TOL, or
    once the point the halving accepts is W itself, bit for bit: then no
    representable step along the Newton direction lowers the loss.  The
    loss is strongly convex, so its minimizer does not depend on start.
    Weights must be finite and non-negative; zero weights are allowed.
    Labels must lie in 0..k-1, and y and the weights must have one entry
    per covariate."""
    x = np.asarray(x, dtype=float).reshape(-1)
    centers, scale = feature_plan(x)
    feats = rbf_features(x, centers, scale)
    bins = _covariate_bins(x)
    n, p = feats.shape
    y = class_labels(y, k)
    if y.shape != (n,):
        raise DataError(f"y has shape {y.shape}, expected ({n},)")
    w = np.ones(n) if w is None else np.asarray(w, dtype=float)
    if w.shape != (n,):
        raise DataError(f"sample_weight has shape {w.shape}, expected ({n},)")
    require_finite(sample_weight=w)
    if np.any(w < 0):
        raise DataError("sample_weight holds a negative weight")
    if start is not None:
        W = np.array(start, dtype=float)
        if W.shape != (p, k):
            raise DataError(f"start has shape {W.shape}, expected ({p}, {k})")
        require_finite(start=W)
    # Logits, probabilities and one-hot are class-major, (k, n): each class
    # pass reads one contiguous row.
    onehot = np.zeros((k, n))
    onehot[y, np.arange(n)] = 1.0
    # Shared by all blocks of an assembled Hessian (one per block was 14%
    # slower) and by the least-squares start.  It takes the order of feats,
    # so on rbf_features' column-major block each scaling runs along
    # contiguous columns.
    g = np.empty_like(feats)
    if start is None:
        W = _least_squares_start(feats, onehot, w, g)

    def state(W):
        """Loss at W and the softmax probabilities, from one pass over the logits."""
        z = W.T @ feats.T
        probs, log_total = _softmax(z)
        ce = log_total - np.take_along_axis(z, y[None, :], axis=0)[0]
        return w @ ce / n + 0.5 * REG * np.sum(W * W), probs

    f, probs = state(W)
    # The preconditioner: the inverse of the last binned Hessian, or of the
    # last Hessian assembled when CG gave up, once a CG step needs it
    hess = precond = None
    for it in range(NEWTON_MAX_STEPS):
        grad = ((probs - onehot) * w) @ feats / n + REG * W.T     # (k, p)
        if it < HESSIAN_ASSEMBLIES:
            precond = _spd_inverse(
                _binned_hessian(x, bins, w, probs, centers, scale))
        elif precond is None:
            precond = np.linalg.inv(hess)   # hess passed the Cholesky check
        step, assembled = _newton_direction(
            grad, lambda: _assemble_hessian(feats, w, probs, g),
            lambda V: _hessian_product(feats, w, probs, V), precond)
        if assembled is not None:
            hess, precond = assembled, None
        step = step.T
        dec = float(np.sum(grad.T * step))
        if dec <= NEWTON_TOL:
            W = W - step
            break
        t = 1.0
        W_new = W - step
        f_new, probs_new = state(W_new)
        while f_new > f - t * dec / 4:
            t *= 0.5
            W_new = W - t * step
            f_new, probs_new = state(W_new)
        if np.array_equal(W_new, W):
            break
        W, f, probs = W_new, f_new, probs_new
    else:
        raise IllConditioned(
            f"logistic fit not converged in {NEWTON_MAX_STEPS} steps")

    def logits(xq):
        return rbf_features(xq, centers, scale) @ W

    return logits, feats @ W, W


def train_simplex(train, k):
    """Multinomial logistic statistic; outputs on the probability simplex.
    Its coef is the fitted W."""
    x, y = train
    _check_classes_present(y, k)
    logits, _, W = logistic_fit(x, y, k)

    def probs(xq):
        return _softmax(logits(xq).T)[0].T

    return StatisticFn("Simplex", k, probs, coef=W)


def train_hypercube(train, k):
    """One-hot least-squares statistic; outputs clipped to [-1, 1]^k."""
    x, y = train
    require_paired(x, y)
    _check_classes_present(y, k)
    centers, scale = feature_plan(x)
    feats = rbf_features(x, centers, scale)
    onehot = np.zeros((len(feats), k))
    onehot[np.arange(len(feats)), np.asarray(y, dtype=int)] = 1.0
    gram = feats.T @ feats
    jitter = 1e-8 * max(float(np.trace(gram)) / gram.shape[0], 1.0)
    W = _safe_spd_solve(gram + jitter * np.eye(gram.shape[0]), feats.T @ onehot)

    def fn(xq):
        return np.clip(rbf_features(xq, centers, scale) @ W, -1.0, 1.0)

    return StatisticFn("HyperCube", k, fn)


# ===================== regression statistic =====================

def gaussian_gram(a, b, bandwidth):
    """The Gaussian block kernel(a_i, b_j), shape (len(a), len(b)), in
    column-major order: built as the transpose of a C-ordered (len(b),
    len(a)) block, so each pass runs along the a-samples.  (b - a)^2 and
    (a - b)^2 round alike, so the values are those of the row-major build.
    A bandwidth that is not positive raises ValueError."""
    if not bandwidth > 0:
        raise ValueError("bandwidth must be positive")
    a = np.asarray(a, dtype=float).reshape(-1)
    b = np.asarray(b, dtype=float).reshape(-1)
    return _gaussian_block(b, a, bandwidth, np.empty((len(b), len(a)))).T


FACTOR_TOL = 1e-14          # largest residual diagonal the Gram factor leaves


def gaussian_pivoted_cholesky(points, bandwidth):
    """Greedy pivoted Cholesky factor of the Gaussian Gram matrix over points.

    Returns (phi, pivots, residual): gaussian_gram(points, points) equals
    phi @ phi.T plus a positive semidefinite remainder whose largest diagonal
    entry, residual <= FACTOR_TOL, bounds every entry of the remainder.
    Columns are computed on demand over the points in the order given, so no
    n x n block is built; phi[pivots] is lower triangular and
    phi @ phi[pivots].T reproduces the pivot columns of the Gram matrix.
    Equal points (0.0 and -0.0 among them) get identical rows, and a point
    equal to a pivot is interpolated exactly: its later entries and its
    residual diagonal are zeroed.  Each column costs O(len(points)) however
    many points repeat; no workload repeats a point.  phi is returned in the
    Fortran order it is built in, a view of the column buffer with no copy,
    so each column of it runs along the points.
    """
    x = np.asarray(points, dtype=float).reshape(-1)
    require_finite(points=x)
    if not bandwidth > 0:
        raise ValueError("bandwidth must be positive")
    n = len(x)
    diag = np.ones(n)               # the Gaussian kernel is 1 on the diagonal
    done = np.zeros(n, dtype=bool)  # points equal to a pivot
    cols = np.empty((n, min(n, 32)), order="F")     # factor columns; widened when full
    piv = []
    while len(piv) < n:
        p = int(np.argmax(diag))
        if diag[p] <= FACTOR_TOL:
            break
        j = len(piv)
        if j == cols.shape[1]:
            wider = np.empty((n, min(2 * j, n)), order="F")
            wider[:, :j] = cols
            cols = wider
        col = _gaussian_block(x, x[p:p + 1], bandwidth, cols[:, j:j + 1])[:, 0]
        for i in range(j):
            col -= cols[p, i] * cols[:, i]
        col /= math.sqrt(diag[p])
        col[done] = 0.0             # equal to an earlier pivot: interpolated
        done |= x == x[p]
        piv.append(p)
        diag -= col * col
        diag[done] = 0.0
    phi = cols[:, :len(piv)]
    return phi, np.array(piv, dtype=np.intp), float(diag.max(initial=0.0))


def pivot_coefficients(phi, pivots, a):
    """Coefficients over the pivot points of the function with factor
    coordinates a, i.e. sum_j c_j kernel(x_{pivots[j]}, .) = phi(.) @ a."""
    # phi[pivots].T is upper triangular, so its LU factorization exchanges no
    # rows and the solve is back substitution
    return np.linalg.solve(phi[pivots].T, a)


class GramFactor(NamedTuple):
    """The pivoted-Cholesky factor of the Gaussian Gram matrix over points at
    bandwidth (gaussian_pivoted_cholesky), held in owned arrays: points is
    a copy of the covariates it was built on, phi its r kept columns in
    Fortran order, residual the largest residual diagonal it leaves."""
    points: np.ndarray
    bandwidth: float
    phi: np.ndarray
    pivots: np.ndarray
    residual: float


def gram_factor(x, bandwidth):
    """The GramFactor of the covariates x at bandwidth.  A bandwidth that is
    not positive raises ValueError, NaN or inf covariates NonFiniteInput."""
    x = np.asarray(x, dtype=float).reshape(-1).copy()
    require_finite(covariates=x)
    phi, pivots, residual = gaussian_pivoted_cholesky(x, bandwidth)
    # phi is a view of a buffer of at least 32 columns; the factor outlives
    # this call, so it keeps an owned copy of the r columns alone
    return GramFactor(x, bandwidth, phi.copy(order="F"), pivots, residual)


def kernel_ridge_fit(factor, y, w):
    """Weighted Nystrom kernel ridge regression with an unpenalized mean offset.

    On the GramFactor K ~ phi phi^T of the training covariates, solves
    (RIDGE I + phi^T W phi) a = phi^T W (y - ybar), with W = diag(w) and
    ybar the w-weighted mean of y.  Returns the predictor
    xq -> kernel(xq, pivots) @ coef + ybar and the in-sample fit
    phi a + ybar (what the predictor gives at the covariates, up to
    rounding).  y holds one label per covariate.
    """
    y = np.asarray(y, dtype=float).reshape(-1)
    require_paired(factor.points, y)
    require_finite(labels=y)
    ybar = float((w * y).sum() / w.sum())
    phi, pivots = factor.phi, factor.pivots
    phi_w = phi * w[:, None]
    a = _safe_spd_solve(phi_w.T @ phi + RIDGE * np.eye(phi.shape[1]),
                        phi_w.T @ (y - ybar))
    centers = factor.points[pivots]
    coef = pivot_coefficients(phi, pivots, a)
    bandwidth = factor.bandwidth

    def fn(xq):
        return gaussian_gram(xq, centers, bandwidth) @ coef + ybar

    return fn, phi @ a + ybar


def train_kernel_regressor(train, bandwidth=0.9):
    """Gaussian kernel ridge regression for u, with an unpenalized mean offset
    (unweighted `kernel_ridge_fit`).  Its coef is the GramFactor of the
    training covariates, which kernel-ridge ERM on the same covariates and
    bandwidth takes as its start.

    Centering y makes the heavy-ridge limit revert to mean(y) instead of 0.
    """
    x, y = train
    if len(x) == 0:
        raise DataError("empty training set")
    factor = gram_factor(x, bandwidth)
    fn, _ = kernel_ridge_fit(factor, y, np.ones(len(factor.points)))
    return StatisticFn("KernelRegressor", 1, fn, coef=factor)
