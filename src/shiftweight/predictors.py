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
# products, preconditioned by the inverse of the binned Hessian: the
# samples pooled into BINS equal-width covariate bins (_binned_hessian).
# It is refreshed at the first HESSIAN_ASSEMBLIES iterates; later ones
# keep the last.  CG that meets non-positive curvature or runs
# CG_MAX_ITER iterations, or a binned Hessian that is not finite or not
# positive definite, assembles that iterate's exact Hessian instead, and
# its inverse preconditions the later iterates.  The bins and the refresh
# policy were chosen with a binned Hessian on all k p coordinates and CG
# run to CG_TOL: fit time against two exact assemblies (at iterates 0-1,
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
# 1.4e-14 relative of the two-assembly fit.
#
# The fit stays on the class-sum-zero subspace (logistic_fit), so the
# binned Hessian is built and inverted there, (k - 1) p square: at k = 4
# and n = 4000 it takes about 0.58 ms and its inverse 0.71 ms, against
# 0.66 ms and 1.28 ms on all k p coordinates in the same timeit run
# (1 BLAS thread); an exact assembly takes about 4.1 ms and a product
# 0.17 ms.  Run to CG_TOL, CG takes the
# products it took with the binned Hessian on all k p coordinates, to
# within one per cell (the CG_TOL column below).
#
# CG stops once its residual is at most eta ||g||, with the forcing term
# eta = max(CG_TOL, min(CG_FORCING, ||g||)) and ||g|| the norm of the
# gradient it solves for, in the units of the n-normalized loss (inexact
# Newton: Dembo, Eisenstat & Steihaug 1982).  Far from the minimizer a
# loose direction costs no extra Newton step; near it eta falls to
# CG_TOL.  Hessian products summed over the six ERM-split fits of each
# (k, noise_std, n) cell of the tests' product budget (HESSIAN_PRODUCTS),
# and the Newton steps of the weighted k = 4 fit (n = 2000, seed 0) from
# its default start and two far starts (test_line_search_halves_from_a_
# far_start), by CG_FORCING:
#
#   cell                 CG_TOL    1e-3     0.5
#   2, 0.5, 8000            77      59      59
#   3, 0.5, 8000           161     115     113
#   4, 0.5, 8000           167     122     122   (the benchmark fits)
#   6, 0.5, 8000           293     192     186
#   8, 0.5, 8000           412     265     253
#   4, 0.1, 8000           417     290     287
#   4, 0.1, 4000           451     311     305
#   4, 0.3, 4000           323     233     228
#   4, 1.0, 4000           144     109     109
#   far starts, steps   6/14/14 6/14/14 6/16/16
#
# The Newton steps of the nine cells are the same in every row (24, 32,
# 31, 36, 41, 41, 42, 39 and 30), and the benchmark fits end within
# 3.9e-13 relative of dense_newton_reference in every row.  A cap of 0.5
# saves up to 5% more products but costs the far starts two Newton steps.
HESSIAN_ASSEMBLIES = 2
BINS = 128
CG_TOL = 1e-8
CG_FORCING = 1e-3
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


def _class_basis(k):
    """The (k, k - 1) Helmert basis U of the class vectors that sum to zero:
    orthonormal columns, each orthogonal to the ones vector.  Column j - 1
    is (1, ..., 1, -j, 0, ..., 0) / sqrt(j (j + 1)), with j ones."""
    j = np.arange(1, k)
    basis = np.triu(np.ones((k, k - 1)))
    basis[j, j - 1] = -j
    return basis / np.sqrt(j * (j + 1))


def _pair_blocks(basis, grams):
    """The Hessian of the weighted logistic loss on the class coordinates
    of basis, a (k, r) matrix with orthonormal columns, from grams, the
    p x p Grams F^T diag(w p_a p_b / n) F of the class pairs a < b in
    np.triu_indices order (or approximations of them):
    sum over pairs of (u u^T) kron Gram, u = basis[a] - basis[b], plus
    REG I, an (r p, r p) matrix ordered like the flattened (r, p)
    coordinates.  The identity basis gives the (k p, k p) Hessian, whose
    block (a, b) is minus the pair's Gram off the diagonal; the
    probabilities sum to one, so each diagonal block is minus the sum of
    the others in its block row.  It is positive definite by construction."""
    k, r = basis.shape
    p = grams.shape[-1]
    a, b = np.triu_indices(k, 1)
    u = basis[a] - basis[b]
    outer = (u[:, :, None] * u[:, None, :]).reshape(len(u), r * r)
    hess = (outer.T @ grams.reshape(len(u), p * p)).reshape(r, r, p, p)
    hess = hess.transpose(0, 2, 1, 3).reshape(r * p, r * p)
    hess.flat[::r * p + 1] += REG
    return hess


def _assemble_hessian(feats, w, probs, g):
    """The exact (k p, k p) Hessian at the (k, n) probabilities: one n x p
    scaling and Gram per class pair.  g is an n x p scratch in the order of
    feats."""
    n, p = feats.shape
    k = len(probs)
    grams = np.empty((k * (k - 1) // 2, p, p))
    for q, (a, b) in enumerate(zip(*np.triu_indices(k, 1))):
        np.multiply(feats, np.sqrt(w * probs[a] * probs[b] / n)[:, None],
                    out=g)
        grams[q] = g.T @ g
    return _pair_blocks(np.eye(k), grams)


def _covariate_bins(x):
    """The bin of each covariate among BINS equal-width bins over
    [min x, max x]; one bin when the range is 0."""
    lo, width = x.min(), np.ptp(x)
    if not width > 0:
        return np.zeros(len(x), dtype=np.intp)
    return np.minimum(((x - lo) / width * BINS).astype(np.intp), BINS - 1)


def _pair_bin_keys(bins, k):
    """The key pair * BINS + bin of each class pair a < b (np.triu_indices
    order) and sample, (k (k - 1) / 2, n): the pair x bin cells that
    _binned_hessian pools the samples into.  Fixed for a fit."""
    return np.arange(k * (k - 1) // 2)[:, None] * BINS + bins


def _binned_hessian(x, keys, w, probs, centers, scale):
    """The Hessian at the (k, n) probabilities on the class-sum-zero
    subspace, (U kron I)^T H (U kron I) for the basis U = _class_basis(k),
    with the samples pooled into their covariate bins: for each class pair,
    a bin's weight c = sum w p_a p_b / n sits at the bin's c-weighted mean
    covariate, so the pair's Gram is taken over BINS feature rows instead
    of n.  keys (_pair_bin_keys) pools every pair in one np.bincount pass.
    Like the exact Hessian it is positive definite by construction
    (_pair_blocks).  The features vary on the feature plan's length scale,
    about five bin widths on the benchmark splits, so it is close to the
    exact one."""
    k = len(probs)
    a, b = np.triu_indices(k, 1)
    cells = len(a) * BINS
    c = np.empty((len(a), len(x)))
    for q in range(len(a)):
        np.multiply(probs[a[q]], probs[b[q]], out=c[q])
    c *= w / len(x)
    mass = np.bincount(keys.reshape(-1), c.reshape(-1), minlength=cells)
    c *= x
    mean = np.bincount(keys.reshape(-1), c.reshape(-1), minlength=cells) \
        / np.where(mass > 0, mass, 1.0)         # an empty bin has mass 0
    g = rbf_features(mean, centers, scale).T * np.sqrt(mass)   # (p, cells)
    g = g.reshape(len(centers) + 1, len(a), BINS).transpose(1, 0, 2)
    return _pair_blocks(_class_basis(k), g @ g.transpose(0, 2, 1))


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
    gradients on the products product(V) = H V, preconditioned by
    precond(r) ~ H^-1 r.  Returns x once the residual is at most
    eta ||b||, with the forcing term eta = max(CG_TOL, min(CG_FORCING,
    ||b||)), or None when a direction has curvature that is not positive
    (NaN included) or CG_MAX_ITER iterations do not converge."""
    x = np.zeros_like(b)
    r = b.copy()
    norm_b = float(np.linalg.norm(b))
    goal = max(CG_TOL, min(CG_FORCING, norm_b)) * norm_b
    z = precond(r)
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
        z = precond(r)
        rz_next = float(np.sum(r * z))
        d = z + (rz_next / rz) * d
        rz = rz_next
    return None


def _newton_direction(grad, assemble, product, precond):
    """The Newton direction H^-1 grad for the (k, p) gradient, and the
    Hessian assembled for it (None when none was).  With precond, which
    applies the inverse of a binned or an earlier assembled Hessian, by
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
    start, each gradient and each direction are centered across classes,
    so the iterates stay where the minimizer is, on the subspace where the
    class columns of W sum to zero.  The direction H^-1 g comes from
    _newton_direction: conjugate gradients on exact Hessian products, to
    a forcing term (_conjugate_gradients), preconditioned by the inverse of
    the binned Hessian on that subspace (_binned_hessian), refreshed at the
    first HESSIAN_ASSEMBLIES iterates.  The fit stops once that decrement is at most NEWTON_TOL, or
    once the point the halving accepts is W itself, bit for bit: then no
    representable step along the Newton direction lowers the loss.  The
    loss is strongly convex, so its minimizer does not depend on start.
    Weights must be finite and non-negative; zero weights are allowed.
    Labels must lie in 0..k-1, and y and the weights must have one entry
    per covariate."""
    x = np.asarray(x, dtype=float).reshape(-1)
    centers, scale = feature_plan(x)
    feats = rbf_features(x, centers, scale)
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
    keys = _pair_bin_keys(_covariate_bins(x), k)
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
    # The softmax ignores a shift common to all classes and the ridge
    # penalizes it, so the minimizer's class columns sum to zero.  The fit
    # stays on that subspace: the start, every gradient and every Newton
    # direction are centered across classes, and the preconditioner acts
    # on the coordinates in the class basis U.  A solve with an assembled
    # Hessian, which acts on the class-common part only by REG, scales the
    # rounding there by 1 / REG, so the directions are centered too.
    W -= W.mean(axis=1, keepdims=True)
    basis = _class_basis(k)

    def preconditioner(inverse):
        """r -> U inverse U^T r on (k, p) residuals r, for the inverse of a
        Hessian on the (k - 1, p) coordinates; None for None."""
        if inverse is None:
            return None
        return lambda r: basis @ (inverse @ (basis.T @ r).reshape(-1)) \
            .reshape(k - 1, p)

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
        grad -= grad.mean(axis=0)
        if it < HESSIAN_ASSEMBLIES:
            precond = preconditioner(_spd_inverse(
                _binned_hessian(x, keys, w, probs, centers, scale)))
        elif precond is None:
            # hess passed the Cholesky check; its restriction to the
            # subspace, (U kron I)^T H (U kron I), is inverted there
            lift = np.kron(basis, np.eye(p))
            precond = preconditioner(np.linalg.inv(lift.T @ hess @ lift))
        step, assembled = _newton_direction(
            grad, lambda: _assemble_hessian(feats, w, probs, g),
            lambda V: _hessian_product(feats, w, probs, V), precond)
        if assembled is not None:
            hess, precond = assembled, None
        step -= step.mean(axis=0)
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
