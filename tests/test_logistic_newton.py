"""The weighted multinomial logistic fit behind the simplex statistic and
logistic ERM: convergence to the minimizer, agreement with a dense Newton
reference from the default least-squares start and from a warm start and on
degenerate covariates, typed failures at the cap and on bad labels, weights
or starts, the runner's prior-shifted ERM start, the Newton steps each start
takes, the class-sum-zero subspace the fit stays on, and the preconditioned
conjugate-gradient directions: exact Hessian products, the binned Hessian on
that subspace that preconditions them, the fresh one CG swaps in where it
stalls, the typed failure where no direction comes, and the builds and
products each fit makes."""

import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import logsumexp, softmax

from shiftweight import (CategoricalSynthConfig, DataError, IllConditioned,
                         NonFiniteInput, build_config, gen_categorical,
                         split_alpha, train_simplex)
from shiftweight import experiments, predictors
from shiftweight.predictors import (BINS, NEWTON_MAX_STEPS, NEWTON_TOL,
                                    PRECONDITIONER_REFRESHES, REG,
                                    _binned_hessian, _class_basis,
                                    _class_pairs, _covariate_bins,
                                    _hessian_product, _least_squares_start,
                                    _pair_bin_keys, _safe_spd_solve,
                                    feature_plan, logistic_fit, rbf_features)


def exact_hessian(feats, w, probs):
    """The (k p, k p) Hessian of the weighted logistic loss at the (n, k)
    probabilities, every block (a, b), a <= b, formed directly as
    F^T diag(w p_a (delta_ab - p_b) / n) F, plus REG I."""
    n, p = feats.shape
    k = probs.shape[1]
    hess = np.empty((k, p, k, p))
    for a in range(k):
        for b in range(a, k):
            d = w * probs[:, a] * (float(a == b) - probs[:, b]) / n
            hess[a, :, b] = feats.T @ (feats * d[:, None])
            hess[b, :, a] = hess[a, :, b].T
    return hess.reshape(k * p, k * p) + REG * np.eye(k * p)


def dense_newton_reference(feats, y, k, w):
    """The same damped Newton fit with every Hessian formed directly
    (exact_hessian), and the loss and probabilities recomputed from scratch
    wherever they are needed."""
    n, p = feats.shape
    onehot = np.eye(k)[y]

    def loss(W):
        z = feats @ W
        ce = logsumexp(z, axis=1) - (z * onehot).sum(axis=1)
        return w @ ce / n + 0.5 * REG * np.sum(W * W)

    W = np.zeros((p, k))
    for _ in range(NEWTON_MAX_STEPS):
        probs = softmax(feats @ W, axis=1)
        grad = feats.T @ ((probs - onehot) * w[:, None]) / n + REG * W
        hess = exact_hessian(feats, w, probs)
        step = _safe_spd_solve(hess, grad.T.reshape(-1)).reshape(k, p).T
        dec = float(np.sum(grad * step))
        if dec <= NEWTON_TOL:
            return W - step
        start, t = loss(W), 1.0
        while loss(W - t * step) > start - t * dec / 4:
            t *= 0.5
        W = W - t * step
    raise IllConditioned("reference fit not converged")


def _assert_matches_reference(x, y, k, w, xq, start=None):
    """The fit on the covariates x and the dense Newton reference on their
    RBF features are within 1e-12 relative, and predict the same classes
    at xq."""
    W = logistic_fit(x, y, k, w, start=start)[2]
    centers, scale = feature_plan(x)
    W_ref = dense_newton_reference(rbf_features(x, centers, scale), y, k, w)
    assert np.linalg.norm(W - W_ref) <= 1e-12 * np.linalg.norm(W_ref)
    feats_q = rbf_features(xq, centers, scale)
    np.testing.assert_array_equal(np.argmax(feats_q @ W, axis=1),
                                  np.argmax(feats_q @ W_ref, axis=1))


@pytest.mark.parametrize("weighting", ("unit", "per_class", "one_class_zero"))
@pytest.mark.parametrize("k", (2, 4, 6))
def test_fit_matches_the_dense_reference(k, weighting):
    ds = gen_categorical(CategoricalSynthConfig(k, 0.5, 700 + k), 1500, 1500)
    x, y = ds.source_x, ds.source_y
    w = {"unit": np.ones(k),
         "per_class": np.linspace(0.5, 2.0, k),
         "one_class_zero": np.r_[np.ones(k - 1), 0.0]}[weighting][y]
    _assert_matches_reference(x, y, k, w, ds.target_x)


@pytest.mark.parametrize("weighted", (False, True))
@pytest.mark.parametrize("seed", (101000, 101001, 101002))
def test_benchmark_erm_fits_match_the_dense_reference(seed, weighted):
    ds = gen_categorical(CategoricalSynthConfig(4, 0.5, seed), 8000, 8000)
    sp = split_alpha(ds, 0.5, seed=seed)
    x, y = sp.erm_x, sp.erm_y
    w = np.linspace(0.5, 2.0, 4)[y] if weighted else np.ones(len(y))
    _assert_matches_reference(x, y, 4, w, ds.target_x)


@pytest.mark.parametrize("seed", (101000, 101001, 101002))
def test_one_class_zero_erm_fits_match_the_dense_reference(seed):
    """k = 2 with class 1 weighted 0, on the ERM splits at n = m = 8000.
    The fit lands 8.4e-15 to 1.4e-14 from the reference; before the fit
    was centered across classes it landed 2.4e-12 to 2.7e-12 away."""
    ds = gen_categorical(CategoricalSynthConfig(2, 0.5, seed), 8000, 8000)
    sp = split_alpha(ds, 0.5, seed=seed)
    x, y = sp.erm_x, sp.erm_y
    _assert_matches_reference(x, y, 2, np.array([1.0, 0.0])[y], ds.target_x)


@pytest.mark.parametrize("k", (2, 4, 8))
def test_fitted_class_columns_sum_to_zero(k):
    """The softmax ignores a shift common to all classes and the ridge
    penalizes it, so the minimizer's class columns sum to zero, and the fit
    keeps its iterates there.  On the six ERM fits of the k cell
    (noise_std 0.5, n = m = 8000) ||W 1|| / ||W|| is at most 4.0e-16;
    before the fit was centered it was 6.7e-15 to 2.8e-14."""
    for x, y, w in _erm_fit_inputs(k, 0.5, 8000):
        W = logistic_fit(x, y, k, w)[2]
        assert np.linalg.norm(W.sum(axis=1)) <= 2e-15 * np.linalg.norm(W)


def _far_starts():
    """The weighted k = 4 fit of test_line_search_halves_from_a_far_start:
    the seed-0 source sample (n = 2000), its labels, linspace(0.5, 2, 4)
    class weights, and its far starts by scale, 3x then 10x draws of one
    standard-normal stream."""
    ds = gen_categorical(CategoricalSynthConfig(4, 0.5, 0), 2000, 2000)
    x, y = ds.source_x, ds.source_y
    rng = np.random.default_rng(0)
    starts = {s: s * rng.standard_normal((33, 4)) for s in (3.0, 10.0)}
    return x, y, np.linspace(0.5, 2.0, 4)[y], starts


def test_far_started_fits_keep_class_columns_summing_to_zero():
    """From the far starts of test_line_search_halves_from_a_far_start, CG
    on the last preconditioner gives up at some iterates, which swap in a
    fresh one (2 and 4 swaps).  Each direction is centered, so
    ||W 1|| / ||W|| stays at most 1.5e-15."""
    x, y, w, starts = _far_starts()
    for start in starts.values():
        W = logistic_fit(x, y, 4, w, start=start)[2]
        assert np.linalg.norm(W.sum(axis=1)) <= 1e-14 * np.linalg.norm(W)


def test_class_basis_is_orthonormal_and_sums_to_zero():
    for k in range(2, 9):
        basis = _class_basis(k)
        assert basis.shape == (k, k - 1)
        np.testing.assert_allclose(basis.T @ basis, np.eye(k - 1),
                                   atol=1e-15)
        np.testing.assert_allclose(basis.sum(axis=0), 0.0, atol=1e-15)


@pytest.mark.parametrize("weighted", (False, True))
@pytest.mark.parametrize("k, noise_std", ((8, 0.5), (4, 0.1)))
def test_hard_erm_fits_match_the_dense_reference(k, noise_std, weighted):
    """The fits where conjugate gradients work hardest: k = 8, and
    noise_std 0.1, whose separated classes leave hundreds of subnormal
    feature entries on these splits (486-2235 on seeds 101000-101002)."""
    for seed in (101000, 101001, 101002):
        ds = gen_categorical(CategoricalSynthConfig(k, noise_std, seed),
                             8000, 8000)
        sp = split_alpha(ds, 0.5, seed=seed)
        x, y = sp.erm_x, sp.erm_y
        w = np.linspace(0.5, 2.0, k)[y] if weighted else np.ones(len(y))
        _assert_matches_reference(x, y, k, w, ds.target_x)


@pytest.mark.parametrize("weighted", (False, True))
@pytest.mark.parametrize("seed", (101000, 101001, 101002))
def test_warm_started_benchmark_erm_fits_match_the_dense_reference(seed,
                                                                   weighted):
    """Started from the unweighted fit's W, as the runner starts its ERM fit
    from the simplex statistic's, the fit reaches the reference's minimizer."""
    ds = gen_categorical(CategoricalSynthConfig(4, 0.5, seed), 8000, 8000)
    sp = split_alpha(ds, 0.5, seed=seed)
    x, y = sp.erm_x, sp.erm_y
    w = np.linspace(0.5, 2.0, 4)[y] if weighted else np.ones(len(y))
    _assert_matches_reference(x, y, 4, w, ds.target_x,
                              start=logistic_fit(x, y, 4)[2])


@pytest.mark.parametrize("bad, error", (
    (np.zeros((33, 3)), DataError),
    (np.zeros(33 * 4), DataError),
    (np.full((33, 4), np.nan), NonFiniteInput),
    (np.full((33, 4), np.inf), NonFiniteInput)))
def test_bad_start_is_typed(bad, error):
    x = np.linspace(0.0, 3.0, 60)
    y = np.repeat(np.arange(4), 15)
    with pytest.raises(error, match="start"):
        logistic_fit(x, y, 4, start=bad)


@pytest.mark.parametrize("bad, error", ((-0.5, DataError),
                                        (np.nan, NonFiniteInput)))
def test_bad_sample_weight_is_typed(bad, error):
    x = np.linspace(0.0, 3.0, 60)
    y = np.repeat(np.arange(3), 20)
    w = np.ones(60)
    w[7] = bad
    with pytest.raises(error):
        logistic_fit(x, y, 3, w)


@pytest.mark.parametrize("label", (-1, 3))
def test_label_outside_the_classes_is_typed(label):
    """A label -1 would train as class k - 1 by negative indexing; a label
    k would index past the one-hot rows."""
    x = np.linspace(0.0, 3.0, 60)
    y = np.repeat(np.arange(3), 20)
    y[5] = label
    with pytest.raises(DataError, match="outside"):
        logistic_fit(x, y, 3)


@pytest.mark.parametrize("n_labels, n_weights", ((59, None), (60, 59), (60, 1)))
def test_labels_or_weights_not_matching_the_rows_are_typed(n_labels,
                                                           n_weights):
    x = np.linspace(0.0, 3.0, 60)
    y = np.repeat(np.arange(3), 20)[:n_labels]
    w = None if n_weights is None else np.ones(n_weights)
    with pytest.raises(DataError, match="expected \\(60,\\)"):
        logistic_fit(x, y, 3, w)


@pytest.mark.parametrize("weighted", (False, True))
def test_fit_reaches_the_minimizer(weighted):
    """On a benchmark-sized ERM split the gradient of the stated loss,
    sum_i w_i CE_i / n + REG/2 ||W||^2, vanishes at the returned weights.
    REG > 0 makes the loss strongly convex, so that point is the minimizer."""
    ds = gen_categorical(CategoricalSynthConfig(4, 0.5, 101000), 8000, 8000)
    sp = split_alpha(ds, 0.5, seed=101000)
    x, y = sp.erm_x, sp.erm_y
    feats = rbf_features(x, *feature_plan(x))
    w = np.linspace(0.5, 2.0, 4)[y] if weighted else np.ones(len(y))
    W = logistic_fit(x, y, 4, w)[2]
    z = feats @ W
    probs = np.exp(z - z.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    grad = feats.T @ ((probs - np.eye(4)[y]) * w[:, None]) / len(y) + REG * W
    assert np.linalg.norm(grad) <= 1e-10


def _far_outlier_split():
    """The seed-101000 benchmark ERM split (k = 4) with its largest
    covariate moved to 1e3, its labels, and the target covariates."""
    ds = gen_categorical(CategoricalSynthConfig(4, 0.5, 101000), 8000, 8000)
    sp = split_alpha(ds, 0.5, seed=101000)
    x = sp.erm_x.copy()
    x[np.argmax(x)] = 1e3
    return x, sp.erm_y, ds.target_x


# Seed: (k, samples per class) of the separated class blobs of
# test_predictors that the fit tests take.
BLOBS = {0: (3, 40), 1: (2, 60), 10: (4, 30)}


def _separated_blobs(seed):
    """The blobs of BLOBS[seed]: class c near 10 c, with normal noise of
    standard deviation 0.05; the covariates, labels and k."""
    k, per_class = BLOBS[seed]
    rng = np.random.default_rng(seed)
    x = np.concatenate([c * 10.0 + 0.05 * rng.normal(size=per_class)
                        for c in range(k)])
    return x, np.repeat(np.arange(k), per_class), k


@pytest.mark.parametrize("covariates, weighting", (
    ("fewer_samples_than_bins", "unit"),
    ("fewer_samples_than_bins", "one_class_zero"),
    ("far_outlier", "unit"), ("far_outlier", "one_class_zero"),
    ("separated_blobs", "unit")))
def test_degenerate_covariates_match_the_dense_reference(covariates,
                                                         weighting):
    """Covariates that bin badly or make CG work hard still give the
    reference's fit.  70 samples, fewer than BINS.  The seed-101000
    benchmark ERM split with its largest covariate moved to 1e3, far beyond
    where the features vary: the clipped bins put it in the top bin, and CG
    takes 19 and 20 products a fit.  The separated class blobs
    of test_predictors (seeds 0, 1 and 10 at k = 3, 2 and 4, unit weights):
    CG on the last preconditioner gives up at 2, 0 and 6 iterates, which
    swap in a fresh one and go on from the iterate CG has, and the three
    fits take 183, 150 and 233 products (SWAP_COSTS)."""
    if covariates == "fewer_samples_than_bins":
        y = np.repeat(np.arange(4), 10 + 5 * np.arange(4))
        x = np.random.default_rng(5).normal(size=len(y)) + 0.3 * y
        assert len(x) < BINS
        fits = [(x, y, 4, np.linspace(-2.0, 3.0, 50))]
    elif covariates == "far_outlier":
        x, y, xq = _far_outlier_split()
        fits = [(x, y, 4, xq)]
    else:
        fits = [(*_separated_blobs(seed),
                 np.linspace(-5.0, 10.0 * k - 5.0, 50))
                for seed, (k, _) in BLOBS.items()]
    for x, y, k, xq in fits:
        w = {"unit": np.ones(k), "one_class_zero": np.r_[np.ones(k - 1), 0.0]}
        _assert_matches_reference(x, y, k, w[weighting][y], xq)


def test_a_far_outlier_leaves_the_bins_where_the_features_vary(
        monkeypatch):
    """On the far-outlier split the bins are clipped to where the features
    vary, so the outlier joins the top bin and the other samples keep
    theirs: each fit (unit and one-class-zero weights) builds its
    preconditioner at the refresh iterates only, and the two take 39
    products.  With bins over [min x, max x] they rebuilt it 3 times each
    and took 810."""
    builds = _counting_calls(monkeypatch, "_binned_hessian")
    products = _counting_calls(monkeypatch, "_hessian_product")
    x, y, _ = _far_outlier_split()
    for w in (np.ones(4), np.r_[np.ones(3), 0.0]):
        logistic_fit(x, y, 4, w[y])
    assert len(builds) == 2 * PRECONDITIONER_REFRESHES
    assert len(products) <= 39


@pytest.mark.parametrize("weighting", ("unit", "one_class_zero"))
@pytest.mark.parametrize("k", (2, 4))
def test_zero_range_covariates_reach_the_minimizer(k, weighting):
    """With every covariate equal the features are all 1, so the loss
    depends on W through its column sums z = W^T 1 and the minimizer has 33
    equal rows z / 33, where z minimizes the k-dimensional loss
    S softmax-CE + REG / 66 ||z||^2.  That z sums to zero, and Newton on
    the centered z, where the k-dimensional Hessian is well conditioned,
    gives it to rounding.  The fit's Hessian has condition about 1e5 here,
    and rounding is amplified: dense_newton_reference lands up to 9.4e-11
    from the minimizer, depending on the memory order of its features, so
    the 1e-12 reference gate cannot hold here.  The fit, centered across
    classes, lands at most 9.8e-16 from it with unit weights.  With one
    class weighted 0 it lands 1.4e-13 (k = 2) and 3.5e-12 (k = 4) away,
    where its stopping rule ends it short of the rounding floor."""
    y = np.repeat(np.arange(k), 10 + 5 * np.arange(k))
    w = {"unit": np.ones(k), "one_class_zero": np.r_[np.ones(k - 1), 0.0]}[
        weighting][y]
    W = logistic_fit(np.full(len(y), 0.7), y, k, w)[2]
    q = np.bincount(y, weights=w, minlength=k) / len(y)
    center = np.eye(k) - 1.0 / k
    z = np.zeros(k)
    for _ in range(50):
        probs = softmax(z)
        grad = q.sum() * probs - q + REG / 33 * z
        hess = q.sum() * (np.diag(probs) - np.outer(probs, probs)) \
            + REG / 33 * np.eye(k)
        z -= center @ np.linalg.lstsq(center @ hess @ center, center @ grad,
                                      rcond=None)[0]
    W_min = np.tile(z / 33, (33, 1))
    bound = 4e-15 if weighting == "unit" else 2e-11
    assert np.linalg.norm(W - W_min) <= bound * np.linalg.norm(W_min)


@pytest.mark.parametrize("weighting", ("unit", "per_class", "one_class_zero"))
@pytest.mark.parametrize("k", (2, 4, 6))
def test_hessian_product_matches_the_assembled_hessian(k, weighting):
    """The products conjugate gradients take equal the Hessian assembled
    block by block (exact_hessian) times the direction, up to rounding."""
    ds = gen_categorical(CategoricalSynthConfig(k, 0.5, 700 + k), 1500, 1500)
    x, y = ds.source_x, ds.source_y
    feats = rbf_features(x, *feature_plan(x))
    p = feats.shape[1]
    w = {"unit": np.ones(k),
         "per_class": np.linspace(0.5, 2.0, k),
         "one_class_zero": np.r_[np.ones(k - 1), 0.0]}[weighting][y]
    rng = np.random.default_rng(k)
    probs = softmax(feats @ rng.normal(size=(p, k)), axis=1).T.copy()
    hess = exact_hessian(feats, w, probs.T)
    for _ in range(3):
        V = rng.normal(size=(k, p))
        expected = (hess @ V.reshape(-1)).reshape(k, p)
        got = _hessian_product(feats, w, probs, V)
        assert np.linalg.norm(got - expected) <= \
            1e-13 * np.linalg.norm(expected)


def _on_the_subspace(hess, k):
    """The (k p, k p) Hessian restricted to the class-sum-zero subspace,
    (U kron I)^T H (U kron I) for the class basis U, where the binned
    Hessian lives."""
    lift = np.kron(_class_basis(k), np.eye(len(hess) // k))
    return lift.T @ hess @ lift


def _binned(x, w, probs, centers, scale):
    k = len(probs)
    keys = _pair_bin_keys(_covariate_bins(x, centers, scale), k)
    return _binned_hessian(x, keys, w, probs, centers, scale,
                           _class_pairs(_class_basis(k)))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_binned_hessian_is_positive_definite(data):
    """Its Cholesky factorization succeeds for any probabilities, those
    that underflow to 0 included, any covariates and weights with one class
    at 0, at k = 2-8.  It is (k - 1) p square, on the subspace."""
    k = data.draw(st.integers(2, 8))
    n = data.draw(st.integers(1, 300))
    x = data.draw(hnp.arrays(float, n, elements=st.floats(-1e3, 1e3)))
    logits = data.draw(hnp.arrays(float, (k, n),
                                  elements=st.floats(-800.0, 800.0)))
    zero_class = data.draw(st.integers(-1, k - 1))      # -1: none
    y = np.arange(n) % k
    w = np.where(y == zero_class, 0.0, 1.0)
    centers, scale = feature_plan(x)
    hess = _binned(x, w, softmax(logits, axis=0), centers, scale)
    assert hess.shape == ((k - 1) * (len(centers) + 1),) * 2
    assert np.all(np.isfinite(hess))
    np.linalg.cholesky(hess)


def test_one_bin_gives_the_assembled_hessian():
    """With every covariate equal there is one bin, whose mean is that
    covariate, and the binned Hessian is the exact one on the subspace up
    to rounding (at most 8.4e-16 relative)."""
    k, n = 4, 500
    centers, scale = feature_plan(
        gen_categorical(CategoricalSynthConfig(k, 0.5, 704), 1500, 1500)
        .source_x)                  # a plan whose features at x vary
    x = np.full(n, 0.3)
    feats = rbf_features(x, centers, scale)
    bins = _covariate_bins(x, centers, scale)
    assert not np.any(bins)
    rng = np.random.default_rng(4)
    y = np.arange(n) % k
    for w in (np.ones(n), np.r_[np.ones(k - 1), 0.0][y]):
        probs = softmax(rng.normal(size=(k, n)), axis=0)
        exact = _on_the_subspace(exact_hessian(feats, w, probs.T), k)
        binned = _binned(x, w, probs, centers, scale)
        assert np.linalg.norm(binned - exact) <= \
            1e-13 * np.linalg.norm(exact)


def _erm_fit_inputs(k, noise_std, n):
    """The six ERM-split fits of one cell: seeds 101000-101002 at
    n = m = 8000, seeds 300-302 at any other n; unit and
    linspace(0.5, 2, k) class weights."""
    seeds = range(101000, 101003) if n == 8000 else range(300, 303)
    for seed in seeds:
        ds = gen_categorical(CategoricalSynthConfig(k, noise_std, seed), n, n)
        sp = split_alpha(ds, 0.5, seed=seed)
        x, y = sp.erm_x, sp.erm_y
        for w in (np.ones(len(y)), np.linspace(0.5, 2.0, k)[y]):
            yield x, y, w


@pytest.mark.parametrize("point", ("start", "minimizer"))
def test_binned_hessian_is_close_to_the_exact_one(point):
    """On the six benchmark ERM fits (k = 4, noise_std 0.5, n = m = 8000),
    at the default start and at the minimizer, the binned Hessian is within
    5e-4 of the exact one on the subspace in spectral norm, relative (at
    most 2.8e-4 at either point), and the eigenvalues of H_bin^-1 H there
    lie within 3e-2 of 1 (at most 1.5e-2 at the start, 1.2e-2 at the
    minimizer).  So the preconditioned system is nearly the identity, and
    CG converges in a few products."""
    for x, y, w in _erm_fit_inputs(4, 0.5, 8000):
        centers, scale = feature_plan(x)
        feats = rbf_features(x, centers, scale)
        if point == "start":
            W = _least_squares_start(feats, np.eye(4)[y].T, w)
        else:
            W = logistic_fit(x, y, 4, w)[2]
        probs = softmax(feats @ W, axis=1).T.copy()
        exact = _on_the_subspace(exact_hessian(feats, w, probs.T), 4)
        binned = _binned(x, w, probs, centers, scale)
        assert np.linalg.norm(binned - exact, 2) <= \
            5e-4 * np.linalg.norm(exact, 2)
        eigs = scipy.linalg.eigh(exact, binned, eigvals_only=True)
        assert np.abs(eigs - 1.0).max() <= 3e-2


# Hessian products summed over the six fits of each (k, noise_std, n)
# cell from the default start: the cells of STEPS_UNDER_THE_FORMER_RIDGE
# (the (4, 0.5) one is the six benchmark ERM fits) and the noise_std 0.1
# cell of test_hard_erm_fits_match_the_dense_reference.  No iterate after
# the refreshes rebuilds its preconditioner.  When the first two iterates
# assembled exact Hessians (two assemblies a fit, each about 15x the cost
# of a product at k = 4), the cells took 35, 114, 120, 246, 364, 398, 279,
# 100 and 368 products.  With CG run to CG_TOL at every step instead of
# the forcing term, and the preconditioner on the full k p coordinates,
# they took 77, 161, 167, 292, 412, 417, 451, 323 and 144.
HESSIAN_PRODUCTS = {
    (2, 0.5, 8000): 59, (3, 0.5, 8000): 115, (4, 0.5, 8000): 122,
    (6, 0.5, 8000): 192, (8, 0.5, 8000): 265, (4, 0.1, 8000): 290,
    (4, 0.1, 4000): 311, (4, 0.3, 4000): 233, (4, 1.0, 4000): 109}


@pytest.mark.parametrize("k, noise_std, n", sorted(HESSIAN_PRODUCTS))
def test_fits_assemble_no_hessian_within_the_product_budget(monkeypatch, k,
                                                            noise_std, n):
    """A timing-free guard on the fit's cost: every fit of the cell builds
    its binned preconditioner once at each of its first
    PRECONDITIONER_REFRESHES iterates and at no later one (so CG on the
    last preconditioner never stalls), and the cell's Hessian products stay
    at or below its count.  A weaker preconditioner fails here, not only in
    the benchmark."""
    builds = _counting_calls(monkeypatch, "_binned_hessian")
    products = _counting_calls(monkeypatch, "_hessian_product")
    fits = 0
    for x, y, w in _erm_fit_inputs(k, noise_std, n):
        logistic_fit(x, y, k, w)
        fits += 1
    assert len(builds) == PRECONDITIONER_REFRESHES * fits == 12
    assert len(products) <= HESSIAN_PRODUCTS[k, noise_std, n]


# (preconditioner builds, Hessian products) of the fits where CG on the last
# preconditioner gives up at some iterate after the refreshes, which swaps
# in a fresh one: the unit-weighted separated blobs by seed (BLOBS) and the
# far starts of test_line_search_halves_from_a_far_start by scale.  When CG
# on the fresh preconditioner restarted from zero, throwing away the
# products spent on the last one, these fits took 203, 150, 318, 172 and
# 174 products with the same builds.
SWAP_COSTS = {("blobs", 0): (4, 183), ("blobs", 1): (2, 150),
              ("blobs", 10): (8, 233), ("far_start", 3.0): (4, 171),
              ("far_start", 10.0): (6, 171)}


@pytest.mark.parametrize("fit", list(SWAP_COSTS),
                         ids=lambda fit: f"{fit[0]}-{fit[1]}")
def test_a_swapped_preconditioner_keeps_the_cg_iterate(monkeypatch, fit):
    """A timing-free guard on the cost of the swap: the fit builds its
    preconditioner as often as its count says, and its Hessian products
    stay at or below its count."""
    builds = _counting_calls(monkeypatch, "_binned_hessian")
    products = _counting_calls(monkeypatch, "_hessian_product")
    kind, key = fit
    if kind == "blobs":
        x, y, k = _separated_blobs(key)
        logistic_fit(x, y, k)
    else:
        x, y, w, starts = _far_starts()
        logistic_fit(x, y, 4, w, start=starts[key])
    assert len(builds) == SWAP_COSTS[fit][0]
    assert len(products) <= SWAP_COSTS[fit][1]


def test_a_stalled_cg_rebuilds_the_preconditioner(monkeypatch):
    """With the cap on CG over the last preconditioner at 0, CG stalls at
    every iterate after the refreshes, and each of them swaps in a fresh
    preconditioner: one build per Newton step.  CG took no iteration on the
    last one, so it restarts from zero, and W is bit for bit the W of the
    fit that rebuilds it at every iterate, and matches the dense
    reference."""
    ds = gen_categorical(CategoricalSynthConfig(4, 0.5, 704), 1500, 1500)
    x, y = ds.source_x, ds.source_y
    monkeypatch.setattr(predictors, "PRECONDITIONER_REFRESHES",
                        NEWTON_MAX_STEPS)
    W_refreshed = logistic_fit(x, y, 4)[2]
    monkeypatch.undo()
    monkeypatch.setattr(predictors, "CG_MAX_ITER", 0)
    steps = _counting_directions(monkeypatch)
    builds = _counting_calls(monkeypatch, "_binned_hessian")
    _assert_matches_reference(x, y, 4, np.ones(len(y)), ds.target_x)
    assert len(builds) == len(steps) > PRECONDITIONER_REFRESHES
    np.testing.assert_array_equal(logistic_fit(x, y, 4)[2], W_refreshed)


FAULTS = ((np.negative, "Cholesky"), (lambda a: a * np.nan, "NaN or inf"))


@pytest.mark.parametrize("fault", [fault for fault, _ in FAULTS])
def test_a_bad_hessian_at_a_cg_iterate_raises(monkeypatch, fault):
    """Products whose curvature is negative, or NaN, make CG give up at the
    first iterate on the preconditioner just built for it.  No other source
    of a Newton direction exists, so the fit raises IllConditioned after
    one build and one product."""
    builds = _counting_calls(monkeypatch, "_binned_hessian")
    products = []

    def product(*args):
        products.append(None)
        return fault(_hessian_product(*args))

    monkeypatch.setattr(predictors, "_hessian_product", product)
    ds = gen_categorical(CategoricalSynthConfig(4, 0.5, 704), 1500, 1500)
    with pytest.raises(IllConditioned, match="no Newton direction"):
        logistic_fit(ds.source_x, ds.source_y, 4, start=np.zeros((33, 4)))
    assert len(builds) == 1 and len(products) == 1


@pytest.mark.parametrize("fault, message", FAULTS)
def test_a_bad_binned_hessian_raises(monkeypatch, fault, message):
    """A binned Hessian that is not positive definite, or not finite,
    raises IllConditioned from _safe_spd_solve before CG takes a product."""
    real_binned = predictors._binned_hessian
    monkeypatch.setattr(predictors, "_binned_hessian",
                        lambda *args: fault(real_binned(*args)))
    products = _counting_calls(monkeypatch, "_hessian_product")
    ds = gen_categorical(CategoricalSynthConfig(4, 0.5, 704), 1500, 1500)
    with pytest.raises(IllConditioned, match=message):
        logistic_fit(ds.source_x, ds.source_y, 4)
    assert not products


def test_fit_raises_instead_of_returning_a_capped_iterate(monkeypatch):
    monkeypatch.setattr(predictors, "NEWTON_MAX_STEPS", 1)
    rng = np.random.default_rng(11)
    x = rng.normal(size=120)
    y = np.repeat(np.arange(3), 40)
    with pytest.raises(IllConditioned, match="not converged"):
        train_simplex((x, y), 3)


def _counting_directions(monkeypatch):
    """Wraps _newton_direction; returns the list of Newton decrements
    g^T H^-1 g of the directions it gives, one per Newton step."""
    decrements = []
    real_direction = predictors._newton_direction

    def direction(grad, *args):
        step, precond = real_direction(grad, *args)
        decrements.append(float(np.sum(grad * step)))
        return step, precond

    monkeypatch.setattr(predictors, "_newton_direction", direction)
    return decrements


# (loss evaluations, Newton steps) of the weighted fit on the k = 4, seed-0
# source sample (n = 2000, linspace(0.5, 2, 4) class weights), by start: the
# default start, and 3x then 10x draws of one standard-normal stream.
# A step whose halving never runs costs one loss evaluation; the initial
# loss is one more, and the last step, which only checks the decrement,
# none.
LINE_SEARCH_COUNTS = {None: (6, 6), 3.0: (29, 14), 10.0: (34, 14)}


def test_line_search_halves_from_a_far_start(monkeypatch):
    """The damped step's halving runs from a far start, and the fit still
    ends within the 1e-12 reference gate; from the default start every full
    step is accepted."""
    ds = gen_categorical(CategoricalSynthConfig(4, 0.5, 0), 2000, 2000)
    x, y = ds.source_x, ds.source_y
    centers, scale = feature_plan(x)
    feats = rbf_features(x, centers, scale)
    w = np.linspace(0.5, 2.0, 4)[y]
    W_ref = dense_newton_reference(feats, y, 4, w)
    decrements = _counting_directions(monkeypatch)
    losses = []
    real_softmax = predictors._softmax

    def softmax_counted(z):
        losses.append(None)         # the fit's one softmax per loss evaluation
        return real_softmax(z)

    monkeypatch.setattr(predictors, "_softmax", softmax_counted)
    rng = np.random.default_rng(0)
    for scale_up, counts in LINE_SEARCH_COUNTS.items():
        start = None if scale_up is None \
            else scale_up * rng.standard_normal((feats.shape[1], 4))
        losses.clear()
        decrements.clear()
        W = logistic_fit(x, y, 4, w, start=start)[2]
        assert (len(losses), len(decrements)) == counts, scale_up
        assert np.linalg.norm(W - W_ref) <= 1e-12 * np.linalg.norm(W_ref)


def _counting_calls(monkeypatch, name):
    """Wraps the predictors function name (such as _binned_hessian or
    _hessian_product); returns the list it appends one entry to per call."""
    calls = []
    real = getattr(predictors, name)

    def counted(*args):
        calls.append(None)
        return real(*args)

    monkeypatch.setattr(predictors, name, counted)
    return calls


def _erm_steps(monkeypatch, seed, start, **config):
    """Newton steps of the ERM fit in one simplex cell with ERM, by default
    the runner's E2 cell at n = m = 8000 with reg_scale 0.1; config
    overrides its keys.  start "runner" keeps the runner's start, "none"
    passes None (the least-squares start) and "zeros" a zero start."""
    decrements = _counting_directions(monkeypatch)
    steps = []
    real_erm = experiments.weighted_erm

    def erm(*args, **kwargs):
        if start == "none":
            kwargs["start"] = None
        elif start == "zeros":
            kwargs["start"] = np.zeros_like(kwargs["start"])
        before = len(decrements)
        fit = real_erm(*args, **kwargs)
        steps.append(len(decrements) - before)
        return fit

    monkeypatch.setattr(experiments, "weighted_erm", erm)
    cfg = build_config({"scenario": "single_run", "estimator": "E2",
                        "statistic_mode": "simplex", "n": 8000,
                        "seeds": (seed,), "reg_scale": 0.1, "run_erm": True,
                        **config})
    experiments.run_experiment(cfg)
    monkeypatch.undo()      # the next call wraps the real functions again
    assert len(steps) == 1
    return steps[0]


@pytest.mark.parametrize("seed", (101000, 101001, 101002))
def test_runner_erm_fit_starts_from_the_simplex_statistic(monkeypatch, seed):
    """The runner starts its logistic ERM fit from the simplex statistic's
    weights, the gamma = 0 solution of the same problem, shifted by the log
    class weights.  Both that start and the least-squares start save Newton
    steps over a zero start on every seed (shifted 6/5/3, least squares
    5/6/5, zeros 11/10/10 on these seeds).  Per seed neither of the first
    two is always ahead (6 against 5 at seed 101000); the total over cells
    is in the next test."""
    zeros = _erm_steps(monkeypatch, seed, "zeros")
    assert _erm_steps(monkeypatch, seed, "runner") < zeros
    assert _erm_steps(monkeypatch, seed, "none") < zeros


def test_runner_shifted_start_saves_steps_over_cells(monkeypatch):
    """Summed over E2 simplex ERM cells at k = 2, 4, 6 and 8 (n = 4000,
    seeds 30-32), the runner's shifted start takes fewer Newton steps than
    the least-squares start: 58 against 69."""
    totals = {"runner": 0, "none": 0}
    for k in (2, 4, 6, 8):
        for seed in (30, 31, 32):
            for start in totals:
                totals[start] += _erm_steps(monkeypatch, seed, start, k=k,
                                             n=4000)
    assert totals["runner"] < totals["none"]


def test_least_squares_start_lands_near_the_minimizer(monkeypatch):
    """On the seed-101000 benchmark ERM split with unit weights, the first
    Newton decrement from the default start is 2.4e-2.  With a ridge of
    1e-8 tr/p on the start's Gram it was 7.4e3: the start took large
    coefficients along near-null directions of the features, and the first
    step was spent undoing them."""
    ds = gen_categorical(CategoricalSynthConfig(4, 0.5, 101000), 8000, 8000)
    sp = split_alpha(ds, 0.5, seed=101000)
    x, y = sp.erm_x, sp.erm_y
    decrements = _counting_directions(monkeypatch)
    logistic_fit(x, y, 4)
    assert decrements[0] < 1.0


# Newton steps from the default start, with unit and linspace(0.5, 2, k)
# class weights, summed over the ERM splits of three seeds: (k, noise_std)
# cells at n = m = 8000 (seeds 101000-101002) and at k = 4, n = m = 4000
# (seeds 300-302).  These are the counts when the start's ridge was
# 1e-8 max(tr/p, 1); the start's ridge C n REG takes 24, 32, 31, 36, 41
# and 42, 39, 30.
STEPS_UNDER_THE_FORMER_RIDGE = {
    (2, 0.5): 24, (3, 0.5): 39, (4, 0.5): 39, (6, 0.5): 42, (8, 0.5): 41,
    (4, 0.1): 45, (4, 0.3): 42, (4, 1.0): 36}


@pytest.mark.parametrize("k, noise_std", sorted(STEPS_UNDER_THE_FORMER_RIDGE))
def test_default_start_steps_do_not_rise(monkeypatch, k, noise_std):
    """A timing-free guard on the fit's cost: each Newton step costs the
    same, so the step count of every cell stays at or below its count
    under the start's former ridge."""
    n, seeds = (8000, range(101000, 101003)) if noise_std == 0.5 \
        else (4000, range(300, 303))
    decrements = _counting_directions(monkeypatch)
    for seed in seeds:
        ds = gen_categorical(CategoricalSynthConfig(k, noise_std, seed), n, n)
        sp = split_alpha(ds, 0.5, seed=seed)
        x, y = sp.erm_x, sp.erm_y
        for w in (np.ones(len(y)), np.linspace(0.5, 2.0, k)[y]):
            logistic_fit(x, y, k, w)
    assert len(decrements) <= STEPS_UNDER_THE_FORMER_RIDGE[k, noise_std]


def _runner_erm_start(monkeypatch, config):
    """Runs one categorical cell with ERM; returns the simplex statistic's
    coef, the class weights and the start the runner gave the ERM fit."""
    seen = {}
    real_train, real_erm = experiments.train_simplex, experiments.weighted_erm

    def train(*args):
        seen["g"] = real_train(*args)
        return seen["g"]

    def erm(split, omega, *args, **kwargs):
        seen["weights"], seen["start"] = omega, kwargs["start"]
        return real_erm(split, omega, *args, **kwargs)

    monkeypatch.setattr(experiments, "train_simplex", train)
    monkeypatch.setattr(experiments, "weighted_erm", erm)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        experiments.run_experiment(build_config(
            {"scenario": "single_run", "statistic_mode": "simplex",
             "run_erm": True, **config}))
    return seen["g"].coef, seen["weights"], seen["start"]


def test_runner_shifts_the_erm_start_by_the_log_weights(monkeypatch):
    """With every class weight positive, the start is coef with log(weights)
    added to the intercept row, the last; coef itself is left as it was."""
    coef, weights, start = _runner_erm_start(
        monkeypatch, {"estimator": "E1", "n": 2000, "seeds": (0,)})
    assert np.all(weights > 0) and np.any(weights != 1.0)
    expected = coef.copy()
    expected[-1] += np.log(weights)
    np.testing.assert_array_equal(start, expected)


def test_runner_skips_the_shift_when_a_weight_is_not_positive(monkeypatch):
    """E1 at n = 60, seed 0, estimates one class weight below zero, where
    the log is undefined: the ERM fit takes the least-squares start
    (start None), not coef unshifted, which is far from the weighted
    minimizer, and the cell runs without a RuntimeWarning."""
    _, weights, start = _runner_erm_start(
        monkeypatch, {"estimator": "E1", "n": 60, "seeds": (0,)})
    assert weights.min() <= 0
    assert start is None


def test_runner_start_without_the_shift_takes_the_least_squares_steps(
        monkeypatch):
    """E1 at k = 4, n = 2000 estimates a weight at or below zero on seeds
    31 and 32 (-0.843 and -0.04).  There the runner's ERM fit takes the
    least-squares start's 7 and 6 Newton steps; from coef unshifted it
    took 14 and 13."""
    for seed in (31, 32):
        assert _erm_steps(monkeypatch, seed, "runner", estimator="E1",
                          n=2000) \
            == _erm_steps(monkeypatch, seed, "none", estimator="E1", n=2000)
