"""Bad inputs to the statistic fits, weighted ERM, the solvers and the radii
fail where they enter, with the package's typed errors."""

import dataclasses

import numpy as np
import pytest

from shiftweight import (DataError, IllConditioned, MomentEstimates,
                         NonFiniteInput, categorical_radii,
                         check_burn_in_categorical, check_burn_in_functional,
                         composite_epsilon, confidence_report, e2_regularized,
                         e4_regularized, estimate_categorical_moments,
                         estimate_kernel_moments,
                         evaluate_weight, functional_radii, oracle_target_risk,
                         theta_function, train_hypercube,
                         train_kernel_regressor, train_simplex, weighted_erm)
from shiftweight.predictors import (_safe_spd_solve, gaussian_gram,
                                    gaussian_pivoted_cholesky)


def _sample():
    """Three classes of 20 points each, clustered at 0, 1 and 2."""
    y = np.repeat(np.arange(3), 20)
    return y + 0.1 * np.random.default_rng(12).normal(size=len(y)), y


def _with_nan(values):
    values = np.array(values, dtype=float)
    values[len(values) // 2] = np.nan
    return values


def _oracle_risk(family):
    """oracle_target_risk at (x, y) of a model fitted on the clean sample."""
    def call(x, y):
        omega = np.ones(3) if family == "logistic" else lambda ys: np.ones(len(ys))
        return oracle_target_risk(weighted_erm(_sample(), omega, family).model,
                                  x, y)
    return call


ENTRY_POINTS = {
    "train_simplex": lambda x, y: train_simplex((x, y), 3),
    "train_hypercube": lambda x, y: train_hypercube((x, y), 3),
    "train_kernel_regressor": lambda x, y: train_kernel_regressor((x, y)),
    "weighted_erm_logistic": lambda x, y: weighted_erm(
        (x, y), np.ones(3), "logistic"),
    "weighted_erm_kernel_ridge": lambda x, y: weighted_erm(
        (x, y), lambda ys: np.ones(len(ys)), "kernel_ridge"),
    "oracle_target_risk_logistic": _oracle_risk("logistic"),
    "oracle_target_risk_kernel_ridge": _oracle_risk("kernel_ridge"),
}
REAL_LABELS = ("train_kernel_regressor", "weighted_erm_kernel_ridge",
               "oracle_target_risk_kernel_ridge")


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_non_finite_input_is_named(entry):
    x, y = _sample()
    with pytest.raises(NonFiniteInput) as exc:
        ENTRY_POINTS[entry](_with_nan(x), y)
    assert exc.value.field == "covariates"
    if entry in REAL_LABELS:
        with pytest.raises(NonFiniteInput) as exc:
            ENTRY_POINTS[entry](x, _with_nan(y))
        assert exc.value.field == "labels"


TRAINED_PREDICTORS = {
    "simplex_statistic": lambda: train_simplex(_sample(), 3),
    "hypercube_statistic": lambda: train_hypercube(_sample(), 3),
    "kernel_statistic": lambda: train_kernel_regressor(_sample()),
    "logistic_model": lambda: weighted_erm(
        _sample(), np.ones(3), "logistic").model.predict,
    "kernel_ridge_model": lambda: weighted_erm(
        _sample(), lambda ys: np.ones(len(ys)), "kernel_ridge").model.predict,
}


@pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
@pytest.mark.parametrize("name", sorted(TRAINED_PREDICTORS))
def test_trained_predictor_rejects_non_finite_covariates(name, bad):
    """Without the check, NaN gave NaN rows or values (class 0 from the
    logistic model's argmax), and inf made every Gaussian bump 0, so the
    outputs were those of the constant term alone."""
    predict = TRAINED_PREDICTORS[name]()
    with pytest.raises(NonFiniteInput) as exc:
        predict(np.array([0.5, bad, 1.5]))
    assert exc.value.field == "covariates"


CLASS_LABEL_ENTRY_POINTS = {
    "train_simplex": ENTRY_POINTS["train_simplex"],
    "train_hypercube": ENTRY_POINTS["train_hypercube"],
    "weighted_erm_logistic": lambda x, y: weighted_erm(
        (x, y), np.ones(3), "logistic", k=3),
}


@pytest.mark.parametrize("bad, error, message", (
    (-1, DataError, "class label -1 outside 0..2"),
    (3, DataError, "class label 3 outside 0..2"),
    (1.5, DataError, "class label 1.5 is not an integer"),
    (np.nan, NonFiniteInput, "labels contains NaN")))
@pytest.mark.parametrize("entry", sorted(CLASS_LABEL_ENTRY_POINTS))
def test_bad_class_label_is_rejected_where_it_enters(entry, bad, error,
                                                     message):
    """With k = 3, a label outside 0..2 is neither wrapped round to class 2
    nor left to fail as a raw IndexError or bincount ValueError."""
    x, y = _sample()
    with pytest.raises(error, match=message):
        CLASS_LABEL_ENTRY_POINTS[entry](np.append(x, 1.0), np.append(y, bad))


LENGTH_ENTRY_POINTS = {
    **ENTRY_POINTS,
    "estimate_kernel_moments": lambda x, y: estimate_kernel_moments(
        (x, y), x, lambda v: v, bandwidth=0.5),
    "estimate_categorical_moments": lambda x, y: estimate_categorical_moments(
        (x, y), x, lambda v: np.stack([v, 1.0 - v], axis=1), 3),
}


@pytest.mark.parametrize("short", ("covariates", "labels"))
@pytest.mark.parametrize("entry", sorted(LENGTH_ENTRY_POINTS))
def test_covariates_and_labels_of_different_lengths_are_rejected(entry, short):
    """One label per covariate, checked where the arrays enter: the kernel
    path, the hypercube fit, the oracle risk and the categorical moments
    used to fail with a raw numpy broadcast, indexing, matmul or bincount
    error."""
    x, y = _sample()
    if short == "covariates":
        x = x[:-1]
    else:
        y = y[:-1]
    with pytest.raises(DataError):
        LENGTH_ENTRY_POINTS[entry](x, y)


@pytest.mark.parametrize("shift, message", ((0.5, "is not an integer"),
                                            (5, "outside 0..2")))
def test_oracle_risk_rejects_labels_that_are_not_classes(shift, message):
    """A logistic model's target labels were cast to int: y + 0.5 scored
    like y, and y + 5 counted silently as all errors."""
    x, y = _sample()
    model = weighted_erm((x, y), np.ones(3), "logistic").model
    with pytest.raises(DataError, match=message):
        oracle_target_risk(model, x, y + shift)


def test_kernel_ridge_erm_rejects_a_class_indexed_omega():
    """A weight vector has no meaning for real labels: it is not indexed by
    the labels cast to int."""
    x = np.linspace(0.0, 1.0, 50)
    with pytest.raises(DataError, match="omega as a function of the real labels"):
        weighted_erm((x, np.sin(3 * x) - 0.5), np.array([1.0, 2.0, 3.0]),
                     "kernel_ridge")


@pytest.mark.parametrize("params", ({"bandwidth": -0.5}, {"bandwidth": 0.0},
                                    {"bandwidth": np.nan}))
def test_kernel_ridge_erm_rejects_nonpositive_hyperparameters(params):
    x, y = _sample()
    with pytest.raises(ValueError, match="must be positive"):
        weighted_erm((x, y), lambda ys: np.ones(len(ys)), "kernel_ridge",
                     **params)


def test_failed_cholesky_is_typed_not_patched_by_least_squares():
    with pytest.raises(IllConditioned):
        _safe_spd_solve(-np.eye(3), np.ones(3))


def _poisoned(values, index, bad):
    values = np.array(values, dtype=float)
    values[index] = bad
    return values


NON_FINITE_SYSTEMS = [system for bad in (np.nan, np.inf) for system in (
    (_poisoned(np.eye(3), (1, 1), bad), np.ones(3)),
    # above the diagonal, which a Cholesky factorization does not read
    (_poisoned(np.eye(3), (0, 2), bad), np.ones(3)),
    (np.eye(3), _poisoned(np.ones(3), 1, bad)))]


@pytest.mark.parametrize("a, b", NON_FINITE_SYSTEMS)
def test_non_finite_solve_is_typed_not_returned_as_nan(a, b):
    with pytest.raises(IllConditioned, match="NaN or inf"):
        _safe_spd_solve(a, b)


@pytest.mark.parametrize("k, omega, extra_label", ((2, np.ones(1), None),
                                                   (2, np.ones(5), None),
                                                   (None, np.ones(3), 3)))
def test_logistic_erm_rejects_omega_of_the_wrong_length(k, omega, extra_label):
    """A class-indexed omega has one weight per class: a short one is not left
    to fail as a raw IndexError, nor a long one cut silently.  With k = None,
    k is inferred from the labels (here 4, from the label 3)."""
    x, y = _sample()
    if k == 2:
        y = y % 2
    if extra_label is not None:
        x, y = np.append(x, 3.0), np.append(y, extra_label)
    with pytest.raises(DataError, match="omega has shape"):
        weighted_erm((x, y), omega, "logistic", k=k)


@pytest.mark.parametrize("family, omega", (
    ("logistic", np.array([1.0, -np.inf, 1.0])),
    ("kernel_ridge", lambda ys: np.where(ys > 1.5, -np.inf, 1.0))))
def test_minus_inf_importance_weight_is_not_clamped(family, omega):
    """-inf is non-finite, not a negative weight to floor at 0."""
    x, y = _sample()
    with pytest.raises(NonFiniteInput) as exc:
        weighted_erm((x, y), omega, family)
    assert exc.value.field == "importance_weights"


@pytest.mark.parametrize("weights", (lambda ys: 1.0,
                                     lambda ys: np.ones(len(ys) - 1),
                                     lambda ys: np.ones((len(ys), 2))),
                         ids=("scalar", "one_short", "two_columns"))
@pytest.mark.parametrize("family", ("logistic", "kernel_ridge"))
def test_weight_callable_of_the_wrong_shape_is_rejected(family, weights):
    """Both families check one weight per sample where the weights are made;
    kernel ridge used to fail with a raw IndexError or broadcast ValueError."""
    x, y = _sample()
    with pytest.raises(DataError, match="importance weights have shape"):
        weighted_erm((x, y), weights, family)


@pytest.mark.parametrize("u", (lambda v: np.stack([v, v], axis=1),
                               lambda v: v[1:], lambda v: 0.5),
                         ids=("two_columns", "one_short", "scalar"))
def test_kernel_moments_reject_a_statistic_of_the_wrong_shape(u):
    """u gives one image per point: two columns flattened used to give a
    wrong B silently, and a scalar a raw matmul ValueError."""
    x = np.linspace(0.0, 1.0, 30)
    with pytest.raises(DataError, match="u gave"):
        estimate_kernel_moments((x, x), x[::-1], u, bandwidth=0.5)


@pytest.mark.parametrize("g", (lambda v: v, lambda v: np.ones((len(v) - 1, 2)),
                               lambda v: 0.5,
                               lambda v: np.ones((len(v), len(v) // 10))),
                         ids=("one_dimensional", "one_short", "scalar",
                              "target_width_differs"))
def test_categorical_moments_reject_a_statistic_of_the_wrong_shape(g):
    """g gives one d-vector per point, with the same d on source and
    target; a 1-D output is not read as d = 1."""
    x = np.linspace(0.0, 1.0, 30)
    with pytest.raises(DataError, match="g gave"):
        estimate_categorical_moments((x, np.arange(30) % 2), x[:20], g, 2)


@pytest.mark.parametrize("bad", (np.inf, -np.inf))
@pytest.mark.parametrize("evaluate", (
    lambda est, ys: evaluate_weight(est, 1.0, ys),
    lambda est, ys: theta_function(est)(ys)),
    ids=("evaluate_weight", "theta_function"))
def test_infinite_label_fails_the_weight_evaluation(evaluate, bad):
    """theta_hat at +-inf was a silent 0, a weight of 1.  (NaN, which gave
    NaN, is in NAN_ENTRIES.)"""
    with pytest.raises(NonFiniteInput) as exc:
        evaluate(_e4_at(0.1), np.array([0.5, bad]))
    assert exc.value.field == "labels"


@pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
def test_factor_rejects_non_finite_points(bad):
    with pytest.raises(NonFiniteInput) as exc:
        gaussian_pivoted_cholesky(np.array([0.0, bad, 1.0]), 0.5)
    assert exc.value.field == "points"


@pytest.mark.parametrize("bandwidth", (0.0, -0.5, np.nan))
def test_factor_rejects_nonpositive_bandwidth(bandwidth):
    """gaussian_gram used to return NaN on the diagonal at 0, all NaN at
    NaN, and the bandwidth-1 block at -1."""
    with pytest.raises(ValueError, match="bandwidth must be positive"):
        gaussian_pivoted_cholesky(np.array([0.0, 1.0]), bandwidth)
    with pytest.raises(ValueError, match="bandwidth must be positive"):
        gaussian_gram(np.array([0.0, 1.0]), np.array([0.5]), bandwidth)


# ===================== NaN at the scalar entry checks =====================

NAN = float("nan")


def _e2_at(delta_T, theta_cap=10.0):
    mom = MomentEstimates(np.eye(2), np.zeros(2), np.array([0.1, -0.1]), 100, 100)
    return e2_regularized(mom, delta_T, theta_cap)


def _e4_at(lam):
    x = np.linspace(0.0, 1.0, 30)
    km = estimate_kernel_moments((x, x), x[::-1], lambda v: v, bandwidth=0.5)
    return e4_regularized(km, lam)


NAN_ENTRIES = {
    "categorical_radii-alpha": lambda: categorical_radii(2, 2, NAN, 100, 100, 0.1),
    "categorical_radii-n": lambda: categorical_radii(2, 2, 0.5, NAN, 100, 0.1),
    "categorical_radii-m": lambda: categorical_radii(2, 2, 0.5, 100, NAN, 0.1),
    "functional_radii-alpha": lambda: functional_radii(NAN, 100, 100, 0.1),
    "functional_radii-m": lambda: functional_radii(0.5, 100, NAN, 0.1),
    "composite_epsilon-radius": lambda: composite_epsilon((0.1, NAN, 0.3),
                                                          1.0, 1.0),
    "confidence_report-categorical-proxy": lambda: confidence_report(
        "categorical", 0.5, 800, 800, 0.1, NAN, 1.0, d=2, k=2),
    "confidence_report-categorical-theta_max": lambda: confidence_report(
        "categorical", 0.5, 800, 800, 0.1, 1.0, NAN, d=2, k=2),
    "confidence_report-functional-proxy": lambda: confidence_report(
        "functional", 0.5, 800, 800, 0.1, NAN, 1.0),
    "confidence_report-functional-theta_max": lambda: confidence_report(
        "functional", 0.5, 800, 800, 0.1, 1.0, NAN),
    "e2_regularized-delta_T": lambda: _e2_at(NAN),
    "e2_regularized-theta_cap": lambda: _e2_at(0.1, theta_cap=NAN),
    "e4_regularized-lam": lambda: _e4_at(NAN),
    "evaluate_weight-ys": lambda: evaluate_weight(_e4_at(0.1), 1.0, [0.5, NAN]),
    "theta_function-ys": lambda: theta_function(_e4_at(0.1))([NAN]),
}


@pytest.mark.parametrize("call", NAN_ENTRIES.values(), ids=NAN_ENTRIES.keys())
def test_nan_fails_the_entry_checks(call):
    """NaN compares false both ways, so each check is written to pass only
    on a true comparison: a NaN raises ValueError instead of flowing on."""
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize("solve", (_e2_at, _e4_at), ids=("e2", "e4"))
def test_infinite_weight_fails_the_regularized_estimators(solve):
    """An infinite delta_T or lam passed the nonnegativity check and gave
    a NaN objective."""
    with pytest.raises(ValueError, match="finite"):
        solve(np.inf)


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_empty_input_is_a_data_error(entry):
    """An empty training set, ERM split or oracle target set raises
    DataError where it enters, before any fit or Gram factor."""
    with pytest.raises(DataError):
        ENTRY_POINTS[entry](np.array([]), np.array([], dtype=int))


def test_confidence_report_needs_d_and_k_on_the_categorical_path():
    for d, k in ((None, 2), (2, None)):
        name = "d" if d is None else "k"
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            confidence_report("categorical", 0.5, 800, 800, 0.1, 1.0, 1.0,
                              d=d, k=k)


def test_weight_of_an_estimate_without_anchors_raises():
    est = dataclasses.replace(_e4_at(0.1), beta=np.array([]),
                              anchors=np.array([]))
    with pytest.raises(ValueError, match="no anchors"):
        evaluate_weight(est, 1.0, [0.5])


def _burn_in_mom(T):
    return MomentEstimates(np.asarray(T, dtype=float), np.zeros(2),
                           np.zeros(2), 100, 100)


BURN_IN_NAN = {
    "categorical-alpha": lambda: check_burn_in_categorical(
        _burn_in_mom(np.eye(2)), 2, 2, NAN, 10 ** 9, 0.1),
    "categorical-n": lambda: check_burn_in_categorical(
        _burn_in_mom(np.eye(2)), 2, 2, 0.5, NAN, 0.1),
    "functional-n": lambda: check_burn_in_functional(NAN, 0.5, 0.1, 2.0),
    "functional-alpha": lambda: check_burn_in_functional(10 ** 9, NAN, 0.1, 2.0),
    "functional-proxy": lambda: check_burn_in_functional(10 ** 9, 0.5, 0.1, NAN),
}


@pytest.mark.parametrize("call", BURN_IN_NAN.values(), ids=BURN_IN_NAN.keys())
def test_burn_in_checks_reject_nan(call):
    """A NaN threshold made n >= required False, so a NaN input read as a
    silent "burn-in fails"; it now raises like the other entry checks."""
    with pytest.raises(ValueError):
        call()


def test_burn_in_checks_still_fail_on_an_infinite_proxy_or_rank_loss():
    """An infinite proxy and a rank-deficient T_hat are answers, not bad
    inputs: the threshold is infinite and the check returns False."""
    assert check_burn_in_functional(10 ** 12, 0.5, 0.1, np.inf) is False
    singular = _burn_in_mom([[1.0, 1.0], [1.0, 1.0]])
    assert check_burn_in_categorical(singular, 2, 2, 0.5, 10 ** 12, 0.1) is False


def test_burn_in_checks_return_python_bools():
    """Both checks answer with a Python bool on every branch, also when the
    threshold is a numpy float (the categorical SVD, a numpy proxy)."""
    full = _burn_in_mom(np.eye(2))
    assert check_burn_in_categorical(full, 2, 2, 0.5, 702, 0.1) is True
    assert check_burn_in_categorical(full, 2, 2, 0.5, 701, 0.1) is False
    singular = _burn_in_mom([[1.0, 1.0], [1.0, 1.0]])
    assert check_burn_in_categorical(singular, 2, 2, 0.5, 10 ** 12, 0.1) is False
    for proxy in (2.0, np.float64(2.0)):
        assert check_burn_in_functional(1100, 0.5, 0.1, proxy) is True
        assert check_burn_in_functional(1000, 0.5, 0.1, proxy) is False
