"""Both burn-in checks read the operator radius that confidence_report
evaluates: n is past burn-in when 2 ||T^-1|| delta_T(delta / 3) <= 1.  That
is the closed-form sample threshold of the direct estimators,
(32 / alpha) ||T^-1||^2 d log(6 (d + k) / delta) on the categorical path and
(32 / alpha) ||T^-1||^2 log(6 / delta) on the kernel path, so the
checks answer as the threshold does at every n outside rounding distance of
it."""

import itertools
import math

import numpy as np
import pytest

from shiftweight import (check_burn_in_categorical, check_burn_in_functional,
                         confidence_report, e2_regularized)
from shiftweight.moments import MomentEstimates

ALPHAS = (0.3, 0.5, 0.9)
DELTAS = (0.01, 0.1, 0.5)
PROXIES = (0.0, 0.5, 2.0, 40.0, math.inf)


def _ns_around(required):
    """Sample sizes on either side of the threshold, none within 1e-9
    relative of it."""
    if not 0.0 < required < math.inf:
        return (1, 10 ** 12)
    ns = (math.floor(required), math.ceil(required), required * (1 - 2e-9),
          required * (1 + 2e-9), required / 2, 2 * required)
    return [n for n in ns if n > 0 and abs(n - required) > 1e-9 * required]


def _operator(d, k, proxy):
    """A d x k T_hat whose pseudo-inverse norm is proxy: singular values
    k / proxy, ..., 2 / proxy, 1 / proxy; k - 1, ..., 1, 0 when proxy is
    inf."""
    T = np.zeros((d, k))
    for i in range(min(d, k)):
        T[i, i] = (k - i) / proxy if proxy < math.inf else k - 1 - i
    return MomentEstimates(T, np.zeros(d), np.zeros(d), 100, 100)


@pytest.mark.parametrize("delta", DELTAS)
@pytest.mark.parametrize("alpha", ALPHAS)
def test_categorical_check_agrees_with_the_closed_form(alpha, delta):
    for d in range(2, 9):
        for k in range(2, 9):
            for proxy in PROXIES[1:]:
                mom = _operator(d, k, proxy)
                s = np.linalg.svd(mom.T_hat, compute_uv=False)
                full_rank = d >= k and s[-1] > 1e-12 * s[0]
                inv_norm = 1.0 / s[-1] if full_rank else math.inf
                required = ((32.0 / alpha) * inv_norm ** 2 * d
                            * math.log(6.0 * (d + k) / delta))
                for n in _ns_around(required):
                    assert check_burn_in_categorical(mom, d, k, alpha, n, delta) \
                        is bool(n >= required), (d, k, proxy, n)


@pytest.mark.parametrize("delta", DELTAS)
@pytest.mark.parametrize("alpha", ALPHAS)
def test_functional_check_agrees_with_the_closed_form(alpha, delta):
    for proxy in PROXIES:
        required = (32.0 / alpha) * proxy ** 2 * math.log(6.0 / delta)
        for n in _ns_around(required):
            assert check_burn_in_functional(n, alpha, delta, proxy) \
                is bool(n >= required), (proxy, n)


def test_zero_samples_raise():
    """The operator radius is not defined at n = 0, so neither check takes it."""
    with pytest.raises(ValueError):
        check_burn_in_categorical(_operator(2, 2, 1.0), 2, 2, 0.5, 0, 0.1)
    with pytest.raises(ValueError):
        check_burn_in_functional(0, 0.5, 0.1, 0.0)


@pytest.mark.parametrize("path", ("categorical", "functional"))
def test_checks_read_the_radius_the_report_gives(path):
    """Each check is 2 ||T^+|| delta_T <= 1 with the delta_T that
    confidence_report gives at the same alpha, n and delta, for any target
    count m: the report and the burn-in test take one radius."""
    shapes = ((2, 2), (5, 3), (3, 5)) if path == "categorical" else ((None, None),)
    answers = set()
    for alpha, delta, proxy, (d, k) in itertools.product(
            ALPHAS, DELTAS, PROXIES[1:4], shapes):
        mom = _operator(d, k, proxy) if d else None
        # the norm the categorical check reads off T_hat's SVD, inf at d < k
        norm = e2_regularized(mom, 0.0).diagnostics["op_inv_norm"] if d else proxy
        # delta_T scales as n^-1/2, so the report at n = 1000 places the
        # threshold; n is taken 1% either side of it and far from it
        at_1000 = confidence_report(path, alpha, 1000, 1000, delta, 1.0, 1.0,
                                    d=d, k=k).delta_T
        required = 1000 * (2.0 * norm * at_1000) ** 2
        for n in (10, 10 ** 9, 0.99 * required, 1.01 * required):
            if not 0 < n < math.inf:
                continue
            reps = [confidence_report(path, alpha, n, m, delta, 1.0, 1.0, d=d, k=k)
                    for m in (n, 7, 5 * n)]
            assert reps[1].delta_T == reps[0].delta_T == reps[2].delta_T
            expected = 2.0 * norm * reps[1].delta_T <= 1.0
            if path == "categorical":
                check = check_burn_in_categorical(mom, d, k, alpha, n, delta)
            else:
                check = check_burn_in_functional(n, alpha, delta, norm)
            assert check is expected, (alpha, delta, proxy, d, k, n)
            answers.add(check)
    assert answers == {True, False}
