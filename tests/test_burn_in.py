"""Both burn-in checks read the operator radius that confidence_report
evaluates: n is past burn-in when 2 ||T^-1|| delta_T(delta / 3) <= 1.  That
is the closed-form sample threshold of the direct estimators,
(32 / alpha) ||T^-1||^2 d log(6 (d + k) / delta) on the categorical path and
(32 / alpha) ||T^-1||^2 kappa^2 log(6 / delta) on the kernel path, so the
checks answer as the threshold does at every n outside rounding distance of
it."""

import math

import numpy as np
import pytest

from shiftweight import check_burn_in_categorical, check_burn_in_functional
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
    for kappa_bar in (0.0, 0.5, 1.0):
        for proxy in PROXIES:
            # NaN for an infinite proxy at kappa_bar 0, where n >= required
            # is False
            required = ((32.0 / alpha) * proxy ** 2 * kappa_bar ** 2
                        * math.log(6.0 / delta))
            for n in _ns_around(required):
                assert check_burn_in_functional(n, alpha, delta, kappa_bar, proxy) \
                    is bool(n >= required), (kappa_bar, proxy, n)


def test_zero_samples_raise():
    """The operator radius is not defined at n = 0, so neither check takes it."""
    with pytest.raises(ValueError):
        check_burn_in_categorical(_operator(2, 2, 1.0), 2, 2, 0.5, 0, 0.1)
    with pytest.raises(ValueError):
        check_burn_in_functional(0, 0.5, 0.1, 1.0, 0.0)
