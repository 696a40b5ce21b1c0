"""The weighted multinomial logistic fit behind the simplex statistic and
logistic ERM: convergence to the minimizer, and a typed failure at the cap."""

import numpy as np
import pytest

from shiftweight import (CategoricalSynthConfig, IllConditioned,
                         gen_categorical, split_alpha, train_simplex)
from shiftweight import predictors
from shiftweight.predictors import (REG, feature_plan,
                                    fit_multinomial_logistic, rbf_features)


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
    W = fit_multinomial_logistic(feats, y, 4, sample_weight=w)
    z = feats @ W
    probs = np.exp(z - z.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    grad = feats.T @ ((probs - np.eye(4)[y]) * w[:, None]) / len(y) + REG * W
    assert np.linalg.norm(grad) <= 1e-10


def test_fit_raises_instead_of_returning_a_capped_iterate(monkeypatch):
    monkeypatch.setattr(predictors, "NEWTON_MAX_STEPS", 1)
    rng = np.random.default_rng(11)
    x = rng.normal(size=120)
    y = np.repeat(np.arange(3), 40)
    with pytest.raises(IllConditioned, match="not converged"):
        train_simplex((x, y), 3)
