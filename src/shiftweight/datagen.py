"""Synthetic label-shift generators with analytic ground-truth importance weights."""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import require_counts


@dataclass(frozen=True)
class CategoricalSynthConfig:
    num_classes: int
    noise_std: float = 0.5
    seed: int = 0
    # test-only override: equal raw masses remove the shift (P = Q, theta = 0)
    equal_masses: bool = False

    def __post_init__(self):
        if not isinstance(self.num_classes, numbers.Integral) or self.num_classes < 2:
            raise ValueError(f"num_classes must be an integer >= 2, got {self.num_classes}")
        if not self.noise_std > 0:
            raise ValueError(f"noise_std must be positive, got {self.noise_std}")


@dataclass(frozen=True)
class RegressionSynthConfig:
    a: float            # source tilt, density 1 - a + 2ay on [0, 1]
    b: float            # target tilt
    noise_std: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.a < 1.0:
            raise ValueError(f"a must lie in (0, 1), got {self.a}")
        if not 0.0 < self.b < 1.0:
            raise ValueError(f"b must lie in (0, 1), got {self.b}")
        if not self.noise_std > 0:
            raise ValueError(f"noise_std must be positive, got {self.noise_std}")


@dataclass
class Dataset:
    source_x: np.ndarray
    source_y: np.ndarray
    target_x: np.ndarray
    # target labels are generated then discarded from the estimation problem;
    # this oracle handle keeps them for ERM evaluation only
    target_y_oracle: np.ndarray = None

    @property
    def n(self):
        return len(self.source_x)

    @property
    def m(self):
        return len(self.target_x)


@dataclass
class Split:
    est_x: np.ndarray
    est_y: np.ndarray
    erm_x: np.ndarray
    erm_y: np.ndarray
    est_idx: np.ndarray
    erm_idx: np.ndarray


def label_masses(cfg):
    """Source and target label marginals (P_Y, Q_Y) of the categorical generator.

    Raw masses are 1/k on even class indices and 3/k on odd ones, normalized;
    the target swaps the two roles.
    """
    k = cfg.num_classes
    p = np.zeros(k)
    q = np.zeros(k)
    if cfg.equal_masses:
        p[:] = 1.0 / k
        q[:] = 1.0 / k
    else:
        p[0:k:2] = 1.0 / k
        p[1:k:2] = 3.0 / k
        q[0:k:2] = 3.0 / k
        q[1:k:2] = 1.0 / k
        p = p / p.sum()
        q = q / q.sum()
    return p, q


def _draw_centers(cfg, rng):
    # the first draws of the generator's stream, so the seed alone fixes them
    z = rng.normal(size=cfg.num_classes)
    return np.arange(cfg.num_classes) + cfg.noise_std * z


def class_centers(cfg):
    """Per-class covariate centers: class c sits at c plus one seeded Gaussian offset."""
    return _draw_centers(cfg, np.random.default_rng(cfg.seed))


def true_weight_categorical(cfg):
    """Analytic importance weight vector Q_Y / P_Y."""
    p, q = label_masses(cfg)
    return q / p


def true_weight_function(cfg):
    """Analytic importance weight function (2by + 1 - b) / (2ay + 1 - a)."""
    a, b = cfg.a, cfg.b

    def omega(y):
        y = np.asarray(y, dtype=float)
        return (2.0 * b * y + 1.0 - b) / (2.0 * a * y + 1.0 - a)

    return omega


def source_density(cfg):
    """Source label density 1 - a + 2ay on [0, 1]."""
    a = cfg.a

    def pdf(y):
        y = np.asarray(y, dtype=float)
        return 1.0 - a + 2.0 * a * y

    return pdf


def gen_categorical(cfg, n, m):
    """Draw a categorical label-shift dataset; deterministic given cfg.seed."""
    require_counts(n=n, m=m)
    p, q = label_masses(cfg)
    rng = np.random.default_rng(cfg.seed)
    centers = _draw_centers(cfg, rng)
    sy = rng.choice(cfg.num_classes, size=n, p=p)
    sx = centers[sy] + cfg.noise_std * rng.normal(size=n)
    ty = rng.choice(cfg.num_classes, size=m, p=q)
    tx = centers[ty] + cfg.noise_std * rng.normal(size=m)
    return Dataset(sx, sy, tx, target_y_oracle=ty)


def _inv_cdf_tilted(u, a):
    # CDF is (1-a)y + a y^2; the root in [0, 1] of the quadratic
    if a < 1e-9:
        return np.asarray(u, dtype=float)
    c = 1.0 - a
    return (-c + np.sqrt(c * c + 4.0 * a * u)) / (2.0 * a)


def gen_regression(cfg, n, m):
    """Draw a regression label-shift dataset on [0, 1]; deterministic given cfg.seed."""
    require_counts(n=n, m=m)
    rng = np.random.default_rng(cfg.seed)
    sy = _inv_cdf_tilted(rng.random(n), cfg.a)
    sx = sy + cfg.noise_std * rng.normal(size=n)
    ty = _inv_cdf_tilted(rng.random(m), cfg.b)
    tx = ty + cfg.noise_std * rng.normal(size=m)
    return Dataset(sx, sy, tx, target_y_oracle=ty)


def split_alpha(ds, alpha, seed=0):
    """Seeded random partition of the source into estimation and ERM subsets.

    Sizes are ceil(alpha * n) and n - ceil(alpha * n).
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    n = ds.n
    n_est = math.ceil(alpha * n)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    est_idx = np.sort(perm[:n_est])
    erm_idx = np.sort(perm[n_est:])
    return Split(ds.source_x[est_idx], ds.source_y[est_idx],
                 ds.source_x[erm_idx], ds.source_y[erm_idx],
                 est_idx, erm_idx)
