"""Seeded experiment sweeps over the synthetic generators, with CSV output."""

import logging
import math
import statistics
import time
from dataclasses import MISSING, dataclass, fields
from datetime import datetime, timezone

import numpy as np

from .categorical import check_burn_in_categorical, e1_direct, e2_regularized
from .concentration import categorical_radii, confidence_report, functional_radii
from .datagen import (CategoricalSynthConfig, RegressionSynthConfig,
                      gen_categorical, gen_regression, split_alpha,
                      true_weight_categorical, true_weight_function)
from .erm import blend_gamma, oracle_target_risk, weighted_erm
from .errors import ConfigError, DataError
from .functional import (check_burn_in_functional, e3_direct, e4_regularized,
                         evaluate_weight, operator_inverse_norm_proxy)
from .moments import estimate_categorical_moments, estimate_kernel_moments
from .predictors import train_hypercube, train_kernel_regressor, train_simplex

SCENARIOS = ("categorical_vs_k", "categorical_vs_n", "functional_vs_n", "single_run")
ESTIMATORS = ("E1", "E2", "E3", "E4")
CSV_COLUMNS = ("scenario", "estimator", "statistic_mode", "k_or_bandwidth",
               "n", "m", "seed", "relative_error", "epsilon_delta",
               "burn_in_ok", "target_risk", "wall_ms")
GRID_POINTS = 100           # evaluation grid on [0, 1] for functional errors

logger = logging.getLogger("shiftweight")


@dataclass
class ExperimentConfig:
    """One experiment; each field is a config key with its type and default."""
    scenario: str
    estimator: str
    statistic_mode: str = None  # None: the path's default, set by build_config
    sweep: tuple = ()
    seeds: tuple = ()
    n: int = 2000
    m: int = None           # None means m = n per cell
    k: int = 4
    alpha: float = 0.5
    gamma: float = 1.0
    delta: float = 0.1
    noise_std: float = None  # None: the path's default, set by build_config
    a: float = 0.2
    b: float = 0.8
    bandwidth: float = 0.9
    reg: object = "auto"    # "auto" or a float
    reg_scale: float = 1.0  # multiplies the auto radius used as E2/E4 weight
    theta_max: float = 10.0
    run_erm: bool = False
    equal_masses: bool = False
    out: str = None

    @property
    def path(self):
        return "categorical" if self.estimator in ("E1", "E2") else "functional"


# ===================== config file parsing =====================

_FIELDS = {f.name: f for f in fields(ExperimentConfig)}


def _parse_value(key, raw, where, line=None):
    """The typed value of config key from its raw text; where ("line 3",
    "--seeds") starts the message of the ConfigError a bad key or value
    raises."""
    if key not in _FIELDS:
        raise ConfigError(f"{where}: unknown key {key!r}", line=line, field=key)
    kind = _FIELDS[key].type
    try:
        if kind is tuple:
            return tuple(int(v.strip()) for v in raw.split(",") if v.strip())
        if kind is bool:
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        if kind is object:
            return "auto" if raw.lower() == "auto" else float(raw)
        return kind(raw)
    except ValueError:
        raise ConfigError(f"{where}: cannot parse {key} = {raw!r}",
                          line=line, field=key) from None


def parse_config_text(text):
    """Flat key = value lines; '#' starts a comment; returns a raw dict."""
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key = value, got {line!r}",
                              line=lineno)
        key, _, value = stripped.partition("=")
        key = key.strip()
        raw[key] = _parse_value(key, value.strip(), f"line {lineno}", lineno)
    return raw


def build_config(raw):
    """Validate the raw key dict, rejecting unknown keys, and fill defaults."""
    for key in raw:
        if key not in _FIELDS:
            raise ConfigError(f"unknown key {key!r}", field=key)
    for f in _FIELDS.values():
        if f.default is MISSING and f.name not in raw:
            raise ConfigError(f"missing required key {f.name!r}", field=f.name)
    cfg = ExperimentConfig(**raw)
    cfg.sweep = tuple(cfg.sweep)

    if cfg.scenario not in SCENARIOS:
        raise ConfigError(f"unknown scenario {cfg.scenario!r}", field="scenario")
    if cfg.estimator not in ESTIMATORS:
        raise ConfigError(f"unknown estimator {cfg.estimator!r}", field="estimator")
    if cfg.scenario in ("categorical_vs_k", "categorical_vs_n") \
            and cfg.path != "categorical":
        raise ConfigError(f"{cfg.estimator} requires a functional scenario",
                          field="estimator")
    if cfg.scenario == "functional_vs_n" and cfg.path != "functional":
        raise ConfigError(f"{cfg.estimator} requires a categorical scenario",
                          field="estimator")

    categorical = cfg.path == "categorical"
    if cfg.statistic_mode is None:
        cfg.statistic_mode = "simplex" if categorical else "kernel"
    if cfg.noise_std is None:
        cfg.noise_std = 0.5 if categorical else 0.1
    modes = ("simplex", "hypercube") if categorical else ("kernel",)
    if cfg.statistic_mode not in modes:
        raise ConfigError(f"statistic_mode {cfg.statistic_mode!r} invalid for "
                          f"{cfg.estimator}", field="statistic_mode")

    if not cfg.seeds or min(cfg.seeds) < 0:
        raise ConfigError("seeds must be nonempty and nonnegative", field="seeds")
    if cfg.scenario != "single_run":
        if not cfg.sweep:
            raise ConfigError(f"{cfg.scenario} needs a sweep", field="sweep")
        if any(b <= a for a, b in zip(cfg.sweep, cfg.sweep[1:])):
            raise ConfigError("sweep values must be strictly increasing",
                              field="sweep")
        least = 2 if cfg.scenario == "categorical_vs_k" else 1
        if cfg.sweep[0] < least:
            raise ConfigError(f"sweep values must be at least {least}", field="sweep")

    # every float key (reg when it is not "auto") is finite; the ranges below
    # would let an inf noise_std, bandwidth, theta_max, reg or reg_scale by
    for key, value in vars(cfg).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{key} must be finite, got {value}", field=key)
    checks = [
        (0.0 < cfg.alpha <= 1.0, "alpha", "alpha must lie in (0, 1]"),
        (0.0 <= cfg.gamma <= 1.0, "gamma", "gamma must lie in [0, 1]"),
        (0.0 < cfg.delta < 1.0, "delta", "delta must lie in (0, 1)"),
        (cfg.k >= 2, "k", "k must be at least 2"),
        (cfg.n >= 1, "n", "n must be at least 1"),
        (cfg.m is None or cfg.m >= 1, "m", "m must be at least 1"),
        (cfg.noise_std > 0, "noise_std", "noise_std must be positive"),
        (0.0 < cfg.a < 1.0, "a", "a must lie in (0, 1)"),
        (0.0 < cfg.b < 1.0, "b", "b must lie in (0, 1)"),
        (cfg.bandwidth > 0, "bandwidth", "bandwidth must be positive"),
        (cfg.theta_max > 0, "theta_max", "theta_max must be positive"),
        (cfg.reg == "auto" or cfg.reg >= 0, "reg", "reg must be 'auto' or >= 0"),
        (cfg.reg_scale > 0, "reg_scale", "reg_scale must be positive"),
        (not (cfg.run_erm and cfg.alpha == 1.0), "run_erm",
         "run_erm needs alpha < 1 so an ERM split exists"),
    ]
    for ok, field_name, msg in checks:
        if not ok:
            raise ConfigError(msg, field=field_name)
    return cfg


def load_config(path, overrides=None):
    """The ExperimentConfig of the config file at path.  overrides maps keys
    to raw text given as command-line options (--seeds, --out); each is
    parsed as a file line would be and replaces the file's value."""
    with open(path, encoding="utf-8") as fh:
        raw = parse_config_text(fh.read())
    for key, text in (overrides or {}).items():
        raw[key] = _parse_value(key, text, f"--{key}")
    return build_config(raw)


# ===================== metrics =====================

def relative_error(estimate, oracle, path="categorical"):
    """L2 error over L2 oracle norm; functional inputs are evaluated on the
    uniform 100-point grid over [0, 1] (callables or pre-gridded arrays).
    An estimate whose shape differs from the oracle's raises DataError."""
    if path == "functional":
        grid = np.linspace(0.0, 1.0, GRID_POINTS)
        estimate, oracle = (f(grid) if callable(f) else f
                            for f in (estimate, oracle))
    est = np.asarray(estimate, dtype=float)
    orc = np.asarray(oracle, dtype=float)
    if est.shape != orc.shape:
        raise DataError(f"estimate of shape {est.shape} against an oracle of "
                        f"shape {orc.shape}")
    denom = float(np.linalg.norm(orc))
    if denom == 0.0:
        raise ValueError("oracle has zero norm")
    return float(np.linalg.norm(est - orc)) / denom


# ===================== sweep runner =====================

def _cells(cfg):
    label = float(cfg.k) if cfg.path == "categorical" else cfg.bandwidth
    if cfg.scenario == "categorical_vs_k":
        return [(float(kv), cfg.n) for kv in cfg.sweep]
    if cfg.scenario == "single_run":
        return [(label, cfg.n)]
    return [(label, nv) for nv in cfg.sweep]


def _run_categorical_cell(cfg, k, n, m, seed):
    gen = CategoricalSynthConfig(k, cfg.noise_std, seed,
                                 equal_masses=cfg.equal_masses)
    ds = gen_categorical(gen, n, m)
    sp = split_alpha(ds, cfg.alpha, seed=seed)
    train = (sp.erm_x, sp.erm_y) if len(sp.erm_x) else (sp.est_x, sp.est_y)
    trainer = train_simplex if cfg.statistic_mode == "simplex" else train_hypercube
    g = trainer(train, k)
    mom = estimate_categorical_moments((sp.est_x, sp.est_y), ds.target_x, g, k)
    d = g.output_dim
    if cfg.estimator == "E1":
        est = e1_direct(mom)
    else:
        delta_T = cfg.reg if cfg.reg != "auto" \
            else cfg.reg_scale * categorical_radii(d, k, cfg.alpha, n, m,
                                                   cfg.delta)[2]
        est = e2_regularized(mom, delta_T, theta_cap=cfg.theta_max)
    rel = relative_error(est.omega_hat, true_weight_categorical(gen), "categorical")
    rep = confidence_report("categorical", cfg.alpha, n, m, cfg.delta,
                            est.diagnostics["op_inv_norm"], cfg.theta_max,
                            d=d, k=k)
    burn = check_burn_in_categorical(mom, d, k, cfg.alpha, n, cfg.delta)
    target_risk = None
    if cfg.run_erm:
        weights = blend_gamma(est.theta_hat, cfg.gamma)
        start = None            # the least-squares start
        if g.coef is not None and np.all(weights > 0):
            # Prior-shift correction of the unweighted posterior (Saerens,
            # Latinne & Decaestecker 2002): the class weights enter the
            # logits as log-weights on the intercept, the last feature.
            # Without it, g.coef is far from the weighted minimizer.
            start = g.coef.copy()
            start[-1] += np.log(weights)
        fit = weighted_erm((sp.erm_x, sp.erm_y), weights, "logistic", k=k,
                           start=start)
        target_risk = oracle_target_risk(fit.model, ds.target_x, ds.target_y_oracle)
    return rel, rep.epsilon_delta, burn, target_risk


def _run_functional_cell(cfg, n, m, seed):
    gen = RegressionSynthConfig(cfg.a, cfg.b, cfg.noise_std, seed)
    ds = gen_regression(gen, n, m)
    sp = split_alpha(ds, cfg.alpha, seed=seed)
    on_erm = len(sp.erm_x) > 0
    train = (sp.erm_x, sp.erm_y) if on_erm else (sp.est_x, sp.est_y)
    u = train_kernel_regressor(train, bandwidth=cfg.bandwidth)
    km = estimate_kernel_moments((sp.est_x, sp.est_y), ds.target_x, u,
                                 bandwidth=cfg.bandwidth)
    if cfg.estimator == "E3":
        est = e3_direct(km)
    else:
        lam = cfg.reg if cfg.reg != "auto" \
            else cfg.reg_scale * functional_radii(cfg.alpha, n, m, cfg.delta)[2]
        est = e4_regularized(km, lam)
    omega_true = true_weight_function(gen)
    rel = relative_error(lambda ys: evaluate_weight(est, 1.0, ys), omega_true,
                         "functional")
    proxy = operator_inverse_norm_proxy(km)
    rep = confidence_report("functional", cfg.alpha, n, m, cfg.delta, proxy,
                            cfg.theta_max)
    burn = check_burn_in_functional(n, cfg.alpha, cfg.delta, proxy)
    target_risk = None
    if cfg.run_erm:
        # u's Gram factor is the ERM's own when u was fit on the ERM split
        fit = weighted_erm((sp.erm_x, sp.erm_y),
                           lambda ys: evaluate_weight(est, cfg.gamma, ys),
                           "kernel_ridge", bandwidth=cfg.bandwidth,
                           start=u.coef if on_erm else None)
        target_risk = oracle_target_risk(fit.model, ds.target_x, ds.target_y_oracle)
    return rel, rep.epsilon_delta, burn, target_risk


def run_experiment(cfg):
    """Execute every (sweep value, seed) cell; returns run rows plus one
    summary row per cell: medians over seeds, except burn_in_ok, which holds
    only when every seed passes.  Logs one INFO line per cell to the
    shiftweight logger.  Writes cfg.out when set."""
    rows = []
    for label, n in _cells(cfg):
        m = cfg.m if cfg.m is not None else n
        for seed in sorted(cfg.seeds):
            t0 = time.perf_counter()
            if cfg.path == "categorical":
                rel, eps, burn, trisk = _run_categorical_cell(
                    cfg, int(label), n, m, seed)
            else:
                rel, eps, burn, trisk = _run_functional_cell(cfg, n, m, seed)
            wall_ms = (time.perf_counter() - t0) * 1000.0
            logger.info("[%s] cell=%g n=%d seed=%d rel_err=%.4g",
                        cfg.scenario, label, n, seed, rel)
            rows.append({
                "scenario": cfg.scenario, "estimator": cfg.estimator,
                "statistic_mode": cfg.statistic_mode, "k_or_bandwidth": label,
                "n": n, "m": m, "seed": seed, "relative_error": rel,
                "epsilon_delta": eps, "burn_in_ok": burn,
                "target_risk": trisk, "wall_ms": wall_ms,
            })
    rows.extend(_summaries(rows))
    if cfg.out:
        write_csv(cfg.out, rows)
    return rows


def _summaries(rows):
    groups = {}
    for row in rows:
        key = (row["k_or_bandwidth"], row["n"], row["m"])
        groups.setdefault(key, []).append(row)
    out = []
    for group in groups.values():
        summary = dict(group[0], seed="median",
                       burn_in_ok=all(r["burn_in_ok"] for r in group))
        for col in ("relative_error", "epsilon_delta", "target_risk", "wall_ms"):
            values = [r[col] for r in group]
            summary[col] = None if None in values else float(statistics.median(values))
        out.append(summary)
    return out


# ===================== CSV output =====================

def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    return "%.9g" % value


def rows_to_csv(rows, timestamp=None):
    stamp = timestamp or datetime.now(timezone.utc).isoformat(timespec="seconds")
    lines = [f"# generated {stamp}", ",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join(_fmt(row[c]) for c in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def write_csv(path, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(rows_to_csv(rows))
