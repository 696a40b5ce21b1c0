"""Seeded experiment sweeps over the synthetic generators, with CSV output."""

import sys
import time
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from .categorical import check_burn_in_categorical, e1_direct, e2_regularized
from .concentration import categorical_radii, confidence_report, functional_radii
from .datagen import (CategoricalSynthConfig, RegressionSynthConfig,
                      gen_categorical, gen_regression, split_alpha,
                      true_weight_categorical, true_weight_function)
from .erm import blend_gamma, oracle_target_risk, weighted_erm
from .errors import ConfigError
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


@dataclass
class ExperimentConfig:
    scenario: str
    estimator: str
    statistic_mode: str
    sweep: tuple
    seeds: tuple
    n: int
    m: int                  # None means m = n per cell
    k: int
    alpha: float
    gamma: float
    delta: float
    noise_std: float
    a: float
    b: float
    bandwidth: float
    reg: object             # "auto" or a float
    reg_scale: float        # multiplies the auto radius used as E2/E4 weight
    theta_max: float
    run_erm: bool
    equal_masses: bool
    out: str

    @property
    def path(self):
        return "categorical" if self.estimator in ("E1", "E2") else "functional"


# ===================== config file parsing =====================

_INT_LIST = ("sweep", "seeds")
_INT = ("n", "m", "k")
_FLOAT = ("alpha", "gamma", "delta", "noise_std", "a", "b", "bandwidth",
          "reg_scale", "theta_max")
_BOOL = ("run_erm", "equal_masses")
_STR = ("scenario", "estimator", "statistic_mode", "out")
_ALL_KEYS = set(_INT_LIST) | set(_INT) | set(_FLOAT) | set(_BOOL) | set(_STR) | {"reg"}


def _parse_value(key, raw, lineno):
    try:
        if key in _INT_LIST:
            return tuple(int(v.strip()) for v in raw.split(",") if v.strip())
        if key in _INT:
            return int(raw)
        if key in _FLOAT:
            return float(raw)
        if key in _BOOL:
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        if key == "reg":
            return "auto" if raw.lower() == "auto" else float(raw)
        return raw
    except ValueError:
        raise ConfigError(f"line {lineno}: cannot parse {key} = {raw!r}",
                          line=lineno, field=key) from None


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
        value = value.strip()
        if key not in _ALL_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}",
                              line=lineno, field=key)
        raw[key] = _parse_value(key, value, lineno)
    return raw


def build_config(raw, seeds_override=None, out_override=None):
    """Validate the raw key dict and fill defaults."""
    def need(key):
        if key not in raw:
            raise ConfigError(f"missing required key {key!r}", field=key)
        return raw[key]

    scenario = need("scenario")
    if scenario not in SCENARIOS:
        raise ConfigError(f"unknown scenario {scenario!r}", field="scenario")
    estimator = need("estimator")
    if estimator not in ESTIMATORS:
        raise ConfigError(f"unknown estimator {estimator!r}", field="estimator")
    path = "categorical" if estimator in ("E1", "E2") else "functional"
    if scenario in ("categorical_vs_k", "categorical_vs_n") and path != "categorical":
        raise ConfigError(f"{estimator} requires a functional scenario",
                          field="estimator")
    if scenario == "functional_vs_n" and path != "functional":
        raise ConfigError(f"{estimator} requires a categorical scenario",
                          field="estimator")

    mode = raw.get("statistic_mode",
                   "simplex" if path == "categorical" else "kernel")
    if path == "categorical" and mode not in ("simplex", "hypercube"):
        raise ConfigError(f"statistic_mode {mode!r} invalid for {estimator}",
                          field="statistic_mode")
    if path == "functional" and mode != "kernel":
        raise ConfigError(f"statistic_mode {mode!r} invalid for {estimator}",
                          field="statistic_mode")

    seeds = tuple(seeds_override) if seeds_override is not None \
        else raw.get("seeds", ())
    if not seeds:
        raise ConfigError("seeds must be nonempty", field="seeds")

    sweep = raw.get("sweep", ())
    if scenario != "single_run":
        if not sweep:
            raise ConfigError(f"{scenario} needs a sweep", field="sweep")
        if any(b <= a for a, b in zip(sweep, sweep[1:])):
            raise ConfigError("sweep values must be strictly increasing",
                              field="sweep")

    cfg = ExperimentConfig(
        scenario=scenario,
        estimator=estimator,
        statistic_mode=mode,
        sweep=tuple(sweep),
        seeds=seeds,
        n=raw.get("n", 2000),
        m=raw.get("m"),
        k=raw.get("k", 4),
        alpha=raw.get("alpha", 0.5),
        gamma=raw.get("gamma", 1.0),
        delta=raw.get("delta", 0.1),
        noise_std=raw.get("noise_std", 0.5 if path == "categorical" else 0.1),
        a=raw.get("a", 0.2),
        b=raw.get("b", 0.8),
        bandwidth=raw.get("bandwidth", 0.9),
        reg=raw.get("reg", "auto"),
        reg_scale=raw.get("reg_scale", 1.0),
        theta_max=raw.get("theta_max", 10.0),
        run_erm=raw.get("run_erm", False),
        equal_masses=raw.get("equal_masses", False),
        out=out_override if out_override is not None else raw.get("out"),
    )

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


def load_config(path, seeds_override=None, out_override=None):
    with open(path, encoding="utf-8") as fh:
        raw = parse_config_text(fh.read())
    return build_config(raw, seeds_override, out_override)


# ===================== metrics =====================

def relative_error(estimate, oracle, path="categorical"):
    """L2 error over L2 oracle norm; functional inputs are evaluated on the
    uniform 100-point grid over [0, 1] (callables or pre-gridded arrays)."""
    if path == "functional":
        grid = np.linspace(0.0, 1.0, GRID_POINTS)
        est = np.asarray(estimate(grid) if callable(estimate) else estimate,
                         dtype=float)
        orc = np.asarray(oracle(grid) if callable(oracle) else oracle,
                         dtype=float)
    else:
        est = np.asarray(estimate, dtype=float)
        orc = np.asarray(oracle, dtype=float)
    denom = float(np.linalg.norm(orc))
    if denom == 0.0:
        raise ValueError("oracle has zero norm")
    return float(np.linalg.norm(est - orc)) / denom


# ===================== sweep runner =====================

def _cells(cfg):
    if cfg.scenario == "categorical_vs_k":
        return [(float(kv), cfg.n) for kv in cfg.sweep]
    if cfg.scenario in ("categorical_vs_n", "functional_vs_n"):
        label = float(cfg.k) if cfg.path == "categorical" else cfg.bandwidth
        return [(label, nv) for nv in cfg.sweep]
    label = float(cfg.k) if cfg.path == "categorical" else cfg.bandwidth
    return [(label, cfg.n)]


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
    proxy = 1.0 / est.diagnostics["sigma_min"]
    rep = confidence_report("categorical", cfg.alpha, n, m, cfg.delta, proxy,
                            cfg.theta_max, d=d, k=k)
    burn = check_burn_in_categorical(mom, d, k, cfg.alpha, n, cfg.delta)
    target_risk = None
    if cfg.run_erm:
        weights = blend_gamma(est.theta_hat, cfg.gamma)
        fit = weighted_erm((sp.erm_x, sp.erm_y), weights, "logistic", k=k,
                           gamma=cfg.gamma)
        target_risk = oracle_target_risk(fit.model, ds.target_x, ds.target_y_oracle)
    return rel, rep.epsilon_delta, burn, target_risk


def _run_functional_cell(cfg, n, m, seed):
    gen = RegressionSynthConfig(cfg.a, cfg.b, cfg.noise_std, seed)
    ds = gen_regression(gen, n, m)
    sp = split_alpha(ds, cfg.alpha, seed=seed)
    train = (sp.erm_x, sp.erm_y) if len(sp.erm_x) else (sp.est_x, sp.est_y)
    u = train_kernel_regressor(train, bandwidth=cfg.bandwidth)
    km = estimate_kernel_moments((sp.est_x, sp.est_y), ds.target_x, u,
                                 bandwidth=cfg.bandwidth)
    if cfg.estimator == "E3":
        est = e3_direct(km)
    else:
        lam = cfg.reg if cfg.reg != "auto" \
            else cfg.reg_scale * functional_radii(cfg.alpha, n, m, cfg.delta,
                                                  km.kappa_bar)[2]
        est = e4_regularized(km, lam)
    omega_true = true_weight_function(gen)
    rel = relative_error(lambda ys: evaluate_weight(est, 1.0, ys), omega_true,
                         "functional")
    proxy = operator_inverse_norm_proxy(km)
    rep = confidence_report("functional", cfg.alpha, n, m, cfg.delta, proxy,
                            cfg.theta_max, kappa_bar=km.kappa_bar)
    burn = check_burn_in_functional(n, cfg.alpha, cfg.delta, km.kappa_bar, proxy)
    target_risk = None
    if cfg.run_erm:
        fit = weighted_erm((sp.erm_x, sp.erm_y),
                           lambda ys: evaluate_weight(est, cfg.gamma, ys),
                           "kernel_ridge", gamma=cfg.gamma,
                           bandwidth=cfg.bandwidth)
        target_risk = oracle_target_risk(fit.model, ds.target_x, ds.target_y_oracle)
    return rel, rep.epsilon_delta, burn, target_risk


def run_experiment(cfg, quiet=True):
    """Execute every (sweep value, seed) cell; returns run rows plus one
    summary row per cell: medians over seeds, except burn_in_ok, which holds
    only when every seed passes.  Writes cfg.out when set."""
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
            if not quiet:
                print(f"[{cfg.scenario}] cell={label:g} n={n} seed={seed} "
                      f"rel_err={rel:.4g}", file=sys.stderr)
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
    cells = []
    for row in rows:
        key = (row["k_or_bandwidth"], row["n"], row["m"])
        if key not in cells:
            cells.append(key)
    out = []
    for key in cells:
        group = [r for r in rows
                 if (r["k_or_bandwidth"], r["n"], r["m"]) == key]
        tr = [r["target_risk"] for r in group]
        out.append({
            "scenario": group[0]["scenario"], "estimator": group[0]["estimator"],
            "statistic_mode": group[0]["statistic_mode"],
            "k_or_bandwidth": key[0], "n": key[1], "m": key[2],
            "seed": "median",
            "relative_error": float(np.median([r["relative_error"] for r in group])),
            "epsilon_delta": float(np.median([r["epsilon_delta"] for r in group])),
            "burn_in_ok": all(r["burn_in_ok"] for r in group),
            "target_risk": None if any(t is None for t in tr)
            else float(np.median(tr)),
            "wall_ms": float(np.median([r["wall_ms"] for r in group])),
        })
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
