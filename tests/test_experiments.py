"""Config parsing, the sweep runner, and CSV serialization."""

import json
import math
import os
import subprocess
import sys
from dataclasses import MISSING, fields

import numpy as np
import pytest

import shiftweight
from shiftweight import (ConfigError, DataError, ExperimentConfig,
                         RegressionSynthConfig, build_config, load_config,
                         relative_error, rows_to_csv, run_experiment,
                         true_weight_function)
from shiftweight import experiments, moments, predictors
from shiftweight.experiments import CSV_COLUMNS, _summaries, parse_config_text

BASE = {
    "scenario": "single_run",
    "estimator": "E1",
    "seeds": (0, 1),
    "n": 400,
    "k": 3,
}


def _cfg(**over):
    raw = dict(BASE)
    raw.update(over)
    return build_config(raw)


# ===================== parsing =====================

def test_parse_ignores_comments_and_blank_lines():
    raw = parse_config_text(
        "# full-line comment\n"
        "\n"
        "scenario = single_run   # trailing comment\n"
        "estimator=E1\n"
        "seeds = 0, 1, 2\n")
    assert raw["scenario"] == "single_run"
    assert raw["estimator"] == "E1"
    assert raw["seeds"] == (0, 1, 2)


def test_parse_unknown_key_reports_line():
    with pytest.raises(ConfigError) as exc:
        parse_config_text("scenario = single_run\nsseed = 3\n")
    assert exc.value.line == 2
    assert "sseed" in str(exc.value)


def test_parse_bad_value_reports_key_and_line():
    with pytest.raises(ConfigError) as exc:
        parse_config_text("alpha = half\n")
    assert exc.value.line == 1
    assert exc.value.field == "alpha"


def test_parse_missing_equals_sign():
    with pytest.raises(ConfigError):
        parse_config_text("scenario single_run\n")


def test_parse_reg_auto_and_float():
    assert parse_config_text("reg = auto\n")["reg"] == "auto"
    assert parse_config_text("reg = 0.25\n")["reg"] == 0.25


@pytest.mark.parametrize("raw", ("false", "0", "no", "No"))
def test_parse_bool_false_spellings(raw):
    assert parse_config_text(f"run_erm = {raw}\n")["run_erm"] is False


def test_parse_bool_rejects_other_values():
    with pytest.raises(ConfigError) as exc:
        parse_config_text("equal_masses = maybe\n")
    assert exc.value.field == "equal_masses" and exc.value.line == 1


def test_parse_and_build_every_key():
    """A file that sets every key away from its default builds exactly the
    config it spells out."""
    raw = parse_config_text(
        "scenario = categorical_vs_k\n"
        "estimator = E2\n"
        "statistic_mode = hypercube\n"
        "sweep = 2, 3, 5\n"
        "seeds = 4, 5\n"
        "n = 900\n"
        "m = 700\n"
        "k = 3\n"
        "alpha = 0.4\n"
        "gamma = 0.25\n"
        "delta = 0.05\n"
        "noise_std = 0.3\n"
        "a = 0.35\n"
        "b = 0.65\n"
        "bandwidth = 0.6\n"
        "reg = 0.02\n"
        "reg_scale = 0.1\n"
        "theta_max = 7.5\n"
        "run_erm = yes\n"
        "equal_masses = 1\n"
        "out = sweep.csv\n")
    cfg = build_config(raw)
    assert cfg == ExperimentConfig(
        scenario="categorical_vs_k", estimator="E2", statistic_mode="hypercube",
        sweep=(2, 3, 5), seeds=(4, 5), n=900, m=700, k=3, alpha=0.4,
        gamma=0.25, delta=0.05, noise_std=0.3, a=0.35, b=0.65, bandwidth=0.6,
        reg=0.02, reg_scale=0.1, theta_max=7.5, run_erm=True,
        equal_masses=True, out="sweep.csv")
    assert set(raw) == {f.name for f in fields(ExperimentConfig)}
    for f in fields(ExperimentConfig):
        assert f.default is MISSING or getattr(cfg, f.name) != f.default, f.name


def test_build_rejects_unknown_key():
    with pytest.raises(ConfigError) as exc:
        build_config(dict(BASE, reg_scal=0.1))
    assert exc.value.field == "reg_scal"


def test_build_requires_scenario_estimator_seeds():
    for missing in ("scenario", "estimator", "seeds"):
        raw = dict(BASE)
        del raw[missing]
        with pytest.raises(ConfigError) as exc:
            build_config(raw)
        assert exc.value.field == missing


def test_build_rejects_path_mismatch():
    with pytest.raises(ConfigError):
        _cfg(scenario="categorical_vs_n", estimator="E3", sweep=(100, 200))
    with pytest.raises(ConfigError):
        _cfg(scenario="functional_vs_n", estimator="E2", sweep=(100, 200))
    with pytest.raises(ConfigError):
        _cfg(statistic_mode="kernel")  # E1 is categorical-only


def test_build_rejects_unknown_scenario_and_estimator():
    for key, bad in (("scenario", "categorical_vs_m"), ("estimator", "E5")):
        with pytest.raises(ConfigError) as exc:
            _cfg(**{key: bad})
        assert exc.value.field == key


@pytest.mark.parametrize("scenario", ("categorical_vs_k", "categorical_vs_n"))
def test_build_rejects_a_sweep_scenario_without_a_sweep(scenario):
    with pytest.raises(ConfigError) as exc:
        _cfg(scenario=scenario)
    assert exc.value.field == "sweep"


def test_build_rejects_non_increasing_sweep():
    with pytest.raises(ConfigError) as exc:
        _cfg(scenario="categorical_vs_n", sweep=(500, 500, 1000))
    assert exc.value.field == "sweep"


def test_build_validates_ranges():
    for key, bad in (("alpha", 0.0), ("gamma", 1.5), ("delta", 1.0),
                     ("k", 1), ("noise_std", 0.0), ("a", 1.0),
                     ("reg_scale", 0.0), ("theta_max", -1.0),
                     ("seeds", (-1,)), ("seeds", (0, -3)),
                     ("noise_std", math.inf), ("reg", math.inf),
                     ("reg_scale", math.inf), ("theta_max", math.inf),
                     ("bandwidth", math.inf)):
        with pytest.raises(ConfigError) as exc:
            _cfg(**{key: bad})
        assert exc.value.field == key
    # sweep values the cells would reject as a raw ValueError (exit 1)
    for scenario, estimator, sweep in (("categorical_vs_k", "E1", (1, 2)),
                                       ("categorical_vs_n", "E1", (0, 200)),
                                       ("functional_vs_n", "E3", (-5, 200))):
        with pytest.raises(ConfigError) as exc:
            _cfg(scenario=scenario, estimator=estimator, sweep=sweep)
        assert exc.value.field == "sweep"
    with pytest.raises(ConfigError):
        _cfg(reg=-0.5)


FLOAT_KEYS = [f.name for f in fields(ExperimentConfig)
              if f.type is float or f.name == "reg"]


@pytest.mark.parametrize("bad", (math.inf, -math.inf, math.nan))
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_every_float_key_rejects_non_finite_values(key, bad):
    """Walks the config's fields, so a new float key cannot ship without
    the finiteness check: a range written as a comparison lets inf through
    (noise_std > 0), and NaN can only fail it by the comparison's form."""
    with pytest.raises(ConfigError, match=key) as exc:
        _cfg(**{key: bad})
    assert exc.value.field == key


def test_float_keys_are_the_expected_ones():
    """The walk above sees every float key; under string annotations f.type
    would not be float, and it would check reg alone."""
    assert set(FLOAT_KEYS) == {"alpha", "gamma", "delta", "noise_std", "a",
                               "b", "bandwidth", "reg", "reg_scale",
                               "theta_max"}


def test_build_seeds_override_replaces_file_seeds(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("scenario = single_run\nestimator = E1\nseeds = 0, 1\n",
                    encoding="utf-8")
    cfg = load_config(path, {"seeds": "7, 8, 9"})
    assert cfg.seeds == (7, 8, 9)
    assert load_config(path).seeds == (0, 1)


def test_override_is_parsed_as_a_file_line_is(tmp_path):
    """A command-line value goes through the file's parser and checks, and
    its errors name the option."""
    path = tmp_path / "run.cfg"
    path.write_text("scenario = single_run\nestimator = E1\nseeds = 0\n",
                    encoding="utf-8")
    with pytest.raises(ConfigError, match="--seeds: cannot parse seeds") as exc:
        load_config(path, {"seeds": "a,b"})
    assert exc.value.field == "seeds" and exc.value.line is None
    with pytest.raises(ConfigError, match="--wat: unknown key 'wat'"):
        load_config(path, {"wat": "1"})
    with pytest.raises(ConfigError, match="seeds must be nonempty"):
        load_config(path, {"seeds": " , "})


def test_build_defaults():
    cfg = _cfg()
    assert cfg.m is None and cfg.reg == "auto" and cfg.reg_scale == 1.0
    assert cfg.statistic_mode == "simplex" and cfg.path == "categorical"
    assert _cfg(estimator="E4").statistic_mode == "kernel"


# ===================== relative error =====================

def test_relative_error_hand_example():
    orc = np.array([3.0, 1.0 / 3, 3.0, 1.0 / 3])
    est = orc + np.array([0.1, 0.0, 0.0, 0.0])
    assert relative_error(est, orc) == pytest.approx(0.02342606428329091,
                                                     abs=1e-15)


def test_relative_error_grid_baseline():
    """The constant guess omega = 1 against the a = 0.2, b = 0.8 tilt on the
    evaluation grid; value cross-checked by plain scalar summation."""
    cfg = RegressionSynthConfig(0.2, 0.8)
    rel = relative_error(np.ones(100), true_weight_function(cfg), "functional")
    assert rel == pytest.approx(0.35469544394204133, rel=1e-12)


def test_relative_error_accepts_callables_on_grid():
    rel = relative_error(lambda ys: 2.0 * np.ones_like(ys),
                         lambda ys: np.ones_like(ys), "functional")
    assert rel == pytest.approx(1.0, abs=1e-14)


def test_relative_error_zero_norm_oracle_raises():
    with pytest.raises(ValueError):
        relative_error(np.ones(3), np.zeros(3))


@pytest.mark.parametrize("estimate, oracle, path", (
    (np.ones(3), np.ones(1), "categorical"),
    (np.ones((3, 1)), np.ones(3), "categorical"),
    (lambda ys: np.ones((len(ys), 1)), lambda ys: np.ones(len(ys)),
     "functional")))
def test_relative_error_rejects_an_estimate_of_the_wrong_shape(estimate,
                                                                oracle, path):
    """numpy broadcast the difference, so each of these read as error 0."""
    with pytest.raises(DataError, match="shape"):
        relative_error(estimate, oracle, path)


# ===================== runner =====================

def test_single_run_rows_and_summary():
    cfg = _cfg(seeds=(0, 1, 2), n=400)
    rows = run_experiment(cfg)
    assert len(rows) == 4
    run_rows, summary = rows[:3], rows[3]
    assert [r["seed"] for r in run_rows] == [0, 1, 2]
    assert summary["seed"] == "median"
    assert set(rows[0]) == set(CSV_COLUMNS)
    med = float(np.median([r["relative_error"] for r in run_rows]))
    assert summary["relative_error"] == med
    assert summary["target_risk"] is None


def test_sweep_produces_one_cell_per_value():
    cfg = _cfg(scenario="categorical_vs_n", sweep=(200, 400), seeds=(0,))
    rows = run_experiment(cfg)
    assert len(rows) == 4  # 2 cells x 1 seed + 2 summaries
    assert [r["n"] for r in rows] == [200, 400, 200, 400]
    assert all(r["m"] == r["n"] for r in rows)


def test_sweep_over_k_keeps_n_fixed():
    cfg = _cfg(scenario="categorical_vs_k", sweep=(2, 4), seeds=(0,), n=300)
    rows = run_experiment(cfg)
    assert [r["k_or_bandwidth"] for r in rows] == [2.0, 4.0, 2.0, 4.0]
    assert all(r["n"] == 300 for r in rows)


def test_no_shift_error_within_reported_bound():
    """With equal masses nothing shifts; the realized coefficient error
    norm must sit inside the per-row epsilon_delta."""
    cfg = _cfg(seeds=(0, 1, 2, 3), n=2000, k=4, equal_masses=True)
    rows = run_experiment(cfg)
    for row in rows[:-1]:
        err_norm = row["relative_error"] * 2.0  # ||omega_true|| = sqrt(k)
        assert err_norm <= row["epsilon_delta"]


def test_runner_with_erm_fills_target_risk():
    cfg = _cfg(seeds=(0,), n=400, run_erm=True)
    rows = run_experiment(cfg)
    assert all(0.0 <= r["target_risk"] <= 1.0 for r in rows)


def test_functional_single_run_smoke():
    cfg = _cfg(estimator="E4", seeds=(0,), n=300, a=0.2, b=0.8)
    rows = run_experiment(cfg)
    assert rows[0]["relative_error"] < 1.0
    assert rows[0]["k_or_bandwidth"] == cfg.bandwidth


@pytest.mark.parametrize("estimator", ("E3", "E4"))
def test_functional_erm_cell_builds_three_gram_factors(estimator, monkeypatch):
    """One factor each over u's training covariates, the anchor labels and
    the u-images; the kernel-ridge ERM fits on u's factor, since u was fit
    on the ERM split at the same bandwidth."""
    sizes = []
    factor = predictors.gaussian_pivoted_cholesky

    def counted(points, bandwidth):
        sizes.append(len(points))
        return factor(points, bandwidth)

    monkeypatch.setattr(predictors, "gaussian_pivoted_cholesky", counted)
    monkeypatch.setattr(moments, "gaussian_pivoted_cholesky", counted)
    run_experiment(_cfg(estimator=estimator, run_erm=True, seeds=(0,)))
    assert sizes == [200, 200, 600]


@pytest.mark.parametrize("estimator", ("E3", "E4"))
def test_functional_empty_erm_split_is_reported(estimator, monkeypatch):
    """At n = 1 the ERM split is empty and u is fit on the estimation split,
    so its factor is not the ERM covariates' and the runner passes none;
    the ERM's empty-split error is what the cell raises."""
    starts = []
    erm = experiments.weighted_erm

    def spy(*args, **kwargs):
        starts.append(kwargs["start"])
        return erm(*args, **kwargs)

    monkeypatch.setattr(experiments, "weighted_erm", spy)
    with pytest.raises(DataError, match="empty ERM split"):
        run_experiment(_cfg(estimator=estimator, n=1, run_erm=True, seeds=(0,)))
    assert starts == [None]


def test_runner_deterministic_modulo_wall_time():
    cfg = _cfg(seeds=(0, 1), n=300)
    first = run_experiment(cfg)
    second = run_experiment(cfg)
    for a, b in zip(first, second):
        a = {k: v for k, v in a.items() if k != "wall_ms"}
        b = {k: v for k, v in b.items() if k != "wall_ms"}
        assert a == b


# ===================== CSV =====================

def _row(**over):
    row = {
        "scenario": "single_run", "estimator": "E1",
        "statistic_mode": "simplex", "k_or_bandwidth": 3.0, "n": 400,
        "m": 400, "seed": 0, "relative_error": 0.123456789123,
        "epsilon_delta": 1.5, "burn_in_ok": True, "target_risk": None,
        "wall_ms": 12.5,
    }
    row.update(over)
    return row


# Runs small functional_vs_n (E3, E4) and categorical_vs_n (E2) sweeps and
# prints their metric columns as JSON; executed in a fresh interpreter so
# that OPENBLAS_NUM_THREADS takes effect.
_THREAD_RUN = """
import json
from shiftweight import build_config, run_experiment
common = {"sweep": (300, 600), "seeds": (0, 1), "reg_scale": 0.1,
          "run_erm": True}
out = []
for est, scen in (("E3", "functional_vs_n"), ("E4", "functional_vs_n"),
                  ("E2", "categorical_vs_n")):
    rows = run_experiment(build_config(dict(common, estimator=est,
                                            scenario=scen)))
    out.append([[r["relative_error"], r["epsilon_delta"], r["target_risk"]]
                for r in rows])
print(json.dumps(out))
"""


def _run_with_blas_threads(threads):
    src = os.path.dirname(os.path.dirname(shiftweight.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(
                   [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-c", _THREAD_RUN], env=env,
                          capture_output=True, text=True, check=True,
                          timeout=600)
    return np.array(json.loads(done.stdout.splitlines()[-1]), dtype=float)


def test_results_do_not_depend_on_the_blas_thread_count():
    one, two = _run_with_blas_threads(1), _run_with_blas_threads(2)
    np.testing.assert_allclose(two, one, rtol=1e-9, atol=0.0)


def test_csv_fixed_timestamp_and_header():
    text = rows_to_csv([_row()], timestamp="2026-01-01T00:00:00+00:00")
    lines = text.split("\n")
    assert lines[0] == "# generated 2026-01-01T00:00:00+00:00"
    assert lines[1] == ",".join(CSV_COLUMNS)
    assert text.endswith("\n") and "\r" not in text


def test_csv_value_formatting():
    text = rows_to_csv([_row()], timestamp="t")
    fields = text.split("\n")[2].split(",")
    by_col = dict(zip(CSV_COLUMNS, fields))
    assert by_col["relative_error"] == "0.123456789"  # nine significant digits
    assert by_col["burn_in_ok"] == "1"
    assert by_col["target_risk"] == ""
    assert by_col["n"] == "400"
    assert by_col["seed"] == "0"


def test_csv_bool_false_and_median_row():
    text = rows_to_csv([_row(burn_in_ok=False, seed="median")], timestamp="t")
    by_col = dict(zip(CSV_COLUMNS, text.split("\n")[2].split(",")))
    assert by_col["burn_in_ok"] == "0"
    assert by_col["seed"] == "median"


def test_summary_burn_in_requires_every_seed():
    """Two seeds that disagree on burn-in give a summary of 0, not the 0.5
    a median of booleans would."""
    rows = [_row(seed=0, burn_in_ok=True), _row(seed=1, burn_in_ok=False)]
    (split,) = _summaries(rows)
    (agree,) = _summaries([_row(seed=0), _row(seed=1)])
    assert split["burn_in_ok"] is False and agree["burn_in_ok"] is True
    by_col = dict(zip(CSV_COLUMNS,
                      rows_to_csv([split], timestamp="t").split("\n")[2].split(",")))
    assert by_col["burn_in_ok"] == "0" and by_col["seed"] == "median"


@pytest.mark.parametrize("values", (
    [0.3], [0.3, 0.1], [0.5, 0.1, 0.3], [0.4, 0.1, 0.3, 0.2],
    [1e308, 1.7e308], [0.2, math.inf], [0.2, math.inf, 0.1],
    [math.inf, math.inf], [-math.inf, 0.5, math.inf, 2.0],
    list(np.random.default_rng(5).lognormal(size=6)),
    list(np.random.default_rng(6).lognormal(size=7))))
def test_summary_medians_are_numpy_medians(values):
    """The summary row's medians are the floats np.median gives on the same
    seed list, for odd and even counts and with infinite values.  Where the
    mean of the middle pair overflows, both give inf; np.median also warns."""
    rows = [_row(seed=s, relative_error=v, epsilon_delta=v, target_risk=v,
                 wall_ms=v) for s, v in enumerate(values)]
    (summary,) = _summaries(rows)
    with np.errstate(over="ignore"):
        want = float(np.median(values))
    for col in ("relative_error", "epsilon_delta", "target_risk", "wall_ms"):
        assert type(summary[col]) is float
        assert summary[col] == want


def test_csv_roundtrip_row_count():
    rows = [_row(seed=s) for s in range(5)]
    text = rows_to_csv(rows, timestamp="t")
    assert len([ln for ln in text.strip().split("\n") if ln]) == 2 + 5
