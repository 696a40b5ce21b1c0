"""Entry-point behavior: exit codes, output routing, overrides."""

import csv
import logging

import numpy as np
import pytest

from shiftweight import experiments
from shiftweight.cli import EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, main
from shiftweight.experiments import CSV_COLUMNS

GOOD = """\
scenario = single_run
estimator = E1
seeds = 0, 1
n = 200
k = 3
"""


def _write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_run_writes_csv_and_exits_zero(tmp_path):
    out = tmp_path / "result.csv"
    code = main(["run", _write(tmp_path, GOOD), "--out", str(out), "--quiet"])
    assert code == EXIT_OK
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("# generated ")
    assert lines[1] == ",".join(CSV_COLUMNS)
    assert len(lines) == 2 + 2 + 1  # header pair, two seeds, one summary


def test_run_prints_csv_to_stdout_without_out(tmp_path, capsys):
    code = main(["run", _write(tmp_path, GOOD), "--quiet"])
    assert code == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out.splitlines()[1] == ",".join(CSV_COLUMNS)


def test_missing_config_file_exits_two(tmp_path, capsys):
    code = main(["run", str(tmp_path / "nope.cfg")])
    assert code == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_bad_config_key_exits_two(tmp_path, capsys):
    path = _write(tmp_path, GOOD + "wat = 1\n")
    code = main(["run", path])
    assert code == EXIT_CONFIG
    assert "wat" in capsys.readouterr().err


def test_bad_seeds_flag_exits_two(tmp_path, capsys):
    code = main(["run", _write(tmp_path, GOOD), "--seeds", "a,b"])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error: --seeds: cannot parse seeds = 'a,b'" in err


def test_negative_seeds_flag_exits_two(tmp_path, capsys):
    """numpy's raw "expected non-negative integer" used to exit 1 as a bug."""
    code = main(["run", _write(tmp_path, GOOD), "--seeds=-3", "--quiet"])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and "seeds" in err


@pytest.mark.parametrize("line", ("seeds = -1", "noise_std = inf",
                                  "reg = inf", "reg_scale = inf",
                                  "theta_max = inf", "bandwidth = inf",
                                  "reg = nan"))
def test_out_of_range_config_value_exits_two(tmp_path, capsys, line):
    """Each value used to run: a negative seed exited 1, noise_std = inf
    exited 3, and the other infinities exited 0 with a NaN objective, an
    infinite epsilon_delta or a constant kernel."""
    code = main(["run", _write(tmp_path, GOOD + line + "\n"), "--quiet"])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and line.split()[0] in err


def test_out_of_range_sweep_value_exits_two(tmp_path, capsys):
    """k = 1 in a categorical_vs_k sweep used to exit 1 as a bug."""
    text = "scenario = categorical_vs_k\nestimator = E1\nseeds = 0\nsweep = 1, 2\n"
    assert main(["run", _write(tmp_path, text), "--quiet"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and "sweep" in err


@pytest.mark.parametrize("where", ("missing_dir", "a_directory", "config_key"))
def test_unwritable_out_exits_two_before_the_sweep(tmp_path, capsys,
                                                   monkeypatch, where):
    """An --out (or config out) in a missing directory, or naming a
    directory, is a config fault: exit 2 before any cell runs, instead of a
    raw OSError once the whole sweep has run."""
    def no_cell(*args):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(experiments, "_run_categorical_cell", no_cell)
    missing = str(tmp_path / "missing" / "x.csv")
    if where == "config_key":
        argv = ["run", _write(tmp_path, GOOD + f"out = {missing}\n")]
    else:
        out = missing if where == "missing_dir" else str(tmp_path)
        argv = ["run", _write(tmp_path, GOOD), "--out", out]
    assert main(argv + ["--quiet"]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_seeds_override_shrinks_run(tmp_path):
    out = tmp_path / "result.csv"
    code = main(["run", _write(tmp_path, GOOD), "--out", str(out),
                 "--seeds", "5", "--quiet"])
    assert code == EXIT_OK
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2 + 1 + 1
    seed_col = CSV_COLUMNS.index("seed")
    assert lines[2].split(",")[seed_col] == "5"


def test_out_flag_replaces_the_config_out(tmp_path):
    """--out is parsed like the file's out key and replaces it."""
    from_file, from_flag = tmp_path / "file.csv", tmp_path / "flag.csv"
    path = _write(tmp_path, GOOD + f"out = {from_file}\n")
    assert main(["run", path, "--out", str(from_flag), "--quiet"]) == EXIT_OK
    assert from_flag.exists() and not from_file.exists()


def test_undersampled_classes_exit_three(tmp_path, capsys):
    cfg = "scenario = single_run\nestimator = E1\nseeds = 0\nn = 10\nk = 6\n"
    code = main(["run", _write(tmp_path, cfg), "--quiet"])
    assert code == EXIT_NUMERIC
    assert "numerical failure" in capsys.readouterr().err


def test_e2_with_a_rank_deficient_operator_exits_zero(tmp_path):
    """At k = 6, n = 30, seed 33 two classes are missing from the estimation
    split, so T_hat has zero singular values: E2 still returns, the bound is
    infinite and burn-in fails."""
    cfg = "scenario = single_run\nestimator = E2\nseeds = 33\nn = 30\nk = 6\n"
    out = tmp_path / "r.csv"
    code = main(["run", _write(tmp_path, cfg), "--out", str(out), "--quiet"])
    assert code == EXIT_OK
    lines = out.read_text(encoding="utf-8").splitlines()
    rows = list(csv.DictReader(lines[1:]))      # past the '# generated' line
    assert len(rows) == 2                   # the seed and the median row
    for row in rows:
        assert row["epsilon_delta"] == "inf" and row["burn_in_ok"] == "0"


@pytest.mark.parametrize("mode, n, seed", (("simplex", 12, 22),
                                           ("hypercube", 30, 4)))
def test_logistic_erm_at_its_rounding_floor_exits_zero(tmp_path, mode, n,
                                                       seed):
    """E1's class weights on these tiny cells are extreme: one is clamped
    to 0, the other is about 2.6e5 or 1.2e3.  There the ERM fit can reach a
    point where no representable Newton step lowers the loss while the
    decrement still sits just above NEWTON_TOL.  The fit returns that point
    instead of repeating the step to its cap and raising IllConditioned."""
    cfg = (f"scenario = single_run\nestimator = E1\nk = 2\nn = {n}\n"
           f"run_erm = true\nstatistic_mode = {mode}\nseeds = {seed}\n")
    out = tmp_path / "r.csv"
    code = main(["run", _write(tmp_path, cfg), "--out", str(out), "--quiet"])
    assert code == EXIT_OK
    rows = list(csv.DictReader(out.read_text(encoding="utf-8").splitlines()[1:]))
    assert 0.0 <= float(rows[0]["target_risk"]) <= 1.0


def test_a_bug_is_not_reported_as_a_numerical_failure(tmp_path, capsys,
                                                     monkeypatch):
    def broken(mom):
        raise ValueError("not a ShiftWeightError")

    monkeypatch.setattr(experiments, "e1_direct", broken)
    with pytest.raises(ValueError, match="not a ShiftWeightError"):
        main(["run", _write(tmp_path, GOOD), "--quiet"])
    assert "numerical failure" not in capsys.readouterr().err


def test_a_raw_linalg_error_is_not_reported_as_a_numerical_failure(
        tmp_path, capsys, monkeypatch):
    """Every numerical failure the package knows of is a ShiftWeightError;
    a raw LinAlgError escaping a stage is a bug, not exit 3."""
    def broken(mom):
        raise np.linalg.LinAlgError("raw numpy failure")

    monkeypatch.setattr(experiments, "e1_direct", broken)
    with pytest.raises(np.linalg.LinAlgError, match="raw numpy failure"):
        main(["run", _write(tmp_path, GOOD), "--quiet"])
    assert "numerical failure" not in capsys.readouterr().err


def test_progress_lines_only_without_quiet(tmp_path, capsys):
    out = tmp_path / "r.csv"
    main(["run", _write(tmp_path, GOOD), "--out", str(out)])
    err = capsys.readouterr().err
    assert "rel_err" in err and "wrote" in err
    capsys.readouterr()
    main(["run", _write(tmp_path, GOOD), "--out", str(out), "--quiet"])
    assert capsys.readouterr().err == ""


def test_quiet_keeps_warnings_and_main_leaves_the_logger_as_it_was(
        tmp_path, capsys, monkeypatch):
    logger = logging.getLogger("shiftweight")
    handlers, level = list(logger.handlers), logger.level
    real = experiments.run_experiment

    def warning_run(cfg):
        logger.warning("clamped 3 negative importance weights to 0 for ERM")
        return real(cfg)

    monkeypatch.setattr("shiftweight.cli.run_experiment", warning_run)
    out = tmp_path / "r.csv"
    assert main(["run", _write(tmp_path, GOOD), "--out", str(out),
                 "--quiet"]) == EXIT_OK
    assert capsys.readouterr().err == \
        "clamped 3 negative importance weights to 0 for ERM\n"
    assert logger.handlers == handlers and logger.level == level
