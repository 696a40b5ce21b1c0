"""Entry-point behavior: exit codes, output routing, overrides."""

import csv

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
    assert "--seeds" in capsys.readouterr().err


def test_seeds_override_shrinks_run(tmp_path):
    out = tmp_path / "result.csv"
    code = main(["run", _write(tmp_path, GOOD), "--out", str(out),
                 "--seeds", "5", "--quiet"])
    assert code == EXIT_OK
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2 + 1 + 1
    seed_col = CSV_COLUMNS.index("seed")
    assert lines[2].split(",")[seed_col] == "5"


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


def test_a_bug_is_not_reported_as_a_numerical_failure(tmp_path, capsys,
                                                     monkeypatch):
    def broken(mom):
        raise ValueError("not a ShiftWeightError")

    monkeypatch.setattr(experiments, "e1_direct", broken)
    with pytest.raises(ValueError, match="not a ShiftWeightError"):
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
