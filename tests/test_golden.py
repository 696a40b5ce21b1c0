"""Golden CSVs: each config under tests/golden/ reruns to the values of its
committed CSV.  Regenerate them with the CLI when a change means to move
numbers (README, "Golden CSVs")."""

import csv
import math
from pathlib import Path

import pytest

from shiftweight.experiments import (CSV_COLUMNS, load_config, rows_to_csv,
                                    run_experiment)

GOLDEN = Path(__file__).parent / "golden"
CONFIGS = sorted(GOLDEN.glob("*.cfg"))
REL = 1e-9
TEXT = ("scenario", "estimator", "statistic_mode", "seed", "burn_in_ok")


def _printed_half_unit(value):
    """Half a unit in the ninth significant digit, the CSV's rounding of value."""
    return 0.0 if value == 0 else 0.5 * 10.0 ** (math.floor(math.log10(abs(value))) - 8)


def _csv_rows(text):
    return list(csv.DictReader(line for line in text.splitlines()
                               if not line.startswith("#")))


def test_every_config_has_its_csv():
    assert CONFIGS
    assert sorted(GOLDEN.glob("*.csv")) == [c.with_suffix(".csv") for c in CONFIGS]


@pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.stem)
def test_rerun_matches_golden_csv(config):
    """Text columns and burn_in_ok compare exactly; numeric columns at REL
    relative, beyond the nine-digit rounding of the golden value.  Bytes are
    not compared: the BLAS thread count moves the last digits.  wall_ms and
    the '# generated' line are ignored."""
    golden = _csv_rows(config.with_suffix(".csv").read_text(encoding="utf-8"))
    rows = run_experiment(load_config(config))
    printed = _csv_rows(rows_to_csv(rows))
    assert len(rows) == len(golden)
    for row, text, want in zip(rows, printed, golden):
        for col in CSV_COLUMNS:
            if col == "wall_ms":
                continue
            if col in TEXT or want[col] == "":
                assert text[col] == want[col], (col, text)
            else:
                expect = float(want[col])
                tol = REL * abs(expect) + _printed_half_unit(expect)
                assert abs(row[col] - expect) <= tol, (col, row[col], expect)
