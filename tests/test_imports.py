"""numpy is the package's only runtime dependency: no runner cell and no
analytic oracle imports scipy."""

import json
import os
import subprocess
import sys

import shiftweight

_PROBE = """
import json, sys

def scipy_modules():
    return sorted(name for name in sys.modules if name.startswith("scipy"))

import shiftweight, shiftweight.cli
from shiftweight import (CategoricalSynthConfig, build_config,
                         population_moments_categorical, run_experiment)

seen = {"import": scipy_modules()}
common = {"sweep": (200,), "seeds": (0,), "run_erm": True}
for estimator in ("E3", "E4"):
    run_experiment(build_config(dict(common, estimator=estimator,
                                      scenario="functional_vs_n")))
seen["kernel_cells"] = scipy_modules()
for estimator in ("E1", "E2"):
    for mode in ("simplex", "hypercube"):
        run_experiment(build_config(dict(common, estimator=estimator,
                                          statistic_mode=mode,
                                          scenario="categorical_vs_n")))
seen["categorical_cells"] = scipy_modules()
population_moments_categorical(CategoricalSynthConfig(4))
seen["population_moments"] = scipy_modules()
print(json.dumps(seen))
"""


def test_no_runner_cell_imports_scipy():
    src = os.path.dirname(os.path.dirname(shiftweight.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-c", _PROBE], env=env,
                          capture_output=True, text=True, check=True,
                          timeout=300)
    seen = json.loads(done.stdout.splitlines()[-1])
    assert seen == {"import": [], "kernel_cells": [], "categorical_cells": [],
                    "population_moments": []}
