"""numpy is the package's only import-time dependency.  scipy is imported on
first call by e2_regularized (brentq) and population_moments_categorical
(ndtr), and by nothing else, so kernel runs never pay for loading it."""

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
from shiftweight import build_config, run_experiment

seen = {"import": scipy_modules()}
common = {"sweep": (200,), "seeds": (0,), "run_erm": True}
for estimator in ("E3", "E4"):
    run_experiment(build_config(dict(common, estimator=estimator,
                                      scenario="functional_vs_n")))
seen["kernel_cells"] = scipy_modules()
run_experiment(build_config(dict(common, estimator="E2",
                                  scenario="categorical_vs_n")))
seen["e2_cell"] = scipy_modules()
print(json.dumps(seen))
"""


def test_scipy_is_imported_only_by_the_functions_that_need_it():
    src = os.path.dirname(os.path.dirname(shiftweight.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-c", _PROBE], env=env,
                          capture_output=True, text=True, check=True,
                          timeout=300)
    seen = json.loads(done.stdout.splitlines()[-1])
    assert seen["import"] == []
    assert seen["kernel_cells"] == []
    assert "scipy.optimize" in seen["e2_cell"]
