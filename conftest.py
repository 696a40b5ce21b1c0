"""Pins BLAS to one thread for the test run unless the environment already
sets a count.  BLAS reads these variables when numpy is first imported, and
no installed pytest plugin imports numpy, so this file runs early enough.
On 2 cores the default thread count roughly doubles the suite's time."""

import os

for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(name, "1")
