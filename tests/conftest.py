"""Run the whole test session, subprocesses included, on one BLAS thread.

The acceptance properties are stated for one core. BLAS reads its thread
count once, when numpy loads it, so the variables are set here, before
any test module imports numpy.
"""

import os
import sys

if "numpy" in sys.modules:
    raise RuntimeError("numpy was imported before tests/conftest.py, so "
                       "its BLAS thread count can no longer be set to 1")

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"
