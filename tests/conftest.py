"""Test-session set-up: one BLAS thread unless the environment says otherwise.

The matrices in these tests are small, so one BLAS thread runs them as fast
as several, and idle BLAS threads spin: on a two-core machine the acceptance
grid used twice its wall time in CPU, and any other load on the machine
doubled the suite's run time. BLAS reads these variables once, when numpy is
first imported, so this module must run before anything imports numpy.
"""

import os
import sys
import warnings

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

if "numpy" in sys.modules:
    warnings.warn(
        "numpy was imported before tests/conftest.py; BLAS threads are not pinned",
        stacklevel=1,
    )
