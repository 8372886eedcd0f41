"""One BLAS/OpenMP thread for the whole test run, the suite's warning
policy and the repository's package for every child process it starts,
and the frozen self-isospectrality distances that more than one test
file pins.

The thread count is set before numpy is first imported, which happens
after pytest loads this file: threaded BLAS oversubscribes a small
machine as soon as a second numpy process runs beside the tests.
PYTHONWARNINGS=error::RuntimeWarning gives the CLI and script processes
that tests start pyproject's ``filterwarnings``, which reaches the pytest
process only.  A value already in the environment is kept.  The
repository's ``src`` goes first on PYTHONPATH, since pyproject's
``pythonpath`` reaches only the pytest process too, so the suite runs
from a checkout without installing.
"""

import os
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
os.environ.setdefault("PYTHONWARNINGS", "error::RuntimeWarning")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]))

# Frozen by the 4096-shift brute-force scan (scripts/selfiso_scan.py) and
# golden refinement on 512-sample grids: regression anchors, to 1e-6, for
# the distinctness half of the dichotomy.
FROZEN_DISTANCES = {
    (2, 0.1): 1.576224658207e-02,
    (2, 0.5): 4.699416125638e-01,
    (2, 0.9): 1.706248814988e+00,
    (3, 0.1): 7.825039721364e-02,
    (3, 0.5): 1.967330310675e+00,
    (3, 0.9): 5.610146151474e+00,
}
