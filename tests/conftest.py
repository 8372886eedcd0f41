"""One BLAS/OpenMP thread for the whole test run.

Set before numpy is first imported, which happens after pytest loads
this file: threaded BLAS oversubscribes a small machine as soon as a
second numpy process runs beside the tests.  A value already in the
environment is kept.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
