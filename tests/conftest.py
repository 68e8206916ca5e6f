"""Pin the BLAS libraries to one thread for the whole test session.

Checks 1 and 2 of the acceptance suite have wall-time limits.  At the
default thread count, small dense kernels slow down many-fold when another
process holds a core, so those timings would depend on the machine's load.
The variables are read when numpy loads BLAS, which happens after this file
is imported; values set by the caller are kept.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
