"""Test-suite set-up: one BLAS thread, as the command line runs.

Seeded results are bit-for-bit reproducible only at a fixed BLAS thread
count, and the acceptance criteria assert seeded numbers.  OpenBLAS reads
the limit once, when numpy is first imported, which happens after this file
is loaded.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
