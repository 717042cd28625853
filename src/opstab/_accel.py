"""numba is no longer used: every numeric loop is numpy or LAPACK.

NUMBA_ENABLED stays only because the benchmark's host record
(perfbench/run.py) reads it; remove this module together with that read.
"""

NUMBA_ENABLED = False
