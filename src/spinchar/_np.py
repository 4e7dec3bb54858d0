"""numpy, imported on first attribute use.

numpy serves only `verify`'s random associativity pass over GSHARP's
Cayley table (`Group.table`).  `groups` imports this module as `np`
(`from . import _np as np`), so importing it, and every command and check
that never touches that table, costs no numpy import.  Each attribute is
looked up once, then served from this module's namespace.

spinchar's array work is integer only and never calls BLAS, so unless the
user has set OPENBLAS_NUM_THREADS, numpy is imported with it at 1: its
OpenBLAS then starts no pool of idle worker threads.
"""

import os


def __getattr__(name):
    if name.startswith("__"):
        raise AttributeError(name)
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    import numpy
    value = globals()[name] = getattr(numpy, name)
    return value
