"""One BLAS thread, so that results do not depend on the thread count.

OpenBLAS splits a product's sums among its threads, so the last bits of a
result depend on how many threads it ran on: `certify` on the 300-state
unit ladder writes C = 4.5198424791287044 on one thread and
4.5198424791287062 on two.  numpy and scipy each bundle their own copy of
OpenBLAS, and each copy exports a setter for its thread count.
pin_blas_threads sets both to one through ctypes, which works however
long numpy has been loaded.  Every command-line run calls it first; a
library caller who wants the same bytes calls it once.  A copy that is not
found (a build against another BLAS, or another wheel layout) is left as
it is; OPENBLAS_NUM_THREADS=1 in the environment pins it from start-up.
"""

from __future__ import annotations

import ctypes
import glob
import os

import numpy
import scipy
import scipy.linalg  # loads scipy's OpenBLAS

# (package, its OpenBLAS's thread-count setter): numpy's copy has 64-bit
# integers and suffixed symbols
_SETTERS = ((numpy, "scipy_openblas_set_num_threads64_"),
            (scipy, "scipy_openblas_set_num_threads"))


def pin_blas_threads() -> None:
    """Set each bundled OpenBLAS copy found, in <package>.libs next to its
    package as wheels install it, to one thread."""
    for package, setter in _SETTERS:
        libs = os.path.dirname(package.__file__) + ".libs"
        for path in glob.glob(os.path.join(libs, "libscipy_openblas*")):
            set_threads = getattr(ctypes.CDLL(path), setter, None)
            if set_threads is not None:
                set_threads(1)
