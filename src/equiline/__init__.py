"""Construction and certification of the 2-transitive equiangular line
families: sign-matrix sets from quadratic-space hyperplanes, displacement
orbits of parity eigenspaces for odd primes, and the two fiducial-orbit sets
found by frame-potential search.

The package root re-exports every name in each submodule's `__all__`.
`EQUILINE_THREADS=<k>` caps the BLAS worker threads; it is applied here,
before any submodule loads numpy.
"""

import os

# Cap worker threads before any BLAS-backed import happens.
_threads = os.environ.get("EQUILINE_THREADS")
if _threads:
    for _var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        os.environ[_var] = _threads

__version__ = "0.1.0"

from . import action, fiducial, finfield, heisenberg, lineset, serialize, symmetries, weil
from .finfield import *
from .heisenberg import *
from .weil import *
from .lineset import *
from .fiducial import *
from .action import *
from .symmetries import *
from .serialize import *

__all__ = ["__version__"]
for _module in (finfield, heisenberg, weil, lineset, fiducial, action, symmetries, serialize):
    __all__ += _module.__all__
