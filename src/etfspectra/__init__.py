"""Equiangular tight frames, MANOVA spectra of their random subsets,
erasure Welch bounds, and analog erasure coding performance."""

import os
import sys

# One BLAS thread per LAPACK call: each trial is one mid-size eigensolve,
# which a second OpenBLAS thread slows down, and a fixed count keeps seeded
# exports identical to the last digit. OpenBLAS reads the count when numpy
# or scipy loads it, so this runs before the imports below. A count the
# caller set, in any variable OpenBLAS reads, wins, and so does a numpy
# that is already loaded.
if "numpy" not in sys.modules and not any(
        os.environ.get(var) for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                                        "OMP_NUM_THREADS")):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from . import coding, frames, frameio, functionals, harness, manova, moments, spectra  # noqa: E402
from .frames import FrameMatrix, construct  # noqa: E402
from .manova import ManovaParams  # noqa: E402

__all__ = [
    "coding", "frames", "frameio", "functionals", "harness", "manova",
    "moments", "spectra", "FrameMatrix", "construct", "ManovaParams",
]

__version__ = "0.1.0"
