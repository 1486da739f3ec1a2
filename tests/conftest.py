"""Import etfspectra before any test module imports numpy, so the suite runs
under the package's BLAS thread policy (one thread unless the environment
sets a count)."""

import etfspectra  # noqa: F401
