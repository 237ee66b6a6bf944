"""Start-up shared by the benchmark's processes: pin threads, find the source tree.

The benchmark measures the package as it stands in the checkout, so it puts
``<root>/src`` first on ``sys.path`` and refuses to run without it, rather
than fall back to some installed copy.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# One BLAS/OpenMP thread: the workloads are single-client closed loops, and a
# second thread pool on a two-core box would make the timings depend on
# whatever else runs there.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def prepare() -> None:
    """Pin thread pools and make ``import qndsim`` load ``<root>/src/qndsim``.

    Must run before numpy is imported.  Exits with status 2 when the source
    tree is missing.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not os.path.isfile(os.path.join(SRC, "qndsim", "__init__.py")):
        print(f"benchmark: no qndsim source tree under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
