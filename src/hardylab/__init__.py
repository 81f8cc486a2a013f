"""Numerical laboratory for weighted circle means of analytic functions on the unit disk.

Import from the modules (``hardylab.quadrature``, ``hardylab.identities``,
``hardylab.report``, ...); the package itself exports only its version and
``QuadratureSpec``.
"""

__version__ = "0.1.0"

import ctypes
import sys

# glibc hands the freed top of the heap back to the system after each field
# call, and the next call faults the same pages in again: at 2^14 points a
# gw_values call made 128-416 minor faults, depending on the family and the
# heap, a blaschke:0.5 disk mesh 12,940 and a golden pass 144k-146k, with
# 0.22-0.30 s of system time.  A 64 MiB top pad keeps the pages in the heap:
# no fault per call, 1.2k faults in a first golden pass and 46 in the next,
# and the same arithmetic.
M_TOP_PAD = -2  # mallopt's parameter number in glibc's malloc.h
TOP_PAD_BYTES = 64 << 20


def _keep_freed_pages() -> None:
    """Set glibc's top pad once: on Linux only, and nothing where the C
    library has no mallopt or rejects the call (it returns 0 then)."""
    if not sys.platform.startswith("linux"):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(M_TOP_PAD, TOP_PAD_BYTES)


_keep_freed_pages()

from .quadrature import QuadratureSpec  # noqa: E402
