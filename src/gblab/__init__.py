"""Numerical Gauss-Bonnet laboratory built on a double-form curvature calculus."""

import ctypes
import sys

from .doubleform import DoubleForm, berezin, pfaffian_skew, power, wedge

__version__ = "0.1.0"

__all__ = [
    "DoubleForm",
    "berezin",
    "pfaffian_skew",
    "power",
    "wedge",
    "__version__",
]

# glibc gives the top of the heap back to the system when a free leaves more
# than its trim threshold there, a threshold it raises only after a block it
# mmap'd is freed.  So whether a check's per-block numpy temporaries are
# faulted in afresh on every call hung on the heap's layout at import: 1,053
# minor faults a call for ClosedGB sphere n=4 at level 1, and 16% of the
# interior benchmark's time, in some processes and not others.  Both
# thresholds are fixed at the ceiling of glibc's own rule (an mmap threshold
# of 32 MiB, a trim threshold of twice that), so no layout decides it.
if sys.platform == "linux":
    for _option, _bytes in ((-3, 32 << 20), (-1, 64 << 20)):  # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD
        ctypes.CDLL(None).mallopt(_option, _bytes)
