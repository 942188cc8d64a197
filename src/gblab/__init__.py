"""Numerical Gauss-Bonnet laboratory built on a double-form curvature calculus."""

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
