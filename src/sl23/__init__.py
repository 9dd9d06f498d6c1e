"""Order-(2,3) generator pairs for SL_9, SL_10, SL_11 over small finite
fields, plus machine-checkable JSON certificates of the properties that
make them generating pairs: element orders, characteristic polynomial
identities, irreducibility of the natural module, and maximal-subgroup
order divisibility.
"""

__version__ = "0.1.0"

from . import arith, certify, construct, ff, matrix, meataxe, poly

__all__ = [
    "arith",
    "certify",
    "cli",
    "construct",
    "ff",
    "matrix",
    "meataxe",
    "poly",
    "__version__",
]
