"""High-precision toolkit for the Minkowski question mark function's moments.

Exact continued-fraction kernels, ball arithmetic, a positive transfer-
matrix series, direct Bessel-kernel quadrature, and the exact rational
recurrence behind the conjectural second-moment integral, all cross-
validating each other.

Each engine module's `__all__` is its public API, and the package re-exports
them all; `cli`, `verify` and `cache` serve the command line and declare none.
"""

from .balls import *
from .conjecture import *
from .contfrac import *
from .errors import *
from .farey import *
from .minkowski import *
from .moments import *
from .quadrature import *
from .special import *

__version__ = "0.1.0"
