"""Werner-state source operators and Bell-functional optimization toolkit.

Each module's ``__all__`` lists its public names, and the package exports
exactly their union.
"""

from __future__ import annotations

__version__ = "0.1.0"

from . import bell, extensions, linalg, states
from .bell import *
from .extensions import *
from .linalg import *
from .states import *

__all__ = ["__version__", *linalg.__all__, *states.__all__, *extensions.__all__, *bell.__all__]
