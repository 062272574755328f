"""symhess: upper J-Hessenberg reduction of real 2n-by-2n matrices via
symplectic Householder and Van Loan transformations.

Each module's ``__all__`` is its public list; the package exports their
union and ``__version__``.
"""

from . import core, experiments, matrixio, reduction, transforms
from .core import *  # noqa: F401,F403
from .transforms import *  # noqa: F401,F403
from .reduction import *  # noqa: F401,F403
from .experiments import *  # noqa: F401,F403
from .matrixio import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [name for module in (core, transforms, reduction, experiments, matrixio)
           for name in module.__all__] + ["__version__"]
