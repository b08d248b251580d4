"""Exact spectra of the Gram matrices of projective point sets over Z_m.

The package enumerates the point sets P_{n,m}, builds the incidence
matrix A_{n,m} and its Gram matrix B_{n,m} = A A^t in two independent
ways, evaluates the closed-form eigenvalue tables, and verifies every
(eigenvalue, multiplicity) claim by exact integer computation.

Each module's ``__all__`` is the one list of its public names; the
package re-exports them all.
"""

from . import counting, errors, matrices, modular, projective, spectrum
from .counting import *  # noqa: F403
from .errors import *  # noqa: F403
from .matrices import *  # noqa: F403
from .modular import *  # noqa: F403
from .projective import *  # noqa: F403
from .spectrum import *  # noqa: F403

__version__ = "1.0.0"

__all__ = sorted(
    name
    for module in (counting, errors, matrices, modular, projective, spectrum)
    for name in module.__all__
)
