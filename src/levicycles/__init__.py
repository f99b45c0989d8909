"""Exact toolkit for induced cycles in Levi graphs of line arrangements.

The package models a line arrangement purely by its point-line incidences,
builds the bipartite Levi graph, and answers induced-cycle questions
(existence at a given length, longest, full spectrum) by exhaustive
canonical search, so every "absent" is a completed enumeration and every
"found" carries an independently checkable witness.  Known coordinate
families come with exact cyclotomic realizations for cross-checking, and a
claims layer turns structural theorems into runnable verdicts.
"""

# Each module's __all__ is the one statement of what it makes public; the
# package re-exports all of them (not the command-line front end, cli).
from . import arrangement, claims, cycles, exact_field, families, levi, oracle, projective
from .arrangement import *  # noqa: F403
from .claims import *  # noqa: F403
from .cycles import *  # noqa: F403
from .exact_field import *  # noqa: F403
from .families import *  # noqa: F403
from .levi import *  # noqa: F403
from .oracle import *  # noqa: F403
from .projective import *  # noqa: F403

__version__ = "1.0.0"

__all__ = [
    *arrangement.__all__,
    *claims.__all__,
    *cycles.__all__,
    *exact_field.__all__,
    *families.__all__,
    *levi.__all__,
    *oracle.__all__,
    *projective.__all__,
    "__version__",
]
