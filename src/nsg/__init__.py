"""Numerical semigroup toolkit.

Exact arithmetic of numerical semigroups, canonical trace ideals and
residues, gluing and lifting constructions with verified closed-form
predictions, and binomial Groebner bases for the projective closures of
monomial curves.

The public names are those of ``semigroup``, ``ideals``, ``constructions``
and ``toric``, in that order; each module's ``__all__`` is their only list.
"""

from . import constructions, ideals, semigroup, toric
from .constructions import *  # noqa: F401,F403
from .ideals import *  # noqa: F401,F403
from .semigroup import *  # noqa: F401,F403
from .toric import *  # noqa: F401,F403

__all__ = [*semigroup.__all__, *ideals.__all__, *constructions.__all__, *toric.__all__]
