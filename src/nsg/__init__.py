"""Numerical semigroup toolkit.

Exact arithmetic of numerical semigroups, canonical trace ideals and
residues, gluing and lifting constructions with verified closed-form
predictions, and binomial Groebner bases for the projective closures of
monomial curves.

The public names are those of ``semigroup``, ``ideals``, ``constructions``
and ``toric``, in that order; each module's ``__all__`` is their only list.
"""

import os

# nsg calls no BLAS routine, yet OpenBLAS starts a pool of spinning worker
# threads when numpy loads.  It reads its thread count only then, so the
# variable is set for numpy's import alone and no subprocess inherits it.
# A caller's own setting, or a numpy imported earlier, is left as it is.
if not {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & os.environ.keys():
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

from . import constructions, ideals, semigroup, toric  # noqa: E402
from .constructions import *  # noqa: F401,F403
from .ideals import *  # noqa: F401,F403
from .semigroup import *  # noqa: F401,F403
from .toric import *  # noqa: F401,F403

__all__ = [*semigroup.__all__, *ideals.__all__, *constructions.__all__, *toric.__all__]
