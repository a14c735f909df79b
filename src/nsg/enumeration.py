"""Genus-tree enumeration of numerical semigroups.

Children of a semigroup are obtained by deleting one minimal generator
larger than the Frobenius number; every semigroup of positive genus has a
unique parent (put its Frobenius number back), so the tree enumerates each
semigroup exactly once.

A level of the tree is held as one integer Apery matrix per multiplicity m,
row j the Apery set of one semigroup indexed by residue, plus a boolean mask
of the classes c != 0 whose Apery element is a minimal generator: Ap[c] is
iff it is no Ap[c1] + Ap[(c - c1) mod m] with c1 not in {0, c}.  Deleting
such a generator g = Ap[c] > F keeps m and adds m to Ap[c] (the Apery set of
S minus {g}; Rosales and Garcia-Sanchez, *Numerical Semigroups*, 2009), so a
child is its parent's row with one entry raised.  Deleting m itself happens
only in the ordinary semigroup {0, m, m + 1, ...}, whose child is the next
ordinary one: each genus g adds that row, m = g + 1 and
Ap = (0, m + 1, ..., 2m - 1), directly.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .semigroup import NumericalSemigroup, _fold, _sorted_rows, new_semigroup

__all__ = ["children"]


def _minimal(apery: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """The minimal-generator mask of each row of the Apery matrix ``apery``,
    given a mask ``candidates`` (class 0 left out) that holds every minimal
    generator's class: Ap[c] is one iff it is no Ap[c1] + Ap[(c - c1) mod m]
    with c1 a candidate, since a decomposable Ap[c] is a minimal generator
    plus an Apery element.  One blocked ``_fold`` with a shift per candidate,
    O(candidates * m) a row; a multiple of m above every entry, put in class
    0 and padding the shorter rows, drops the term c1 = c and the padding."""
    m = apery.shape[1]
    split = apery.copy()
    split[:, 0] = m << 32  # entries stay below 2 * SIZE_LIMIT < 2**32
    shifts = np.sort(np.where(candidates, apery, split[:, :1]), axis=1)[:, : candidates.sum(axis=1).max()]
    return (apery < _fold(split, -shifts, np.minimum)) & candidates


def _step(level: dict[int, tuple[np.ndarray, np.ndarray]]) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """The children of every row of ``level`` ({m: (Apery matrix, mask)}), as
    a level: per parent and class, the parent's row with Ap[c] + m in place
    of each minimal generator Ap[c] above its Frobenius number, and the next
    ordinary semigroup when a row is ordinary (F < m).  Deleting g leaves
    the minimal generators inside the others and g + m (every minimal
    generator is at most the child's F + m = g + m), so a child's mask is
    found among its parent's classes."""
    rows = {}
    for m, (apery, mask) in level.items():
        top = apery.max(axis=1)  # F + m
        parents, classes = np.nonzero(mask & (apery > top[:, None] - m))
        rows[m] = apery[parents], mask[parents]
        rows[m][0][np.arange(len(parents)), classes] += m
        if (top < 2 * m).any():  # ordinary rows have the largest m of a tree level: m + 1 is free
            rows[m + 1] = np.r_[0, m + 2 : 2 * m + 2][None], np.arange(m + 1)[None] > 0
    return {m: (apery, _minimal(apery, mask)) for m, (apery, mask) in rows.items() if len(apery)}


def _levels(max_genus: int) -> Iterator[tuple[int, dict[int, tuple[np.ndarray, np.ndarray]]]]:
    """Yield (genus, {m: (Apery matrix, minimal-generator mask)}) for genus
    1..max_genus; only one level is held at a time."""
    level = {1: (np.zeros((1, 1), np.int64), np.zeros((1, 1), bool))}  # <1>
    for genus in range(1, max_genus + 1):
        level = _step(level)
        yield genus, level


def children(s: NumericalSemigroup) -> list[NumericalSemigroup]:
    """All semigroups obtained by deleting one eligible minimal generator:
    the level step on the one row of ``s``, each child built by
    ``new_semigroup`` from its minimal generators."""
    m = s.multiplicity
    if s.generators[-1] <= s.frobenius:
        return []
    mask = np.zeros((1, m), bool)
    mask[0, np.array(s.generators[1:], np.int64) % m] = True
    level = _step({m: (np.array([s.apery]), mask)})
    return [new_semigroup([m, *gens]) for m, (apery, mask) in level.items() for gens in _sorted_rows(apery, mask)]
