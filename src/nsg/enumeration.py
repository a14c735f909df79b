"""Genus-tree enumeration of numerical semigroups.

Children of a semigroup are obtained by deleting one minimal generator
larger than the Frobenius number; every semigroup of positive genus has a
unique parent (put its Frobenius number back), so the tree enumerates each
semigroup exactly once.

The tree is held one multiplicity chain at a time: the semigroups of one
genus and one multiplicity m form a block, an integer Apery matrix (row j
the Apery set of one semigroup, indexed by residue) plus a boolean mask of
the classes c != 0 whose Apery element is a minimal generator: Ap[c] is iff
it is no Ap[c1] + Ap[(c - c1) mod m] with c1 not in {0, c}.  Deleting such a
generator g = Ap[c] > F keeps m and adds m to Ap[c] (the Apery set of S
minus {g}; Rosales and Garcia-Sanchez, *Numerical Semigroups*, 2009), so a
child is its parent's row with one entry raised, and the blocks of one m
follow each other genus by genus (``_walk``).
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


def _step(apery: np.ndarray, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The children that keep m of every row of one block (Apery matrix,
    mask) of multiplicity m, as a block: per parent and class, the parent's
    row with Ap[c] + m in place of each minimal generator Ap[c] above its
    Frobenius number.  Deleting g leaves the minimal generators inside the
    others and g + m (every minimal generator is at most the child's
    F + m = g + m), so a child's mask is found among its parent's classes."""
    m = apery.shape[1]
    parents, classes = np.nonzero(mask & (apery > apery.max(axis=1, keepdims=True) - m))  # Ap[c] > F
    apery, mask = apery[parents], mask[parents]
    apery[np.arange(len(parents)), classes] += m
    return apery, _minimal(apery, mask)


def _walk(max_genus: int) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Yield (genus, Apery matrix, minimal-generator mask), one block per
    genus 1..max_genus and multiplicity m = 2..genus + 1, multiplicity by
    multiplicity; only one block is held at a time.

    Deleting the multiplicity m itself happens only in the ordinary
    semigroup {0, m, m + 1, ...}, whose child is the next ordinary one.  So
    every semigroup of multiplicity m and genus g >= m lies below the
    ordinary semigroup of multiplicity m (genus m - 1, Apery row
    (0, m + 1, ..., 2m - 1)) through deletions that keep m, and ``_step``,
    applied once per genus from that row, lists all of them."""
    for m in range(2, max_genus + 2):
        apery, mask = np.r_[0, m + 1 : 2 * m][None], np.arange(m)[None] > 0
        yield m - 1, apery, mask
        for genus in range(m, max_genus + 1):
            apery, mask = _step(apery, mask)
            yield genus, apery, mask


def children(s: NumericalSemigroup) -> list[NumericalSemigroup]:
    """All semigroups obtained by deleting one eligible minimal generator:
    the ``_walk`` step on the one row of ``s``, plus the next ordinary
    semigroup when ``s`` is ordinary (F < m), each child built by
    ``new_semigroup`` from its minimal generators."""
    m = s.multiplicity
    if s.generators[-1] <= s.frobenius:
        return []
    mask = np.zeros((1, m), bool)
    mask[0, np.array(s.generators[1:], np.int64) % m] = True
    rows = _sorted_rows(*_step(np.array([s.apery]), mask)) if m > 1 else []  # <1> has no generator to raise
    ordinary = [new_semigroup(range(m + 1, 2 * m + 2))] if s.frobenius < m else []
    return [new_semigroup([m, *gens]) for gens in rows] + ordinary
