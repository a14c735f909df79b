"""Relative ideals over a numerical semigroup and the canonical trace.

A relative ideal I over S is a bounded-below set of integers with I + S
contained in I.  The multiplicity m is a member of S, so I meets each residue
class c mod m in the progression x[c], x[c] + m, x[c] + 2m, ...: the ideal is
determined by its class-minimum vector x of length m (the Apery set of S is
the class-minimum vector of S itself).  ``RelativeIdeal`` stores exactly that
vector, and every operation here reads and writes it, at O(generators * m)
cost whatever F is:

- the ideal generated by a_1, ..., a_k: x[c] = min over i of
  a_i + Ap[(c - a_i) mod m];
- canonical ideal: k[c] = F + m - Ap[(F - c) mod m];
- minimal generators: the x[c] with x[c] - g < x[(c - g) mod m] for every
  generator g != m;
- dual S - I: d[c] = max over generators a of I of Ap[(c + a) mod m] - a;
- Minkowski sum I + J: s[c] = min over generators a of I of
  a + J[(c - a) mod m].

The head (the elements below the conductor), an O(F) list, is computed
only when it is read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import AmbientMismatch, TrivialSemigroup
from .semigroup import NumericalSemigroup, _fold, pseudo_frobenius

__all__ = [
    "RelativeIdeal",
    "TraceReport",
    "generated_ideal",
    "canonical_ideal",
    "dual_ideal",
    "ideal_sum",
    "minimal_generators",
    "trace_and_residue",
    "gap_bound_check",
]


@dataclass(frozen=True)
class RelativeIdeal:
    """A relative ideal, stored as its class-minimum vector.

    ``mins[c]`` is the least element congruent to c mod the multiplicity m of
    ``ambient``, so x is in the ideal iff x >= mins[x % m].  The conductor
    (everything from it on is in the ideal, the element before it is not)
    and the head (the elements below the conductor) are derived on demand.
    """

    ambient: NumericalSemigroup
    mins: tuple[int, ...]

    def __post_init__(self) -> None:
        m = self.ambient.multiplicity
        if len(self.mins) != m:
            raise ValueError(f"need one class minimum per residue mod {m}, got {len(self.mins)}")

    @property
    def conductor(self) -> int:
        return max(self.mins) - len(self.mins) + 1

    @property
    def head(self) -> tuple[int, ...]:
        x = np.array(self.mins)
        v = np.arange(int(x.min()), self.conductor)
        return tuple(v[v >= x[v % len(x)]].tolist())

    def contains(self, x: int) -> bool:
        return x >= self.mins[x % len(self.mins)]


def _ideal(s: NumericalSemigroup, x: np.ndarray) -> RelativeIdeal:
    return RelativeIdeal(s, tuple(x.tolist()))


def _min_gens(x: np.ndarray, generators: tuple[int, ...]) -> np.ndarray:
    """Sorted minimal generators of the ideal with class-minimum vector x
    over the semigroup with these generators (the first is m): x[c] stays
    iff x[c] - g misses the ideal for every other generator g."""
    gens = np.array(generators[1:], dtype=np.int64)
    if len(gens):
        x = x[x < _fold(x, -gens, gens, np.minimum)]
    return np.sort(x)


def _dual(apery: np.ndarray, gens: np.ndarray) -> np.ndarray:
    """S - I from generators of I: z + a must reach the Apery element of its
    class for every generator a."""
    return _fold(apery, gens, -gens, np.maximum)


def _sum(gens: np.ndarray, x: np.ndarray) -> np.ndarray:
    """I + J from generators of I and the class-minimum vector x of J."""
    return _fold(x, -gens, gens, np.minimum)


@dataclass(frozen=True)
class TraceReport:
    """Trace ideal of the canonical ideal, with its residue and the genus.

    ``pf`` holds the pseudo-Frobenius numbers; the naturals carry (-1,):
    -1 is their Frobenius number and plays the canonical-generator role
    there, which keeps the gluing and lifting formulas total.  Only the
    trace, its minimal generators, ``pf``, the residue and the genus are
    stored; the classification derives from them when read:

    - ``gorenstein``: residue 0; ``nearly_gorenstein``: residue <= 1;
    - ``gap_bound``: genus minus the F + 1 - genus members below F;
    - ``slack``: gap_bound - residue, and ``question_holds`` iff it is >= 0;
    - ``missing``: the members below the trace's class minima, an O(F) list.
    """

    trace: RelativeIdeal
    trace_min_gens: tuple[int, ...]
    pf: tuple[int, ...]
    residue: int
    genus: int

    @property
    def gorenstein(self) -> bool:
        return self.residue == 0

    @property
    def nearly_gorenstein(self) -> bool:
        return self.residue <= 1

    @property
    def gap_bound(self) -> int:
        return 2 * self.genus - self.trace.ambient.frobenius - 1

    @property
    def slack(self) -> int:
        return self.gap_bound - self.residue

    @property
    def question_holds(self) -> bool:
        return self.residue <= self.gap_bound

    @property
    def missing(self) -> tuple[int, ...]:
        m = len(self.trace.mins)
        apery = np.array(self.trace.ambient.apery)
        counts = (np.array(self.trace.mins) - apery) // m
        # class c misses apery[c], apery[c] + m, ..., trace[c] - m
        steps = np.arange(self.residue) - np.repeat(np.cumsum(counts) - counts, counts)
        return tuple(np.sort(np.repeat(apery, counts) + m * steps).tolist())


def generated_ideal(s: NumericalSemigroup, elements: Iterable[int]) -> RelativeIdeal:
    """The relative ideal elements + S: its class minima are the least
    a + Ap[(c - a) mod m] over the given elements a."""
    gens = np.array(list(elements), dtype=np.int64)
    if not len(gens):
        raise ValueError("a relative ideal needs at least one generating element")
    return _ideal(s, _sum(gens, np.array(s.apery)))


def canonical_ideal(s: NumericalSemigroup) -> RelativeIdeal:
    """The canonical ideal normalized to start at 0: all z with F - z a gap.

    Its class minima are k[c] = F + m - Ap[(F - c) mod m], and its minimal
    generators over the semigroup are F - x for the pseudo-Frobenius
    numbers x.
    """
    if s.is_naturals:
        raise TrivialSemigroup("the naturals are their own canonical ideal; no gaps to reflect")
    m, f = s.multiplicity, s.frobenius
    # z is in K iff F - z is a gap, iff z > F - Ap[(F - z) mod m]
    return _ideal(s, f + m - np.array(s.apery)[(f - np.arange(m)) % m])


def dual_ideal(s: NumericalSemigroup, ideal: RelativeIdeal) -> RelativeIdeal:
    """All z whose translate z + ideal lands inside the semigroup.

    Only the least element of the ideal in each class mod m matters, and of
    those only the minimal generators a: d[c] is the largest value of
    Ap[(c + a) mod m] - a over them, O(generators * m).
    """
    if ideal.ambient.generators != s.generators:
        raise AmbientMismatch(f"cannot dualize an ideal over {ideal.ambient.generators} in {s.generators}")
    gens = _min_gens(np.array(ideal.mins), s.generators)
    return _ideal(s, _dual(np.array(s.apery), gens))


def ideal_sum(left: RelativeIdeal, right: RelativeIdeal) -> RelativeIdeal:
    """Minkowski sum of two relative ideals over the same semigroup.

    It is the union of a + right over the minimal generators a of left, so
    its class minima are the least a + right[(c - a) mod m] over them.
    """
    if left.ambient.generators != right.ambient.generators:
        raise AmbientMismatch(
            f"cannot add ideals over {left.ambient.generators} and {right.ambient.generators}"
        )
    s = left.ambient
    gens = _min_gens(np.array(left.mins), s.generators)
    return _ideal(s, _sum(gens, np.array(right.mins)))


def minimal_generators(ideal: RelativeIdeal) -> tuple[int, ...]:
    """Elements not reachable from the ideal by adding a nonzero member.

    Only class minima qualify (x - m is in the ideal otherwise), and it
    suffices to subtract single generators: reaching x from x - s for a
    composite member s implies reaching it from x - g for a generator g by
    stability.
    """
    return tuple(_min_gens(np.array(ideal.mins), ideal.ambient.generators).tolist())


def trace_and_residue(s: NumericalSemigroup) -> TraceReport:
    """Canonical trace ideal, residue, and genus.

    The trace is K + (S - K), all on class-minimum vectors, where K is
    generated by F - x over the pseudo-Frobenius numbers x.  The residue
    counts the members below the trace's class minima; genus comes from
    Selmer's formula (the sum of Ap[c] // m), and the independent symmetry
    count 2 * genus == F + 1 is cross-checked against residue zero:
    disagreement means a bug, not data.
    """
    m, f = s.multiplicity, s.frobenius
    apery = np.array(s.apery)
    pf = (-1,) if s.is_naturals else pseudo_frobenius(s).elements
    kan_gens = f - np.array(pf[::-1])
    trace = _sum(kan_gens, _dual(apery, kan_gens))
    residue = int(((trace - apery) // m).sum())
    genus = int((apery // m).sum())
    symmetric = 2 * genus == f + 1
    if symmetric != (residue == 0):
        raise AssertionError(f"symmetry test and residue disagree on {s}: symmetric={symmetric}, residue={residue}")
    return TraceReport(
        trace=_ideal(s, trace),
        trace_min_gens=tuple(_min_gens(trace, s.generators).tolist()),
        pf=pf,
        residue=residue,
        genus=genus,
    )


def gap_bound_check(s: NumericalSemigroup) -> TraceReport:
    """The trace report of a semigroup with at least one gap, for its residue
    against the gap-count bound; a negative ``slack`` would be a finding."""
    if s.is_naturals:
        raise TrivialSemigroup("gap bound needs at least one gap")
    return trace_and_residue(s)
