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
only when it is read.  ``trace_reports`` stacks the vectors of semigroups
with one multiplicity into a matrix and runs each step on all its rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Iterable

import numpy as np

from .errors import AmbientMismatch, TrivialSemigroup
from .semigroup import NumericalSemigroup, _by_multiplicity, _fold, _maximal, _members, _row

__all__ = [
    "RelativeIdeal",
    "TraceReport",
    "generated_ideal",
    "canonical_ideal",
    "dual_ideal",
    "ideal_sum",
    "minimal_generators",
    "trace_and_residue",
    "trace_reports",
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
        return tuple(_members(_row(self.mins), np.array([[self.conductor]]))[0])

    def contains(self, x: int) -> bool:
        return x >= self.mins[x % len(self.mins)]


def _ideal(s: NumericalSemigroup, x: np.ndarray) -> RelativeIdeal:
    return RelativeIdeal(s, tuple(x.tolist()))


def _generator_mask(x: np.ndarray, gens: np.ndarray) -> np.ndarray:
    """Which entries of each class-minimum row x are minimal generators over
    the semigroup whose generators are that row of ``gens``: x[c] is iff
    x[c] - g misses the ideal for every generator g.  m itself gives
    x[c] + m, which never decides, so it may pad a row."""
    return x < _fold(x, -gens, np.minimum)


def _min_gens(x: np.ndarray, generators: tuple[int, ...]) -> np.ndarray:
    """Sorted minimal generators of the ideal with class-minimum vector x."""
    return np.sort(x[_generator_mask(x[None], np.array([generators]))[0]])


def _dual(apery: np.ndarray, gens: np.ndarray) -> np.ndarray:
    """S - I, row by row, from generators of I: z + a must reach the Apery
    element of its class for every generator a."""
    return _fold(apery, gens, np.maximum)


def _sum(gens: np.ndarray, x: np.ndarray) -> np.ndarray:
    """I + J, row by row, from generators of I and the class-minimum vectors
    x of J."""
    return _fold(x, -gens, np.minimum)


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
        return tuple(_members(_row(self.trace.ambient.apery), _row(self.trace.mins))[0])


def generated_ideal(s: NumericalSemigroup, elements: Iterable[int]) -> RelativeIdeal:
    """The relative ideal elements + S: its class minima are the least
    a + Ap[(c - a) mod m] over the given elements a."""
    gens = np.array(list(elements), dtype=np.int64)
    if not len(gens):
        raise ValueError("a relative ideal needs at least one generating element")
    return _ideal(s, _sum(gens[None], np.array([s.apery]))[0])


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
    return _ideal(s, _dual(np.array([s.apery]), gens[None])[0])


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
    return _ideal(s, _sum(gens[None], np.array([right.mins]))[0])


def minimal_generators(ideal: RelativeIdeal) -> tuple[int, ...]:
    """Elements not reachable from the ideal by adding a nonzero member.

    Only class minima qualify (x - m is in the ideal otherwise), and it
    suffices to subtract single generators: reaching x from x - s for a
    composite member s implies reaching it from x - g for a generator g by
    stability.
    """
    return tuple(_min_gens(np.array(ideal.mins), ideal.ambient.generators).tolist())


def trace_and_residue(s: NumericalSemigroup) -> TraceReport:
    """Canonical trace ideal, residue, and genus: ``trace_reports([s])[0]``,
    without the grouping by multiplicity."""
    return _trace_rows(s.multiplicity, [s])[0]


def trace_reports(semigroups: Iterable[NumericalSemigroup]) -> list[TraceReport]:
    """The ``TraceReport`` of each semigroup, in input order.

    The trace is K + (S - K), all on class-minimum vectors, where K is
    generated by F - x over the pseudo-Frobenius numbers x.  The residue
    counts the members below the trace's class minima; genus comes from
    Selmer's formula (the sum of Ap[c] // m), and the independent symmetry
    count 2 * genus == F + 1 is cross-checked against residue zero:
    disagreement means a bug, not data.

    Semigroups of one multiplicity m are stacked into (rows x m) matrices,
    and each of pseudo-Frobenius, dual, sum and minimal generators is one
    row fold over them.  Ragged lists are padded with entries that cannot
    change a fold: m among the semigroup generators, and F - F = 0, a
    canonical generator of every row, among the canonical ones.
    """
    semigroups = list(semigroups)
    return _by_multiplicity(semigroups, lambda m, rows: _trace_rows(m, [semigroups[i] for i in rows]))


def _trace_rows(m: int, group: list[NumericalSemigroup]) -> list[TraceReport]:
    """``trace_reports`` of semigroups that share the multiplicity m."""
    apery = np.array([s.apery for s in group])
    width = max(len(s.generators) for s in group)
    gens = np.array([s.generators + (m,) * (width - len(s.generators)) for s in group])
    # the maximal Apery elements w, ascending: pf is w - m, and the canonical
    # generators are F - (w - m), where the last w is F + m
    tops = [sorted(compress(s.apery, keep)) for s, keep in zip(group, _maximal(apery, gens).tolist())]
    depth = max(map(len, tops))
    kan_gens = np.array([[top[-1] - w for w in top] + [0] * (depth - len(top)) for top in tops])
    trace = _sum(kan_gens, _dual(apery, kan_gens))
    # trace[c] and Ap[c] share the class c, so the members of class c below
    # the trace number trace[c] // m - Ap[c] // m
    levels = np.add.reduce(trace // m, axis=1).tolist()
    genera = np.add.reduce(apery // m, axis=1).tolist()
    reports = []
    for s, x, keep, top, level, genus in zip(
        group, trace.tolist(), _generator_mask(trace, gens).tolist(), tops, levels, genera
    ):
        residue = level - genus
        symmetric = 2 * genus == s.frobenius + 1
        if symmetric != (residue == 0):
            raise AssertionError(f"symmetry test and residue disagree on {s}: symmetric={symmetric}, residue={residue}")
        # the naturals, with the one maximal Apery element 0, get pf (-1,)
        reports.append(
            TraceReport(
                trace=RelativeIdeal(s, tuple(x)),
                trace_min_gens=tuple(sorted(compress(x, keep))),
                pf=tuple([w - m for w in top]),
                residue=residue,
                genus=genus,
            )
        )
    return reports


def gap_bound_check(s: NumericalSemigroup) -> TraceReport:
    """The trace report of a semigroup with at least one gap, for its residue
    against the gap-count bound; a negative ``slack`` would be a finding."""
    if s.is_naturals:
        raise TrivialSemigroup("gap bound needs at least one gap")
    return trace_and_residue(s)
