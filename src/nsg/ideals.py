"""Relative ideals over a numerical semigroup and the canonical trace.

A relative ideal I over S is a bounded-below set of integers with I + S
contained in I.  The multiplicity m is a member of S, so I meets each residue
class c mod m in the progression x[c], x[c] + m, x[c] + 2m, ...: the ideal is
determined by its class-minimum vector x, an int64 array of length m (the
Apery set of S is the class-minimum vector of S itself).  Every operation
here works on such vectors, at O(generators * m) cost whatever F is:

- canonical ideal: k[c] = F + m - Ap[(F - c) mod m];
- minimal generators: the x[c] with x[c] - g < x[(c - g) mod m] for every
  generator g != m;
- dual S - I: d[c] = max over generators a of I of Ap[(c + a) mod m] - a;
- Minkowski sum I + J: s[c] = min over generators a of I of
  a + J[(c - a) mod m].

The public form ``RelativeIdeal`` (a finite head plus a conductor from which
everything belongs to the ideal) is read and built only at the API boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AmbientMismatch, TrivialSemigroup
from .semigroup import NumericalSemigroup, _fold, pseudo_frobenius

__all__ = [
    "RelativeIdeal",
    "TraceReport",
    "GapBoundCheck",
    "canonical_ideal",
    "dual_ideal",
    "ideal_sum",
    "minimal_generators",
    "trace_and_residue",
    "gap_bound_check",
]

@dataclass(frozen=True)
class RelativeIdeal:
    """Canonical head/conductor form of a relative ideal.

    ``head`` holds exactly the elements below ``conductor``; the interval
    [conductor, infinity) is contained wholesale, and conductor - 1 is not
    in the ideal (when the head is empty the conductor is the minimum).
    """

    ambient: NumericalSemigroup
    head: tuple[int, ...]
    conductor: int

    def contains(self, x: int) -> bool:
        return x >= self.conductor or x in self.head

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RelativeIdeal)
            and self.ambient.generators == other.ambient.generators
            and self.head == other.head
            and self.conductor == other.conductor
        )

    def __hash__(self) -> int:
        return hash((self.ambient.generators, self.head, self.conductor))

    def __repr__(self) -> str:
        return f"RelativeIdeal(head={list(self.head)}, tail>={self.conductor})"


def _class_mins(ideal: RelativeIdeal, m: int) -> np.ndarray:
    """Least element of the ideal in each residue class mod m: the tail
    [conductor, conductor + m) lowered by the head."""
    x = ideal.conductor + (np.arange(m) - ideal.conductor) % m
    head = np.array(ideal.head, dtype=np.int64)
    np.minimum.at(x, head % m, head)
    return x


def _from_class_mins(ambient: NumericalSemigroup, x: np.ndarray) -> RelativeIdeal:
    """Head/conductor form of the ideal with class-minimum vector x; the
    largest non-element is max(x) - m."""
    m = len(x)
    conductor = int(x.max()) - m + 1
    v = np.arange(int(x.min()), conductor)
    return RelativeIdeal(ambient, tuple(v[v >= x[v % m]].tolist()), conductor)


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
    """Trace ideal of the canonical ideal, with residue and classification.

    ``pf`` holds the pseudo-Frobenius numbers; the naturals carry (-1,):
    -1 is their Frobenius number and plays the canonical-generator role
    there, which keeps the gluing and lifting formulas total.
    """

    trace: RelativeIdeal
    trace_min_gens: tuple[int, ...]
    pf: tuple[int, ...]
    residue: int
    missing: tuple[int, ...]
    gorenstein: bool
    nearly_gorenstein: bool
    gap_bound: int
    question_holds: bool


@dataclass(frozen=True)
class GapBoundCheck:
    residue: int
    gap_bound: int
    holds: bool
    slack: int


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
    return _from_class_mins(s, f + m - np.array(s.apery)[(f - np.arange(m)) % m])


def dual_ideal(s: NumericalSemigroup, ideal: RelativeIdeal) -> RelativeIdeal:
    """All z whose translate z + ideal lands inside the semigroup.

    Only the least element of the ideal in each class mod m matters, and of
    those only the minimal generators a: d[c] is the largest value of
    Ap[(c + a) mod m] - a over them, O(generators * m).
    """
    gens = _min_gens(_class_mins(ideal, s.multiplicity), s.generators)
    return _from_class_mins(s, _dual(np.array(s.apery), gens))


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
    m = s.multiplicity
    gens = _min_gens(_class_mins(left, m), s.generators)
    return _from_class_mins(s, _sum(gens, _class_mins(right, m)))


def minimal_generators(ideal: RelativeIdeal) -> tuple[int, ...]:
    """Elements not reachable from the ideal by adding a nonzero member.

    Only class minima qualify (x - m is in the ideal otherwise), and it
    suffices to subtract single generators: reaching x from x - s for a
    composite member s implies reaching it from x - g for a generator g by
    stability.
    """
    s = ideal.ambient
    return tuple(_min_gens(_class_mins(ideal, s.multiplicity), s.generators).tolist())


def trace_and_residue(s: NumericalSemigroup) -> TraceReport:
    """Canonical trace ideal, residue, and nearly-Gorenstein classification.

    The trace is K + (S - K), all on class-minimum vectors, where K is
    generated by F - x over the pseudo-Frobenius numbers x.  The residue
    counts the members below the trace's class minima; genus comes from
    Selmer's formula (the sum of Ap[c] // m), and the Gorenstein flag from
    the independent symmetry count 2 * genus == F + 1, which is
    cross-checked against residue zero: disagreement means a bug, not data.
    """
    m, f = s.multiplicity, s.frobenius
    apery = np.array(s.apery)
    pf = (-1,) if s.is_naturals else pseudo_frobenius(s).elements
    kan_gens = f - np.array(pf[::-1])
    trace = _sum(kan_gens, _dual(apery, kan_gens))
    counts = (trace - apery) // m
    residue = int(counts.sum())
    # class c misses apery[c], apery[c] + m, ..., trace[c] - m
    steps = np.arange(residue) - np.repeat(np.cumsum(counts) - counts, counts)
    missing = np.sort(np.repeat(apery, counts) + m * steps)
    genus = int((apery // m).sum())
    gorenstein = 2 * genus == f + 1
    if gorenstein != (residue == 0):
        raise AssertionError(
            f"symmetry test and residue disagree on {s}: symmetric={gorenstein}, residue={residue}"
        )
    bound = 2 * genus - f - 1  # genus minus the f + 1 - genus members below F
    return TraceReport(
        trace=_from_class_mins(s, trace),
        trace_min_gens=tuple(_min_gens(trace, s.generators).tolist()),
        pf=pf,
        residue=residue,
        missing=tuple(missing.tolist()),
        gorenstein=gorenstein,
        nearly_gorenstein=residue <= 1,
        gap_bound=bound,
        question_holds=residue <= bound,
    )


def gap_bound_check(s: NumericalSemigroup) -> GapBoundCheck:
    """Residue against the gap-count bound; negative slack would be a finding."""
    if s.is_naturals:
        raise TrivialSemigroup("gap bound needs at least one gap")
    report = trace_and_residue(s)
    return GapBoundCheck(
        residue=report.residue,
        gap_bound=report.gap_bound,
        holds=report.question_holds,
        slack=report.gap_bound - report.residue,
    )
