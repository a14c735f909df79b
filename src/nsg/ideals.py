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
only when it is read.  The trace of many semigroups of one multiplicity
runs in two stages on their Apery matrix: ``trace_columns``, the array
stage, gives the trace class minima and, per row, the residue, the genus,
F and the slack; ``trace_lists``, the list stage, gives the
sorted pseudo-Frobenius numbers and trace minimal generators of the rows
it is given.  ``trace_reports`` runs both stages once per multiplicity on a
list of semigroups and wraps each row into a ``TraceReport``;
``trace_and_residue`` gives the same report for one semigroup, without the
grouping.  ``nsg hunt`` runs the array stage on batches of the genus tree
and the list stage only on the rows that become records.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .errors import AmbientMismatch, TrivialSemigroup
from .semigroup import NumericalSemigroup, _Value, _fold, _maximal, _members, _row, _sorted_rows

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
    "trace_columns",
    "trace_lists",
    "classification",
    "gap_bound_check",
]


class RelativeIdeal(_Value):
    """A relative ideal, stored as its class-minimum vector.

    ``mins[c]`` is the least element congruent to c mod the multiplicity m of
    ``ambient``, so x is in the ideal iff x >= mins[x % m].  The conductor
    (everything from it on is in the ideal, the element before it is not)
    and the head (the elements below the conductor) are derived on demand.
    A vector is accepted only if each mins[c] is congruent to c and the
    vector is closed under adding each generator g of ``ambient``,
    mins[(c + g) mod m] <= mins[c] + g, which makes I + S lie inside I.
    The ideals this module computes are closed by construction and skip
    the check (``_ideal``).
    """

    __slots__ = ("ambient", "mins")
    ambient: NumericalSemigroup
    mins: tuple[int, ...]

    def __init__(self, ambient: NumericalSemigroup, mins: tuple[int, ...]):
        super().__init__(ambient, mins)
        m = self.ambient.multiplicity
        if len(self.mins) != m:
            raise ValueError(f"need one class minimum per residue mod {m}, got {len(self.mins)}")
        x = _row(self.mins)
        if not ((x % m == np.arange(m)) & (x <= _sum(np.array([self.ambient.generators]), x))).all():
            raise ValueError(f"{self.mins} is not a class-minimum vector closed under the generators of {self.ambient}")

    @property
    def conductor(self) -> int:
        return max(self.mins) - len(self.mins) + 1

    @property
    def head(self) -> tuple[int, ...]:
        return tuple(_members(_row(self.mins), np.array([[self.conductor]]))[0])

    def contains(self, x: int) -> bool:
        return x >= self.mins[x % len(self.mins)]


def _ideal(s: NumericalSemigroup, mins: list[int]) -> RelativeIdeal:
    """The ideal of a class-minimum vector that is closed by construction,
    made without the closure check of ``RelativeIdeal``."""
    ideal = object.__new__(RelativeIdeal)
    _Value.__init__(ideal, s, tuple(mins))
    return ideal


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


class TraceReport(_Value):
    """Trace ideal of the canonical ideal, with its residue and the genus.

    ``pf`` holds the pseudo-Frobenius numbers; the naturals carry (-1,):
    -1 is their Frobenius number and plays the canonical-generator role
    there, which keeps the gluing and lifting formulas total.  Only the
    trace, its minimal generators, ``pf``, the residue and the genus are
    stored; the verdicts of ``classification`` (``gorenstein``,
    ``nearly_gorenstein``, ``gap_bound``, ``slack``, ``question_holds``) and
    ``missing``, the members below the trace's class minima (an O(F) list),
    derive from them when read.
    """

    __slots__ = ("trace", "trace_min_gens", "pf", "residue", "genus")
    trace: RelativeIdeal
    trace_min_gens: tuple[int, ...]
    pf: tuple[int, ...]
    residue: int
    genus: int

    def _verdict(self, key: str) -> int:
        return classification(self.residue, self.genus, self.trace.ambient.frobenius)[key]

    @property
    def gorenstein(self) -> bool:
        return self._verdict("gorenstein")

    @property
    def nearly_gorenstein(self) -> bool:
        return self._verdict("nearly_gorenstein")

    @property
    def gap_bound(self) -> int:
        return self._verdict("gap_bound")

    @property
    def slack(self) -> int:
        return self._verdict("slack")

    @property
    def question_holds(self) -> bool:
        return self._verdict("question_holds")

    @property
    def missing(self) -> tuple[int, ...]:
        return tuple(_members(_row(self.trace.ambient.apery), _row(self.trace.mins))[0])


def classification(residue: int, genus: int, frobenius: int) -> dict:
    """The verdicts on a semigroup with this trace residue, genus and
    Frobenius number: ``gorenstein`` (residue 0), ``nearly_gorenstein``
    (residue <= 1), the ``gap_bound`` (genus minus the F + 1 - genus members
    below F), ``question_holds`` (residue <= gap_bound) and the ``slack``
    gap_bound - residue, in that key order."""
    gap_bound = 2 * genus - frobenius - 1
    return {
        "gorenstein": residue == 0,
        "nearly_gorenstein": residue <= 1,
        "gap_bound": gap_bound,
        "question_holds": residue <= gap_bound,
        "slack": gap_bound - residue,
    }


def generated_ideal(s: NumericalSemigroup, elements: Iterable[int]) -> RelativeIdeal:
    """The relative ideal elements + S: its class minima are the least
    a + Ap[(c - a) mod m] over the given elements a."""
    gens = np.array(list(elements), dtype=np.int64)
    if not len(gens):
        raise ValueError("a relative ideal needs at least one generating element")
    return _ideal(s, _sum(gens[None], np.array([s.apery]))[0].tolist())


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
    return _ideal(s, (f + m - np.array(s.apery)[(f - np.arange(m)) % m]).tolist())


def dual_ideal(s: NumericalSemigroup, ideal: RelativeIdeal) -> RelativeIdeal:
    """All z whose translate z + ideal lands inside the semigroup.

    Only the least element of the ideal in each class mod m matters, and of
    those only the minimal generators a: d[c] is the largest value of
    Ap[(c + a) mod m] - a over them, O(generators * m).
    """
    if ideal.ambient.generators != s.generators:
        raise AmbientMismatch(f"cannot dualize an ideal over {ideal.ambient.generators} in {s.generators}")
    gens = _min_gens(np.array(ideal.mins), s.generators)
    return _ideal(s, _dual(np.array([s.apery]), gens[None])[0].tolist())


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
    return _ideal(s, _sum(gens[None], np.array([right.mins]))[0].tolist())


def minimal_generators(ideal: RelativeIdeal) -> tuple[int, ...]:
    """Elements not reachable from the ideal by adding a nonzero member.

    Only class minima qualify (x - m is in the ideal otherwise), and it
    suffices to subtract single generators: reaching x from x - s for a
    composite member s implies reaching it from x - g for a generator g by
    stability.
    """
    return tuple(_min_gens(np.array(ideal.mins), ideal.ambient.generators).tolist())


def trace_and_residue(s: NumericalSemigroup) -> TraceReport:
    """Canonical trace ideal, residue, and genus: both stages of the trace,
    ``trace_columns`` and ``trace_lists``, on the one row of ``s``.  It is
    ``trace_reports([s])[0]`` without the grouping, which would make a
    one-row trace about 9% slower."""
    m, apery, gens = s.multiplicity, _row(s.apery), np.array([s.generators])
    trace, maximal, residue, genus, _, _ = trace_columns(m, apery, gens)
    (tg,), (pf,) = trace_lists(m, apery, gens, trace, maximal)
    return TraceReport(_ideal(s, trace[0].tolist()), tuple(tg), tuple(pf), residue[0], genus[0])


def trace_reports(semigroups: Iterable[NumericalSemigroup]) -> list[TraceReport]:
    """The ``trace_and_residue`` reports of ``semigroups``, in input order.
    Each distinct semigroup is traced once; those of one multiplicity m are
    the rows of one Apery matrix, with their generator rows padded with m,
    and go through one ``trace_columns`` and one ``trace_lists`` call."""
    xs = list(semigroups)
    groups: dict[int, dict[NumericalSemigroup, None]] = {}
    for s in xs:
        groups.setdefault(s.multiplicity, {})[s] = None
    reports = {}
    for m, group in groups.items():
        width = max(len(s.generators) for s in group)
        apery = np.array([s.apery for s in group])
        gens = np.array([s.generators + (m,) * (width - len(s.generators)) for s in group])
        trace, maximal, residue, genus, _, _ = trace_columns(m, apery, gens)
        columns = trace.tolist(), *trace_lists(m, apery, gens, trace, maximal), residue, genus
        for s, mins, tg, pf, r, g in zip(group, *columns):
            reports[s] = TraceReport(_ideal(s, mins), tuple(tg), tuple(pf), r, g)
    return [reports[s] for s in xs]


def trace_columns(
    m: int, apery: np.ndarray, gens: np.ndarray
) -> tuple[np.ndarray, np.ndarray, list[int], list[int], list[int], list[int]]:
    """The array stage of the canonical trace of the semigroups of
    multiplicity m whose Apery sets, indexed by residue, are the rows of the
    integer matrix ``apery`` and whose minimal generators are the matching
    rows of the integer matrix ``gens`` (padded with m): the (rows x m)
    trace class-minimum matrix, the (rows x m) mask of the maximal Apery
    elements (w - m over them are the pseudo-Frobenius numbers), and per row,
    as lists of ints, the residue, the genus, F and the slack
    (``classification``).

    The trace is K + (S - K), all on class-minimum vectors, where K is the
    canonical ideal.  It does not change when K is translated, so K - F - m
    stands for K: its class minima are -Ap[c], and those at the maximal
    Ap[c], -m - x over the pseudo-Frobenius numbers x, generate it; the
    classes maximal on no row are dropped, and any other class minimum of
    K - F - m may stand beside the generators, since it changes neither the
    dual nor the sum.  Each of maximal, dual and sum is one row fold.  The
    residue counts the members below the trace's class minima; genus comes
    from Selmer's formula (the sum of Ap[c] // m), and the independent
    symmetry count 2 * genus == F + 1 is cross-checked against residue zero
    on every row: disagreement means a bug, not data, and names the row's
    semigroup.  These verdicts are Python ints, computed row by row from two
    numpy row sums: as numpy arrays they would add about 14 numpy calls to
    every one-row trace.  The naturals, with the one maximal Apery element
    0, get F = -1.
    """
    maximal = _maximal(apery, gens)
    # one row picks its maximal classes directly, at a quarter of the cost of the column union
    kan = -(apery[maximal][None] if len(apery) == 1 else apery[:, maximal.any(axis=0)])
    trace = _sum(kan, _dual(apery, kan))
    # trace[c] and Ap[c] share the class c, so the members of class c below
    # the trace number (trace[c] - Ap[c]) / m; Selmer's sum of Ap[c] // m is
    # (sum of Ap[c] - m(m - 1)/2) / m
    residues, genera, frobenii, slacks = [], [], [], []
    sums = zip(np.add.reduce(trace, axis=1).tolist(), np.add.reduce(apery, axis=1).tolist(), apery.max(axis=1).tolist())
    for j, (traced, total, highest) in enumerate(sums):
        residue, genus, f = (traced - total) // m, (total - m * (m - 1) // 2) // m, highest - m
        if (2 * genus == f + 1) != (residue == 0):
            s = f"NumericalSemigroup({sorted(set(gens[j].tolist()))})"
            raise AssertionError(f"symmetry test and residue disagree on {s}: genus {genus}, residue {residue}")
        residues.append(residue)
        genera.append(genus)
        frobenii.append(f)
        slacks.append(2 * genus - f - 1 - residue)
    return trace, maximal, residues, genera, frobenii, slacks


def trace_lists(
    m: int, apery: np.ndarray, gens: np.ndarray, trace: np.ndarray, maximal: np.ndarray
) -> tuple[list[list[int]], list[list[int]]]:
    """The list stage of the canonical trace, for the rows of ``apery`` and
    ``gens`` (as in ``trace_columns``) and their rows of its ``trace`` and
    ``maximal``: per row, the sorted minimal generators of the trace and the
    sorted pseudo-Frobenius numbers ([-1] for the naturals)."""
    pfs = [[w - m for w in row] for row in _sorted_rows(apery, maximal)]
    return _sorted_rows(trace, _generator_mask(trace, gens)), pfs


def gap_bound_check(s: NumericalSemigroup) -> TraceReport:
    """The trace report of a semigroup with at least one gap, for its residue
    against the gap-count bound; a negative ``slack`` would be a finding."""
    if s.is_naturals:
        raise TrivialSemigroup("gap bound needs at least one gap")
    return trace_and_residue(s)
