"""Exact arithmetic of numerical semigroups.

A numerical semigroup is a subset of the nonnegative integers closed under
addition, containing 0, with finite complement.  Each one is stored as its
Apery set w.r.t. the multiplicity m (the least member of every residue class
mod m), built from the generators in O(generators * m) integer steps; the
same pass picks out the minimal generators.  The Frobenius number,
membership and the pseudo-Frobenius numbers follow from the Apery set.
Lists of integers bounded class by class, such as the gaps (the v below
Ap[v mod m]), come from one boolean grid over (quotient, residue) pairs,
built for many rows at once by ``_members``.
"""

from __future__ import annotations

import functools
import math
from itertools import compress
from typing import Iterable, Sequence

import numpy as np

from .errors import EmptyInput, GcdNotOne, InputTooLarge, TrivialSemigroup

# Largest multiplicity and Frobenius number accepted: the Apery table and the
# ideal layer's class-minimum vectors grow with m, gap lists, ideal heads and
# their ``_members`` grids with F.
SIZE_LIMIT = 10**7

# Largest temporary, in array elements, of one ``_fold`` step, here and in
# the ideal layer: the (generators x rows x m) gather is cut by rows, and a
# row whose own gather is larger by generators, _BLOCK // m at a time, so
# neither a (genus, multiplicity) block of the genus tree nor a
# maximal-embedding-dimension semigroup (about m generators) needs an
# unblocked temporary.
_BLOCK = 1 << 20

__all__ = [
    "NumericalSemigroup",
    "GapProfile",
    "PseudoFrobeniusSet",
    "new_semigroup",
    "gap_profile",
    "pseudo_frobenius",
]


def _apery_table(gens: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Apery set of <gens> w.r.t. m = gens[0], indexed by residue mod m, and
    the minimal generators, for sorted distinct ``gens``.

    Boecker-Liptak round robin: fold in one generator a at a time; within each
    class mod gcd(a, m), start at the smallest entry found so far and walk
    the cycle r -> r + a (mod m) once, keeping the smaller of the old entry
    and the predecessor plus a.  Before each fold the table is the Apery set
    of the smaller generators, so a is redundant, and skipped, iff it is
    already a member of theirs.  O(len(gens) * m) integer steps.
    """
    m = gens[0]
    table = [math.inf] * m
    table[0] = 0
    minimal = [m]
    for a in gens[1:]:
        if table[a % m] <= a:
            continue
        minimal.append(a)
        d = math.gcd(a, m)
        for r in range(d):
            n = min(table[r::d])
            if n == math.inf:
                continue
            for _ in range(m // d - 1):
                n += a
                p = n % m
                if table[p] < n:
                    n = table[p]
                else:
                    table[p] = n
    return tuple(table), tuple(minimal)  # gcd 1 leaves no class at infinity


class NumericalSemigroup:
    """A numerical semigroup, stored as its Apery set w.r.t. the multiplicity.

    ``apery[r]`` is the least member congruent to r mod the multiplicity m,
    so x >= 0 is a member iff x >= apery[x % m]; the Frobenius number, the
    pseudo-Frobenius numbers and the gaps derive from it.
    Instances are immutable after construction and safe to share between
    threads.  Construction reduces a non-minimal input generating set, whose
    redundant members the round robin that builds ``apery`` skips, and
    records that this happened in ``was_reduced``.
    Inputs whose multiplicity or Frobenius number exceeds ``SIZE_LIMIT`` are
    refused with ``InputTooLarge``.
    """

    __slots__ = ("generators", "multiplicity", "frobenius", "apery", "was_reduced")

    def __init__(self, raw_generators: Iterable[int]):
        raw = list(raw_generators)
        if not raw:
            raise EmptyInput("need at least one generator")
        if any(not isinstance(g, int) or g <= 0 for g in raw):
            raise ValueError(f"generators must be positive integers, got {raw}")
        if math.gcd(*raw) != 1:
            raise GcdNotOne(f"gcd of {sorted(set(raw))} is {math.gcd(*raw)}, not 1")

        gens = sorted(set(raw))
        m = gens[0]
        if m > SIZE_LIMIT:
            raise InputTooLarge(f"multiplicity {m} exceeds the size limit {SIZE_LIMIT}")
        self.multiplicity: int = m
        # two coprime generators a < b have F = ab - a - b (Sylvester), known before the table
        f = m * gens[1] - m - gens[1] if len(gens) == 2 else 0
        if f <= SIZE_LIMIT:
            self.apery, self.generators = _apery_table(gens)
            f = max(self.apery) - m
        if f > SIZE_LIMIT:
            raise InputTooLarge(f"Frobenius number {f} exceeds the size limit {SIZE_LIMIT}")
        self.frobenius: int = f
        # the minimal generators are a subset of the sorted distinct input
        self.was_reduced: bool = len(self.generators) != len(raw)

    @property
    def embedding_dimension(self) -> int:
        return len(self.generators)

    @property
    def is_naturals(self) -> bool:
        return self.generators == (1,)

    def contains(self, x: int) -> bool:
        """Membership test, valid for any integer."""
        return x >= 0 and x >= self.apery[x % self.multiplicity]

    def __contains__(self, x: int) -> bool:
        return self.contains(x)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, NumericalSemigroup) and self.generators == other.generators

    def __hash__(self) -> int:
        return hash(self.generators)

    def __repr__(self) -> str:
        return f"NumericalSemigroup({list(self.generators)})"


class _Value:
    """Base of the immutable result types.

    A subclass lists its fields, in order, as ``__slots__`` (its class body
    annotates their types) and the defaults of trailing fields, if any, in
    ``_defaults``.  An instance is built by position or by keyword, refuses
    assignment and deletion, equals only an instance of its own class with
    equal fields, hashes as the tuple of its fields, prints as
    ``Name(field=value, ...)`` and pickles as its class called on its
    fields.  Every method is written once, here, so defining a subclass
    generates and compiles no code.
    """

    __slots__ = ()
    _defaults: dict = {}

    def __init_subclass__(cls) -> None:
        # the slots' own setters, which write past the refusing __setattr__ below
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def __init__(self, *args, **kwargs):
        setters = self._setters
        i = len(setters)
        if kwargs or len(args) != i:
            args = self._bind(args, kwargs)
        while i:  # by index, the cheapest loop: about what a generated __init__ costs
            i -= 1
            setters[i](self, args[i])

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """The field values, in field order, of a call that names fields or
        leaves defaults out."""
        fields = cls.__slots__
        values = list(args)
        for name in fields[len(args) :]:
            if name in kwargs:
                values.append(kwargs.pop(name))  # the call's own dict
            elif name in cls._defaults:
                values.append(cls._defaults[name])
            else:
                raise TypeError(f"{cls.__qualname__} needs a value for {name!r}")
        if kwargs or len(values) > len(fields):
            raise TypeError(f"{cls.__qualname__} takes ({', '.join(fields)}), not {len(args)} and {sorted(kwargs)}")
        return values

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__slots__))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return type(self), self._values()


class GapProfile(_Value):
    """Gap data of a semigroup, stored as the increasing gap list.

    The genus (the gap count), the Frobenius number (the largest gap, -1 for
    the naturals) and the count of members below it, F + 1 - genus, are
    derived when read.
    """

    __slots__ = ("gaps",)
    gaps: tuple[int, ...]

    @property
    def genus(self) -> int:
        return len(self.gaps)

    @property
    def frobenius(self) -> int:
        return self.gaps[-1] if self.gaps else -1

    @property
    def non_gap_count(self) -> int:
        return self.frobenius + 1 - self.genus


class PseudoFrobeniusSet(_Value):
    """The pseudo-Frobenius numbers (gaps x with x + s inside for all nonzero
    members s); their count is the type."""

    __slots__ = ("elements",)
    elements: tuple[int, ...]

    @property
    def type(self) -> int:
        return len(self.elements)


def _fold(vecs: np.ndarray, shifts: np.ndarray, reduce: np.ufunc) -> np.ndarray:
    """reduce over i of vecs[j, (c + a) mod m] - a, a = shifts[j, i], for
    each row j of the (rows x m) matrix ``vecs`` and each c: row j reduced
    over its translates by -a, one per entry a of row j of the (rows x k)
    matrix ``shifts``.

    One gather of whole rotations per block of rows and generators: window
    p of the view below is the m entries of the doubled rows from flat
    position p on, so row j rotated left by r is window 2mj + r.
    """
    n, m = vecs.shape
    k = shifts.shape[1]
    if n > 1 and n * k * m > _BLOCK:
        rows = max(1, _BLOCK // (k * m))
        return np.concatenate([_fold(vecs[r : r + rows], shifts[r : r + rows], reduce) for r in range(0, n, rows)])
    if k > 1 and k * m > _BLOCK:
        cols = max(1, _BLOCK // m)
        return functools.reduce(reduce, (_fold(vecs, shifts[:, i : i + cols], reduce) for i in range(0, k, cols)))
    doubled = np.concatenate((vecs, vecs), axis=1)
    windows = np.ndarray((2 * m * n - m + 1, m), doubled.dtype, doubled, strides=doubled.strides[1:] * 2)
    shifts = shifts.T
    starts = shifts % m
    if n > 1:  # row 0 starts at window 0; one-row calls skip the add
        starts += np.arange(0, 2 * m * n, 2 * m)
    block = windows[starts]
    block -= shifts[:, :, None]
    return reduce.reduce(block, axis=0)


def _maximal(apery: np.ndarray, gens: np.ndarray) -> np.ndarray:
    """Which entries of each Apery row are maximal: w = Ap[c] is iff the
    largest Ap[(c + g) mod m] - g over the row's generators g stays below w
    (see ``pseudo_frobenius``).  m itself gives Ap[c] - m, which never
    decides, so it may pad a row."""
    return _fold(apery, gens, np.maximum) < apery


def new_semigroup(raw_generators: Iterable[int]) -> NumericalSemigroup:
    """Build the semigroup generated by ``raw_generators``.

    Non-minimal inputs are reduced to the unique minimal generating set,
    with ``was_reduced`` flagging that this happened.
    """
    return NumericalSemigroup(raw_generators)


def _members(lo: np.ndarray, hi: np.ndarray) -> list[list[int]]:
    """For each row j of the (rows x m) integer matrices ``lo`` and ``hi``,
    the increasing list of the integers v with lo[j, c] <= v < hi[j, c],
    c = v mod m; ``hi`` may be a (rows x 1) column, one bound for all classes.

    Cell (q, c) of one (depth x m) layer stands for v = q * m + c, for q
    from floor(min lo / m) up to ceil(max hi / m) over the open classes
    (lo < hi), negative q too; one boolean (rows x depth x m) grid compares
    the layer with each row's class bounds, and its flat nonzero positions
    come out row by row, then by increasing v, so nothing is sorted.  With
    no open class (a residue-0 ``missing`` row, say) nothing is built.
    """
    rows, m = lo.shape
    open_classes = lo < hi
    open_lo = lo[open_classes]
    if not open_lo.size:
        return [[] for _ in range(rows)]
    start = int(open_lo.min()) // m * m
    end = int(np.where(open_classes, hi, start).max())  # start is below every open hi
    layer = np.arange(start, -(-end // m) * m).reshape(-1, m)
    values, span = np.flatnonzero((layer >= lo[:, None]) & (layer < hi[:, None])), layer.size
    del layer  # freed before the Python ints are made
    if rows > 1:  # row j's member v sits at flat position j * span + v - start
        ends = np.searchsorted(values, np.arange(1, rows + 1) * span).tolist()
        values %= span
    values += start
    values = values.tolist()
    return [values] if rows == 1 else [values[a:b] for a, b in zip([0, *ends], ends)]


def _sorted_rows(values: np.ndarray, keep: np.ndarray) -> list[list[int]]:
    """For each row of the integer matrix ``values``, the increasing list of
    its entries where the boolean matrix ``keep`` is set."""
    return [sorted(compress(row, flags)) for row, flags in zip(values.tolist(), keep.tolist())]


def _row(vector: tuple[int, ...]) -> np.ndarray:
    """A (1 x len) matrix of one class vector, for one-row ``_members`` calls."""
    return np.fromiter(vector, np.int64, len(vector))[None]


def gap_profile(s: NumericalSemigroup) -> GapProfile:
    """The gaps: the v in class c below Ap[c]."""
    return GapProfile(tuple(_members(np.arange(s.multiplicity)[None], _row(s.apery))[0]))


def pseudo_frobenius(s: NumericalSemigroup) -> PseudoFrobeniusSet:
    """Exact pseudo-Frobenius set: w - m over the Apery elements w that are
    maximal under w <= w' iff w' - w is a member.

    Everything below an Apery element in that order is an Apery element too,
    so w = Ap[c] is maximal iff no w + g with g a generator is one (w + m
    never is).  Since Ap[(c + g) mod m] <= w + g always, that is iff the
    largest Ap[(c + g) mod m] - g over the generators stays below w.
    """
    if s.is_naturals:
        raise TrivialSemigroup("the naturals have no gaps, hence no pseudo-Frobenius numbers")
    apery = np.array([s.apery])
    maximal = _maximal(apery, np.array([s.generators]))
    return PseudoFrobeniusSet(tuple((np.sort(apery[maximal]) - s.multiplicity).tolist()))
