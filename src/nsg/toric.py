"""Binomial Groebner machinery for defining ideals of monomial curves.

Everything is a pure-difference binomial (coefficients +1/-1), so S-pairs
and reductions collapse to integer lattice operations on exponents.
``buchberger`` prunes S-pairs with the Gebauer-Moeller criteria M and F
before reducing them and takes the survivors in increasing degree for a
grading given by the caller.  Inside it every monomial is packed into one
Python int, 32 bits a variable with a guard bit on top of each field, so
that a divisibility test, an lcm, a support mask and a rewrite step are
each a few integer operations; an exponent that would not fit its field
raises ``InputTooLarge`` instead of spilling into the next variable.
Binomials, bases and their JSON keep exponent tuples.  The reducer buckets
its leads by their support mask and tests a monomial only against leads
whose support lies inside its own.  The defining ideal of a semigroup is
computed from its Apery set, over x_1..x_e alone with no parameter
variable: the least factorizations of the Apery elements form a staircase
of x_1-free monomials, one binomial per corner of it generates the ideal,
and ``buchberger`` takes those binomials and their S-pairs in order of
their degree under the weights (n_1, ..., n_e), each binomial behind the
S-pairs of its own degree.  The corners that do not reduce to zero when
taken are a minimal generating set (``defining_ideal``), so one pass gives
both the reduced basis and a minimal presentation.  On those inputs the
loop also skips every S-pair whose two sides share a variable: such an
S-binomial is x^g times an element of I_S of lower degree, as I_S is prime,
so the degree-ordered loop has already given it a representation below its
lcm.  The criterion rests on primality and on the inputs generating I_S, so
the public ``buchberger``, which takes any binomials, never applies it.
"""

from __future__ import annotations

import heapq
import operator
import struct
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

from .errors import EmbeddingDimensionTooSmall, InputTooLarge
from .ideals import trace_and_residue
from .semigroup import NumericalSemigroup

__all__ = [
    "Binomial",
    "MonomialOrder",
    "GroebnerBasis",
    "ClosureVerdict",
    "AcmHypothesisReport",
    "degrevlex",
    "buchberger",
    "normal_form",
    "defining_ideal",
    "homogenized_gb",
    "acm_and_hypothesis",
    "projective_ng_verdict",
]

Monomial = tuple[int, ...]


@dataclass(frozen=True)
class MonomialOrder:
    """Degrevlex over a fixed variable sequence: total degree first, ties
    broken by the latest variable, where a larger exponent sorts lower."""

    variables: tuple[str, ...]

    @property
    def kind(self) -> str:
        return "degrevlex"

    def key(self, m: Monomial) -> tuple:
        return (sum(m), tuple(map(operator.neg, reversed(m))))

    def greater(self, a: Monomial, b: Monomial) -> bool:
        return self.key(a) > self.key(b)

    def to_json(self) -> dict:
        return {"kind": self.kind, "variables": list(self.variables)}


def degrevlex(variables: Sequence[str]) -> MonomialOrder:
    return MonomialOrder(tuple(variables))


@dataclass(frozen=True)
class Binomial:
    """A pure-difference binomial; ``plus`` is the leading monomial under
    whatever order produced it."""

    plus: Monomial
    minus: Monomial

    @property
    def homogeneous(self) -> bool:
        return sum(self.plus) == sum(self.minus)

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, (a, b) in enumerate(zip(self.plus, self.minus)) if a or b)

    def to_json(self) -> dict:
        return {"plus": list(self.plus), "minus": list(self.minus), "homogeneous": self.homogeneous}

    def __repr__(self) -> str:
        return f"Binomial({self.plus} - {self.minus})"


_FIELD = 32  # bits a variable in a packed monomial; the top one is a guard bit


class _Packing:
    """Monomials over ``n`` variables packed into one int, ``_FIELD`` bits a
    variable with the first variable lowest.

    Each exponent lies in the low 31 bits of its field and the top bit, one
    of the bits of ``guard``, stays clear.  Subtracting a packed monomial
    from another with every guard bit set then borrows within each field and
    never across, which the kernels below rest on; as packing is linear,
    adding and subtracting packed monomials adds and subtracts exponents.
    """

    __slots__ = ("n", "guard", "ones", "_struct")

    def __init__(self, n: int):
        self.n = n
        self._struct = struct.Struct(f"<{n}I")
        self.ones = int.from_bytes(self._struct.pack(*(1,) * n), "little")
        self.guard = self.ones << (_FIELD - 1)

    def pack(self, m: Sequence[int]) -> int:
        if len(m) != self.n:
            raise ValueError(f"{m} does not have {self.n} exponents")
        try:
            packed = int.from_bytes(self._struct.pack(*m), "little")
        except struct.error:  # an exponent below 0 or from 2**32 up
            packed = self.guard
        if packed & self.guard:
            raise InputTooLarge(f"the exponents of {tuple(m)} must lie in 0..2**{_FIELD - 1}-1")
        return packed

    def unpack(self, m: int) -> Monomial:
        return self._struct.unpack(m.to_bytes(self._struct.size, "little"))


def _divides(small: int, big: int, guard: int) -> bool:
    # a field of (big | guard) - small keeps its guard bit iff it does not borrow
    return ((big | guard) - small) & guard == guard


def _support(m: int, guard: int, ones: int) -> int:
    # the guard bit of each nonzero exponent: the support of a lies inside
    # the support of b exactly when _support(a) & ~_support(b) == 0
    return ((m | guard) - ones) & guard


def _lcm(a: int, b: int, guard: int) -> int:
    # the guard bit of each field where a >= b, spread over its 31 low bits,
    # picks that field from a and the others from b
    ge = ((a | guard) - b) & guard
    keep = ge - (ge >> (_FIELD - 1))
    return (a & keep) | (b & ~keep)


def _rewrite(m: int, lead: int, tail: int, guard: int) -> int:
    """m with its divisor lead replaced by tail.  An exponent that outgrows
    its field sets that field's guard bit and is refused, not carried into
    the next variable."""
    m = m - lead + tail
    if m & guard:
        raise InputTooLarge(f"a rewritten exponent reached 2**{_FIELD - 1}")
    return m


def _orient(a: int, b: int, packing: _Packing, order: MonomialOrder) -> tuple[int, int]:
    """The packed lead and the packed tail of a - b, a != b."""
    return (a, b) if order.greater(packing.unpack(a), packing.unpack(b)) else (b, a)


class _Reducer:
    """Rewriting system over a growing set of packed (lead, tail) rules.

    The rules are bucketed by the support of the lead.  A lead divides a
    monomial only when its support lies inside the monomial's, so each
    monomial support seen keeps the list of buckets it contains, and a
    rewrite step uses the first dividing lead in those buckets.  A lead
    joins its bucket and so reaches every support already seen that
    contains its own; a bucket made later joins those supports.
    """

    __slots__ = ("guard", "ones", "buckets", "by_support")

    def __init__(self, packing: _Packing, rules: Iterable[tuple[int, int]] = ()):
        self.guard, self.ones = packing.guard, packing.ones
        self.buckets: dict[int, list[tuple[int, int]]] = {}
        self.by_support: dict[int, list[list[tuple[int, int]]]] = {}
        for lead, tail in rules:
            self.add(lead, tail)

    def add(self, lead: int, tail: int) -> None:
        mask = _support(lead, self.guard, self.ones)
        bucket = self.buckets.get(mask)
        if bucket is None:
            bucket = self.buckets[mask] = []
            for support, buckets in self.by_support.items():
                if not mask & ~support:
                    buckets.append(bucket)
        bucket.append((lead, tail))

    def reduce(self, m: int) -> int:
        guard, ones, by_support = self.guard, self.ones, self.by_support
        while True:
            support = _support(m, guard, ones)
            buckets = by_support.get(support)
            if buckets is None:
                buckets = [bucket for mask, bucket in self.buckets.items() if not mask & ~support]
                by_support[support] = buckets
            for lead, tail in chain.from_iterable(buckets):
                if _divides(lead, m, guard):
                    m = _rewrite(m, lead, tail, guard)
                    break
            else:
                return m


@dataclass(frozen=True)
class GroebnerBasis:
    """A reduced Groebner basis of a pure-difference binomial ideal."""

    elements: tuple[Binomial, ...]
    order: MonomialOrder

    @property
    def leading_monomials(self) -> tuple[Monomial, ...]:
        return tuple(b.plus for b in self.elements)

    def to_json(self) -> dict:
        return {"order": self.order.to_json(), "elements": [b.to_json() for b in self.elements]}


def buchberger(
    gens: Iterable[Binomial], order: MonomialOrder, grading: Sequence[int] | None = None
) -> GroebnerBasis:
    """Reduced Groebner basis via Buchberger's algorithm; fully deterministic.

    Normal pair selection: smallest degree of the lcm under ``grading`` (one
    positive integer weight per variable; ``None`` means all ones, the
    standard degree), ties by insertion index.  Each input waits in the same
    queue at the larger degree of its two sides, behind that degree's pairs
    (equal-degree inputs by packed sides, so the input order never
    matters); when it is taken both sides are reduced, and it is dropped if
    they meet, so an input that the pairs of its degree already give is
    dropped too (``defining_ideal`` rests on this).  Every element, input
    or S-pair, thus enters with a lead no earlier lead divides, and the
    leads of the elements still live at the end are the minimal leads.  The
    reduced basis of an ideal under an order is unique, so every positive
    grading gives the same basis and only the order of work changes.  A
    grading for which the input is homogeneous makes the pairs come in
    degree order (the sugar strategy of Giovini-Mora-Niesi-Robbiano-
    Traverso, ISSAC 1991).
    Each new element h forms its new pairs by two of the Gebauer-Moeller
    criteria (J. Symbolic Comput. 6, 1988):

    - M: a new pair (i, h) is dropped when another new pair's lcm properly
      divides its lcm;
    - F: one new pair is kept per distinct lcm, and none when any pair with
      that lcm has coprime leads (its S-pair reduces to zero).

    Older elements whose lead lead(h) divides then form no new pairs, but
    stay in the reducer.  Every monomial of the loop is packed into one int
    (``_Packing``), so divisibility, lcm and rewriting are a few integer
    operations, and two leads are coprime exactly when their lcm is their
    sum.  M takes the new lcms in increasing packed value: a proper divisor
    packs to a smaller int, so that order extends divisibility.  Monomials
    are unpacked only to orient a new element, to weight a queued pair and
    to build the final basis.
    An exponent of 2**31 or more raises ``InputTooLarge``.

    Their chain criterion B, which drops a queued pair (i, k) when lead(h)
    divides its lcm L and both lcm(i, h) and lcm(k, h) differ from L, is
    not applied, so every pair queued is reduced.  Those two lcms properly
    divide L, so they have a smaller degree and the loop takes the pairs B
    rests on before (i, k); a pair B would drop then costs one reduction.
    Testing B scans every queued pair at each push, and on the corners of
    I_S it drops no pair on the arithmetic grid up to n1 = 18 and 23 of
    1,147 on 300 random semigroups (seed 1, m <= 12), each of which
    reduces to zero.

    ``reduced_gb`` and ``defining_ideal`` add a third rule, the lattice-ideal
    criterion, which this function does not apply: a new pair (i, h) with
    lcm L is not queued when its S-binomial's sides L - lead(i) + tail(i)
    and L - lead(h) + tail(h) share a variable.  Their input is the corner
    binomials, which generate the prime ideal I_S and are homogeneous under
    the weights n.  Then S = x^g * S' with x^g != 1, and x^g is not in I_S,
    so S' lies in I_S and has a lower degree than L.  When the loop reaches
    degree deg L, it has taken every input and pair below it, and the part
    of I_S below deg L is generated by the inputs below it; so the elements
    so far are a Groebner basis of I_S truncated below deg L, S' has a
    standard representation over them, and x^g times it represents S with
    every term below L.  The pair counts as treated, for M as for the
    final basis, and an input still reduces to zero exactly when the
    inputs before it give it.  On an ideal that is not prime, or on inputs
    that do not generate it, S' need not lie in the ideal: the criterion
    then drops basis elements.  For example x2^2 - x1^3 x2^3 x3^3 and
    x1^3 x2 - x1^3 x3^3 have x2^2 x3^3 - x2^3 in their basis, and only an
    S-pair whose sides share x2^2 yields it.
    """
    return _buchberger(gens, order, grading)[0]


def _buchberger(
    gens: Iterable[Binomial], order: MonomialOrder, grading: Sequence[int] | None, lattice: bool = False
) -> tuple[GroebnerBasis, list[int], dict[str, int]]:
    """``buchberger``'s loop; also returns the survivors, the indices of the
    inputs that did not reduce to zero when taken, in the order taken, and
    the counts of its work: pairs skipped by the lattice criterion, pairs
    reduced (every pair queued) and pairs reduced to zero, pushes
    (elements added) and reducer calls in the loop (two per input or pair
    taken).

    ``lattice`` turns on the lattice-ideal criterion: a pair whose two
    S-binomial sides share a variable is not queued.  It holds only for
    inputs that generate a prime binomial ideal, homogeneous under
    ``grading`` (the corners of ``_corners`` and I_S; see ``buchberger``).
    """
    weights = (1,) * len(order.variables) if grading is None else tuple(grading)
    if len(weights) != len(order.variables) or any(w < 1 for w in weights):
        raise ValueError(f"grading needs a positive weight per variable of {order.variables}, got {grading}")
    packing = _Packing(len(order.variables))
    guard = packing.guard
    leads: list[int] = []  # the packed lead and tail of each element
    tails: list[int] = []
    live: list[int] = []  # the elements that may still form new pairs
    # (degree, 0, i, j, lcm) for a pair, (degree, 1, a, b, k) for input k
    heap: list[tuple[int, int, int, int, int]] = []
    survivors: list[int] = []
    reducer = _Reducer(packing)
    skipped = reduced = 0

    def push(lead: int, tail: int) -> None:
        nonlocal live, skipped
        j = len(leads)
        # lcm -> first i; lcms of a pair with coprime leads
        classes: dict[int, int] = {}
        coprime: set[int] = set()
        for i in live:
            lcm = _lcm(leads[i], lead, guard)
            classes.setdefault(lcm, i)
            if lcm == leads[i] + lead:
                coprime.add(lcm)
        # the lcms are distinct, so a divisor among the smaller survivors is
        # a proper divisor, and survivors suffice by transitivity
        minimal: list[int] = []
        for lcm in sorted(classes):
            for m in minimal:
                if _divides(m, lcm, guard):
                    break  # M
            else:
                minimal.append(lcm)
                if lcm not in coprime:  # F
                    i = classes[lcm]
                    if lattice:
                        left, right = _rewrite(lcm, leads[i], tails[i], guard), _rewrite(lcm, lead, tail, guard)
                        if left + right != _lcm(left, right, guard):
                            skipped += 1  # the sides share a variable
                            continue
                    heapq.heappush(heap, (_gamma_degree(packing.unpack(lcm), weights), 0, i, j, lcm))
        live = [i for i in live if not _divides(lead, leads[i], guard)]
        live.append(j)
        leads.append(lead)
        tails.append(tail)
        reducer.add(lead, tail)

    for k, g in enumerate(gens):
        degree = max(_gamma_degree(g.plus, weights), _gamma_degree(g.minus, weights))
        heapq.heappush(heap, (degree, 1, packing.pack(g.plus), packing.pack(g.minus), k))
    inputs = len(heap)

    while heap:
        _, is_input, x, y, z = heapq.heappop(heap)
        if is_input:  # its two packed sides, input z
            left, right = x, y
        else:  # the pair (x, y) with lcm z
            reduced += 1
            left, right = _rewrite(z, leads[x], tails[x], guard), _rewrite(z, leads[y], tails[y], guard)
        left, right = reducer.reduce(left), reducer.reduce(right)
        # both sides are fully reduced, so a new element never repeats an old one
        if left != right:
            push(*_orient(left, right, packing, order))
            if is_input:
                survivors.append(z)

    # no lead of an element is divisible by an earlier lead, and an element
    # whose lead a later lead divides has left live, so the live leads are
    # the minimal leads
    kept = sorted(live, key=lambda i: order.key(packing.unpack(leads[i])))

    # interreduce tails against the kept leads
    final = _Reducer(packing, [(leads[i], tails[i]) for i in kept])
    elements = tuple(Binomial(packing.unpack(leads[i]), packing.unpack(final.reduce(tails[i]))) for i in kept)
    counts = {
        "pairs_skipped": skipped,
        "pairs_reduced": reduced,
        "pairs_to_zero": reduced - (len(leads) - len(survivors)),
        "pushes": len(leads),
        "reducer_calls": 2 * (inputs + reduced),
    }
    return GroebnerBasis(elements, order), survivors, counts


def normal_form(item: Binomial | Monomial, gb: GroebnerBasis) -> Binomial | Monomial | None:
    """Fully reduced remainder; ``None`` means the binomial is in the ideal.

    Monomials reduce to monomials (pure-difference rewriting never cancels
    a lone monomial).  An exponent of 2**31 or more raises ``InputTooLarge``.
    """
    packing = _Packing(len(gb.order.variables))
    red = _Reducer(packing, [(packing.pack(b.plus), packing.pack(b.minus)) for b in gb.elements])
    if isinstance(item, Binomial):
        left = red.reduce(packing.pack(item.plus))
        right = red.reduce(packing.pack(item.minus))
        return None if left == right else Binomial(*map(packing.unpack, _orient(left, right, packing, gb.order)))
    return packing.unpack(red.reduce(packing.pack(item)))


def _gamma_degree(m: Monomial, weights: Sequence[int]) -> int:
    return sum(map(operator.mul, weights, m))


def _assert_balanced(gb: GroebnerBasis, weights: Sequence[int]) -> None:
    for b in gb.elements:
        if _gamma_degree(b.plus, weights) != _gamma_degree(b.minus, weights):
            raise AssertionError(f"{b} is not balanced for weights {list(weights)}")


def _assert_coprime_parts(gb: GroebnerBasis) -> None:
    # reduced bases of prime toric ideals never share a variable across sides
    for b in gb.elements:
        if any(p > 0 and m > 0 for p, m in zip(b.plus, b.minus)):
            raise AssertionError(f"{b} has a common monomial factor")


def _x_variables(e: int) -> tuple[str, ...]:
    return tuple(f"x{i}" for i in range(1, e + 1))


def _corners(s: NumericalSemigroup) -> list[Binomial]:
    """One binomial c - x1^k * r(w') per corner c of the Apery staircase.

    With n1 < ... < ne the generators and m = n1, r(w) is the least
    factorization of the Apery element w under the packed-int order (lex
    with the last variable most significant, a term order).  Every
    factorization of w is x1-free, as w - n1 is no member; dropping one
    variable x_i of r(w) leaves the least factorization of w - n_i, an
    Apery element too, so r(w) is the least r(w - n_i) + x_i over such i,
    one pass over the Apery set in increasing order.  The same argument
    makes R = {r(w)} an order ideal of x1-free monomials.  A corner is a
    minimal x1-free monomial c outside R, of degree d; w' is the Apery
    element of the class of d and k = (d - w') / m.  Each corner is some
    r(w) + x_i with x_i the first variable of its support, and is emitted
    only from there.  Refuses fewer than 2 generators.
    """
    gens, apery = s.generators, s.apery
    m, e = gens[0], len(gens)
    if e < 2:
        raise EmbeddingDimensionTooSmall(f"need at least 2 generators, got {gens}")
    packing = _Packing(e)
    units = [1 << _FIELD * i for i in range(e)]
    least = [0] * m  # r(w) packed, at index w mod m
    steps = list(zip(gens[1:], units[1:]))
    for w in sorted(apery)[1:]:
        best = -1
        for n, unit in steps:
            v = w - n
            if apery[v % m] == v:  # v is an Apery element, so not negative
                c = least[v % m] + unit
                if best < 0 or c < best:
                    best = c
        least[w % m] = best

    def staircase(c: int, d: int) -> bool:
        # c, of degree d, is in R
        return apery[d % m] == d and least[d % m] == c

    out = []
    for w in apery:
        r = least[w % m]
        for i in range(1, e):
            if r & (units[i] - 1):
                break  # r(w) has a variable before x_i
            c, d = r + units[i], w + gens[i]
            if not staircase(c, d) and all(
                staircase(c - units[j], d - gens[j]) for j in range(i + 1, e) if _divides(units[j], c, packing.guard)
            ):
                tail = least[d % m] + (d - apery[d % m]) // m  # x1^k * r(w')
                out.append(Binomial(packing.unpack(c), packing.unpack(tail)))
    return out


def reduced_gb(s: NumericalSemigroup) -> GroebnerBasis:
    """Reduced degrevlex Groebner basis of the defining ideal I_S.

    ``buchberger`` runs on the corner binomials of the Apery staircase
    (``_corners``), over x1..xe alone, with S-pairs taken by degree under
    the weights (n_1, ..., n_e) that make every binomial of I_S homogeneous.
    The corners generate I_S.  As R is an order ideal, an x1-free monomial
    outside R has a corner c for a divisor, and rewriting c to x1^k * r(w')
    strictly lowers the n-degree of the x1-free part when k > 0, and its
    packed order when k = 0; so every monomial comes down to some
    x1^a * r(w), and R spans K[x]/(corners) over K[x1].  That module maps
    onto K[S], which is free over K[t^n1] on the Apery set (Rosales and
    Garcia-Sanchez, Numerical Semigroups, 2009), sending x1^a * r(w) to
    t^(a n1 + w); a spanning set sent to a basis is a basis, so the map is
    an isomorphism and the corners generate its kernel I_S.
    """
    gb = _buchberger(_corners(s), degrevlex(_x_variables(s.embedding_dimension)), s.generators, lattice=True)[0]
    _assert_balanced(gb, s.generators)
    _assert_coprime_parts(gb)
    return gb


def defining_ideal(s: NumericalSemigroup) -> list[Binomial]:
    """A minimal binomial generating set of the defining ideal I_S: the
    corner binomials (``_corners``) that survive one ``buchberger`` pass,
    each with its degrevlex lead as ``plus``, sorted by lead (equal leads
    in the order taken).

    I_S is graded by S, and ``buchberger`` takes the corners by degree
    under (n_1, ..., n_e), each behind the S-pairs of its own degree.  When
    input g of degree d is taken, the reducer is a Groebner basis, up to
    degree d, of the inputs already taken, because any pair a degree-d
    element forms has an lcm of larger degree.  So g reduces to zero exactly
    when it lies in the ideal of the inputs taken before it, and by graded
    Nakayama the corners that do not are a minimal generating set of the
    ideal of all of them, which is I_S (Rosales and Garcia-Sanchez,
    Numerical Semigroups, 2009, ch. 7 and 9).
    """
    corners = _corners(s)
    order = degrevlex(_x_variables(s.embedding_dimension))
    kept = [corners[k] for k in _buchberger(corners, order, s.generators, lattice=True)[1]]
    oriented = [b if order.greater(b.plus, b.minus) else Binomial(b.minus, b.plus) for b in kept]
    return sorted(oriented, key=lambda b: order.key(b.plus))


def homogenized_gb(s: NumericalSemigroup) -> GroebnerBasis:
    """Homogenize the affine basis with a new variable placed last.

    Under degrevlex with the homogenizing variable last, homogenizing a
    reduced basis keeps it a reduced Groebner basis (the tests check that
    against an independent S-pair oracle); only the orientation of each
    lead and the weight balance are re-asserted here.
    """
    affine = reduced_gb(s)
    e = s.embedding_dimension
    order = degrevlex(_x_variables(e) + ("x0",))
    elements = []
    for b in affine.elements:
        dp, dm = sum(b.plus), sum(b.minus)
        top = max(dp, dm)
        plus = b.plus + (top - dp,)
        minus = b.minus + (top - dm,)
        if not order.greater(plus, minus):
            raise AssertionError(f"homogenization flipped the lead of {b}")
        elements.append(Binomial(plus, minus))
    gb = GroebnerBasis(tuple(elements), order)
    _assert_balanced(gb, s.generators + (0,))
    return gb


@dataclass(frozen=True)
class AcmHypothesisReport:
    """The reduced degrevlex basis of a curve with at least 3 generators;
    both tests of the transfer criterion are read off it.

    ``acm``: no leading monomial is divisible by the last variable.
    ``hypothesis``: every non-homogeneous element has the last variable
    somewhere in its support.
    """

    gb: GroebnerBasis

    @property
    def acm(self) -> bool:
        last = len(self.gb.order.variables) - 1
        return all(b.plus[last] == 0 for b in self.gb.elements)

    @property
    def hypothesis(self) -> bool:
        last = len(self.gb.order.variables) - 1
        return all(b.homogeneous or last in b.support() for b in self.gb.elements)

    def verdict(self, affine_ng: bool) -> ClosureVerdict:
        """The closure verdict of this basis for an affine curve whose
        nearly-Gorenstein flag is ``affine_ng``."""
        return ClosureVerdict(self.acm, self.hypothesis, affine_ng)


@dataclass(frozen=True)
class ClosureVerdict:
    """Transfer of the nearly-Gorenstein property to the projective closure.

    The transfer criterion is ``applicable`` when the curve passes the
    leading-monomial Cohen-Macaulay test and the last variable meets every
    non-homogeneous basis element; ``projective_ng`` is the affine flag
    then, and None otherwise.
    """

    acm: bool
    hypothesis: bool
    affine_ng: bool

    @property
    def applicable(self) -> bool:
        return self.acm and self.hypothesis

    @property
    def projective_ng(self) -> bool | None:
        return self.affine_ng if self.applicable else None

    def to_json(self) -> dict:
        payload = {
            "acm": self.acm,
            "hypothesis": self.hypothesis,
            "applicable": self.applicable,
            "affine_ng": self.affine_ng,
        }
        if self.projective_ng is not None:
            payload["projective_ng"] = self.projective_ng
        return payload


def acm_and_hypothesis(s: NumericalSemigroup) -> AcmHypothesisReport:
    """Leading-monomial Cohen-Macaulay test plus the last-variable support
    test, on the reduced degrevlex basis (see ``AcmHypothesisReport``)."""
    if s.embedding_dimension < 3:
        raise EmbeddingDimensionTooSmall(f"the projective criterion needs >= 3 generators, got {s.generators}")
    return AcmHypothesisReport(reduced_gb(s))


def projective_ng_verdict(s: NumericalSemigroup) -> ClosureVerdict:
    """Combine the transfer criterion with the affine residue computation."""
    return acm_and_hypothesis(s).verdict(trace_and_residue(s).nearly_gorenstein)
