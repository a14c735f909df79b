"""Binomial Groebner machinery for defining ideals of monomial curves.

Everything is a pure-difference binomial (coefficients +1/-1), so S-pairs
and reductions collapse to integer lattice operations on exponent tuples,
done in plain Python ints.  ``buchberger`` prunes S-pairs with the
Gebauer-Moeller criteria before reducing them and takes the survivors in
increasing degree for a grading given by the caller.  A monomial's support
is kept as an int bitmask (``_mask``); since a monomial can divide another
only when its support is contained in the other's, the reducer and the
pair update index their leads and lcms by that mask and test exponents
only where the masks allow a divisor.  The defining ideal of
a semigroup is computed by eliminating the parameter variable from the
graph ideal of the monomial map, which is homogeneous for the weights
(1, n_1, ..., n_e): under that grading the pairs come in semigroup-degree
order, rather than high t-degree first.
"""

from __future__ import annotations

import heapq
import operator
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

from .errors import EmbeddingDimensionTooSmall
from .ideals import trace_and_residue
from .semigroup import NumericalSemigroup

__all__ = [
    "Binomial",
    "MonomialOrder",
    "GroebnerBasis",
    "ClosureVerdict",
    "AcmHypothesisReport",
    "degrevlex",
    "elimination_order",
    "buchberger",
    "normal_form",
    "defining_ideal",
    "homogenized_gb",
    "acm_and_hypothesis",
    "projective_ng_verdict",
]

Monomial = tuple[int, ...]


def _drl_key(m: Sequence[int]) -> tuple:
    # ties break by the latest variable: a larger exponent there sorts lower
    return (sum(m), tuple(map(operator.neg, reversed(m))))


@dataclass(frozen=True)
class MonomialOrder:
    """A monomial order over a fixed variable sequence.

    With no ``block_split`` it is ``degrevlex``, which compares total degree
    first; with one it is ``elimination-block``, which makes every monomial
    touching the leading block beat all block-free ones, with degrevlex
    inside each block.
    """

    variables: tuple[str, ...]
    block_split: int | None = None

    @property
    def kind(self) -> str:
        return "degrevlex" if self.block_split is None else "elimination-block"

    def key(self, m: Monomial) -> tuple:
        if self.block_split is None:
            return _drl_key(m)
        split = self.block_split
        return (_drl_key(m[:split]), _drl_key(m[split:]))

    def greater(self, a: Monomial, b: Monomial) -> bool:
        return self.key(a) > self.key(b)

    def to_json(self) -> dict:
        payload = {"kind": self.kind, "variables": list(self.variables)}
        if self.block_split is not None:
            payload["block_split"] = self.block_split
        return payload


def degrevlex(variables: Sequence[str]) -> MonomialOrder:
    return MonomialOrder(tuple(variables))


def elimination_order(variables: Sequence[str], block_split: int) -> MonomialOrder:
    return MonomialOrder(tuple(variables), block_split)


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


def _oriented(a: Monomial, b: Monomial, order: MonomialOrder) -> Binomial | None:
    if a == b:
        return None
    return Binomial(a, b) if order.greater(a, b) else Binomial(b, a)


def _lcm(a: Monomial, b: Monomial) -> Monomial:
    # faster than tuple(map(max, a, b)), whose max() call parses its
    # arguments generically for every variable
    return tuple([x if x > y else y for x, y in zip(a, b)])


def _divides(small: Monomial, big: Monomial) -> bool:
    return all(map(operator.le, small, big))


def _mask(m: Monomial) -> int:
    # one byte per variable, nonzero where the exponent is: the support of a
    # lies inside the support of b exactly when _mask(a) & ~_mask(b) == 0
    return int.from_bytes(bytes(map(bool, m)), "little")


def _rewrite(m: Monomial, lead: Monomial, tail: Monomial) -> Monomial:
    return tuple(map(operator.add, map(operator.sub, m, lead), tail))


class _Reducer:
    """Rewriting system over a growing set of oriented binomials.

    Leads and tails are plain int tuples, bucketed by the support mask of
    the lead.  A lead divides a monomial only when its support lies inside
    the monomial's, so each monomial support seen keeps the list of buckets
    it contains, and a rewrite step uses the first dividing lead in those
    buckets.  A lead joins its bucket and so reaches every support already
    seen that contains its own; a bucket made later joins those supports.
    """

    __slots__ = ("buckets", "by_support")

    def __init__(self, elements: Iterable[Binomial] = ()):
        self.buckets: dict[int, list[tuple[Monomial, Monomial]]] = {}
        self.by_support: dict[int, list[list[tuple[Monomial, Monomial]]]] = {}
        for b in elements:
            self.add(b)

    def add(self, b: Binomial) -> None:
        mask = _mask(b.plus)
        bucket = self.buckets.get(mask)
        if bucket is None:
            bucket = self.buckets[mask] = []
            for support, buckets in self.by_support.items():
                if not mask & ~support:
                    buckets.append(bucket)
        bucket.append((b.plus, b.minus))

    def reduce(self, m: Monomial) -> Monomial:
        by_support = self.by_support
        while True:
            support = _mask(m)
            buckets = by_support.get(support)
            if buckets is None:
                buckets = [bucket for mask, bucket in self.buckets.items() if not mask & ~support]
                by_support[support] = buckets
            for lead, tail in chain.from_iterable(buckets):
                if all(map(operator.le, lead, m)):
                    m = _rewrite(m, lead, tail)
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
    standard degree), ties by insertion index.  The reduced basis of an
    ideal under an order is unique, so every positive grading gives the
    same basis and only the order of work changes.  A grading for which
    the input is homogeneous makes the pairs come in degree order (the
    sugar strategy of Giovini-Mora-Niesi-Robbiano-Traverso, ISSAC 1991).
    Each new element h updates the pair set by the Gebauer-Moeller criteria
    (J. Symbolic Comput. 6, 1988):

    - B (chain): an old pair (i, k) is dropped when lead(h) divides its lcm
      and both lcm(i, h) and lcm(k, h) differ from it;
    - M: a new pair (i, h) is dropped when another new pair's lcm properly
      divides its lcm;
    - F: one new pair is kept per distinct lcm, and none when any pair with
      that lcm has coprime leads (its S-pair reduces to zero).

    Older elements whose lead lead(h) divides then form no new pairs, but
    stay in the reducer.  The queued pairs are bucketed by the support mask
    of their lcm, so B visits only the buckets whose mask contains lead(h)'s;
    M and the drop of divided leads compare masks before exponents, and two
    leads are coprime exactly when their masks are disjoint.
    """
    weights = (1,) * len(order.variables) if grading is None else tuple(grading)
    if len(weights) != len(order.variables) or any(w < 1 for w in weights):
        raise ValueError(f"grading needs a positive weight per variable of {order.variables}, got {grading}")
    basis: list[Binomial] = []
    masks: list[int] = []  # support mask of each lead
    live: list[int] = []  # the elements that may still form new pairs
    # the queued pairs by the support mask of their lcm: mask -> {(i, j): lcm}
    pairs: dict[int, dict[tuple[int, int], Monomial]] = {}
    heap: list[tuple[int, int, int, int]] = []
    reducer = _Reducer()

    def push(h: Binomial) -> None:
        nonlocal live
        j = len(basis)
        lead = h.plus
        mask = _mask(lead)
        # lead(h) divides only lcms whose support contains its own
        for support, bucket in pairs.items():
            if mask & ~support:
                continue
            chained = [
                (i, k)
                for (i, k), lcm in bucket.items()
                if _divides(lead, lcm) and _lcm(basis[i].plus, lead) != lcm and _lcm(basis[k].plus, lead) != lcm
            ]
            for key in chained:
                del bucket[key]  # B
        # lcm -> (first i, its support); lcms of a pair with coprime leads
        classes: dict[Monomial, tuple[int, int]] = {}
        coprime: set[Monomial] = set()
        for i in live:
            lcm = _lcm(basis[i].plus, lead)
            if lcm not in classes:
                classes[lcm] = (i, masks[i] | mask)
            if not masks[i] & mask:
                coprime.add(lcm)
        # the lcms are distinct, so a divisor among the smaller-degree
        # survivors is a proper divisor, and survivors suffice by transitivity
        minimal: list[tuple[int, Monomial]] = []
        for lcm in sorted(classes, key=sum):
            i, support = classes[lcm]
            for m, m_lcm in minimal:
                if not m & ~support and _divides(m_lcm, lcm):
                    break  # M
            else:
                minimal.append((support, lcm))
                if lcm not in coprime:  # F
                    pairs.setdefault(support, {})[i, j] = lcm
                    heapq.heappush(heap, (sum(map(operator.mul, weights, lcm)), i, j, support))
        live = [i for i in live if mask & ~masks[i] or not _divides(lead, basis[i].plus)]
        live.append(j)
        basis.append(h)
        masks.append(mask)
        reducer.add(h)

    for g in gens:
        b = _oriented(g.plus, g.minus, order)
        if b is not None:
            push(b)
    inputs = len(basis)

    while heap:
        _, i, j, support = heapq.heappop(heap)
        lcm = pairs[support].pop((i, j), None)
        if lcm is None:
            continue  # dropped by B after it was queued
        f, g = basis[i], basis[j]
        left = reducer.reduce(_rewrite(lcm, f.plus, f.minus))
        right = reducer.reduce(_rewrite(lcm, g.plus, g.minus))
        # both sides are fully reduced, so a new element never repeats an old one
        b = _oriented(left, right, order)
        if b is not None:
            push(b)

    # minimalize: a later lead divides the lead of every element that is not
    # live, and an element made from an S-pair has a lead no earlier lead
    # divides, so only a live input can have its lead divided by another
    kept = [
        basis[i]
        for i in sorted(live, key=lambda i: order.key(basis[i].plus))
        if i >= inputs or not any(k != i and _divides(basis[k].plus, basis[i].plus) for k in live)
    ]

    # interreduce tails against the kept leads
    final = _Reducer(kept)
    reduced = [Binomial(b.plus, final.reduce(b.minus)) for b in kept]
    return GroebnerBasis(tuple(reduced), order)


def normal_form(item: Binomial | Monomial, gb: GroebnerBasis) -> Binomial | Monomial | None:
    """Fully reduced remainder; ``None`` means the binomial is in the ideal.

    Monomials reduce to monomials (pure-difference rewriting never cancels
    a lone monomial).
    """
    red = _Reducer(gb.elements)
    if isinstance(item, Binomial):
        left = red.reduce(item.plus)
        right = red.reduce(item.minus)
        return _oriented(left, right, gb.order)
    return red.reduce(tuple(item))


def _gamma_degree(m: Monomial, weights: Sequence[int]) -> int:
    return sum(e * w for e, w in zip(m, weights))


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


def _graph_ideal(generators: Sequence[int]) -> list[Binomial]:
    """t^(n_i) - x_i over (t, x_1, ..., x_e), homogeneous for the weights
    (1, n_1, ..., n_e)."""
    e = len(generators)
    return [
        Binomial((n,) + (0,) * e, tuple(1 if k == i + 1 else 0 for k in range(e + 1)))
        for i, n in enumerate(generators)
    ]


def reduced_gb(s: NumericalSemigroup) -> GroebnerBasis:
    """Reduced degrevlex Groebner basis of the defining ideal.

    Computed by eliminating t from the graph ideal of x_i -> t^(n_i), with
    S-pairs taken by degree under the weights (1, n_1, ..., n_e) that make
    that ideal homogeneous; the t-free part of the elimination basis is
    already the reduced basis for degrevlex on the x variables.
    """
    e = s.embedding_dimension
    if e < 2:
        raise EmbeddingDimensionTooSmall(f"need at least 2 generators, got {s.generators}")
    elim = elimination_order(("t",) + _x_variables(e), block_split=1)
    full = buchberger(_graph_ideal(s.generators), elim, grading=(1,) + s.generators)

    order = degrevlex(_x_variables(e))
    elements = []
    for b in full.elements:
        if b.plus[0] == 0:
            if b.minus[0] != 0:
                raise AssertionError(f"t-free lead with t in the tail: {b}")
            elements.append(Binomial(b.plus[1:], b.minus[1:]))
    elements.sort(key=lambda b: order.key(b.plus))
    gb = GroebnerBasis(tuple(elements), order)
    _assert_balanced(gb, s.generators)
    _assert_coprime_parts(gb)
    return gb


def defining_ideal(s: NumericalSemigroup) -> list[Binomial]:
    """A minimal binomial generating set of the defining ideal.

    Starts from the reduced degrevlex basis and drops any element lying in
    the ideal of the others, scanning from the largest lead down.
    """
    gb = reduced_gb(s)
    order = gb.order
    kept = list(gb.elements)
    for i in reversed(range(len(kept))):
        if len(kept) == 1:
            break
        others = kept[:i] + kept[i + 1 :]
        if normal_form(kept[i], buchberger(others, order, grading=s.generators)) is None:
            kept = others
    return kept


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
