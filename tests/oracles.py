"""Independent brute-force oracles the tests trust instead of the package.

Everything here is deliberately naive: plain-Python dynamic programming,
exhaustive scans over raw integer sets, and direct fiber enumeration.  None
of it shares code paths with the implementations under test.  Three helpers
call the package: ``tree_by_genus`` builds each semigroup from a generating
set with ``new_semigroup``, not through the Apery-matrix tree;
``elimination_gb`` runs ``buchberger`` on the graph ideal under an
elimination order of its own, not on the corners of the Apery staircase;
and ``irredundant`` runs ``buchberger`` once per element, not one pass.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
from typing import Iterator, Sequence


def window(generators: Sequence[int]) -> int:
    """n1 * ne, which exceeds F + ne by Schur's bound F <= (n1 - 1)(ne - 1) - 1."""
    return min(generators) * max(generators)


def dp_membership(generators: Sequence[int], limit: int) -> list[bool]:
    """Textbook forward DP: table[x] iff x is a sum of the generators."""
    table = [False] * (limit + 1)
    table[0] = True
    for x in range(1, limit + 1):
        table[x] = any(x >= g and table[x - g] for g in generators)
    return table


def brute_members(generators: Sequence[int], limit: int) -> set[int]:
    return {x for x, ok in enumerate(dp_membership(generators, limit)) if ok}


def brute_contains(generators: Sequence[int], frobenius: int, x: int) -> bool:
    if x < 0:
        return False
    if x > frobenius:
        return True
    return dp_membership(generators, max(x, 0))[x]


def brute_pf(generators: Sequence[int], frobenius: int) -> list[int]:
    """Pseudo-Frobenius numbers by testing every nonzero member.

    Members above the Frobenius number cannot break the condition (the sum
    already clears every gap), so testing members up to it is exhaustive.
    """
    table = dp_membership(generators, 2 * frobenius + 2)

    def member(x: int) -> bool:
        return x > frobenius or (0 <= x and table[x])

    small_members = [s for s in range(1, frobenius + 1) if table[s]]
    gaps = [x for x in range(1, frobenius + 1) if not table[x]]
    return [nu for nu in gaps if all(member(nu + s) for s in small_members)]


def brute_residue(generators: Sequence[int], frobenius: int) -> int:
    """Members of S outside the canonical trace K + (S - K), counted from
    the membership DP and ``brute_pf`` alone.

    K is generated by F - x over the pseudo-Frobenius numbers x, and 0 is
    one of them, so S - K lies inside S and holds everything above F; the
    members up to F are the only ones that can miss the trace, and only
    trace generators up to F can reach them.
    """
    table = dp_membership(generators, max(2 * frobenius + 2, 0))

    def member(x: int) -> bool:
        return x > frobenius or (0 <= x and table[x])

    kan = [frobenius - x for x in brute_pf(generators, frobenius)]
    dual = [z for z in range(frobenius + 2) if all(member(z + k) for k in kan)]
    trace_gens = {k + z for k in kan for z in dual if k + z <= frobenius}
    return sum(1 for x in range(frobenius + 1) if member(x) and not any(member(x - t) for t in trace_gens))


def brute_trace(generators: Sequence[int], window: int, frobenius: int) -> set[int]:
    """Exhaustive Minkowski-sum trace over the raw span [-2W, 2W].

    Builds the canonical set, its dual, and their sum as plain integer sets,
    using only the membership DP.
    """
    span = 2 * window
    table = dp_membership(generators, span + frobenius + 1)

    def contains(x: int) -> bool:
        if x < 0:
            return False
        if x > frobenius:
            return True
        return table[x]

    k_raw = [z for z in range(-span, span + 1) if not contains(frobenius - z)]
    d_raw = [z for z in range(-span, span + 1) if all(contains(z + x) for x in k_raw)]
    return {x + y for x in k_raw for y in d_raw if 0 <= x + y <= span}


def brute_minimal_ideal_generators(elements: set[int], members: set[int], bound: int) -> list[int]:
    """Direct definition: x is a generator iff x - s leaves the ideal for
    every nonzero member s (all members tested, not just generators)."""
    out = []
    for x in sorted(e for e in elements if e <= bound):
        if all(x - s not in elements for s in members if 0 < s <= x - min(elements)):
            out.append(x)
    return out


def brute_symmetric(generators: Sequence[int], frobenius: int) -> bool:
    """Mask-reversal symmetry: x is a member iff F - x is not, over [0, F]."""
    table = dp_membership(generators, max(frobenius, 0))
    return all(table[x] != table[frobenius - x] for x in range(frobenius + 1))


def brute_ideal(generators: Sequence[int], ideal_gens: Sequence[int], hi: int) -> set[int]:
    """Elements below hi of the relative ideal generated by ideal_gens: the
    integers a + s for a in ideal_gens and s a member."""
    lo = min(ideal_gens)
    table = dp_membership(generators, max(hi - lo, 0))
    return {z for z in range(lo, hi) if any(z >= a and table[z - a] for a in ideal_gens)}


def brute_dual(generators: Sequence[int], frobenius: int, ideal_gens: Sequence[int], lo: int, hi: int) -> set[int]:
    """z in [lo, hi) with z + x a member for every element x of the ideal
    generated by ideal_gens.  For z >= lo, an x above frobenius - lo
    cannot fail, so the ideal is listed only that far."""
    ideal = brute_ideal(generators, ideal_gens, frobenius - lo + 1)
    table = dp_membership(generators, max(frobenius, 0))

    def member(y: int) -> bool:
        return y > frobenius or (y >= 0 and table[y])

    return {z for z in range(lo, hi) if all(member(z + x) for x in ideal)}


def brute_sum(generators: Sequence[int], left_gens: Sequence[int], right_gens: Sequence[int], hi: int) -> set[int]:
    """Elements below hi of {x + y : x, y in the ideals generated by
    left_gens and right_gens}, over every pair of listed elements."""
    left = brute_ideal(generators, left_gens, hi - min(right_gens))
    right = brute_ideal(generators, right_gens, hi - min(left_gens))
    return {x + y for x in left for y in right if x + y < hi}


def deletion_generators(generators: Sequence[int], frobenius: int) -> list[list[int]]:
    """A generating set of S minus {g} for each minimal generator g above
    the Frobenius number, in increasing g: the other generators, g plus
    each generator, and 2g and 3g.  A member a*g + y other than g, with y
    a sum of the other generators, is y when a = 0, (g + h) + (y - h) for a
    generator h of y when a = 1, and y plus copies of 2g and 3g when a >= 2.
    Building each set through ``new_semigroup`` is the genus-tree step
    without Apery matrices."""
    return [
        [h for h in generators if h != g] + [g + h for h in generators] + [2 * g, 3 * g]
        for g in generators
        if g > frobenius
    ]


def tree_by_genus(max_genus: int) -> Iterator[tuple[int, list]]:
    """Yield (genus, the semigroups of that genus) for genus 1..max_genus:
    each level is the children of the one before, from <1>, each child built
    by ``new_semigroup`` from a ``deletion_generators`` set."""
    from nsg.semigroup import new_semigroup

    level = [new_semigroup([1])]
    for genus in range(1, max_genus + 1):
        level = [new_semigroup(gens) for s in level for gens in deletion_generators(s.generators, s.frobenius)]
        yield genus, level


def gap_sets_by_genus(genus: int) -> list[frozenset[int]]:
    """Every gap set of the given genus, by brute force over subsets of
    [1, 2*genus - 1] (the largest gap never exceeds that)."""
    if genus == 0:
        return [frozenset()]
    found = []
    universe = range(1, 2 * genus)
    for combo in itertools.combinations(universe, genus):
        gaps = frozenset(combo)
        ok = True
        for x in range(1, 2 * genus):
            if x in gaps:
                continue
            for y in range(x, 2 * genus - x):
                if y not in gaps and (x + y) in gaps:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            found.append(gaps)
    return found


def fiber_monomials(weights: Sequence[int], value: int) -> list[tuple[int, ...]]:
    """All exponent tuples a with sum(a_i * weights_i) == value."""
    out: list[tuple[int, ...]] = []

    def rec(i: int, remaining: int, prefix: tuple[int, ...]) -> None:
        if i == len(weights) - 1:
            q, r = divmod(remaining, weights[i])
            if r == 0:
                out.append(prefix + (q,))
            return
        w = weights[i]
        for c in range(remaining // w + 1):
            rec(i + 1, remaining - c * w, prefix + (c,))

    rec(0, value, ())
    return out


def selmer_genus(apery: Sequence[int], multiplicity: int) -> int:
    """Genus from the Apery set, exact in integers."""
    twice = 2 * sum(apery) - multiplicity * (multiplicity - 1)
    assert twice % (2 * multiplicity) == 0
    return twice // (2 * multiplicity)


def naive_normal_form(m: Sequence[int], elements: Sequence[tuple[Sequence[int], Sequence[int]]]) -> tuple[int, ...]:
    """Rewrite the monomial m by lead -> tail, with the first listed element
    whose lead divides it, until no lead does.  Terminates when every lead
    is larger than its tail under one monomial order."""
    m = tuple(m)
    while True:
        for lead, tail in elements:
            if all(a <= x for a, x in zip(lead, m)):
                m = tuple(x - a + t for x, a, t in zip(m, lead, tail))
                break
        else:
            return m


def buchberger_criterion(elements: Sequence[tuple[Sequence[int], Sequence[int]]]) -> bool:
    """Buchberger's criterion for the binomials lead - tail given as
    (lead, tail) exponent pairs: every S-pair reduces to zero, that is, the
    two monomials it rewrites the lcm of the leads to have one normal form.
    Pairs with coprime leads are skipped (Buchberger's first criterion)."""
    for (a, ta), (b, tb) in itertools.combinations(elements, 2):
        if not any(x and y for x, y in zip(a, b)):
            continue
        lcm = [max(x, y) for x, y in zip(a, b)]
        left = naive_normal_form([l - x + t for l, x, t in zip(lcm, a, ta)], elements)
        right = naive_normal_form([l - y + t for l, y, t in zip(lcm, b, tb)], elements)
        if left != right:
            return False
    return True


def apery_binomials(generators: Sequence[int]) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """A generating set of the defining ideal of the minimal generators
    n1 < n2 < ... < ne, as (first, second) exponent pairs over x1..xe.

    Fix one factorization phi(w) of each element w of the Apery set w.r.t.
    n1; it uses only x2..xe, since w - n1 is not a member.  For each
    generator n_i != n1 and each w, x_i * x^phi(w) equals
    x1^k * x^phi(w') in degree, where w' is the Apery element of the class
    of w + n_i and k = (w + n_i - w') / n1; these binomials generate the
    ideal, because they rewrite every monomial to the one x1^a * x^phi(w)
    of its degree.  Identical sides are dropped.
    """
    gens = sorted(generators)
    n1, e = gens[0], len(gens)
    table = dp_membership(gens, window(gens))
    apery: dict[int, int] = {}
    for x, member in enumerate(table):
        if member:
            apery.setdefault(x % n1, x)
    phi: dict[int, tuple[int, ...]] = {0: (0,) * e}
    for w in sorted(apery.values())[1:]:
        # w - g is a member with w - g - n1 not one, so it is an Apery element
        i = next(i for i in range(1, e) if w >= gens[i] and table[w - gens[i]])
        phi[w] = tuple(c + (j == i) for j, c in enumerate(phi[w - gens[i]]))
    out = []
    for i in range(1, e):
        for w in sorted(apery.values()):
            target = apery[(w + gens[i]) % n1]
            k = (w + gens[i] - target) // n1
            first = tuple(c + (j == i) for j, c in enumerate(phi[w]))
            second = (phi[target][0] + k,) + phi[target][1:]
            if first != second:
                out.append((first, second))
    return out


def monomial_divides(small: Sequence[int], big: Sequence[int]) -> bool:
    """x^small divides x^big: no exponent of small exceeds big's."""
    return all(a <= b for a, b in zip(small, big))


def monomial_lcm(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    return tuple(max(x, y) for x, y in zip(a, b))


def monomial_support(m: Sequence[int]) -> frozenset[int]:
    """The variables with a nonzero exponent."""
    return frozenset(i for i, e in enumerate(m) if e)


def monomial_rewrite(m: Sequence[int], lead: Sequence[int], tail: Sequence[int]) -> tuple[int, ...]:
    """x^m with its divisor x^lead replaced by x^tail."""
    return tuple(x - a + t for x, a, t in zip(m, lead, tail))


def stdlib_json(value) -> str:
    """The standard library's compact, key-sorted JSON text of ``value``."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def replaced(value, **changes):
    """A copy of the nsg value ``value`` (a class whose fields are its
    ``__slots__``) with the named fields changed."""
    fields = {name: getattr(value, name) for name in type(value).__slots__}
    return type(value)(**{**fields, **changes})


def graph_ideal(generators: Sequence[int]) -> list:
    """t^(n_i) - x_i over (t, x_1, ..., x_e), homogeneous for the weights
    (1, n_1, ..., n_e)."""
    from nsg.toric import Binomial

    e = len(generators)
    return [
        Binomial((n,) + (0,) * e, tuple(1 if k == i + 1 else 0 for k in range(e + 1)))
        for i, n in enumerate(generators)
    ]


def _degrevlex_key(m: Sequence[int]) -> tuple:
    """Total degree first; ties go to the monomial lighter in the last
    variable, then the one before it, and so on."""
    return (sum(m), tuple(-x for x in reversed(m)))


@dataclasses.dataclass(frozen=True)
class EliminationOrder:
    """Every monomial touching the first ``block_split`` variables beats
    every monomial free of them, with degrevlex inside each block.  It has
    what ``buchberger`` reads of an order: ``variables``, ``key`` and
    ``greater``."""

    variables: tuple[str, ...]
    block_split: int

    def key(self, m: Sequence[int]) -> tuple:
        return (_degrevlex_key(m[: self.block_split]), _degrevlex_key(m[self.block_split :]))

    def greater(self, a: Sequence[int], b: Sequence[int]) -> bool:
        return self.key(a) > self.key(b)

    def to_json(self) -> dict:
        return {"kind": "elimination-block", "variables": list(self.variables), "block_split": self.block_split}


def elimination_gb(s):
    """The reduced degrevlex basis of the defining ideal by eliminating t
    from the graph ideal of x_i -> t^(n_i): the t-free part of its basis
    under the order that makes every monomial with t beat all t-free ones.
    That part is the reduced basis of the ideal's t-free part, and every
    t-free element has a t-free tail, since the tail is smaller."""
    from nsg.toric import Binomial, GroebnerBasis, buchberger, degrevlex

    xs = tuple(f"x{i}" for i in range(1, len(s.generators) + 1))
    full = buchberger(graph_ideal(s.generators), EliminationOrder(("t",) + xs, 1), grading=(1,) + s.generators)
    order = degrevlex(xs)
    elements = []
    for b in full.elements:
        if b.plus[0] == 0:
            assert b.minus[0] == 0, f"t-free lead with t in the tail: {b}"
            elements.append(Binomial(b.plus[1:], b.minus[1:]))
    return GroebnerBasis(tuple(sorted(elements, key=lambda b: order.key(b.plus))), order)


def betti_counts(generators: Sequence[int], degrees: Sequence[int]) -> dict[int, int]:
    """For each degree s, the number of connected components of the graph
    on the factorizations of s, two joined when their supports meet, less
    one: the number of minimal generators of the defining ideal in degree s
    (Rosales, Semigroup Forum 55, 1997).  A degree with no factorization
    counts 0."""
    out = {}
    for s in degrees:
        supports = [monomial_support(a) for a in fiber_monomials(generators, s)]
        components: list[frozenset[int]] = []  # the union of the supports in each component
        for support in supports:
            touching = [c for c in components if c & support]
            components = [c for c in components if not c & support]
            components.append(support.union(*touching))
        out[s] = max(len(components) - 1, 0)
    return out


def irredundant(elements: Sequence, grading: Sequence[int]) -> bool:
    """No binomial of ``elements`` lies in the ideal of the others: each
    keeps a nonzero normal form modulo a Groebner basis of the rest."""
    from nsg.toric import buchberger, degrevlex, normal_form

    order = degrevlex([f"x{i}" for i in range(1, len(grading) + 1)])
    return all(
        normal_form(b, buchberger(elements[:i] + elements[i + 1 :], order, grading=grading)) is not None
        for i, b in enumerate(elements)
    )
