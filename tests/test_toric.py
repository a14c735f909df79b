import hashlib
import itertools
import json
import math
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nsg.constructions import arithmetic_semigroup
from nsg.errors import EmbeddingDimensionTooSmall, InputTooLarge
from nsg.semigroup import new_semigroup
from nsg.toric import (
    Binomial,
    GroebnerBasis,
    _buchberger,
    _Packing,
    _Reducer,
    _corners,
    _divides,
    _lcm,
    _rewrite,
    _support,
    acm_and_hypothesis,
    buchberger,
    defining_ideal,
    degrevlex,
    homogenized_gb,
    normal_form,
    projective_ng_verdict,
    reduced_gb,
)

from oracles import (
    EliminationOrder,
    apery_binomials,
    betti_counts,
    buchberger_criterion,
    elimination_gb,
    fiber_monomials,
    graph_ideal,
    irredundant,
    monomial_divides,
    monomial_lcm,
    monomial_rewrite,
    monomial_support,
)
from strategies import semigroups


def spair_oracle(gb) -> bool:
    return buchberger_criterion([(b.plus, b.minus) for b in gb.elements])


class TestMonomialOrders:
    def test_degrevlex_tie_break(self):
        # equal degree: the monomial heavier in the last variable loses
        order = degrevlex(["x1", "x2", "x3"])
        assert order.greater((0, 2, 0), (1, 0, 1))
        assert order.greater((1, 1, 0), (0, 2, 0))
        assert order.greater((3, 0, 0), (0, 1, 1))
        assert not order.greater((1, 0, 1), (0, 2, 0))

    def test_degrevlex_degree_first(self):
        order = degrevlex(["x1", "x2"])
        assert order.greater((0, 3), (2, 0))

    def test_elimination_block_dominates(self):
        order = EliminationOrder(("t", "x1", "x2"), block_split=1)
        assert order.greater((1, 0, 0), (0, 9, 9))
        assert order.greater((2, 0, 0), (1, 9, 9))
        # t-free monomials compare by degrevlex on the tail block
        assert order.greater((0, 0, 2), (0, 1, 0))

    def test_to_json_names_the_block_split(self):
        assert EliminationOrder(("t", "x1"), block_split=1).to_json() == {
            "kind": "elimination-block",
            "variables": ["t", "x1"],
            "block_split": 1,
        }
        assert degrevlex(["x1", "x2"]).to_json() == {"kind": "degrevlex", "variables": ["x1", "x2"]}


class TestBuchberger:
    def test_three_generator_basis(self):
        order = degrevlex(["x1", "x2", "x3"])
        gens = [
            Binomial((3, 0, 0), (0, 1, 1)),
            Binomial((0, 3, 0), (2, 0, 1)),
            Binomial((0, 0, 2), (1, 2, 0)),
        ]
        gb = buchberger(gens, order)
        assert set(gb.leading_monomials) == {(3, 0, 0), (0, 3, 0), (1, 2, 0)}
        assert spair_oracle(gb)

    def test_discovers_missing_element(self):
        order = degrevlex(["x1", "x2", "x3"])
        gens = [Binomial((3, 0, 0), (0, 2, 0)), Binomial((0, 0, 2), (2, 1, 0))]
        gb = buchberger(gens, order)
        assert set(gb.leading_monomials) == {(3, 0, 0), (2, 1, 0), (0, 3, 0)}
        assert Binomial((0, 3, 0), (1, 0, 2)) in gb.elements

    def test_single_binomial_normalized(self):
        order = degrevlex(["x1", "x2"])
        gb = buchberger([Binomial((0, 2), (3, 0))], order)
        assert gb.elements == (Binomial((3, 0), (0, 2)),)

    GENS = (
        Binomial((3, 0, 0), (0, 1, 1)),
        Binomial((0, 3, 0), (2, 0, 1)),
        Binomial((0, 0, 2), (1, 2, 0)),
    )

    @pytest.mark.parametrize(
        "gens",
        [
            GENS + GENS,  # every input twice
            (Binomial((1, 1, 1), (1, 1, 1)),) + GENS,  # equal sides: the zero binomial
            GENS + (Binomial((3, 0, 2), (1, 3, 1)),),  # balanced for (4, 5, 7): in the ideal of <4, 5, 7>
            GENS + (Binomial((1, 3, 1), (3, 0, 2)),),  # the same, with its sides swapped
            GENS[::-1],
        ],
        ids=["duplicated", "equal_sides", "in_ideal", "in_ideal_swapped", "reversed"],
    )
    def test_redundant_inputs_change_nothing(self, gens):
        # each input is reduced when it is taken, so one that reduces to zero
        # adds nothing and one whose lead another lead divides is not kept
        order = degrevlex(["x1", "x2", "x3"])
        expected = buchberger(self.GENS, order, grading=(4, 5, 7))
        assert buchberger(gens, order, grading=(4, 5, 7)) == expected
        assert buchberger(gens, order) == expected

    def test_input_order_irrelevant(self):
        order = degrevlex(["x1", "x2", "x3"])
        gens = [
            Binomial((3, 0, 0), (0, 1, 1)),
            Binomial((0, 3, 0), (2, 0, 1)),
            Binomial((0, 0, 2), (1, 2, 0)),
        ]
        expected = buchberger(gens, order).elements
        rng = random.Random(3)
        for _ in range(5):
            shuffled = gens[:]
            rng.shuffle(shuffled)
            assert buchberger(shuffled, order).elements == expected

    @staticmethod
    def survivors(gens, grading):
        order = degrevlex(["x1", "x2", "x3"])
        gb, kept, _ = _buchberger(gens, order, grading)
        assert gb == buchberger(gens, order, grading=grading)
        return [gens[k] for k in kept]

    def test_duplicated_inputs_survive_once(self):
        # the second copy of each input reduces to zero against the first
        for gens in (self.GENS + self.GENS, self.GENS[::-1] + self.GENS):
            assert sorted(self.survivors(gens, (4, 5, 7)), key=repr) == sorted(self.GENS, key=repr)

    # x1^5, x2^4 and x1^2 x2 x3 are the monomials of degree 20 under (4, 5, 7)
    DEGREE_20 = (
        Binomial((5, 0, 0), (0, 4, 0)),
        Binomial((0, 4, 0), (2, 1, 1)),
        Binomial((5, 0, 0), (2, 1, 1)),
    )

    def test_input_in_the_ideal_of_its_own_degree_is_dropped(self):
        # any two of the three generate the third; which two survive is set
        # by their packed sides, not by the input order
        expected = self.survivors(self.DEGREE_20, (4, 5, 7))
        assert len(expected) == 2
        for gens in itertools.permutations(self.DEGREE_20):
            assert self.survivors(list(gens), (4, 5, 7)) == expected

    def test_input_reduced_by_a_pair_of_its_own_degree_is_dropped(self):
        # x2^3 - x1 x3^2, of degree 18 under (4, 6, 7), is the S-pair of the
        # other two, whose lcm x1^3 x2 has degree 18 too: the input waits
        # behind that pair, so it reduces to zero and does not survive
        gens = [Binomial((3, 0, 0), (0, 2, 0)), Binomial((0, 0, 2), (2, 1, 0)), Binomial((0, 3, 0), (1, 0, 2))]
        for perm in itertools.permutations(gens):
            assert sorted(self.survivors(list(perm), (4, 6, 7)), key=repr) == sorted(gens[:2], key=repr)


class TestDefiningIdeal:
    def test_two_generators(self):
        assert defining_ideal(new_semigroup([2, 3])) == [Binomial((3, 0), (0, 2))]

    def test_345(self):
        got = {(b.plus, b.minus) for b in defining_ideal(new_semigroup([3, 4, 5]))}
        assert got == {((0, 2, 0), (1, 0, 1)), ((3, 0, 0), (0, 1, 1)), ((2, 1, 0), (0, 0, 2))}

    def test_457(self):
        got = {(b.plus, b.minus) for b in defining_ideal(new_semigroup([4, 5, 7]))}
        assert got == {((3, 0, 0), (0, 1, 1)), ((0, 3, 0), (2, 0, 1)), ((1, 2, 0), (0, 0, 2))}

    def test_complete_intersection_is_minimalized(self):
        # the reduced basis of this gluing has six elements but three generate
        s = new_semigroup([8, 10, 12, 15])
        gb = reduced_gb(s)
        minimal = defining_ideal(s)
        assert len(gb.elements) == 6
        assert len(minimal) == 3
        regenerated = buchberger(minimal, gb.order)
        assert regenerated.elements == gb.elements

    def test_balance_on_every_element(self):
        for gens in ([3, 4, 5], [4, 5, 7], [5, 6, 7, 8, 9], [8, 10, 12, 15]):
            s = new_semigroup(gens)
            for b in reduced_gb(s).elements:
                assert sum(e * n for e, n in zip(b.plus, s.generators)) == sum(
                    e * n for e, n in zip(b.minus, s.generators)
                )

    def test_embedding_dimension_guard(self):
        for compute in (defining_ideal, reduced_gb):
            with pytest.raises(EmbeddingDimensionTooSmall):
                compute(new_semigroup([1]))

    def test_leads_are_degrevlex_and_sorted(self):
        for gens in ([3, 4, 5], [4, 6, 7], [5, 6, 7, 8, 9], [8, 10, 12, 15]):
            got = defining_ideal(new_semigroup(gens))
            order = degrevlex([f"x{i}" for i in range(1, len(gens) + 1)])
            assert all(order.greater(b.plus, b.minus) for b in got)
            assert [b.plus for b in got] == sorted((b.plus for b in got), key=order.key)

    @pytest.mark.parametrize("gens", [[3, 4, 5], [4, 6, 7], [5, 6, 7, 8, 9], [8, 10, 12, 15], [6, 7, 8, 9, 10, 11]])
    def test_no_element_lies_in_the_ideal_of_the_others(self, gens):
        s = new_semigroup(gens)
        assert irredundant(defining_ideal(s), s.generators)


def _degree(m, gens):
    return sum(a * n for a, n in zip(m, gens))


def _assert_minimal_presentation(s):
    # as many elements in each degree as the Betti-number oracle counts,
    # and together they generate the defining ideal
    minimal = defining_ideal(s)
    degrees = sorted({_degree(b.plus, s.generators) for b in _corners(s)})
    betti = {d: c for d, c in betti_counts(s.generators, degrees).items() if c}
    assert Counter(_degree(b.plus, s.generators) for b in minimal) == betti
    gb = reduced_gb(s)
    assert buchberger(minimal, gb.order, grading=s.generators) == gb


def test_defining_ideal_is_a_minimal_presentation_on_the_grid():
    grid = [
        arithmetic_semigroup(n1, d, e)
        for n1 in range(3, 13)
        for d in range(1, 6)
        if math.gcd(n1, d) == 1
        for e in range(3, n1 + 1)
    ]
    assert len(grid) == 182
    for s in grid:
        _assert_minimal_presentation(s)


@settings(max_examples=60, deadline=None)
@given(semigroups(max_multiplicity=10))
@example(new_semigroup([2, 3]))
# a corner here reduces to zero only after an S-pair of its own degree
@example(new_semigroup([15, 17, 19, 26, 35]))
@example(new_semigroup([5, 11, 12, 13]))
def test_defining_ideal_is_a_minimal_presentation(s):
    _assert_minimal_presentation(s)


def _arithmetic_grid(lo, hi):
    return [
        arithmetic_semigroup(n1, d, e)
        for n1 in range(lo, hi + 1)
        for d in range(1, 6)
        if math.gcd(n1, d) == 1
        for e in range(3, n1 + 1)
    ]


def _corner_pass(s, lattice):
    order = degrevlex([f"x{i}" for i in range(1, s.embedding_dimension + 1)])
    return _buchberger(_corners(s), order, s.generators, lattice=lattice)


class TestLatticeCriterion:
    # a pair whose S-binomial sides share a variable is not queued; on the
    # corners of I_S the basis and the survivors stay, only the work drops

    def test_counts_on_457(self):
        # three corners, all minimal generators; both of their pairs have
        # sides that share a variable
        s = new_semigroup([4, 5, 7])
        assert _corner_pass(s, lattice=False)[2] == {
            "pairs_skipped": 0,
            "pairs_reduced": 2,
            "pairs_to_zero": 2,
            "pushes": 3,
            "reducer_calls": 10,
        }
        assert _corner_pass(s, lattice=True)[2] == {
            "pairs_skipped": 2,
            "pairs_reduced": 0,
            "pairs_to_zero": 0,
            "pushes": 3,
            "reducer_calls": 6,
        }

    def test_counts_on_the_grid(self):
        # the n1 <= 8 grid: every pair reduced comes out zero, with the
        # criterion or without, and every push comes from a corner
        grid = _arithmetic_grid(3, 8)
        assert len(grid) == 73
        totals = {}
        for lattice in (False, True):
            totals[lattice] = Counter()
            for s in grid:
                totals[lattice].update(_corner_pass(s, lattice)[2])
        assert totals[False] == {
            "pairs_skipped": 0,
            "pairs_reduced": 1548,
            "pairs_to_zero": 1548,
            "pushes": 653,
            "reducer_calls": 4494,
        }
        assert totals[True] == {
            "pairs_skipped": 1080,
            "pairs_reduced": 468,
            "pairs_to_zero": 468,
            "pushes": 653,
            "reducer_calls": 2334,
        }

    def test_counts_where_the_chain_criterion_would_drop_a_pair(self):
        # the chain criterion of Gebauer-Moeller would drop one queued pair
        # of this corner pass; the loop reduces it to zero instead, and the
        # basis and the survivors stay
        s = new_semigroup([5, 11, 12, 13])
        gb, survivors, counts = _corner_pass(s, lattice=True)
        assert counts == {
            "pairs_skipped": 9,
            "pairs_reduced": 5,
            "pairs_to_zero": 2,
            "pushes": 8,
            "reducer_calls": 22,
        }
        assert survivors == [0, 1, 2, 3, 4]
        assert _corner_pass(s, lattice=False)[:2] == (gb, survivors)
        assert [(b.plus, b.minus) for b in gb.elements] == [
            ((0, 0, 2, 0), (0, 1, 0, 1)),
            ((2, 0, 0, 1), (0, 1, 1, 0)),
            ((2, 0, 1, 0), (0, 2, 0, 0)),
            ((1, 2, 1, 0), (0, 0, 0, 3)),
            ((0, 4, 0, 0), (1, 0, 0, 3)),
            ((1, 3, 0, 0), (0, 0, 1, 2)),
            ((3, 1, 0, 0), (0, 0, 0, 2)),
            ((5, 0, 0, 0), (0, 0, 1, 1)),
        ]

    def test_keeps_basis_and_survivors_on_the_grid(self):
        grid = _arithmetic_grid(3, 12)
        assert len(grid) == 182
        for s in grid:
            assert _corner_pass(s, lattice=True)[:2] == _corner_pass(s, lattice=False)[:2], s.generators

    @settings(max_examples=80, deadline=None)
    @given(semigroups())
    @example(new_semigroup([2, 3]))
    @example(new_semigroup([15, 17, 19, 26, 35]))
    # the chain criterion, which the loop does not apply, drops pairs of
    # the plain pass here
    @example(new_semigroup([5, 7, 11, 13]))
    def test_keeps_basis_and_survivors(self, s):
        assert _corner_pass(s, lattice=True)[:2] == _corner_pass(s, lattice=False)[:2]

    def test_wrong_off_a_prime_ideal(self):
        # (x2^2 - x1^3 x2^3 x3^3, x1^3 x2 - x1^3 x3^3) is not saturated: the
        # S-pair that gives x2^2 x3^3 - x2^3 has sides sharing x2^2, so the
        # public buchberger, which never applies the criterion, keeps it
        order = degrevlex(["x1", "x2", "x3"])
        gens = [Binomial((0, 2, 0), (3, 3, 3)), Binomial((3, 1, 0), (3, 0, 3))]
        gb = buchberger(gens, order)
        assert gb.elements == (
            Binomial((0, 2, 3), (0, 3, 0)),
            Binomial((3, 0, 3), (3, 1, 0)),
            Binomial((3, 4, 0), (0, 2, 0)),
        )
        assert spair_oracle(gb)
        forced, _, counts = _buchberger(gens, order, None, lattice=True)
        assert forced.elements == gb.elements[1:]
        assert counts["pairs_skipped"] == 1


class TestNormalForm:
    def test_generator_reduces_to_zero(self):
        gb = reduced_gb(new_semigroup([3, 4, 5]))
        assert normal_form(Binomial((0, 2, 0), (1, 0, 1)), gb) is None

    def test_variable_survives(self):
        for gens in ([3, 4, 5], [4, 5, 7]):
            gb = reduced_gb(new_semigroup(gens))
            assert normal_form((1, 0, 0), gb) == (1, 0, 0)

    def test_multiple_of_generator_reduces_to_zero(self):
        gb = reduced_gb(new_semigroup([4, 5, 7]))
        # x3 * (x2*x3 - x1^3) is in the ideal
        assert normal_form(Binomial((0, 1, 2), (3, 0, 1)), gb) is None

    def test_idempotent(self):
        gb = reduced_gb(new_semigroup([4, 5, 7]))
        m = normal_form((2, 2, 2), gb)
        assert normal_form(m, gb) == m

    def test_unbalanced_binomial_survives(self):
        s = new_semigroup([3, 4, 5])
        gb = reduced_gb(s)
        assert normal_form(Binomial((1, 0, 0), (0, 1, 0)), gb) is not None


def test_membership_matches_fiber_oracle():
    # two monomials reduce to the same normal form exactly when they share
    # a weighted degree; this certifies completeness of the basis
    for gens in ([3, 4, 5], [4, 5, 7], [4, 6, 7], [5, 6, 7, 8, 9]):
        s = new_semigroup(gens)
        gb = reduced_gb(s)
        bound = 3 * s.generators[-1]
        seen: dict[int, tuple] = {}
        for value in range(bound + 1):
            fiber = fiber_monomials(s.generators, value)
            if not fiber:
                continue
            forms = {normal_form(m, gb) for m in fiber}
            assert len(forms) == 1, (gens, value, forms)
            seen[value] = forms.pop()
        assert len(set(seen.values())) == len(seen)


def test_reduced_basis_matches_the_apery_generating_set():
    # the reduced basis of an ideal is unique, so the corner route and the
    # t-elimination oracle must agree element for element, and every binomial
    # of the naive Apery generating set must lie in the ideal
    grid = [
        arithmetic_semigroup(n1, d, e)
        for n1 in range(3, 10)
        for d in range(1, 6)
        if math.gcd(n1, d) == 1
        for e in range(3, n1 + 1)
    ]
    assert len(grid) == 101
    rng = random.Random(12)
    drawn = []
    while len(drawn) < 30:
        m = rng.randint(3, 15)
        gens = [m, *(rng.randint(m + 1, 3 * m) for _ in range(rng.randint(1, 5)))]
        if math.gcd(*gens) == 1:
            drawn.append(new_semigroup(gens))
    assert [s.generators for s in grid + drawn if elimination_gb(s) != reduced_gb(s)] == []
    outside = [
        (s.generators, pair)
        for s in grid + drawn
        for gb in [reduced_gb(s)]
        for pair in apery_binomials(s.generators)
        if normal_form(Binomial(*pair), gb) is not None
    ]
    assert outside == []


# elimination_gb(<4001, 4002, 4003>) takes seconds; this is its output,
# recorded once with the t-elimination route
GB_4001 = GroebnerBasis(
    (
        Binomial((0, 2, 0), (1, 0, 1)),
        Binomial((2001, 1, 0), (0, 0, 2001)),
        Binomial((2002, 0, 0), (0, 1, 2000)),
    ),
    degrevlex(["x1", "x2", "x3"]),
)


@settings(max_examples=60, deadline=None)
@given(semigroups(max_multiplicity=9, max_extra=4))
@example(new_semigroup([2, 3]))
@example(new_semigroup([7, 11]))
@example(new_semigroup([4001, 4002, 4003]))
@example(new_semigroup([20011, 20021, 20023, 21001]))
@example(new_semigroup([5, 11, 12, 13]))
def test_corners_generate_the_defining_ideal(s):
    # at most one binomial per Apery element and non-first generator, each
    # corner once, each balanced with distinct sides; and the reduced basis
    # they give is the elimination route's, for e = 2 too (recorded for
    # <4001, 4002, 4003>)
    gens = s.generators
    corners = _corners(s)
    assert len(corners) <= (len(gens) - 1) * s.multiplicity
    assert len({b.plus for b in corners}) == len(corners)
    for b in corners:
        assert b.plus != b.minus
        assert b.plus[0] == 0
        assert _degree(b.plus, gens) == _degree(b.minus, gens)
    assert reduced_gb(s) == (GB_4001 if gens == (4001, 4002, 4003) else elimination_gb(s))


class TestHomogenizedGb:
    def test_345(self):
        got = [(b.plus, b.minus) for b in homogenized_gb(new_semigroup([3, 4, 5])).elements]
        assert got == [
            ((0, 2, 0, 0), (1, 0, 1, 0)),
            ((2, 1, 0, 0), (0, 0, 2, 1)),
            ((3, 0, 0, 0), (0, 1, 1, 1)),
        ]

    def test_23(self):
        got = [(b.plus, b.minus) for b in homogenized_gb(new_semigroup([2, 3])).elements]
        assert got == [((3, 0, 0), (0, 2, 1))]

    def test_467(self):
        # x2^3 - x1*x3^2 is already balanced in degree, so it gains no x0
        got = {(b.plus, b.minus) for b in homogenized_gb(new_semigroup([4, 6, 7])).elements}
        assert got == {
            ((3, 0, 0, 0), (0, 2, 0, 1)),
            ((2, 1, 0, 0), (0, 0, 2, 1)),
            ((0, 3, 0, 0), (1, 0, 2, 0)),
        }

    def test_dehomogenization_recovers_affine(self):
        for gens in ([3, 4, 5], [4, 5, 7], [5, 6, 7, 8, 9], [8, 10, 12, 15]):
            s = new_semigroup(gens)
            affine = reduced_gb(s).elements
            homog = homogenized_gb(s).elements
            dehomog = [Binomial(b.plus[:-1], b.minus[:-1]) for b in homog]
            assert dehomog == list(affine)

    def test_all_elements_homogeneous(self):
        gb = homogenized_gb(new_semigroup([4, 5, 7]))
        assert all(b.homogeneous for b in gb.elements)
        assert spair_oracle(gb)

    def test_criterion_8_grid_up_to_n1_10_passes_the_oracle(self):
        grid = [
            (n1, d, e)
            for n1 in range(3, 11)
            for d in range(1, 6)
            if math.gcd(n1, d) == 1
            for e in range(3, n1 + 1)
        ]
        assert len(grid) == 117
        failing = [inst for inst in grid if not spair_oracle(homogenized_gb(arithmetic_semigroup(*inst)))]
        assert failing == []


class TestAcmAndHypothesis:
    def test_345(self):
        rep = acm_and_hypothesis(new_semigroup([3, 4, 5]))
        assert rep.acm and rep.hypothesis

    def test_467(self):
        rep = acm_and_hypothesis(new_semigroup([4, 6, 7]))
        assert rep.acm and not rep.hypothesis

    def test_457(self):
        rep = acm_and_hypothesis(new_semigroup([4, 5, 7]))
        assert rep.acm and rep.hypothesis

    def test_small_embedding_dimension_rejected(self):
        with pytest.raises(EmbeddingDimensionTooSmall):
            acm_and_hypothesis(new_semigroup([2, 3]))


class TestProjectiveVerdict:
    def test_345_transfers(self):
        v = projective_ng_verdict(new_semigroup([3, 4, 5]))
        assert v.applicable
        assert v.projective_ng == v.affine_ng

    def test_457_transfers_true(self):
        v = projective_ng_verdict(new_semigroup([4, 5, 7]))
        assert v.applicable and v.projective_ng is True

    def test_467_inconclusive(self):
        v = projective_ng_verdict(new_semigroup([4, 6, 7]))
        assert not v.applicable and v.projective_ng is None
        assert "projective_ng" not in v.to_json()


class TestArithmeticGb:
    def test_515_quadrics_and_second_family_shape(self):
        gb = reduced_gb(arithmetic_semigroup(5, 1, 5))
        homog = [b for b in gb.elements if b.homogeneous]
        assert len(homog) == 6  # the quadric family for 2 <= i <= j <= 4
        assert all(sum(b.plus) == 2 and sum(b.minus) == 2 for b in homog)
        assert len(gb.elements) == 10


def test_buchberger_deterministic_repeat():
    s = new_semigroup([5, 6, 7, 8, 9])
    first = reduced_gb(s)
    second = reduced_gb(s)
    assert first.elements == second.elements
    assert first.order == second.order


def test_groebner_bases_pass_spair_criterion():
    for gens in ([3, 4, 5], [4, 5, 7], [4, 6, 7], [5, 6, 7, 8, 9], [8, 10, 12, 15], [3, 10, 14]):
        assert spair_oracle(reduced_gb(new_semigroup(gens)))


@pytest.mark.parametrize("gens", [[3, 4, 5], [4, 5, 7], [4, 6, 7], [5, 6, 7, 8, 9], [8, 10, 12, 15], [3, 10, 14]])
def test_spair_oracle_rejects_a_basis_missing_its_first_element(gens):
    # the oracle must be able to fail: without its first element, each of
    # these bases leaves an S-pair whose two sides have distinct normal forms
    for gb in (reduced_gb(new_semigroup(gens)), homogenized_gb(new_semigroup(gens))):
        elements = [(b.plus, b.minus) for b in gb.elements]
        assert buchberger_criterion(elements)
        assert not buchberger_criterion(elements[1:])


@pytest.mark.parametrize(
    "n1_range, count, digest",
    [
        # recorded with an unpruned Buchberger loop
        (range(3, 9), 73, "036cc58b97083eeb8ee1afef90993603cec286a3c07182dd70b68f657e42afa8"),
        # the rest of criterion 8's grid, recorded with standard-degree pair selection
        (range(9, 13), 109, "daca4c79c2deed4267f337e2483a59af74e7048b4243a2abe4e098611ee123cb"),
        # recorded with a reducer that scanned every lead in insertion order
        (range(13, 14), 55, "653f73b78fded9c803a2f3640ab9bf6dd1904ba6eb1d6b9016a4229bcf634066"),
    ],
    ids=["n1_3_8", "n1_9_12", "n1_13"],
)
def test_small_arithmetic_grid_bases_pinned(n1_range, count, digest):
    # reduced bases are unique, so no pair-pruning or pair-selection rule
    # may move these digests of the d <= 5 grid bases
    bases = [
        reduced_gb(arithmetic_semigroup(n1, d, e)).to_json()
        for n1 in n1_range
        for d in range(1, 6)
        if math.gcd(n1, d) == 1
        for e in range(3, n1 + 1)
    ]
    assert len(bases) == count
    text = json.dumps(bases, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@settings(max_examples=30, deadline=None)
@given(semigroups(max_multiplicity=8, max_extra=3))
def test_grading_keeps_graph_ideal_basis(s):
    gens = graph_ideal(s.generators)
    order = EliminationOrder(("t",) + tuple(f"x{i}" for i in range(len(s.generators))), block_split=1)
    graded = buchberger(gens, order, grading=(1,) + s.generators)
    assert graded.elements == buchberger(gens, order).elements


@st.composite
def binomial_sets(draw):
    n = draw(st.integers(2, 4))
    monomials = st.tuples(*[st.integers(0, 3)] * n)
    gens = draw(st.lists(st.builds(Binomial, monomials, monomials), min_size=1, max_size=4))
    names = [f"y{i}" for i in range(n)]
    order = draw(st.sampled_from([degrevlex(names), EliminationOrder(tuple(names), 1)]))
    weights = draw(st.tuples(*[st.integers(1, 7)] * n))
    return gens, order, weights


@settings(max_examples=60, deadline=None)
@given(binomial_sets())
def test_grading_keeps_basis_of_any_binomials(case):
    # the input need not be homogeneous for the weights: only the order of
    # work may change, never the reduced basis
    gens, order, weights = case
    assert buchberger(gens, order, grading=weights).elements == buchberger(gens, order).elements


def test_grading_needs_positive_weight_per_variable():
    order = degrevlex(["x1", "x2"])
    gens = [Binomial((3, 0), (0, 2))]
    for bad in ((1,), (1, 0), (2, -1)):
        with pytest.raises(ValueError):
            buchberger(gens, order, grading=bad)


def _assert_fibers_meet_at_smallest(s):
    # a complete basis sends every monomial of one weighted degree to the
    # same normal form, the degrevlex-least monomial of that degree
    gb = reduced_gb(s)
    for value in range(2 * s.generators[-1] + 1):
        fiber = fiber_monomials(s.generators, value)
        if not fiber:
            continue
        smallest = min(fiber, key=gb.order.key)
        assert {normal_form(m, gb) for m in fiber} == {smallest}, (s.generators, value)


@settings(max_examples=40, deadline=None)
@given(semigroups(max_multiplicity=6, max_extra=3))
def test_normal_form_is_smallest_fiber_member(s):
    _assert_fibers_meet_at_smallest(s)


@pytest.mark.parametrize("gens", [(7, 9, 11, 13, 15, 17, 19), (8, 9, 10, 11, 12, 13, 14, 15)])
def test_normal_form_is_smallest_fiber_member_wide(gens):
    # embedding dimension 7 and 8: many more lead supports than above
    _assert_fibers_meet_at_smallest(new_semigroup(gens))


class TestReducer:
    # over <3, 4, 5>: every rule below is balanced for the weights (3, 4, 5)
    packing = _Packing(3)

    def reducer(self, *elements):
        return _Reducer(self.packing, [(self.packing.pack(b.plus), self.packing.pack(b.minus)) for b in elements])

    def reduce(self, red, m):
        return self.packing.unpack(red.reduce(self.packing.pack(m)))

    def test_lead_with_new_support_reaches_seen_support(self):
        red = self.reducer(Binomial((0, 2, 0), (1, 0, 1)))
        assert self.reduce(red, (2, 1, 1)) == (2, 1, 1)
        red.add(self.packing.pack((2, 1, 0)), self.packing.pack((0, 0, 2)))
        # same support as the monomial reduced before the lead was added
        assert self.reduce(red, (3, 1, 1)) == (1, 0, 3)

    def test_lead_with_seen_support_reaches_seen_support(self):
        red = self.reducer(Binomial((2, 1, 0), (0, 0, 2)))
        assert self.reduce(red, (1, 3, 1)) == (1, 3, 1)
        red.add(self.packing.pack((1, 3, 0)), self.packing.pack((0, 0, 3)))
        assert self.reduce(red, (1, 4, 1)) == (0, 1, 4)

    def test_rewrites_until_no_lead_divides(self):
        red = self.reducer(Binomial((3, 0, 0), (0, 1, 1)), Binomial((0, 2, 0), (1, 0, 1)))
        # x1^3 x2 -> x2^2 x3 -> x1 x3^2
        assert self.reduce(red, (3, 1, 0)) == (1, 0, 2)


# the largest exponent a packed monomial holds
FIELD_MAX = 2**31 - 1


@st.composite
def monomial_tuples(draw, count):
    # exponents at 0 and at the field maximum as well as in between
    n = draw(st.integers(1, 9))
    exponent = st.one_of(st.just(0), st.just(FIELD_MAX), st.integers(0, FIELD_MAX))
    return [draw(st.tuples(*[exponent] * n)) for _ in range(count)]


class TestPackedKernels:
    # the packed divisibility, lcm, support and rewrite against the tuple definitions

    @settings(max_examples=200, deadline=None)
    @given(monomial_tuples(2))
    def test_pack_divides_lcm_support(self, monomials):
        a, b = monomials
        packing = _Packing(len(a))
        guard, ones = packing.guard, packing.ones
        pa, pb = packing.pack(a), packing.pack(b)
        assert packing.unpack(pa) == a
        assert _divides(pa, pb, guard) == monomial_divides(a, b)
        lcm = _lcm(pa, pb, guard)
        assert packing.unpack(lcm) == monomial_lcm(a, b)
        assert _divides(pa, lcm, guard) and _divides(pb, lcm, guard)
        # one guard bit per nonzero exponent; masks nest as supports do
        assert packing.unpack(_support(pa, guard, ones) >> 31) == tuple(int(bool(e)) for e in a)
        inside = not _support(pa, guard, ones) & ~_support(pb, guard, ones)
        assert inside == (monomial_support(a) <= monomial_support(b))
        # a proper divisor packs to a smaller int, as the M criterion's sort needs
        if a != b and monomial_divides(a, b):
            assert pa < pb

    @settings(max_examples=200, deadline=None)
    @given(monomial_tuples(3))
    def test_rewrite(self, monomials):
        m, lead, tail = monomials
        lead = tuple(map(min, lead, m))  # a divisor of m
        packing = _Packing(len(m))
        want = monomial_rewrite(m, lead, tail)
        args = (packing.pack(m), packing.pack(lead), packing.pack(tail), packing.guard)
        if max(want) <= FIELD_MAX:
            assert packing.unpack(_rewrite(*args)) == want
        else:
            with pytest.raises(InputTooLarge):
                _rewrite(*args)

    @pytest.mark.parametrize("bad", [(FIELD_MAX + 1, 0), (0, 2**32), (-1, 0)])
    def test_pack_refuses_what_does_not_fit(self, bad):
        with pytest.raises(InputTooLarge):
            _Packing(2).pack(bad)

    @pytest.mark.parametrize("wrong", [(1,), (1, 2, 3)])
    def test_pack_refuses_the_wrong_number_of_exponents(self, wrong):
        with pytest.raises(ValueError, match="does not have 2 exponents"):
            _Packing(2).pack(wrong)


class TestExponentLimit:
    # an exponent past the field maximum raises instead of carrying into the
    # next variable: at the input and at every rewrite, S-pairs included
    order = degrevlex(["x1", "x2"])

    def test_buchberger_input(self):
        gb = buchberger([Binomial((FIELD_MAX, 0), (0, 1))], self.order)
        assert gb.elements == (Binomial((FIELD_MAX, 0), (0, 1)),)
        with pytest.raises(InputTooLarge):
            buchberger([Binomial((FIELD_MAX + 1, 0), (0, 1))], self.order)

    def test_buchberger_spair(self):
        # the S-pair of x1^2 - x2^2 and x1 x2^k - x2^(k+1) rewrites x1^2 x2^k
        # to x2^(k+2), which fits for k = FIELD_MAX - 2 and not one more
        k = FIELD_MAX - 2
        f = Binomial((2, 0), (0, 2))
        gb = buchberger([f, Binomial((1, k), (0, k + 1))], self.order)
        assert gb.elements == (f, Binomial((1, k), (0, k + 1)))
        with pytest.raises(InputTooLarge):
            buchberger([f, Binomial((1, k + 1), (0, k + 2))], self.order)

    def test_normal_form(self):
        gb = buchberger([Binomial((2, 0), (0, 2))], self.order)
        assert normal_form((2, FIELD_MAX - 2), gb) == (0, FIELD_MAX)
        assert normal_form((0, FIELD_MAX), gb) == (0, FIELD_MAX)
        with pytest.raises(InputTooLarge):
            normal_form((2, FIELD_MAX - 1), gb)
        with pytest.raises(InputTooLarge):
            normal_form((0, FIELD_MAX + 1), gb)
