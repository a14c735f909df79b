import math
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nsg.constructions import (
    GluingSpec,
    arithmetic_semigroup,
    glue,
    glued_invariants,
    lift,
    lifted_invariants,
    verify_construction,
)
from nsg.errors import (
    GcdViolation,
    LambdaIsGenerator,
    LambdaNotMember,
    MuIsGenerator,
    MuNotMember,
    NonMinimalSequence,
)
from nsg.ideals import generated_ideal, trace_and_residue
from nsg.scan import random_gluing_spec, random_lift
from nsg.semigroup import gap_profile, new_semigroup

from oracles import dp_membership, replaced
from strategies import semigroups


def _non_generators(s, upto):
    """The members of s in [2, upto] that are not minimal generators."""
    return [x for x in range(2, upto + 1) if s.contains(x) and x not in s.generators]


@st.composite
def gluing_specs(draw):
    """Two factors and coprime non-generator members lam of the left and mu
    of the right: every spec ``glue`` accepts, up to the size of the draws."""
    left, right = draw(semigroups(max_multiplicity=8)), draw(semigroups(max_multiplicity=8))
    lam = draw(st.sampled_from(_non_generators(left, 3 * left.multiplicity)))
    mus = [mu for mu in _non_generators(right, 3 * right.multiplicity) if math.gcd(lam, mu) == 1]
    assume(mus)
    return GluingSpec(left, right, lam, draw(st.sampled_from(mus)))


class TestGlue:
    @settings(max_examples=150, deadline=None)
    @given(gluing_specs())
    @example(GluingSpec(new_semigroup([3, 5, 7]), new_semigroup([2, 3]), lam=6, mu=5))  # lam = 2 * m1
    @example(GluingSpec(new_semigroup([4, 5, 7]), new_semigroup([3, 4]), lam=8, mu=9))  # lam = 2 * m1, mu = 3 * m2
    @example(GluingSpec(new_semigroup([2, 3]), new_semigroup([1]), lam=4, mu=3))
    @example(GluingSpec(new_semigroup([1]), new_semigroup([2, 3]), lam=2, mu=5))
    def test_scaled_union_is_minimal_and_disjoint(self, spec):
        # what glue's docstring proves: with coprime non-generator scalars,
        # mu * A and lam * B are disjoint and their union is minimal
        scaled = [spec.mu * a for a in spec.left.generators] + [spec.lam * b for b in spec.right.generators]
        built = glue(spec)
        assert built.generators == tuple(sorted(scaled))
        assert len(set(scaled)) == len(spec.left.generators) + len(spec.right.generators)
        assert not built.was_reduced

    def test_double_23(self):
        spec = GluingSpec(new_semigroup([2, 3]), new_semigroup([2, 3]), lam=4, mu=5)
        assert glue(spec).generators == (8, 10, 12, 15)

    def test_357_with_23(self):
        spec = GluingSpec(new_semigroup([3, 5, 7]), new_semigroup([2, 3]), lam=10, mu=7)
        assert glue(spec).generators == (20, 21, 30, 35, 49)

    def test_lambda_is_generator(self):
        with pytest.raises(LambdaIsGenerator):
            glue(GluingSpec(new_semigroup([2, 3]), new_semigroup([2, 3]), lam=2, mu=5))

    def test_mu_is_generator(self):
        with pytest.raises(MuIsGenerator):
            glue(GluingSpec(new_semigroup([2, 3]), new_semigroup([2, 3]), lam=5, mu=2))

    def test_lambda_not_member(self):
        with pytest.raises(LambdaNotMember):
            glue(GluingSpec(new_semigroup([3, 5, 7]), new_semigroup([2, 3]), lam=4, mu=7))

    def test_mu_not_member(self):
        with pytest.raises(MuNotMember):
            glue(GluingSpec(new_semigroup([2, 3]), new_semigroup([3, 5, 7]), lam=5, mu=4))

    def test_gcd_violation(self):
        with pytest.raises(GcdViolation):
            glue(GluingSpec(new_semigroup([2, 3]), new_semigroup([2, 3]), lam=4, mu=6))

    def test_nonpositive_scalar(self):
        with pytest.raises(ValueError):
            glue(GluingSpec(new_semigroup([2, 3]), new_semigroup([2, 3]), lam=0, mu=5))


class TestGluedInvariants:
    def test_double_23(self):
        spec = GluingSpec(new_semigroup([2, 3]), new_semigroup([2, 3]), lam=4, mu=5)
        pred = glued_invariants(spec)
        assert pred.frobenius == 29
        assert pred.pf == (29,)
        assert pred.residue == 0

    def test_fixed_instance(self):
        spec = GluingSpec(new_semigroup([3, 5, 7]), new_semigroup([2, 3]), lam=10, mu=7)
        pred = glued_invariants(spec)
        assert pred.frobenius == 108
        assert pred.pf == (94, 108)
        assert pred.residue == 7
        assert pred.gap_bound == 7
        outcome = verify_construction(pred, glue(spec))
        assert outcome.verified
        assert outcome.computed.missing == (0, 20, 30, 40, 50, 60, 80)

    def test_gorenstein_factors_glue_to_residue_zero(self):
        spec = GluingSpec(new_semigroup([2, 5]), new_semigroup([3, 4]), lam=7, mu=7)
        # lam = mu here would break coprimality; pick a valid pair instead
        spec = GluingSpec(new_semigroup([2, 5]), new_semigroup([3, 4]), lam=7, mu=8)
        pred = glued_invariants(spec)
        assert pred.residue == 0
        assert verify_construction(pred, glue(spec)).verified

    def test_naturals_factor(self):
        spec = GluingSpec(new_semigroup([2, 3]), new_semigroup([1]), lam=4, mu=3)
        built = glue(spec)
        assert built.generators == (4, 6, 9)
        pred = glued_invariants(spec)
        assert pred.frobenius == 11
        assert pred.pf == (11,)
        assert verify_construction(pred, built).verified


class TestLift:
    def test_example(self):
        assert lift(new_semigroup([3, 5, 7]), 2).generators == (3, 10, 14)

    def test_identity(self):
        s = new_semigroup([3, 5, 7])
        assert lift(s, 1) == s

    def test_gcd_violation(self):
        with pytest.raises(GcdViolation):
            lift(new_semigroup([3, 5, 7]), 3)

    def test_k_below_one(self):
        with pytest.raises(ValueError):
            lift(new_semigroup([3, 5, 7]), 0)

    def test_lift_of_naturals(self):
        assert lift(new_semigroup([1]), 5).is_naturals

    @settings(max_examples=60, deadline=None)
    @given(semigroups(max_multiplicity=10), st.integers(1, 6))
    def test_every_scaled_generator_stays_minimal(self, s, k):
        assume(math.gcd(k, s.multiplicity) == 1)
        built = lift(s, k)
        expected = (s.multiplicity,) + tuple(k * g for g in s.generators[1:])
        assert built.generators == expected and not built.was_reduced
        member = dp_membership(expected, expected[-1])
        for g in expected:
            assert not any(member[x] and member[g - x] for x in range(1, g)), (s.generators, k, g)


class TestLiftedInvariants:
    def test_fixed_instance(self):
        s = new_semigroup([3, 5, 7])
        pred = lifted_invariants(s, 2)
        assert pred.frobenius == 11
        assert pred.pf == (7, 11)
        assert pred.residue == 2
        assert pred.trace_min_gens == (6, 10, 14)
        assert verify_construction(pred, lift(s, 2)).verified

    def test_identity_matches_direct(self):
        s = new_semigroup([3, 5, 7])
        pred = lifted_invariants(s, 1)
        report = trace_and_residue(s)
        assert pred.residue == report.residue
        assert pred.trace_min_gens == report.trace_min_gens
        assert verify_construction(pred, s).verified

    def test_two_generator_lift(self):
        s = new_semigroup([2, 3])
        built = lift(s, 5)
        assert built.generators == (2, 15)
        pred = lifted_invariants(s, 5)
        assert pred.frobenius == 13
        assert pred.residue == 0
        assert verify_construction(pred, built).verified


# one wrong value per predicted field that verify_construction checks
CORRUPTIONS = {
    "residue": lambda v: v + 1,
    "pf": lambda v: v[:-1],
    "gap_bound": lambda v: v - 1,
    "frobenius": lambda v: v + 1,
    "trace_min_gens": lambda v: v + (1000,),
}


class TestVerifyConstruction:
    @pytest.mark.parametrize("field", list(CORRUPTIONS))
    def test_corrupted_prediction_flagged(self, field):
        s = new_semigroup([3, 5, 7])
        pred = lifted_invariants(s, 2)
        corrupted = replaced(pred, **{field: CORRUPTIONS[field](getattr(pred, field))})
        outcome = verify_construction(corrupted, lift(s, 2))
        assert not outcome.verified
        assert outcome.discrepancies == (field,)

    def test_corrupted_gluing_trace_set_flagged(self):
        # the built multiplicity 20 is missing from the true trace; adding
        # it changes the predicted set but not the predicted generators
        spec = GluingSpec(new_semigroup([3, 5, 7]), new_semigroup([2, 3]), lam=10, mu=7)
        built = glue(spec)
        pred = glued_invariants(spec)
        wrong = generated_ideal(built, (*pred.trace_min_gens, built.multiplicity))
        outcome = verify_construction(replaced(pred, trace_set=wrong), built)
        assert not outcome.verified
        assert outcome.discrepancies == ("trace_set",)


class TestArithmeticSemigroup:
    @pytest.mark.parametrize(
        "args,gens",
        [((3, 1, 3), (3, 4, 5)), ((5, 1, 5), (5, 6, 7, 8, 9)), ((4, 3, 3), (4, 7, 10))],
    )
    def test_examples(self, args, gens):
        assert arithmetic_semigroup(*args).generators == gens

    def test_gcd_violation(self):
        with pytest.raises(GcdViolation):
            arithmetic_semigroup(4, 2, 3)

    def test_e_out_of_range(self):
        with pytest.raises(NonMinimalSequence):
            arithmetic_semigroup(3, 1, 4)
        with pytest.raises(NonMinimalSequence):
            arithmetic_semigroup(5, 1, 1)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 30), st.integers(1, 30), st.data())
    def test_whole_sequence_is_minimal(self, n1, d, data):
        # every coprime sequence within 2 <= e <= n1 builds, keeps all its
        # terms, and no term is a sum of two nonzero members
        assume(math.gcd(n1, d) == 1)
        e = data.draw(st.integers(2, n1))
        sequence = [n1 + i * d for i in range(e)]
        assert arithmetic_semigroup(n1, d, e).generators == tuple(sequence)
        member = dp_membership(sequence, sequence[-1])
        for g in sequence:
            assert not any(member[x] and member[g - x] for x in range(1, g)), (n1, d, e, g)


def _question_holds(s):
    report = trace_and_residue(s)
    return report.residue <= report.gap_bound


class TestGluingTheoremSuite:
    """Seeded randomized verification of the gluing formulas."""

    SEED = 20240817
    COUNT = 200

    @pytest.fixture(scope="class")
    @staticmethod
    def outcomes():
        rng = random.Random(TestGluingTheoremSuite.SEED)
        results = []
        for _ in range(TestGluingTheoremSuite.COUNT):
            spec = random_gluing_spec(rng, max_multiplicity=12)
            pred = glued_invariants(spec)
            built = glue(spec)
            results.append((spec, pred, verify_construction(pred, built)))
        return results

    def test_all_verified(self, outcomes):
        failures = [(s.left.generators, s.right.generators, s.lam, s.mu, o.discrepancies) for s, _, o in outcomes if not o.verified]
        assert failures == []

    def test_residue_additivity(self, outcomes):
        for spec, pred, outcome in outcomes:
            r1 = trace_and_residue(spec.left).residue
            r2 = trace_and_residue(spec.right).residue
            assert outcome.computed.residue == spec.mu * r1 + spec.lam * r2

    def test_gap_bound_additivity_and_question_propagation(self, outcomes):
        for spec, pred, outcome in outcomes:
            g1, g2 = gap_profile(spec.left), gap_profile(spec.right)
            gp = gap_profile(glue(spec))
            direct = gp.genus - gp.non_gap_count
            assert direct == spec.mu * (g1.genus - g1.non_gap_count) + spec.lam * (g2.genus - g2.non_gap_count)
            if _question_holds(spec.left) and _question_holds(spec.right):
                assert outcome.computed.residue <= direct

    def test_never_nearly_gorenstein(self, outcomes):
        # factors with any positive residue force the gluing out of the
        # nearly-Gorenstein class, because the scalars are always >= 2
        for spec, pred, outcome in outcomes:
            assert spec.lam >= 2 and spec.mu >= 2
            r1 = trace_and_residue(spec.left).residue
            r2 = trace_and_residue(spec.right).residue
            if r1 + r2 >= 1:
                assert outcome.computed.residue >= 2


class TestLiftingTheoremSuite:
    """Seeded randomized verification of the lifting formulas."""

    SEED = 964213
    COUNT = 200

    @pytest.fixture(scope="class")
    @staticmethod
    def outcomes():
        rng = random.Random(TestLiftingTheoremSuite.SEED)
        results = []
        for _ in range(TestLiftingTheoremSuite.COUNT):
            base, k = random_lift(rng, max_multiplicity=12)
            pred = lifted_invariants(base, k)
            built = lift(base, k)
            results.append((base, k, pred, verify_construction(pred, built)))
        return results

    def test_all_verified(self, outcomes):
        failures = [(b.generators, k, o.discrepancies) for b, k, _, o in outcomes if not o.verified]
        assert failures == []

    def test_scaling_laws(self, outcomes):
        for base, k, pred, outcome in outcomes:
            report = trace_and_residue(base)
            gp = gap_profile(base)
            assert outcome.computed.residue == k * report.residue
            assert outcome.computed.trace_min_gens == tuple(sorted(k * g for g in report.trace_min_gens))
            built_gp = gap_profile(lift(base, k))
            direct_bound = built_gp.genus - built_gp.non_gap_count
            assert direct_bound == k * (gp.genus - gp.non_gap_count)
            if _question_holds(base):
                assert outcome.computed.residue <= direct_bound

    def test_never_nearly_gorenstein(self, outcomes):
        for base, k, pred, outcome in outcomes:
            if k >= 2 and trace_and_residue(base).residue >= 1:
                assert outcome.computed.residue >= 2


def test_lift_composition():
    rng = random.Random(7)
    for _ in range(25):
        base, k = random_lift(rng, max_multiplicity=10, max_k=4)
        kp = rng.choice([v for v in range(1, 5) if math.gcd(v, base.multiplicity) == 1])
        assert lift(lift(base, k), kp) == lift(base, k * kp)
