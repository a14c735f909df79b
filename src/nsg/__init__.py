"""Numerical semigroup toolkit.

Exact arithmetic of numerical semigroups, canonical trace ideals and
residues, gluing and lifting constructions with verified closed-form
predictions, and binomial Groebner bases for the projective closures of
monomial curves.
"""

from .constructions import (
    GluingSpec,
    PredictedInvariants,
    VerificationOutcome,
    arithmetic_semigroup,
    glue,
    glued_invariants,
    lift,
    lifted_invariants,
    verify_construction,
)
from .ideals import (
    GapBoundCheck,
    RelativeIdeal,
    TraceReport,
    canonical_ideal,
    dual_ideal,
    gap_bound_check,
    generated_ideal,
    ideal_sum,
    minimal_generators,
    trace_and_residue,
)
from .semigroup import (
    GapProfile,
    NumericalSemigroup,
    PseudoFrobeniusSet,
    gap_profile,
    new_semigroup,
    pseudo_frobenius,
)
from .toric import (
    AcmHypothesisReport,
    Binomial,
    ClosureVerdict,
    GroebnerBasis,
    MonomialOrder,
    acm_and_hypothesis,
    buchberger,
    defining_ideal,
    degrevlex,
    elimination_order,
    homogenized_gb,
    normal_form,
    projective_ng_verdict,
)

__all__ = [
    "NumericalSemigroup",
    "GapProfile",
    "PseudoFrobeniusSet",
    "new_semigroup",
    "gap_profile",
    "pseudo_frobenius",
    "RelativeIdeal",
    "TraceReport",
    "GapBoundCheck",
    "generated_ideal",
    "canonical_ideal",
    "dual_ideal",
    "ideal_sum",
    "minimal_generators",
    "trace_and_residue",
    "gap_bound_check",
    "GluingSpec",
    "PredictedInvariants",
    "VerificationOutcome",
    "glue",
    "glued_invariants",
    "lift",
    "lifted_invariants",
    "verify_construction",
    "arithmetic_semigroup",
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
