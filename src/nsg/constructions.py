"""Gluings and liftings of numerical semigroups, with predicted invariants.

Both constructions come with closed-form predictions for the Frobenius
number, pseudo-Frobenius set, trace ideal, residue, and the gap-count bound.
``verify_construction`` recomputes everything directly on the built
semigroup and reports field-by-field agreement.
"""

from __future__ import annotations

import math

from .errors import (
    GcdViolation,
    LambdaIsGenerator,
    LambdaNotMember,
    MuIsGenerator,
    MuNotMember,
    NonMinimalSequence,
)
from .ideals import RelativeIdeal, TraceReport, generated_ideal, minimal_generators, trace_and_residue
from .semigroup import NumericalSemigroup, _Value, new_semigroup

__all__ = [
    "GluingSpec",
    "PredictedInvariants",
    "VerificationOutcome",
    "glue",
    "glued_invariants",
    "lift",
    "lifted_invariants",
    "verify_construction",
    "arithmetic_semigroup",
]


class GluingSpec(_Value):
    """Parameters of a gluing: two factors plus the cross scaling pair.

    ``lam`` must be a non-generator member of ``left`` and ``mu`` one of
    ``right``, coprime to each other; the glued semigroup is generated by
    mu * (left generators) together with lam * (right generators).
    """

    __slots__ = ("left", "right", "lam", "mu")
    left: NumericalSemigroup
    right: NumericalSemigroup
    lam: int
    mu: int


class PredictedInvariants(_Value):
    """Closed-form predictions for a glued or lifted semigroup.

    For gluings the whole trace is predicted as a set (``trace_set``); for
    liftings the prediction is at generator level only and ``trace_set``
    stays None.
    """

    __slots__ = ("frobenius", "pf", "trace_min_gens", "residue", "gap_bound", "provenance", "trace_set")
    _defaults = {"trace_set": None}
    frobenius: int
    pf: tuple[int, ...]
    trace_min_gens: tuple[int, ...]
    residue: int
    gap_bound: int
    provenance: str
    trace_set: RelativeIdeal | None

    def to_json(self) -> dict:
        """The five predicted invariants, JSON-ready."""
        return {
            "frobenius": self.frobenius,
            "pf": list(self.pf),
            "trace_min_gens": list(self.trace_min_gens),
            "residue": self.residue,
            "gap_bound": self.gap_bound,
        }


class VerificationOutcome(_Value):
    """A prediction, the trace report computed directly, and the names of
    the fields on which they disagree; verified iff there are none."""

    __slots__ = ("predicted", "computed", "discrepancies")
    predicted: PredictedInvariants
    computed: TraceReport
    discrepancies: tuple[str, ...]

    @property
    def verified(self) -> bool:
        return not self.discrepancies


def _validate(spec: GluingSpec) -> None:
    if spec.lam <= 0 or spec.mu <= 0:
        raise ValueError("gluing scalars must be positive")
    if math.gcd(spec.lam, spec.mu) != 1:
        raise GcdViolation(f"gcd({spec.lam}, {spec.mu}) != 1")
    if spec.lam in spec.left.generators:
        raise LambdaIsGenerator(f"{spec.lam} is a generator of {spec.left}")
    if not spec.left.contains(spec.lam):
        raise LambdaNotMember(f"{spec.lam} is not a member of {spec.left}")
    if spec.mu in spec.right.generators:
        raise MuIsGenerator(f"{spec.mu} is a generator of {spec.right}")
    if not spec.right.contains(spec.mu):
        raise MuNotMember(f"{spec.mu} is not a member of {spec.right}")


def glue(spec: GluingSpec) -> NumericalSemigroup:
    """The semigroup generated by mu * A and lam * B, A and B the minimal
    generators of the left and right factors.

    The union is always minimal and the two scaled sets disjoint.  Suppose
    mu * a, a in A, lay in the semigroup generated by the other generators:
    mu * (a - X) = lam * Y with X in <A - {a}> and Y in the right factor.
    As gcd(lam, mu) = 1, a = X + t * lam for some t >= 0.  If t = 0, a is
    written from A - {a}; if t >= 1 and X > 0, a is a sum of two nonzero
    members of the left factor; if X = 0, a = t * lam is lam itself, which
    is not a generator, or a sum of copies of lam.  The same argument covers
    lam * b, and mu * a = lam * b is the case X = 0.
    """
    _validate(spec)
    return new_semigroup([spec.mu * a for a in spec.left.generators] + [spec.lam * b for b in spec.right.generators])


def _glued_invariants(
    spec: GluingSpec, built: NumericalSemigroup, left: TraceReport, right: TraceReport
) -> PredictedInvariants:
    """``glued_invariants`` for a gluing already built by ``glue(spec)``,
    from the trace reports ``left`` and ``right`` of its two factors, which
    a gluing scan computes for a whole chunk of draws at once.

    The predicted trace is {mu*a + lam*b : a in tl, b in tr}, tl and tr the
    traces of the left and right factors: the ideal of the gluing generated
    by mu*a + lam*b over the minimal generators a of tl and b of tr.
    """
    lam, mu = spec.lam, spec.mu
    f1, f2 = spec.left.frobenius, spec.right.frobenius
    pf = tuple(sorted({mu * g + lam * h + mu * lam for g in left.pf for h in right.pf}))
    trace = generated_ideal(built, [mu * a + lam * b for a in left.trace_min_gens for b in right.trace_min_gens])
    return PredictedInvariants(
        frobenius=mu * f1 + lam * f2 + mu * lam,
        pf=pf,
        trace_min_gens=minimal_generators(trace),
        residue=mu * left.residue + lam * right.residue,
        gap_bound=mu * left.gap_bound + lam * right.gap_bound,
        provenance="gluing",
        trace_set=trace,
    )


def glued_invariants(spec: GluingSpec) -> PredictedInvariants:
    """Predict all invariants of the gluing from the factors alone."""
    return _glued_invariants(spec, glue(spec), trace_and_residue(spec.left), trace_and_residue(spec.right))


def _check_lift(s: NumericalSemigroup, k: int) -> None:
    if k < 1:
        raise ValueError(f"lift factor must be >= 1, got {k}")
    if math.gcd(k, s.multiplicity) != 1:
        raise GcdViolation(f"gcd({k}, {s.multiplicity}) != 1")


def lift(s: NumericalSemigroup, k: int) -> NumericalSemigroup:
    """Scale every generator except the multiplicity n1 by k.

    The scaled set is always minimal.  n1 is below every k * n_j.  And if
    k * n_i = a * n1 + k * (sum of b_j * n_j over the other j), then k
    divides a * n1 and, being coprime to n1, divides a; dividing by k writes
    n_i from the other generators, against its minimality in s.
    """
    _check_lift(s, k)
    return new_semigroup([s.multiplicity] + [k * g for g in s.generators[1:]])


def lifted_invariants(s: NumericalSemigroup, k: int) -> PredictedInvariants:
    """Predict the lift's invariants; the trace scales at generator level."""
    _check_lift(s, k)
    return _lifted_invariants(s, k, trace_and_residue(s))


def _lifted_invariants(s: NumericalSemigroup, k: int, report: TraceReport) -> PredictedInvariants:
    """``lifted_invariants`` for a valid lift factor k, from the trace report
    of ``s``, which a lifting scan computes for a whole chunk of draws at
    once."""
    n1 = s.multiplicity
    return PredictedInvariants(
        frobenius=k * s.frobenius + (k - 1) * n1,
        pf=tuple(sorted(k * f + (k - 1) * n1 for f in report.pf)),
        trace_min_gens=tuple(sorted(k * g for g in report.trace_min_gens)),
        residue=k * report.residue,
        gap_bound=k * report.gap_bound,
        provenance="lifting",
    )


def verify_construction(predicted: PredictedInvariants, built: NumericalSemigroup) -> VerificationOutcome:
    """Recompute every predicted invariant directly, in one trace of the
    built semigroup, and diff the two sides."""
    report = trace_and_residue(built)
    discrepancies = []
    if predicted.frobenius != built.frobenius:
        discrepancies.append("frobenius")
    if predicted.pf != report.pf:
        discrepancies.append("pf")
    if predicted.residue != report.residue:
        discrepancies.append("residue")
    if predicted.gap_bound != report.gap_bound:
        discrepancies.append("gap_bound")
    if predicted.trace_set is not None and predicted.trace_set != report.trace:
        discrepancies.append("trace_set")
    if predicted.trace_min_gens != report.trace_min_gens:
        discrepancies.append("trace_min_gens")
    return VerificationOutcome(predicted=predicted, computed=report, discrepancies=tuple(discrepancies))


def arithmetic_semigroup(n1: int, d: int, e: int) -> NumericalSemigroup:
    """The semigroup generated by the arithmetic sequence n1, n1+d, ...

    Minimal generation forces e <= n1; the gcd condition is on (n1, d).
    Within those bounds the whole sequence is minimal: k >= 2 terms
    n1 + j*d summing to n1 + i*d would need (k - 1)*n1 = (i - J)*d, J the
    sum of their j, so n1 would divide 0 < i - J <= e - 1 < n1.
    """
    if math.gcd(n1, d) != 1:
        raise GcdViolation(f"gcd({n1}, {d}) != 1")
    if n1 < 2 or d < 1 or e < 2 or e > n1:
        raise NonMinimalSequence(f"need n1 >= 2, d >= 1, 2 <= e <= n1; got n1={n1}, d={d}, e={e}")
    return new_semigroup([n1 + i * d for i in range(e)])
