"""The thirteen immutable result types share one value contract: built by
position or by keyword, frozen against assignment and deletion, equal only
within their own class, hashed as the tuple of their fields, printed as
``Name(field=value, ...)`` (the text pinned below), and carried through
``pickle`` and ``copy.deepcopy`` unchanged."""

import copy
import pickle

import pytest

from nsg.constructions import (
    GluingSpec,
    PredictedInvariants,
    VerificationOutcome,
    lift,
    lifted_invariants,
    verify_construction,
)
from nsg.ideals import RelativeIdeal, TraceReport, canonical_ideal, trace_and_residue
from nsg.scan import ScanSummary
from nsg.semigroup import GapProfile, PseudoFrobeniusSet, gap_profile, new_semigroup, pseudo_frobenius
from nsg.toric import (
    AcmHypothesisReport,
    Binomial,
    ClosureVerdict,
    GroebnerBasis,
    MonomialOrder,
    acm_and_hypothesis,
    degrevlex,
)

FIELDS = {
    GapProfile: ("gaps",),
    PseudoFrobeniusSet: ("elements",),
    RelativeIdeal: ("ambient", "mins"),
    TraceReport: ("trace", "trace_min_gens", "pf", "residue", "genus"),
    GluingSpec: ("left", "right", "lam", "mu"),
    PredictedInvariants: ("frobenius", "pf", "trace_min_gens", "residue", "gap_bound", "provenance", "trace_set"),
    VerificationOutcome: ("predicted", "computed", "discrepancies"),
    MonomialOrder: ("variables",),
    Binomial: ("plus", "minus"),
    GroebnerBasis: ("elements", "order"),
    AcmHypothesisReport: ("gb",),
    ClosureVerdict: ("acm", "hypothesis", "affine_ng"),
    ScanSummary: ("records", "gorenstein", "nearly_gorenstein", "question_holds", "verification_failures"),
}

# the text the dataclass-generated __repr__ printed for these instances
PRED = (
    "PredictedInvariants(frobenius=7, pf=(7,), trace_min_gens=(0,), residue=0, gap_bound=0, "
    "provenance='lifting', trace_set=None)"
)
GB = (
    "GroebnerBasis(elements=(Binomial((0, 2, 0) - (1, 0, 1)), Binomial((2, 1, 0) - (0, 0, 2)), "
    "Binomial((3, 0, 0) - (0, 1, 1))), order=MonomialOrder(variables=('x1', 'x2', 'x3')))"
)
REPR = {
    GapProfile: "GapProfile(gaps=(1, 2, 4))",
    PseudoFrobeniusSet: "PseudoFrobeniusSet(elements=(2, 4))",
    RelativeIdeal: "RelativeIdeal(ambient=NumericalSemigroup([3, 5, 7]), mins=(0, 7, 2))",
    TraceReport: (
        "TraceReport(trace=RelativeIdeal(ambient=NumericalSemigroup([2, 3]), mins=(0, 3)), "
        "trace_min_gens=(0,), pf=(1,), residue=0, genus=1)"
    ),
    GluingSpec: "GluingSpec(left=NumericalSemigroup([3, 5, 7]), right=NumericalSemigroup([2, 3]), lam=10, mu=7)",
    PredictedInvariants: PRED,
    VerificationOutcome: (
        f"VerificationOutcome(predicted={PRED}, computed=TraceReport(trace=RelativeIdeal("
        "ambient=NumericalSemigroup([2, 9]), mins=(0, 9)), trace_min_gens=(0,), pf=(7,), residue=0, genus=4), "
        "discrepancies=())"
    ),
    MonomialOrder: "MonomialOrder(variables=('x', 'y'))",
    Binomial: "Binomial((1, 0) - (0, 1))",
    GroebnerBasis: GB,
    AcmHypothesisReport: f"AcmHypothesisReport(gb={GB})",
    ClosureVerdict: "ClosureVerdict(acm=True, hypothesis=True, affine_ng=True)",
    ScanSummary: (
        "ScanSummary(records=5, gorenstein=1, nearly_gorenstein=2, question_holds=4, verification_failures=0)"
    ),
}


def instances() -> dict:
    s, t = new_semigroup([3, 5, 7]), new_semigroup([2, 3])
    pred = lifted_invariants(t, 3)
    acm = acm_and_hypothesis(new_semigroup([3, 4, 5]))
    made = [
        gap_profile(s),
        pseudo_frobenius(s),
        canonical_ideal(s),
        trace_and_residue(t),
        GluingSpec(s, t, 10, 7),
        pred,
        verify_construction(pred, lift(t, 3)),
        degrevlex(["x", "y"]),
        Binomial((1, 0), (0, 1)),
        acm.gb,
        acm,
        acm.verdict(True),
        ScanSummary(5, 1, 2, 4, 0),
    ]
    return {type(x): x for x in made}


INSTANCES = instances()
TYPES = pytest.mark.parametrize("cls", list(FIELDS), ids=lambda cls: cls.__name__)


def field_tuple(x) -> tuple:
    return tuple(getattr(x, name) for name in FIELDS[type(x)])


def test_every_type_has_one_instance():
    assert list(INSTANCES) == list(FIELDS) and len(FIELDS) == 13


@TYPES
def test_fields_are_the_slots_and_the_annotations(cls):
    assert cls.__slots__ == FIELDS[cls]
    assert tuple(cls.__annotations__) == FIELDS[cls]
    assert not hasattr(INSTANCES[cls], "__dict__")


@TYPES
def test_built_by_position_and_by_keyword(cls):
    x = INSTANCES[cls]
    by_position = cls(*field_tuple(x))
    by_keyword = cls(**dict(zip(FIELDS[cls], field_tuple(x))))
    mixed = cls(field_tuple(x)[0], **dict(zip(FIELDS[cls][1:], field_tuple(x)[1:])))
    assert by_position == by_keyword == mixed == x
    assert field_tuple(by_position) == field_tuple(by_keyword) == field_tuple(x)


@TYPES
def test_a_wrong_call_is_refused(cls):
    values = field_tuple(INSTANCES[cls])
    with pytest.raises(TypeError):
        cls(*values, None)
    with pytest.raises(TypeError):
        cls(*values[:-2])
    with pytest.raises(TypeError):
        cls(*values, **{FIELDS[cls][0]: values[0]})
    with pytest.raises(TypeError):
        cls(*values, no_such_field=1)


def test_trace_set_defaults_to_none():
    pred = INSTANCES[PredictedInvariants]
    values = field_tuple(pred)[:-1]
    assert PredictedInvariants(*values).trace_set is None
    assert PredictedInvariants(**dict(zip(FIELDS[PredictedInvariants], values))) == pred


@TYPES
def test_fields_cannot_be_set_or_deleted(cls):
    x = INSTANCES[cls]
    before = field_tuple(x)
    for name in (*FIELDS[cls], "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(x, name, 0)
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert field_tuple(x) == before


@TYPES
def test_equal_within_one_class_only(cls):
    x = INSTANCES[cls]
    assert x == cls(*field_tuple(x)) and not (x != cls(*field_tuple(x)))
    assert x.__eq__(field_tuple(x)) is NotImplemented and x != field_tuple(x)
    others = [y for y in INSTANCES.values() if type(y) is not cls]
    assert all(x.__eq__(y) is NotImplemented and x != y for y in others)


def test_same_fields_in_two_classes_are_not_equal():
    assert GapProfile((1,)) != PseudoFrobeniusSet((1,))
    assert GapProfile((1,)).__eq__(PseudoFrobeniusSet((1,))) is NotImplemented


@TYPES
def test_hash_is_the_hash_of_the_field_tuple(cls):
    x = INSTANCES[cls]
    assert hash(x) == hash(field_tuple(x)) == hash(cls(*field_tuple(x)))


@TYPES
def test_repr_is_the_dataclass_text(cls):
    assert repr(INSTANCES[cls]) == REPR[cls]


@TYPES
def test_pickle_and_deepcopy_round_trip(cls):
    x = INSTANCES[cls]
    for copied in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x), copy.copy(x)):
        assert type(copied) is cls and copied == x and repr(copied) == repr(x)
