"""Each result type stores only the facts nothing else determines; the rest
are read-only properties, checked here against the brute-force oracles."""

import dataclasses

import pytest
from hypothesis import given, settings

import nsg
from nsg.constructions import VerificationOutcome
from nsg.ideals import TraceReport, gap_bound_check, trace_and_residue
from nsg.semigroup import GapProfile, PseudoFrobeniusSet, gap_profile, new_semigroup, pseudo_frobenius
from nsg.toric import AcmHypothesisReport, MonomialOrder

from oracles import brute_pf, brute_symmetric, dp_membership, window
from strategies import semigroups

STORED = {
    TraceReport: ("trace", "trace_min_gens", "pf", "residue", "genus"),
    GapProfile: ("gaps",),
    PseudoFrobeniusSet: ("elements",),
    VerificationOutcome: ("predicted", "computed", "discrepancies"),
    AcmHypothesisReport: ("gb",),
    MonomialOrder: ("variables",),
}

DERIVED = {
    TraceReport: ("gorenstein", "nearly_gorenstein", "gap_bound", "slack", "question_holds", "missing"),
    GapProfile: ("genus", "frobenius", "non_gap_count"),
    PseudoFrobeniusSet: ("type",),
    VerificationOutcome: ("verified",),
    AcmHypothesisReport: ("acm", "hypothesis"),
    MonomialOrder: ("kind",),
}


@pytest.mark.parametrize("cls", list(STORED), ids=lambda cls: cls.__name__)
def test_stored_fields_are_the_independent_facts(cls):
    assert tuple(f.name for f in dataclasses.fields(cls)) == STORED[cls]
    assert [name for name in DERIVED[cls] if not isinstance(getattr(cls, name), property)] == []


def test_settable_field_count_and_gap_bound_check_result():
    assert sum(map(len, STORED.values())) == 12
    assert "GapBoundCheck" not in nsg.__all__
    report = gap_bound_check(new_semigroup([3, 5, 7]))
    assert isinstance(report, TraceReport) and report.slack == 0


@settings(max_examples=60, deadline=None)
@given(semigroups(max_multiplicity=15, max_extra=5))
def test_derived_properties_match_the_oracles(s):
    gens = s.generators
    table = dp_membership(gens, window(gens))
    gaps = [x for x, member in enumerate(table) if not member]
    f = max(gaps)
    non_gaps = sum(table[: f + 1])

    profile = gap_profile(s)
    assert (profile.genus, profile.frobenius, profile.non_gap_count) == (len(gaps), f, non_gaps)
    assert pseudo_frobenius(s).type == len(brute_pf(gens, f))

    report = trace_and_residue(s)
    bound = len(gaps) - non_gaps
    # the members below the trace's class minima, by set difference
    mins, m = report.trace.mins, len(report.trace.mins)
    missing = [x for x, member in enumerate(table) if member and x < mins[x % m]]
    assert report.genus == len(gaps)
    assert report.gorenstein == brute_symmetric(gens, f)
    assert report.gap_bound == bound
    assert list(report.missing) == missing and report.residue == len(missing)
    assert report.nearly_gorenstein == (len(missing) <= 1)
    assert (report.slack, report.question_holds) == (bound - len(missing), len(missing) <= bound)
