"""The class-bounded list kernel ``semigroup._members`` against the
brute-force oracles, and the per-block payload builder ``scan._payloads``
against one-by-one ``info_payload``.

``_members(lo, hi)`` lists, for each row, the v with lo[c] <= v < hi[c],
c = v mod m.  The package builds its gap lists (lo = c, hi = Ap), missing
lists (lo = Ap, hi = trace minima) and ideal heads (lo = class minima,
hi = conductor) with it; here the bounds and the expected lists both come
from ``tests/oracles.py``.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nsg.enumeration import _walk
from nsg.ideals import RelativeIdeal, dual_ideal, trace_and_residue, trace_columns, trace_lists
from nsg.scan import _payloads, info_payload
from nsg.semigroup import _members, _sorted_rows, gap_profile, new_semigroup

from oracles import brute_dual, brute_ideal, brute_members, brute_trace, window
from strategies import semigroups


def class_minima(elements, m):
    return [min(x for x in elements if x % m == c) for c in range(m)]


def oracle_lists(s):
    """Apery set, gaps, trace class minima and missing members of s, from
    the membership DP and the exhaustive trace alone."""
    gens, m = s.generators, s.multiplicity
    w = window(gens)
    members = brute_members(gens, 2 * w)
    trace = brute_trace(gens, w, max(x for x in range(w + 1) if x not in members))
    gaps = [x for x in range(w + 1) if x not in members]
    missing = sorted(x for x in members if x not in trace and x <= 2 * w)
    return class_minima(members, m), gaps, class_minima(trace, m), missing


@st.composite
def bound_rows(draw):
    """(lo, hi) for 1-4 rows over m in 1..6, negative bounds and empty
    classes included; hi is sometimes a (rows x 1) column."""
    m = draw(st.integers(1, 6))
    rows = draw(st.integers(1, 4))
    lo = np.array(draw(st.lists(st.lists(st.integers(-20, 20), min_size=m, max_size=m), min_size=rows, max_size=rows)))
    width = 1 if draw(st.booleans()) else m
    hi = np.array(draw(st.lists(st.lists(st.integers(-25, 30), min_size=width, max_size=width), min_size=rows, max_size=rows)))
    return lo, hi


@settings(max_examples=200, deadline=None)
@given(bound_rows())
def test_members_match_the_definition(case):
    lo, hi = case
    m = lo.shape[1]
    his = np.broadcast_to(hi, lo.shape)
    expected = [[v for v in range(-25, 30) if a[v % m] <= v < b[v % m]] for a, b in zip(lo.tolist(), his.tolist())]
    assert _members(lo, hi) == expected


@settings(max_examples=30, deadline=None)
@given(semigroups(max_multiplicity=7))
def test_gaps_and_missing_match_oracles(s):
    apery, gaps, trace_mins, missing = oracle_lists(s)
    m = s.multiplicity
    assert _members(np.arange(m)[None], np.array([apery])) == [gaps]
    assert _members(np.array([apery]), np.array([trace_mins])) == [missing]
    # both kinds in one call, each row in its own list
    assert _members(np.array([range(m), apery]), np.array([apery, trace_mins])) == [gaps, missing]
    assert list(gap_profile(s).gaps) == gaps
    assert list(trace_and_residue(s).missing) == missing


def test_mixed_batch_of_one_multiplicity_matches_oracles():
    group = [new_semigroup(g) for g in ([5, 6, 7, 8, 9], [5, 7, 9], [5, 6, 13], [5, 11, 12, 13, 14], [5, 8, 11, 12])]
    lists = [oracle_lists(s) for s in group]
    lo = np.array([row for apery, _, mins, _ in lists for row in (range(5), apery)])
    hi = np.array([row for apery, _, mins, _ in lists for row in (apery, mins)])
    assert _members(lo, hi) == [x for _, gaps, _, missing in lists for x in (gaps, missing)]


def test_empty_rows_and_multiplicity_one():
    naturals = new_semigroup([1])
    assert _members(np.array([[0]]), np.array([naturals.apery])) == [[]]
    assert gap_profile(naturals).gaps == () and trace_and_residue(naturals).missing == ()
    symmetric = new_semigroup([3, 5])  # residue 0: nothing between Ap and the trace
    assert _members(np.array([symmetric.apery]), np.array([symmetric.apery])) == [[]]
    assert trace_and_residue(symmetric).missing == ()
    assert _members(np.array([[-3]]), np.array([[4]])) == [[-3, -2, -1, 0, 1, 2, 3]]
    assert _members(np.zeros((3, 2), int), np.zeros((3, 2), int)) == [[], [], []]
    lo = np.array([[0, 1, 2], [3, 4, 5], [0, 1, 2]])
    hi = np.array([[3, 4, 5], [3, 4, 5], [6, 7, 8]])
    assert _members(lo, hi) == [[0, 1, 2], [], [0, 1, 2, 3, 4, 5]]


@st.composite
def semigroup_and_positive_gens(draw):
    s = draw(semigroups(max_multiplicity=8))
    return s, draw(st.lists(st.integers(1, s.frobenius + s.multiplicity), min_size=1, max_size=3))


@settings(max_examples=40, deadline=None)
@given(semigroup_and_positive_gens())
@example((new_semigroup([3, 5, 7]), [4]))
@example((new_semigroup([2, 3]), [1]))
def test_dual_heads_match_oracles(case):
    # S - I for I generated by positive elements: minima down to -max(gens)
    s, gens = case
    f, m = s.frobenius, s.multiplicity
    lo, hi = -max(gens) - m, f + 1 + m
    dual = brute_dual(s.generators, f, gens, lo, hi)
    mins = class_minima(dual, m)
    conductor = min(z for z in range(lo, hi + 1) if all(x in dual for x in range(z, hi)))
    head = sorted(z for z in dual if z < conductor)
    assert _members(np.array([mins]), np.array([[conductor]])) == [head]
    ideal = RelativeIdeal(s, tuple(class_minima(brute_ideal(s.generators, gens, max(gens) + f + 1 + m), m)))
    assert list(dual_ideal(s, ideal).head) == head
    if len(gens) == 1:  # S - (a + S) = -a + S
        assert min(mins) == -gens[0]


def test_level_payloads_equal_one_by_one():
    # every block of the walk to genus 12, and <1>
    naturals = np.zeros((1, 1), np.int64), np.zeros((1, 1), bool)
    for apery, mask in [naturals, *((apery, mask) for _, apery, mask in _walk(12))]:
        m = apery.shape[1]
        generators = [(m, *gens) for gens in _sorted_rows(apery, mask)]
        gens = np.where(mask, apery, m)
        trace, maximal, residue, genus, frobenius, _ = trace_columns(m, apery, gens)
        columns = trace, *trace_lists(m, apery, gens, trace, maximal), residue, genus, frobenius
        payloads = list(_payloads(m, apery, generators, columns))
        batch = [new_semigroup(g) for g in generators]
        reports = [trace_and_residue(s) for s in batch]
        assert payloads == [{**info_payload(s), "slack": report.slack} for s, report in zip(batch, reports)]
        for s, report, payload in zip(batch, reports, payloads):
            assert payload["gaps"] == list(gap_profile(s).gaps)
            assert payload["trace"]["head"] == list(report.trace.head)
            assert payload["missing"] == list(report.missing)
