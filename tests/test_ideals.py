import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nsg.errors import AmbientMismatch, TrivialSemigroup
from nsg.ideals import (
    RelativeIdeal,
    canonical_ideal,
    dual_ideal,
    gap_bound_check,
    generated_ideal,
    ideal_sum,
    minimal_generators,
    trace_and_residue,
    trace_columns,
)
from nsg.semigroup import _BLOCK, gap_profile, new_semigroup, pseudo_frobenius

from oracles import (
    brute_dual,
    brute_ideal,
    brute_members,
    brute_minimal_ideal_generators,
    brute_pf,
    brute_residue,
    brute_sum,
    brute_symmetric,
    brute_trace,
    tree_by_genus,
    window,
)
from strategies import semigroups


def whole_semigroup_ideal(s):
    """The semigroup itself, as a relative ideal over itself."""
    return RelativeIdeal(s, s.apery)


def shifted(ideal, a):
    """The translate a + ideal: class c holds a plus the minimum of class c - a."""
    m = len(ideal.mins)
    return RelativeIdeal(ideal.ambient, tuple(ideal.mins[(c - a) % m] + a for c in range(m)))


def by_multiplicity(xs):
    """The semigroups of xs grouped by multiplicity, each group in input order."""
    groups = {}
    for s in xs:
        groups.setdefault(s.multiplicity, []).append(s)
    return list(groups.values())


def as_rows(columns):
    """``trace_columns`` output as one (trace class minima, trace minimal
    generators, pf, residue, genus) tuple per row."""
    trace, *lists = columns
    return [(tuple(x), tuple(tg), tuple(pf), r, g) for x, tg, pf, r, g in zip(trace.tolist(), *lists)]


def trace_rows(group):
    """The rows of one ``trace_columns`` call on semigroups of one
    multiplicity m, their generators padded with m."""
    m = group[0].multiplicity
    width = max(len(s.generators) for s in group)
    gens = np.array([s.generators + (m,) * (width - len(s.generators)) for s in group])
    return as_rows(trace_columns(m, np.array([s.apery for s in group]), gens))


def report_row(s):
    """The ``trace_and_residue`` report of s as a ``trace_rows`` row."""
    r = trace_and_residue(s)
    return r.trace.mins, r.trace_min_gens, r.pf, r.residue, r.genus


class TestRelativeIdeal:
    def test_canonical_357_stored_as_class_minima(self):
        k = canonical_ideal(new_semigroup([3, 5, 7]))
        assert k.mins == (0, 7, 2)
        assert [x for x in range(-3, 8) if k.contains(x)] == [0, 2, 3, 5, 6, 7]

    def test_one_minimum_per_class_required(self):
        with pytest.raises(ValueError):
            RelativeIdeal(new_semigroup([3, 5, 7]), (0, 2))

    def test_unclosed_vector_refused(self):
        # 0 + 5 = 5 is in the ideal, in class 2, below its stated minimum 8
        with pytest.raises(ValueError, match="class-minimum vector"):
            RelativeIdeal(new_semigroup([3, 5, 7]), (0, 4, 8))
        with pytest.raises(ValueError, match="class-minimum vector"):
            RelativeIdeal(ambient=new_semigroup([3, 5, 7]), mins=(0, 4, 8))
        with pytest.raises(ValueError, match="class-minimum vector"):
            RelativeIdeal(new_semigroup([2, 3]), (1, 0))  # classes swapped


@st.composite
def semigroup_and_vector(draw):
    """A semigroup and a vector of one integer per class mod m, usually in
    its class, drawn near the semigroup's own class minima."""
    s = draw(semigroups(max_multiplicity=6))
    m, f = s.multiplicity, s.frobenius
    in_class = draw(st.booleans()) or draw(st.booleans())
    values = st.integers(-2, f + 2 * m + 2)
    mins = [draw(values.map(lambda v, c=c: v - (v - c) % m if in_class else v)) for c in range(m)]
    return s, tuple(mins)


@settings(max_examples=150, deadline=None)
@given(semigroup_and_vector())
@example((new_semigroup([3, 5, 7]), (0, 4, 8)))
@example((new_semigroup([3, 5, 7]), (3, 7, 5)))
@example((new_semigroup([1]), (-4,)))
def test_vector_accepted_iff_it_is_the_class_minima_of_its_ideal(case):
    s, mins = case
    m = s.multiplicity
    elements = brute_ideal(s.generators, mins, max(mins) + 1)
    closed = [min((z for z in elements if z % m == c), default=None) for c in range(m)] == list(mins)
    try:
        ideal = RelativeIdeal(s, mins)
    except ValueError:
        assert not closed
    else:
        assert closed and ideal.mins == mins


class TestCanonicalIdeal:
    def test_357(self):
        s = new_semigroup([3, 5, 7])
        k = canonical_ideal(s)
        assert k.head == (0, 2, 3) and k.conductor == 5
        assert minimal_generators(k) == (0, 2)

    def test_23_symmetric(self):
        s = new_semigroup([2, 3])
        k = canonical_ideal(s)
        assert k.head == (0,) and k.conductor == 2

    def test_56789(self):
        k = canonical_ideal(new_semigroup([5, 6, 7, 8, 9]))
        assert k.head == (0, 1, 2, 3) and k.conductor == 5

    def test_naturals_rejected(self):
        with pytest.raises(TrivialSemigroup):
            canonical_ideal(new_semigroup([1]))

    def test_min_gens_reflect_pf(self):
        for gens in ([3, 5, 7], [4, 5, 7], [5, 6, 7, 8, 9], [4, 6, 7]):
            s = new_semigroup(gens)
            k = canonical_ideal(s)
            pf = pseudo_frobenius(s).elements
            assert minimal_generators(k) == tuple(sorted(s.frobenius - nu for nu in pf))


class TestDualIdeal:
    def test_357(self):
        s = new_semigroup([3, 5, 7])
        d = dual_ideal(s, canonical_ideal(s))
        assert d.head == (3,) and d.conductor == 5

    def test_symmetric_self_dual(self):
        s = new_semigroup([2, 3])
        k = canonical_ideal(s)
        assert dual_ideal(s, k) == k

    def test_457(self):
        s = new_semigroup([4, 5, 7])
        k = canonical_ideal(s)
        assert k.head == (0, 3, 4, 5) and k.conductor == 7
        d = dual_ideal(s, k)
        assert d.head == (4, 5) and d.conductor == 7

    def test_tail_only_ideal(self):
        # a pure tail still constrains the dual through its early elements
        s = new_semigroup([3, 5, 7])
        tail = RelativeIdeal(s, (6, 7, 5))  # [5, infinity)
        d = dual_ideal(s, tail)
        below = [z for z in range(min(d.head, default=d.conductor), 20) if d.contains(z)]
        assert all(s.contains(z + x) for z in below for x in range(5, 30))
        assert not d.contains(-1)

    def test_ambient_mismatch(self):
        k = canonical_ideal(new_semigroup([2, 3]))
        with pytest.raises(AmbientMismatch):
            dual_ideal(new_semigroup([3, 5, 7]), k)


class TestGeneratedIdeal:
    def test_trace_357_from_its_generators(self):
        s = new_semigroup([3, 5, 7])
        assert generated_ideal(s, [7, 5, 3, 10]) == trace_and_residue(s).trace

    def test_whole_semigroup(self):
        s = new_semigroup([4, 5, 7])
        assert generated_ideal(s, [0]) == whole_semigroup_ideal(s)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            generated_ideal(new_semigroup([3, 5, 7]), [])


class TestIdealSum:
    def test_trace_sum_357(self):
        s = new_semigroup([3, 5, 7])
        k = canonical_ideal(s)
        t = ideal_sum(k, dual_ideal(s, k))
        assert t.head == (3,) and t.conductor == 5

    def test_identity_with_whole_semigroup(self):
        s = new_semigroup([4, 5, 7])
        k = canonical_ideal(s)
        gamma = whole_semigroup_ideal(s)
        assert ideal_sum(k, gamma) == k

    def test_trace_sum_457(self):
        s = new_semigroup([4, 5, 7])
        k = canonical_ideal(s)
        t = ideal_sum(k, dual_ideal(s, k))
        assert t.head == (4, 5) and t.conductor == 7

    def test_ambient_mismatch(self):
        a = canonical_ideal(new_semigroup([3, 5, 7]))
        b = canonical_ideal(new_semigroup([2, 3]))
        with pytest.raises(AmbientMismatch):
            ideal_sum(a, b)


class TestMinimalGenerators:
    def test_trace_357(self):
        s = new_semigroup([3, 5, 7])
        assert trace_and_residue(s).trace_min_gens == (3, 5, 7)

    def test_whole_semigroup(self):
        s = new_semigroup([4, 5, 7])
        assert minimal_generators(whole_semigroup_ideal(s)) == (0,)

    def test_trace_of_lifted(self):
        s = new_semigroup([3, 10, 14])
        report = trace_and_residue(s)
        assert report.trace.head == (6, 9, 10) and report.trace.conductor == 12
        assert report.trace_min_gens == (6, 10, 14)


class TestTraceAndResidue:
    @pytest.mark.parametrize(
        "gens,residue,missing",
        [
            ([3, 5, 7], 1, (0,)),
            ([2, 3], 0, ()),
            ([5, 6, 7, 8, 9], 1, (0,)),
            ([4, 5, 7], 1, (0,)),
        ],
    )
    def test_examples(self, gens, residue, missing):
        r = trace_and_residue(new_semigroup(gens))
        assert r.residue == residue
        assert r.missing == missing
        assert r.nearly_gorenstein == (residue <= 1)
        assert r.gorenstein == (residue == 0)

    def test_question_holds_on_examples(self):
        r = trace_and_residue(new_semigroup([3, 5, 7]))
        assert r.gap_bound == 1 and r.question_holds

    def test_naturals(self):
        r = trace_and_residue(new_semigroup([1]))
        assert r.residue == 0 and r.gorenstein and r.trace.conductor == 0
        assert r.trace_min_gens == (0,)
        assert r.gap_bound == 0 and r.question_holds


class TestTraceReports:
    def test_symmetry_cross_check_names_the_row(self, monkeypatch):
        # a trace equal to the semigroup has residue 0, which the symmetry
        # count refutes for <3, 4, 5> (genus 2, F = 2) but not for <3, 5>
        import nsg.ideals

        monkeypatch.setattr(nsg.ideals, "_sum", lambda gens, x: x)
        monkeypatch.setattr(nsg.ideals, "_dual", lambda apery, gens: apery)
        with pytest.raises(AssertionError, match=r"NumericalSemigroup\(\[3, 4, 5\]\).*genus 2, residue 0"):
            trace_rows([new_semigroup([3, 5]), new_semigroup([3, 4, 5])])

    def test_genus_tree_in_one_call(self):
        # the tree to genus 12 with its genera interleaved, one call per multiplicity
        xs = [new_semigroup([1])] + [s for _, level in tree_by_genus(12) for s in level]
        for group in by_multiplicity(xs):
            assert trace_rows(group) == [report_row(s) for s in group]


@st.composite
def semigroup_lists(draw):
    """Lists with the naturals, duplicates, type-1 rows beside higher types
    of the same multiplicity, and multiplicities that occur once."""
    single = st.one_of(
        semigroups(max_multiplicity=6),
        st.integers(2, 6).map(lambda m: new_semigroup([m, m + 1])),
        st.just(new_semigroup([1])),
    )
    xs = draw(st.lists(single, max_size=10))
    if xs:
        xs += draw(st.lists(st.sampled_from(xs), max_size=3))
    return draw(st.permutations(xs))


@settings(max_examples=50, deadline=None)
@given(semigroup_lists())
@example([new_semigroup(g) for g in ([3, 5, 7], [1], [3, 4], [5, 6, 7, 8, 9], [3, 5, 7], [4, 5, 7])])
def test_trace_reports_equal_one_by_one_in_input_order(xs):
    for group in by_multiplicity(xs):
        assert trace_rows(group) == [report_row(s) for s in group]


@settings(max_examples=25, deadline=None)
@given(semigroup_lists())
def test_trace_reports_pf_and_residue_match_oracles(xs):
    for group in by_multiplicity(xs):
        for s, (_, _, pf, residue, _) in zip(group, trace_rows(group), strict=True):
            assert residue == brute_residue(s.generators, s.frobenius)
            assert list(pf) == ([-1] if s.is_naturals else brute_pf(s.generators, s.frobenius))


class TestGapBoundCheck:
    @pytest.mark.parametrize(
        "gens,expected",
        [
            ([3, 5, 7], (1, 1, True, 0)),
            ([2, 3], (0, 0, True, 0)),
            ([4, 5, 7], (1, 1, True, 0)),
        ],
    )
    def test_examples(self, gens, expected):
        c = gap_bound_check(new_semigroup(gens))
        assert (c.residue, c.gap_bound, c.question_holds, c.slack) == expected

    def test_naturals_rejected(self):
        with pytest.raises(TrivialSemigroup):
            gap_bound_check(new_semigroup([1]))


@settings(max_examples=50, deadline=None)
@given(semigroups())
def test_trace_contained_in_semigroup_and_stable(s):
    t = trace_and_residue(s).trace
    assert all(s.contains(x) for x in t.head)
    assert t.conductor > s.frobenius
    assert all(t.contains(x + g) for x in t.head for g in s.generators)


@settings(max_examples=50, deadline=None)
@given(semigroups())
def test_trace_shift_invariance(s):
    k = canonical_ideal(s)
    trace = ideal_sum(k, dual_ideal(s, k))
    for a in (1, s.multiplicity, s.frobenius):
        moved = shifted(k, a)
        assert ideal_sum(moved, dual_ideal(s, moved)) == trace


@settings(max_examples=50, deadline=None)
@given(semigroups())
def test_trace_conductor_bound(s):
    t = trace_and_residue(s).trace
    assert t.conductor <= 2 * (s.frobenius + 1)


@settings(max_examples=50, deadline=None)
@given(semigroups())
def test_gorenstein_triad(s):
    r = trace_and_residue(s)
    gamma = whole_semigroup_ideal(s)
    assert r.gorenstein == (r.residue == 0) == (r.trace == gamma)


@settings(max_examples=25, deadline=None)
@given(semigroups(max_multiplicity=20, max_extra=6))
def test_canonical_duality_is_reflexive(s):
    # duality with respect to the canonical ideal is an involution on
    # relative ideals; the plain semigroup dual gives only a containment
    k = canonical_ideal(s)
    span = 4 * (s.frobenius + 2)
    middle = range(-span // 2, span // 2)
    # in_k[i] says whether i - 2 * span is in k, over [-2 * span, 2 * span)
    in_k = np.array([k.contains(x) for x in range(-2 * span, 2 * span)])

    def k_dual(elems):
        # z in [-span, span) with z + x in k for every x in elems
        ok = np.ones(2 * span, dtype=bool)
        for x in elems:
            ok &= in_k[x + span : x + 3 * span]
        return np.flatnonzero(ok) - span

    trace = trace_and_residue(s).trace
    for contains in (k.contains, trace.contains, lambda x: k.contains(x - 3)):
        elems = [x for x in range(-span, span) if contains(x)]
        twice = set(k_dual(k_dual(elems)).tolist())
        assert {z for z in middle if z in twice} == {z for z in middle if contains(z)}


@settings(max_examples=50, deadline=None)
@given(semigroups(max_multiplicity=20, max_extra=6))
def test_double_semigroup_dual_contains_canonical(s):
    k = canonical_ideal(s)
    dd = dual_ideal(s, dual_ideal(s, k))
    assert all(dd.contains(x) for x in k.head)
    assert dd.conductor <= k.conductor


def test_double_semigroup_dual_is_strict_for_357():
    # 4 is in the double dual but not in the canonical ideal: the naive
    # double dual is not an involution on non-symmetric semigroups
    s = new_semigroup([3, 5, 7])
    k = canonical_ideal(s)
    dd = dual_ideal(s, dual_ideal(s, k))
    assert not k.contains(4)
    assert dd.contains(4)


@pytest.mark.parametrize(
    "gens",
    [[3, 5, 7], [2, 3], [4, 5, 7], [5, 6, 7, 8, 9], [3, 10, 14], [4, 6, 7], [6, 10, 15], [5, 7, 9], [4, 9, 11, 14]],
)
def test_trace_matches_brute_minkowski_oracle(gens):
    s = new_semigroup(gens)
    got = trace_and_residue(s).trace
    w = window(s.generators)
    expected = brute_trace(s.generators, w, s.frobenius)
    realized = {x for x in range(0, 2 * w + 1) if got.contains(x)}
    assert realized == expected


@pytest.mark.parametrize("gens", [[3, 5, 7], [4, 5, 7], [3, 10, 14], [5, 6, 7, 8, 9]])
def test_minimal_generators_match_direct_definition(gens):
    s = new_semigroup(gens)
    t = trace_and_residue(s).trace
    bound = t.conductor + s.multiplicity
    hi = bound + 3 * s.generators[-1]
    elements = {x for x in range(min(t.head, default=t.conductor), hi) if t.contains(x)}
    members = brute_members(s.generators, hi)
    assert list(trace_and_residue(s).trace_min_gens) == brute_minimal_ideal_generators(elements, members, bound)

def ideal_from_gens(s, gens):
    """The relative ideal generated by gens, as class minima read off the
    oracle's element list (everything from max(gens) + F + 1 on is inside,
    so listing m more integers reaches every class)."""
    m = s.multiplicity
    elems = brute_ideal(s.generators, gens, max(gens) + s.frobenius + 1 + m)
    return RelativeIdeal(s, tuple(min(e for e in elems if e % m == c) for c in range(m)))


@st.composite
def semigroup_and_ideal_gens(draw):
    s = draw(semigroups(max_multiplicity=10))
    span = s.frobenius + s.multiplicity + 1
    gens = st.lists(st.integers(-span, span), min_size=1, max_size=3)
    return s, draw(gens), draw(gens)


@settings(max_examples=60, deadline=None)
@given(semigroup_and_ideal_gens())
def test_ideal_operations_match_set_oracles(case):
    s, left_gens, right_gens = case
    f, m = s.frobenius, s.multiplicity
    left, right = ideal_from_gens(s, left_gens), ideal_from_gens(s, right_gens)

    # z + min(left) must be a member, and z >= F + 1 - min(left) always works
    lo, hi = -min(left_gens) - m, f + 1 - min(left_gens) + m
    dual = dual_ideal(s, left)
    assert {z for z in range(lo, hi) if dual.contains(z)} == brute_dual(s.generators, f, left_gens, lo, hi)
    assert min(dual.head, default=dual.conductor) >= lo and dual.conductor <= hi

    lo, hi = min(left_gens) + min(right_gens) - m, left.conductor + right.conductor + m
    total = ideal_sum(left, right)
    assert {x for x in range(lo, hi) if total.contains(x)} == brute_sum(s.generators, left_gens, right_gens, hi)
    assert min(total.head, default=total.conductor) >= lo and total.conductor <= hi

    bound = left.conductor + m
    elements = brute_ideal(s.generators, left_gens, bound + 1)
    members = brute_members(s.generators, bound - min(elements))
    gens = minimal_generators(left)
    assert list(gens) == brute_minimal_ideal_generators(elements, members, bound)
    assert set(gens) <= set(left_gens)


@settings(max_examples=60, deadline=None)
@given(semigroup_and_ideal_gens())
def test_generated_ideal_matches_set_oracle(case):
    s, gens, _ = case
    ideal = generated_ideal(s, gens)
    lo, hi = min(gens) - s.multiplicity, max(gens) + s.frobenius + 1 + s.multiplicity
    assert {x for x in range(lo, hi) if ideal.contains(x)} == brute_ideal(s.generators, gens, hi)
    assert ideal == ideal_from_gens(s, gens)


@settings(max_examples=50, deadline=None)
@given(semigroups(max_multiplicity=15, max_extra=5))
def test_gap_bound_and_gorenstein_match_independent_counts(s):
    r = trace_and_residue(s)
    p = gap_profile(s)
    assert r.gap_bound == p.genus - p.non_gap_count
    assert r.gorenstein == brute_symmetric(s.generators, s.frobenius)


def test_large_frobenius_trace_pinned():
    # F = 3,025,335; values recorded with the earlier indicator-array layer
    r = trace_and_residue(new_semigroup([5003, 7001, 9001, 9007]))
    assert (r.residue, r.gap_bound, r.trace.conductor, len(r.trace_min_gens)) == (64, 2744, 3025336, 10)
    assert not r.nearly_gorenstein


def test_maximal_embedding_dimension_trace_memory():
    # 2,000 generators and type 1,999: one unblocked (generators x m) gather
    # takes 32 MB, while blocks of 2**20 int64 elements peak near 16 MiB
    s = new_semigroup(range(2000, 4000))
    tracemalloc.start()
    try:
        r = trace_and_residue(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert r.residue == 1
    assert peak < 24 * 2**20


def test_maximal_embedding_dimension_pseudo_frobenius_memory():
    # 1,999 generators other than m: each unblocked (m x generators) int64
    # temporary takes 32 MB and three are live at once, while blocks of
    # 2**20 elements peak near 24 MiB
    s = new_semigroup(range(2000, 4000))
    tracemalloc.start()
    try:
        pf = pseudo_frobenius(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pf.elements == tuple(range(1, 2000))
    assert peak < 32 * 2**20


def test_residue_zero_missing_list_memory():
    # <3001, 3331> is symmetric, so its trace minima are its Apery set and
    # no class is open: a layer spanning [0, max Ap) anyway took 95 MiB to
    # list nothing
    report = trace_and_residue(new_semigroup([3001, 3331]))
    tracemalloc.start()
    try:
        missing = report.missing
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (missing, report.residue) == ((), 0)
    assert peak < 2**20


@pytest.mark.parametrize("operation", ["trace_and_residue", "canonical_ideal", "dual_ideal"])
def test_large_frobenius_ideal_memory(operation):
    # F = 3,025,335 but m = 5,003: on class-minimum vectors each operation
    # stays O(generators * m), where listing the head would take O(F)
    s = new_semigroup([5003, 7001, 9001, 9007])
    k = canonical_ideal(s)
    run = {
        "trace_and_residue": lambda: trace_and_residue(s),
        "canonical_ideal": lambda: canonical_ideal(s),
        "dual_ideal": lambda: dual_ideal(s, k),
    }[operation]
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_stacked_batch_memory():
    # 1,000 rows with m = 200 and 60 generators: one unblocked (rows x
    # generators x m) int64 gather takes 92 MiB, while a blocked one holds at
    # most _BLOCK elements; beyond the columns it returns, the peak stays
    # under two such blocks
    s = new_semigroup(range(200, 260))
    apery, gens = np.array([s.apery] * 1000), np.array([s.generators] * 1000)
    tracemalloc.start()
    try:
        columns = trace_columns(200, apery, gens)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    rows = as_rows(columns)
    assert rows[0] == rows[-1] == report_row(s)
    assert peak - kept < 2 * 8 * _BLOCK
