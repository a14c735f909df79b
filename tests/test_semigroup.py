import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nsg.errors import EmptyInput, GcdNotOne, TrivialSemigroup
from nsg.ideals import trace_and_residue
from nsg.semigroup import gap_profile, new_semigroup, pseudo_frobenius

from oracles import brute_contains, brute_members, brute_pf, dp_membership, selmer_genus, window
from strategies import semigroups


class TestConstruction:
    def test_basic(self):
        s = new_semigroup([3, 5, 7])
        assert s.generators == (3, 5, 7)
        assert s.multiplicity == 3
        assert not s.was_reduced

    def test_naturals(self):
        s = new_semigroup([1])
        assert s.generators == (1,)
        assert s.frobenius == -1
        assert s.is_naturals

    def test_reduction_flagged(self):
        s = new_semigroup([4, 6, 10, 7])
        assert s.generators == (4, 6, 7)
        assert s.was_reduced

    def test_duplicates_flagged(self):
        assert new_semigroup([3, 3, 5, 7]).was_reduced

    def test_unsorted_input_not_flagged(self):
        assert not new_semigroup([7, 3, 5]).was_reduced

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            new_semigroup([])

    def test_gcd_not_one(self):
        with pytest.raises(GcdNotOne):
            new_semigroup([4, 6])

    def test_nonpositive(self):
        with pytest.raises(ValueError):
            new_semigroup([0, 3])
        with pytest.raises(ValueError):
            new_semigroup([-2, 3])


class TestMembership:
    def test_examples(self):
        s = new_semigroup([3, 5, 7])
        assert not s.contains(4)
        assert s.contains(0)
        assert s.contains(12)
        assert not s.contains(-3)
        assert 12 in s

    def test_window_safety(self):
        s = new_semigroup([3, 5, 7])
        assert all(s.contains(x) for x in range(s.frobenius + 1, window(s.generators) + 1))


class TestAperyAndFrobenius:
    @pytest.mark.parametrize(
        "gens,apery,frob",
        [([3, 5, 7], (0, 7, 5), 4), ([2, 3], (0, 3), 1), ([1], (0,), -1)],
    )
    def test_examples(self, gens, apery, frob):
        s = new_semigroup(gens)
        assert s.apery == apery
        assert s.frobenius == frob

    def test_apery_residues(self):
        s = new_semigroup([4, 5, 7])
        for i, w in enumerate(s.apery):
            assert w % 4 == i
            assert s.contains(w)
            assert not s.contains(w - 4)


class TestGapProfile:
    @pytest.mark.parametrize(
        "gens,gaps,genus,frob,non_gaps",
        [
            ([3, 5, 7], (1, 2, 4), 3, 4, 2),
            ([2, 3], (1,), 1, 1, 1),
            ([5, 6, 7, 8, 9], (1, 2, 3, 4), 4, 4, 1),
        ],
    )
    def test_examples(self, gens, gaps, genus, frob, non_gaps):
        p = gap_profile(new_semigroup(gens))
        assert p.gaps == gaps
        assert p.genus == genus
        assert p.frobenius == frob
        assert p.non_gap_count == non_gaps

    def test_naturals(self):
        p = gap_profile(new_semigroup([1]))
        assert p.gaps == () and p.genus == 0 and p.frobenius == -1 and p.non_gap_count == 0


class TestPseudoFrobenius:
    @pytest.mark.parametrize(
        "gens,pf", [([3, 5, 7], (2, 4)), ([4, 5, 7], (3, 6)), ([2, 3], (1,))]
    )
    def test_examples(self, gens, pf):
        got = pseudo_frobenius(new_semigroup(gens))
        assert got.elements == pf
        assert got.type == len(pf)

    def test_naturals_rejected(self):
        with pytest.raises(TrivialSemigroup):
            pseudo_frobenius(new_semigroup([1]))


@settings(max_examples=60, deadline=None)
@given(semigroups())
def test_window_matches_dp_oracle(s):
    w = window(s.generators)
    table = dp_membership(s.generators, w)
    gaps = set(gap_profile(s).gaps)
    assert [x not in gaps for x in range(w + 1)] == table


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 40), min_size=1, max_size=8), st.data())
def test_non_minimal_input_matches_dp_oracle(raw, data):
    # pad with sums and repeats of the drawn generators, so reduction has work
    raw = raw + data.draw(st.lists(st.sampled_from(raw), max_size=3))
    raw = raw + [a + b for a, b in zip(raw, raw[1:])]
    assume(math.gcd(*raw) == 1)
    s = new_semigroup(raw)
    w = window(s.generators)
    table = dp_membership(raw, w)
    assert [s.contains(x) for x in range(w + 1)] == table
    gaps = set(gap_profile(s).gaps)
    assert [x not in gaps for x in range(w + 1)] == table


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 40), min_size=1, max_size=8), st.data())
def test_reduction_matches_brute_force_minimal_generators(raw, data):
    # padded with repeats and sums as above, then shuffled
    raw = raw + data.draw(st.lists(st.sampled_from(raw), max_size=3))
    raw = data.draw(st.permutations(raw + [a + b for a, b in zip(raw, raw[1:])]))
    assume(math.gcd(*raw) == 1)
    s = new_semigroup(raw)
    w = max(raw)  # every minimal generator belongs to every generating set
    table = dp_membership(raw, w)
    minimal = [x for x in range(1, w + 1) if table[x] and not any(table[y] and table[x - y] for y in range(1, x))]
    assert list(s.generators) == minimal
    assert s.was_reduced == (list(s.generators) != sorted(raw))


@settings(max_examples=60, deadline=None)
@given(semigroups())
def test_frobenius_and_apery_consistent(s):
    w = window(s.generators)
    members = brute_members(s.generators, w)
    assert s.frobenius == max(x for x in range(w + 1) if x not in members)
    for i, w in enumerate(s.apery):
        assert w % s.multiplicity == i
        assert w == min(x for x in members if x % s.multiplicity == i)


@settings(max_examples=60, deadline=None)
@given(semigroups())
def test_selmer_identity(s):
    assert gap_profile(s).genus == selmer_genus(s.apery, s.multiplicity)


@settings(max_examples=60, deadline=None)
@given(semigroups())
def test_counting_identity(s):
    p = gap_profile(s)
    assert p.non_gap_count + p.genus == p.frobenius + 1


@settings(max_examples=40, deadline=None)
@given(semigroups(max_multiplicity=9))
def test_pf_matches_brute_force(s):
    expected = brute_pf(s.generators, s.frobenius)
    assert list(pseudo_frobenius(s).elements) == expected
    assert s.frobenius in pseudo_frobenius(s).elements
    assert trace_and_residue(s).pf == tuple(expected)


def test_trace_pf_of_naturals():
    assert trace_and_residue(new_semigroup([1])).pf == (-1,)


@settings(max_examples=40, deadline=None)
@given(semigroups())
def test_generators_are_minimal(s):
    for g in s.generators:
        others = [h for h in s.generators if h != g]
        if others:
            assert not brute_contains(others, 10 * g, g)


@settings(max_examples=40, deadline=None)
@given(semigroups())
def test_window_safety_property(s):
    w = window(s.generators)
    tail = [s.contains(x) for x in range(s.frobenius + 1, w + 1)]
    assert all(tail) and max(gap_profile(s).gaps, default=-1) == s.frobenius
    assert tail == dp_membership(s.generators, w)[s.frobenius + 1 :]


def test_large_semigroup_from_apery_set():
    s = new_semigroup([5003, 7001, 9001, 9007])
    assert s.frobenius == 3025335
    assert gap_profile(s).genus == 1514040 == selmer_genus(s.apery, s.multiplicity)
