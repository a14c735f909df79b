"""The genus tree held as Apery matrices (``nsg.enumeration``) against the
generator route of ``oracles.deletion_generators`` and
``oracles.tree_by_genus``, where each child is built from a generating set
by ``new_semigroup``, and against A007323."""

from hypothesis import example, given, settings

import nsg.enumeration
from nsg.enumeration import _levels, children
from nsg.semigroup import _sorted_rows, new_semigroup

from oracles import deletion_generators, tree_by_genus
from strategies import semigroups

# A007323: numerical semigroups of genus 0, 1, 2, ...
A007323 = (
    1, 1, 2, 4, 7, 12, 23, 39, 67, 118, 204, 343, 592, 1001, 1693, 2857, 4806, 8045, 13467, 22464,
    37396, 62194, 103246,
)  # fmt: skip


def stored(s):
    return s.multiplicity, s.apery, s.generators, s.frobenius


def oracle_children(s):
    return [new_semigroup(gens) for gens in deletion_generators(s.generators, s.frobenius)]


def listed(level):
    # each row of a level as (m, Apery tuple, minimal generators, F)
    return [
        (m, tuple(row), (m, *gens), max(row) - m)
        for m, (apery, mask) in level.items()
        for row, gens in zip(apery.tolist(), _sorted_rows(apery, mask))
    ]


def test_tree_matches_generator_route_to_genus_18():
    for (genus, level), (_, rows) in zip(tree_by_genus(18), _levels(18)):
        expected = sorted(map(stored, level))
        assert sorted(listed(rows)) == expected, genus
        # each row's listed generators are minimal: new_semigroup reduces none
        semigroups = [new_semigroup(gens) for _, _, gens, _ in listed(rows)]
        assert sorted(map(stored, semigroups)) == expected, genus
        assert not any(s.was_reduced for s in semigroups)


def test_level_counts_match_a007323_through_genus_22():
    counts = [sum(len(apery) for apery, _ in level.values()) for _, level in _levels(22)]
    assert counts == list(A007323[1:23])


@settings(max_examples=60, deadline=None)
@given(semigroups())
@example(new_semigroup([1]))
@example(new_semigroup([2, 3]))
@example(new_semigroup([5, 6, 7, 8, 9]))
@example(new_semigroup([13, 14, 15, 16, 17, 18, 21, 23]))
@example(new_semigroup(range(100, 200)))  # 100 children, every generator above F = 99
def test_children_match_generator_route(s):
    # children(s) builds each child through new_semigroup from its minimal
    # generators, so none is reduced
    got = children(s)
    assert sorted(map(stored, got)) == sorted(map(stored, oracle_children(s)))
    assert not any(c.was_reduced for c in got)


def test_children_without_eligible_generator_fold_nothing(monkeypatch):
    # no minimal generator above F: no child, and no fold over the m classes
    s = new_semigroup([3000, 3001])
    monkeypatch.setattr(nsg.enumeration, "_fold", None)
    assert children(s) == []


def test_children_of_the_first_levels():
    assert children(new_semigroup([1])) == [new_semigroup([2, 3])]
    assert sorted(children(new_semigroup([2, 3])), key=lambda c: c.generators) == [
        new_semigroup([2, 5]),
        new_semigroup([3, 4, 5]),
    ]
