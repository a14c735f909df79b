"""The genus tree held as Apery matrices (``nsg.enumeration``) against the
generator route of ``oracles.deletion_generators`` and
``oracles.tree_by_genus``, where each child is built from a generating set
by ``new_semigroup``, and against A007323."""

import tracemalloc
from collections import Counter, defaultdict

from hypothesis import example, given, settings

import nsg.enumeration
from nsg.enumeration import _walk, children
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


def walked_by_genus(max_genus):
    # each row of the walk as (m, Apery tuple, minimal generators, F), by genus
    rows = defaultdict(list)
    for genus, apery, mask in _walk(max_genus):
        m = apery.shape[1]
        for row, gens in zip(apery.tolist(), _sorted_rows(apery, mask)):
            rows[genus].append((m, tuple(row), (m, *gens), max(row) - m))
    return rows


def test_tree_matches_generator_route_to_genus_18():
    walked = walked_by_genus(18)
    assert sorted(walked) == list(range(1, 19))
    for genus, level in tree_by_genus(18):
        expected = sorted(map(stored, level))
        assert sorted(walked[genus]) == expected, genus
        # each row's listed generators are minimal: new_semigroup reduces none
        semigroups = [new_semigroup(gens) for _, _, gens, _ in walked[genus]]
        assert sorted(map(stored, semigroups)) == expected, genus
        assert not any(s.was_reduced for s in semigroups)


def test_level_counts_match_a007323_through_genus_22():
    counts = Counter()
    for genus, apery, _ in _walk(22):
        counts[genus] += len(apery)
    assert [counts[genus] for genus in sorted(counts)] == list(A007323[1:23])


def test_walk_yields_one_block_per_genus_and_multiplicity():
    # the ordinary semigroup of multiplicity m has genus m - 1, so genus g
    # holds the multiplicities 2..g + 1, each in one non-empty block
    n = 16
    blocks = [(genus, apery.shape[1], len(apery)) for genus, apery, _ in _walk(n)]
    assert len(blocks) == n * (n + 1) // 2
    assert sorted((genus, m) for genus, m, _ in blocks) == [(g, m) for g in range(1, n + 1) for m in range(2, g + 2)]
    assert all(rows > 0 for _, _, rows in blocks)


def test_every_row_of_a_block_has_its_multiplicity():
    # m is the least nonzero member iff Ap[c] > m for every class c != 0
    for _, apery, mask in _walk(16):
        m = apery.shape[1]
        assert (apery[:, 0] == 0).all() and (apery[:, 1:] > m).all()
        assert not mask[:, 0].any()


def test_block_counts_match_tree_by_multiplicity():
    counts = Counter()
    for genus, apery, _ in _walk(14):
        counts[genus, apery.shape[1]] += len(apery)
    expected = Counter((genus, s.multiplicity) for genus, level in tree_by_genus(14) for s in level)
    assert counts == expected


def test_walk_holds_one_block_at_a_time():
    # the largest block to genus 22 holds 14,122 of its level's 103,246
    # rows; a walk that held whole levels peaked at 36.7 MiB
    tracemalloc.start()
    try:
        for _ in _walk(22):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 28 * 2**20


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
