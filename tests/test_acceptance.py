"""Acceptance suite: one test per shipped criterion, each printing a
PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -v -s`."""

import json
import math
import random
import time

import pytest

from nsg.constructions import (
    GluingSpec,
    arithmetic_semigroup,
    glue,
    glued_invariants,
    lift,
    lifted_invariants,
    verify_construction,
)
from nsg.ideals import trace_and_residue
from nsg.scan import hunt, random_gluing_spec, random_lift, scan_family
from nsg.semigroup import gap_profile, new_semigroup
from nsg.toric import acm_and_hypothesis, projective_ng_verdict, reduced_gb

from oracles import brute_trace, buchberger_criterion, gap_sets_by_genus, window

GLUING_SEED = 20240817
LIFTING_SEED = 964213
SUITE_SIZE = 200


def report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


@pytest.fixture(scope="module")
def gluing_suite():
    rng = random.Random(GLUING_SEED)
    suite = []
    for _ in range(SUITE_SIZE):
        spec = random_gluing_spec(rng, max_multiplicity=12)
        pred = glued_invariants(spec)
        suite.append((spec, pred, verify_construction(pred, glue(spec))))
    return suite


@pytest.fixture(scope="module")
def lifting_suite():
    rng = random.Random(LIFTING_SEED)
    suite = []
    for _ in range(SUITE_SIZE):
        base, k = random_lift(rng, max_multiplicity=12, max_k=7)
        pred = lifted_invariants(base, k)
        suite.append((base, k, pred, verify_construction(pred, lift(base, k))))
    return suite


def test_criterion_1_trace_residue_pipeline():
    expected = {
        (3, 5, 7): 1,
        (2, 3): 0,
        (4, 5, 7): 1,
        (5, 6, 7, 8, 9): 1,
    }
    ok = True
    for gens, residue in expected.items():
        s = new_semigroup(gens)
        rep = trace_and_residue(s)
        w = window(s.generators)
        realized = {x for x in range(2 * w + 1) if rep.trace.contains(x)}
        oracle = brute_trace(s.generators, w, s.frobenius)
        ok &= rep.residue == residue and realized == oracle
    s = new_semigroup([3, 5, 7])
    rep = trace_and_residue(s)
    ok &= rep.trace.head == (3,) and rep.trace.conductor == 5
    report(1, ok, "residues 1/0/1/1 with traces equal to the exhaustive Minkowski oracle")


def test_criterion_2_gluing_theorem_suite(gluing_suite):
    mismatches = [
        (s.left.generators, s.right.generators, s.lam, s.mu, o.discrepancies)
        for s, _, o in gluing_suite
        if not o.verified
    ]
    spec = GluingSpec(new_semigroup([3, 5, 7]), new_semigroup([2, 3]), 10, 7)
    fixed = glued_invariants(spec)
    fixed_ok = fixed.residue == 7 and fixed.frobenius == 108 and fixed.pf == (94, 108)
    fixed_ok &= verify_construction(fixed, glue(spec)).verified
    report(
        2,
        not mismatches and fixed_ok,
        f"{len(gluing_suite)} seeded gluings verified (residue, F, PF, trace set, gap bound); "
        f"fixed instance residue 7, F 108, PF (94, 108)",
    )


def test_criterion_3_lifting_theorem_suite(lifting_suite):
    mismatches = [(b.generators, k, o.discrepancies) for b, k, _, o in lifting_suite if not o.verified]
    base = new_semigroup([3, 5, 7])
    fixed = lifted_invariants(base, 2)
    fixed_ok = fixed.trace_min_gens == (6, 10, 14) and fixed.residue == 2
    fixed_ok &= verify_construction(fixed, lift(base, 2)).verified
    report(
        3,
        not mismatches and fixed_ok,
        f"{len(lifting_suite)} seeded lifts verified (F, PF, residue, trace generators, gap bound); "
        f"fixed instance trace generators (6, 10, 14), residue 2",
    )


def test_criterion_4_question_propagation(gluing_suite, lifting_suite):
    ok = True
    for spec, _, outcome in gluing_suite:
        left, right = trace_and_residue(spec.left), trace_and_residue(spec.right)
        if left.question_holds and right.question_holds:
            gp = gap_profile(glue(spec))
            ok &= outcome.computed.residue <= gp.genus - gp.non_gap_count
    for base, k, _, outcome in lifting_suite:
        if trace_and_residue(base).question_holds:
            gp = gap_profile(lift(base, k))
            ok &= outcome.computed.residue <= gp.genus - gp.non_gap_count
    report(4, ok, "residue <= gap bound propagates through every gluing and lifting in the suites")


def test_criterion_5_never_nearly_gorenstein(gluing_suite, lifting_suite):
    ok = True
    glue_cases = lift_cases = 0
    for spec, _, outcome in gluing_suite:
        r = trace_and_residue(spec.left).residue + trace_and_residue(spec.right).residue
        if r >= 1:
            glue_cases += 1
            ok &= outcome.computed.residue >= 2
    for base, k, _, outcome in lifting_suite:
        if k >= 2 and trace_and_residue(base).residue >= 1:
            lift_cases += 1
            ok &= outcome.computed.residue >= 2
    ok &= glue_cases > 0 and lift_cases > 0
    report(5, ok, f"residue >= 2 on all {glue_cases} eligible gluings and {lift_cases} eligible lifts")


def test_criterion_6_groebner_correctness():
    gb = reduced_gb(new_semigroup([4, 5, 7]))
    ok = len(gb.elements) == 3
    ok &= set(gb.leading_monomials) == {(3, 0, 0), (0, 3, 0), (1, 2, 0)}
    for gens in ([2, 3], [3, 4, 5], [4, 5, 7], [4, 6, 7], [5, 6, 7, 8, 9], [8, 10, 12, 15], [3, 10, 14]):
        s = new_semigroup(gens)
        basis = reduced_gb(s)
        ok &= buchberger_criterion([(b.plus, b.minus) for b in basis.elements])
        for b in basis.elements:
            ok &= sum(e * n for e, n in zip(b.plus, s.generators)) == sum(
                e * n for e, n in zip(b.minus, s.generators)
            )
    report(6, ok, "basis of the 4,5,7 curve has 3 elements with the stated leads; "
                  "all S-pairs reduce to zero and all elements are weight-balanced")


def test_criterion_7_projective_transfer_pipeline():
    v345 = projective_ng_verdict(new_semigroup([3, 4, 5]))
    v457 = projective_ng_verdict(new_semigroup([4, 5, 7]))
    v467 = projective_ng_verdict(new_semigroup([4, 6, 7]))
    ok = v345.acm and v345.hypothesis and v345.projective_ng == v345.affine_ng
    ok &= v457.acm and v457.hypothesis and v457.projective_ng == v457.affine_ng
    ok &= not v467.hypothesis and v467.projective_ng is None
    report(7, ok, "transfer applies on 3,4,5 and 4,5,7; inconclusive (absent verdict) on 4,6,7")


def test_criterion_8_arithmetic_grid():
    start = time.monotonic()
    checked = 0
    ok = True
    for n1 in range(3, 13):
        for d in range(1, 6):
            if math.gcd(n1, d) != 1:
                continue
            for e in range(3, n1 + 1):
                s = arithmetic_semigroup(n1, d, e)
                rep = acm_and_hypothesis(s)
                residue = trace_and_residue(s).residue
                ok &= rep.acm and rep.hypothesis and residue <= 1
                checked += 1
    elapsed = time.monotonic() - start
    ok &= elapsed < 60.0
    report(8, ok, f"{checked} grid instances all satisfy acm, hypothesis, residue <= 1 in {elapsed:.1f}s")


def test_criterion_9_exhaustive_hunt(tmp_path):
    out = tmp_path / "hunt.jsonl"
    checked, findings, histogram = hunt(8, str(out))
    records = [json.loads(line) for line in out.read_text().splitlines()]
    per_genus: dict[int, int] = {}
    gap_sets: dict[int, set] = {}
    for r in records:
        g = r["provenance"]["genus"]
        per_genus[g] = per_genus.get(g, 0) + 1
        gap_sets.setdefault(g, set()).add(tuple(r["invariants_json"]["gaps"]))
    counts = [per_genus.get(g, 0) for g in range(1, 9)]
    ok = findings == [] and counts == [1, 2, 4, 7, 12, 23, 39, 67] and checked == len(records)
    for genus in range(1, 7):
        expected = {tuple(sorted(gs)) for gs in gap_sets_by_genus(genus)}
        ok &= gap_sets[genus] == expected
    ok &= min(histogram) >= 0
    report(9, ok, f"no violations up to genus 8; per-genus counts {counts} match the tree "
                  "and the brute-force gap-set enumeration for genus <= 6")


def test_criterion_10_scan_determinism(tmp_path):
    ok = True
    for family, kwargs in (
        ("random", dict(seed=7, limit=25, max_multiplicity=9)),
        ("gluing", dict(seed=42, limit=25, max_multiplicity=9, verify=True)),
        ("lifting", dict(seed=42, limit=25, max_multiplicity=9, verify=True)),
        ("arithmetic", dict(seed=0, limit=None, max_multiplicity=7)),
    ):
        a, b = tmp_path / f"{family}_a.jsonl", tmp_path / f"{family}_b.jsonl"
        scan_family(family, out=str(a), **kwargs)
        scan_family(family, out=str(b), **kwargs)
        ok &= a.stat().st_size > 0 and a.read_bytes() == b.read_bytes()
    report(10, ok, "repeated seeded scans of every family are byte-identical")