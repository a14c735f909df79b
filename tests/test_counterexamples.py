"""The two genus-17 counterexamples to residue <= genus - non_gap_count,
checked field by field against the brute-force oracles, the verified
liftings and gluings that carry each one to slack -k and -mu, and the
per-genus count ``nsg hunt`` prints for them.

They are the smallest violations in the genus tree (none at genus 16 or
below); the paper answers the question only for gluings.
"""

import pytest
from click.testing import CliRunner

import nsg.cli as cli_mod
from nsg.constructions import GluingSpec, glue, glued_invariants, lift, lifted_invariants, verify_construction
from nsg.ideals import trace_and_residue
from nsg.scan import build_record, canonical_json, info_payload
from nsg.semigroup import new_semigroup

from oracles import brute_pf, brute_trace, dp_membership, window

# generators, Frobenius number, residue, gap bound, and a lambda for gluing with <2, 3>
COUNTEREXAMPLES = [
    ((13, 14, 15, 16, 17, 18, 21, 23), 25, 9, 8, 27),
    ((13, 15, 16, 17, 18, 19, 21, 24, 25), 27, 7, 6, 28),
]
IDS = ["13_to_23", "13_to_25"]


@pytest.mark.parametrize("gens, frobenius, residue, bound, lam", COUNTEREXAMPLES, ids=IDS)
def test_counterexample_fields_match_oracles(gens, frobenius, residue, bound, lam):
    w = window(gens)
    table = dp_membership(gens, 2 * w)
    gaps = [x for x in range(w) if not table[x]]
    f = max(gaps)
    non_gaps = sum(table[:f])
    trace = brute_trace(gens, w, f)
    missing = [x for x in range(2 * w + 1) if table[x] and x not in trace]

    s = new_semigroup(gens)
    payload = {**info_payload(s), "slack": trace_and_residue(s).slack}  # the hunt payload
    assert (f, len(gaps) - non_gaps, len(missing)) == (frobenius, bound, residue)
    assert payload["frobenius"] == f and payload["gaps"] == gaps
    assert payload["genus"] == len(gaps) == 17
    assert payload["non_gap_count"] == non_gaps
    assert payload["pf"] == brute_pf(gens, f)
    assert payload["residue"] == len(missing) and payload["missing"] == missing
    assert payload["gap_bound"] == len(gaps) - non_gaps
    assert payload["question_holds"] is False
    assert payload["slack"] == -1


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("gens, frobenius, residue, bound, lam", COUNTEREXAMPLES, ids=IDS)
def test_lifting_scales_the_violation(gens, frobenius, residue, bound, lam, k):
    base = new_semigroup(gens)
    predicted = lifted_invariants(base, k)
    built = lift(base, k)
    outcome = verify_construction(predicted, built)
    assert outcome.verified, outcome.discrepancies
    assert (predicted.residue, predicted.gap_bound) == (k * residue, k * bound)
    table = dp_membership(built.generators, built.frobenius)  # [0, F]: gaps, then members below F
    assert table.count(False) - table.count(True) - outcome.computed.residue == -k


@pytest.mark.parametrize("gens, frobenius, residue, bound, lam", COUNTEREXAMPLES, ids=IDS)
def test_gluing_with_a_symmetric_factor_scales_the_violation(gens, frobenius, residue, bound, lam):
    mu = 5
    spec = GluingSpec(new_semigroup(gens), new_semigroup([2, 3]), lam, mu)
    predicted = glued_invariants(spec)
    built = glue(spec)
    outcome = verify_construction(predicted, built)
    assert outcome.verified, outcome.discrepancies
    assert (predicted.residue, predicted.gap_bound) == (mu * residue, mu * bound)
    table = dp_membership(built.generators, built.frobenius)  # [0, F]: gaps, then members below F
    assert table.count(False) - table.count(True) - outcome.computed.residue == -mu


def test_hunt_counts_violations_per_genus_on_stderr(monkeypatch):
    findings, stamp = [], {"seed": 0, "timestamp": 0}
    for gens, *_ in COUNTEREXAMPLES:
        s = new_semigroup(gens)
        payload = {**info_payload(s), "slack": trace_and_residue(s).slack}
        findings.append(build_record(s.generators, {"kind": "hunt", "genus": 17}, stamp, payload))
    monkeypatch.setattr(cli_mod, "run_hunt", lambda max_genus, out: (len(findings), findings, {-1: 2}))
    result = CliRunner().invoke(cli_mod.main, ["hunt", "--max-genus", "17"])
    assert result.exit_code == 0
    assert result.stderr == "violations per genus: 17: 2\n"
    assert result.stdout.splitlines() == [
        "checked 2 semigroups up to genus 17",
        "slack histogram: -1: 2",
        "VIOLATIONS FOUND: 2",
        *(canonical_json(rec) for rec in findings),
    ]
