"""``scan.canonical_json`` against the standard library's encoder: on
generated JSON-ready values, and on the records and ``--json`` lines nsg
writes, each read back and encoded again by the oracle."""

import json

import pytest
from click.testing import CliRunner
from hypothesis import given, settings

from nsg.cli import main
from nsg.scan import canonical_json, hunt, scan_family

from oracles import stdlib_json
from strategies import INT_EDGES, json_values


@settings(max_examples=300, deadline=None)
@given(json_values())
def test_matches_the_standard_library(value):
    assert canonical_json(value) == stdlib_json(value)


def test_refuses_ints_outside_64_bits():
    assert canonical_json(INT_EDGES) == stdlib_json(INT_EDGES)
    for value in (-(2**63) - 1, 2**64):
        with pytest.raises(TypeError):
            canonical_json({"seed": value})


def test_hunt_records(tmp_path):
    out = tmp_path / "hunt.jsonl"
    checked, _, _ = hunt(12, str(out))
    lines = out.read_text().splitlines()
    assert len(lines) == checked
    assert [stdlib_json(json.loads(line)) for line in lines] == lines


def test_verified_gluing_scan_records(tmp_path):
    out = tmp_path / "glue.jsonl"
    summary = scan_family("gluing", seed=42, limit=25, max_multiplicity=10, out=str(out), verify=True)
    lines = out.read_text().splitlines()
    assert len(lines) == summary.records == 25
    assert [stdlib_json(json.loads(line)) for line in lines] == lines


@pytest.mark.parametrize(
    "args",
    [
        ["info", "4,5,7", "--toric", "--json"],
        ["toric", "4,6,7", "--json"],
        ["glue", "3,5,7", "2,3", "--lambda", "10", "--mu", "7", "--verify", "--json"],
        ["lift", "3,5,7", "-k", "2", "--verify", "--json"],
    ],
    ids=["info", "toric", "glue", "lift"],
)
def test_cli_json_lines(args):
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0
    line = result.output.removesuffix("\n")
    assert stdlib_json(json.loads(line)) == line
