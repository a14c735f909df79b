"""Command-line interface.

Exit codes: 0 success (or verification passed / skipped), 2 invalid input or
violated construction precondition, 3 a verified prediction failed to match
the direct computation, 4 output I/O failure.  Every ``NsgError`` or
``ValueError`` a command raises exits 2 as a usage error of that command
(see ``_Command``), so its last line is ``Error: <message>``.
"""

from __future__ import annotations

import atexit
import contextlib
import gc
import sys
from collections import Counter
from typing import Iterator

import click

from .constructions import GluingSpec, _glued_invariants, glue, lift, lifted_invariants, verify_construction
from .errors import NsgError
from .ideals import trace_and_residue
from .scan import DEFAULT_LIMIT, canonical_json, hunt as run_hunt, info_payload, scan_family
from .semigroup import NumericalSemigroup, new_semigroup
from .toric import acm_and_hypothesis

# Whatever is alive when a command ends dies with the process.  Frozen at
# exit, it is skipped by the interpreter's shutdown collections, which would
# otherwise walk every tracked object; atexit handlers, stream flushes and
# module teardown still run.  ``import nsg`` alone leaves the collector be.
atexit.register(gc.freeze)


def _parse_generators(text: str) -> NumericalSemigroup:
    try:
        gens = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise click.UsageError(f"could not parse generators from {text!r}")
    return new_semigroup(gens)


# List entries per write of ``_echo_table``.
_ECHO_CHUNK = 4096


def _echo_table(payload: dict, indent: str = "") -> None:
    for key, value in payload.items():
        if isinstance(value, dict):
            click.echo(f"{indent}{key}:")
            _echo_table(value, indent + "  ")
        elif isinstance(value, bool):
            click.echo(f"{indent}{key}: {'yes' if value else 'no'}")
        elif isinstance(value, list):
            # written in chunks, so a long list is never joined into one string
            click.echo(f"{indent}{key}: ", nl=False)
            for i in range(0, len(value), _ECHO_CHUNK):
                click.echo((", " if i else "") + ", ".join(map(str, value[i : i + _ECHO_CHUNK])), nl=False)
            click.echo()
        else:
            click.echo(f"{indent}{key}: {value}")


class _Command(click.Command):
    """A subcommand whose library errors exit 2 as usage errors of that
    subcommand; failed internal self-checks (``AssertionError``) still raise."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except (NsgError, ValueError) as exc:
            raise click.UsageError(str(exc), ctx=ctx) from exc


class _Group(click.Group):
    command_class = _Command


@click.group(cls=_Group)
def main() -> None:
    """Numerical semigroup toolkit: traces, residues, gluings, liftings,
    and projective-closure verdicts."""


@main.command()
@click.argument("generators")
@click.option("--json", "as_json", is_flag=True, help="Emit a JSON object instead of a table.")
@click.option("--toric", is_flag=True, help="Include the projective-closure verdict (needs >= 3 generators).")
def info(generators: str, as_json: bool, toric: bool) -> None:
    """Report all invariants of the semigroup generated by GENERATORS."""
    s = _parse_generators(generators)
    payload = {"generators": list(s.generators), **info_payload(s, toric=toric)}
    if as_json:
        click.echo(canonical_json(payload))
    else:
        _echo_table(payload)


def _report_construction(predicted, built, verify: bool, as_json: bool) -> None:
    """Print the predicted invariants of ``built``, or with ``verify`` the
    check of each prediction against the direct computation, which exits 3
    when one fails."""
    if not verify:
        payload = {"generators": list(built.generators), "predicted": predicted.to_json()}
        if as_json:
            click.echo(canonical_json(payload))
        else:
            _echo_table(payload)
        return
    outcome = verify_construction(predicted, built)
    if as_json:
        click.echo(
            canonical_json(
                {
                    "generators": list(built.generators),
                    "verified": outcome.verified,
                    "discrepancies": list(outcome.discrepancies),
                    "invariants_json": info_payload(built, report=outcome.computed),
                }
            )
        )
    else:
        click.echo(f"verified: {'yes' if outcome.verified else 'NO'}")
        if outcome.discrepancies:
            click.echo(f"discrepancies: {', '.join(outcome.discrepancies)}")
    if not outcome.verified:
        sys.exit(3)


@main.command(name="glue")
@click.argument("left")
@click.argument("right")
@click.option("--lambda", "lam", type=int, required=True, help="Non-generator member of LEFT.")
@click.option("--mu", type=int, required=True, help="Non-generator member of RIGHT.")
@click.option("--verify", is_flag=True, help="Check every predicted invariant against direct computation.")
@click.option("--json", "as_json", is_flag=True)
def glue_cmd(left: str, right: str, lam: int, mu: int, verify: bool, as_json: bool) -> None:
    """Glue two semigroups and report the predicted invariants."""
    l, r = _parse_generators(left), _parse_generators(right)
    spec = GluingSpec(l, r, lam, mu)
    built = glue(spec)
    predicted = _glued_invariants(spec, built, trace_and_residue(l), trace_and_residue(r))
    _report_construction(predicted, built, verify, as_json)


@main.command(name="lift")
@click.argument("generators")
@click.option("-k", type=int, required=True, help="Scaling factor, coprime to the multiplicity.")
@click.option("--verify", is_flag=True)
@click.option("--json", "as_json", is_flag=True)
def lift_cmd(generators: str, k: int, verify: bool, as_json: bool) -> None:
    """Lift a semigroup by scaling all generators but the multiplicity."""
    s = _parse_generators(generators)
    built = lift(s, k)
    _report_construction(lifted_invariants(s, k), built, verify, as_json)


@main.command()
@click.argument("generators")
@click.option("--json", "as_json", is_flag=True)
def toric(generators: str, as_json: bool) -> None:
    """Projective-closure verdict for the monomial curve of GENERATORS."""
    s = _parse_generators(generators)
    report = acm_and_hypothesis(s)
    verdict = report.verdict(trace_and_residue(s).nearly_gorenstein)
    if as_json:
        click.echo(canonical_json({**verdict.to_json(), "gb": report.gb.to_json()}))
    else:
        _echo_table(verdict.to_json())
        click.echo(f"basis elements: {len(report.gb.elements)}")


@contextlib.contextmanager
def _writing(out: str | None) -> Iterator[None]:
    """Exit 4 when the block fails to write ``out``."""
    try:
        yield
    except OSError as exc:
        click.echo(f"cannot write {out}: {exc}", err=True)
        sys.exit(4)


@main.command()
@click.argument("family", type=click.Choice(["random", "arithmetic", "gluing", "lifting"]))
@click.option("--seed", type=int, default=0, show_default=True)
@click.option(
    "--limit",
    type=click.IntRange(min=0),
    default=None,
    show_default=f"the whole grid for arithmetic, {DEFAULT_LIMIT} otherwise",
    help="Instance count (0 for an empty scan).",
)
@click.option("--max-multiplicity", type=click.IntRange(min=3), default=8, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), required=True, help="JSONL file to append to.")
@click.option("--verify", is_flag=True, help="Verify construction predictions (gluing and lifting).")
def scan(family: str, seed: int, limit: int | None, max_multiplicity: int, out: str, verify: bool) -> None:
    """Scan a family of semigroups and append one JSONL record each."""
    with _writing(out):
        summary = scan_family(family, seed, limit, max_multiplicity, out, verify)
    click.echo(summary.line())


@main.command()
@click.option("--max-genus", type=click.IntRange(min=1), required=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None, help="Optional JSONL file for all records.")
def hunt(max_genus: int, out: str | None) -> None:
    """Exhaustively test residue <= genus - non_gaps up to a genus bound."""
    with _writing(out):
        checked, findings, histogram = run_hunt(max_genus, out)
    click.echo(f"checked {checked} semigroups up to genus {max_genus}")
    click.echo("slack histogram: " + ", ".join(f"{k}: {v}" for k, v in histogram.items()))
    if findings:
        click.echo(f"VIOLATIONS FOUND: {len(findings)}")
        for rec in findings:
            click.echo(canonical_json(rec))
        per_genus = sorted(Counter(rec["provenance"]["genus"] for rec in findings).items())
        click.echo("violations per genus: " + ", ".join(f"{g}: {n}" for g, n in per_genus), err=True)
    else:
        click.echo("no violations")


if __name__ == "__main__":
    main()
