"""Family scans, the gap-bound hunter, and JSONL persistence.

Every scan record is a pure function of its instance parameters, so worker
pools never affect content.  Scans and the hunt stream their records into
one writer, ``write_jsonl``, which writes them in one order, by id and then
by canonical JSON (``_keyed``).  It keeps at most ``_RUN_LINES`` encoded
records in memory, spills the rest to at most 16 temporary files, one per
first hex digit of the id, and at the end sorts one of those buckets in
memory, split again by the next digits while it is larger than
``_HELD_BYTES``.  The timestamp comes from SOURCE_DATE_EPOCH (default 0),
which keeps repeated runs byte-identical.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
import random
import tempfile
from collections import Counter, deque
from operator import itemgetter
from typing import IO, Callable, Iterable, Iterator, Sequence

import numpy as np
import orjson

from .constructions import (
    GluingSpec,
    PredictedInvariants,
    VerificationOutcome,
    _glued_invariants,
    arithmetic_semigroup,
    glue,
    lift,
    lifted_invariants,
    verify_construction,
)
from .errors import GluingError, InvalidSetting
from .ideals import TraceReport, classification, gap_bound_check, trace_and_residue, trace_columns  # noqa: F401
from .semigroup import NumericalSemigroup, _Value, _members, _row, _sorted_rows, new_semigroup
from .toric import acm_and_hypothesis

try:  # CPython's built-in SHA-256; hashlib would load OpenSSL into every process
    from _sha256 import sha256
except ImportError:  # renamed in Python 3.12, or left out of the build
    from hashlib import sha256

# Instance count of a random, gluing or lifting scan when no limit is given.
DEFAULT_LIMIT = 100

# Largest common difference d of the arithmetic family's sequences.
ARITHMETIC_MAX_D = 5

__all__ = [
    "ScanSummary",
    "record_id",
    "canonical_json",
    "info_payload",
    "build_record",
    "random_semigroup",
    "random_gluing_spec",
    "random_lift",
    "scan_family",
    "hunt",
    "write_jsonl",
]


def canonical_json(obj) -> str:
    """``obj`` as compact JSON with sorted keys, the one encoding of every
    record and every ``--json`` line.

    The text is byte-identical to ``json.dumps(obj, sort_keys=True,
    separators=(",", ":"))`` whenever every dict key is a ``str``, every
    string holds only code points below 0x7f (ASCII without DEL) and every
    int lies in [-2**63, 2**64) (``_fits_json``).  Every nsg record meets
    this: its keys and strings are ASCII names and hex ids, a semigroup
    value is at most about twice ``SIZE_LIMIT``, a toric exponent is below
    2**31, and ``_stamp`` refuses a seed or a SOURCE_DATE_EPOCH outside
    the range.  An int outside it, or a key that is not a ``str``, raises
    ``TypeError``.
    """
    return orjson.dumps(obj, option=orjson.OPT_SORT_KEYS).decode()


def _fits_json(value: int) -> bool:
    """Whether ``canonical_json`` encodes the integer ``value``."""
    return -(2**63) <= value < 2**64


def record_id(generators: Sequence[int]) -> str:
    """Stable id: hash of the sorted generator list."""
    return sha256(",".join(map(str, sorted(generators))).encode()).hexdigest()[:16]


def _setting(name: str, default: int, accepts: Callable[[int], bool], expected: str) -> int:
    """The integer environment setting ``name``, ``default`` when unset;
    a value that is no integer or that ``accepts`` refuses raises
    ``InvalidSetting``, saying it must be ``expected``."""
    raw = os.environ.get(name, str(default))
    try:
        value = int(raw)
    except ValueError:
        value = None
    if value is None or not accepts(value):
        raise InvalidSetting(f"{name} must be {expected}, got {raw!r}")
    return value


def _stamp(seed: int) -> dict:
    """The seed and timestamp (SOURCE_DATE_EPOCH, default 0) of every record
    of one run, both checked once, before anything is drawn or written."""
    if not _fits_json(seed):
        raise ValueError(f"seed must lie in [-2**63, 2**64), got {seed}")
    timestamp = _setting("SOURCE_DATE_EPOCH", 0, _fits_json, "an integer in [-2**63, 2**64)")
    return {"seed": seed, "timestamp": timestamp}


class ScanSummary(_Value):
    """The tallies of one scan, printed as its summary line: the records
    written and how many of them are Gorenstein, nearly Gorenstein, answer
    the gap-bound question yes and failed their ``--verify`` check."""

    __slots__ = ("records", "gorenstein", "nearly_gorenstein", "question_holds", "verification_failures")
    records: int
    gorenstein: int
    nearly_gorenstein: int
    question_holds: int
    verification_failures: int

    def line(self) -> str:
        return (
            f"{self.records} records: gorenstein {self.gorenstein}, "
            f"nearly_gorenstein {self.nearly_gorenstein}, question_holds {self.question_holds}, "
            f"verification_failures {self.verification_failures}"
        )


def info_payload(s: NumericalSemigroup, toric: bool = False, report: TraceReport | None = None) -> dict:
    """All invariants of one semigroup, JSON-ready (integers only); pass
    ``report`` when the trace of ``s`` is already computed.  The one-row
    case of ``_payloads``, plus the closure verdict when ``toric``."""
    r = report or trace_and_residue(s)
    columns = np.array([r.trace.mins]), [list(r.trace_min_gens)], [list(r.pf)], [r.residue], [r.genus]
    payload = next(_payloads(s.multiplicity, _row(s.apery), [s.generators], columns))
    del payload["slack"]  # only hunt records carry it
    if toric:
        payload["closure"] = acm_and_hypothesis(s).verdict(payload["nearly_gorenstein"]).to_json()
    return payload


def _payloads(m: int, apery: np.ndarray, generators: list[tuple[int, ...]], columns: tuple) -> Iterator[dict]:
    """Yield, one at a time, the hunt payload (``info_payload`` plus the
    slack) of each semigroup of multiplicity m, from its Apery row, its
    minimal generators and its row of ``columns``: the trace class-minimum
    matrix, and per row the sorted trace minimal generators, the
    pseudo-Frobenius numbers, the residue and the genus.  The verdicts come
    from ``classification``.  Three ``_members`` calls list the gaps (from c
    up to Ap[c]), the trace heads (from the trace minimum up to the
    conductor) and the missing members (from Ap[c] up to the trace minimum)
    of all the rows."""
    trace, trace_gens, pfs, residues, genera = columns
    conductors = trace.max(axis=1, keepdims=True) - m + 1
    # Ap[c] is congruent to c, so apery % m holds each entry's class
    lists = _members(apery % m, apery), _members(trace, conductors), _members(apery, trace)
    for gens, conductor, tg, pf, residue, genus, gaps, head, missing in zip(
        generators, conductors[:, 0].tolist(), trace_gens, pfs, residues, genera, *lists
    ):
        f = pf[-1]  # the largest pseudo-Frobenius number, -1 for the naturals
        pf = [] if m == 1 else pf  # the naturals' pf (-1,) is not listed
        yield {
            "multiplicity": m,
            "embedding_dimension": len(gens),
            "frobenius": f,
            "gaps": gaps,
            "genus": genus,
            "non_gap_count": f + 1 - genus,
            "pf": pf,
            "type": len(pf),
            "trace": {"head": head, "conductor": conductor},
            "trace_min_gens": tg,
            "residue": residue,
            "missing": missing,
            **classification(residue, genus, f),
        }


def _verification_payload(outcome: VerificationOutcome) -> dict:
    return {
        "verified": outcome.verified,
        "discrepancies": list(outcome.discrepancies),
        "predicted": {**outcome.predicted.to_json(), "provenance": outcome.predicted.provenance},
    }


def build_record(
    generators: Sequence[int], provenance: dict, stamp: dict, invariants: dict, verification: dict | None = None
) -> dict:
    """JSON-ready scan record of the semigroup with these sorted minimal
    generators, carrying the run's ``_stamp``; the ``verification`` key is
    present only when a verification is given."""
    record = {
        "id": record_id(generators),
        "generators": list(generators),
        "provenance": provenance,
        "invariants_json": invariants,
        **stamp,
    }
    if verification is not None:
        record["verification"] = verification
    return record


def _construction_record(
    built: NumericalSemigroup, provenance: dict, stamp: dict, predicted: PredictedInvariants | None
) -> dict:
    """JSON record of a gluing or lifting, verified against ``predicted``
    when one is given; the trace computed to verify it is the record's too."""
    if predicted is None:
        return build_record(built.generators, provenance, stamp, info_payload(built))
    outcome = verify_construction(predicted, built)
    invariants = info_payload(built, report=outcome.computed)
    return build_record(built.generators, provenance, stamp, invariants, _verification_payload(outcome))


def random_semigroup(rng: random.Random, max_multiplicity: int) -> NumericalSemigroup:
    """Seeded random semigroup: pick a multiplicity, then draw generators
    from (m, 3m] until the set has gcd 1 and is already minimal."""
    while True:
        m = rng.randint(3, max_multiplicity)
        extra = rng.randint(1, max(1, m - 1))
        candidates = sorted({m, *(rng.randint(m + 1, 3 * m) for _ in range(extra))})
        if math.gcd(*candidates) != 1:
            continue
        s = new_semigroup(candidates)
        if not s.was_reduced:
            return s


def random_gluing_spec(rng: random.Random, max_multiplicity: int) -> GluingSpec:
    """Seeded valid gluing spec; scalars stay within a small multiple of the
    factor multiplicities to keep the glued semigroup desk-sized."""
    return _draw_gluing(rng, max_multiplicity)[0]


def _scalars(s: NumericalSemigroup) -> list[int]:
    """The gluing scalars a draw picks from: the non-generators of s in [2m, 4m]."""
    return [x for x in range(2 * s.multiplicity, 4 * s.multiplicity + 1) if s.contains(x) and x not in s.generators]


def _draw_gluing(rng: random.Random, max_multiplicity: int) -> tuple[GluingSpec, NumericalSemigroup]:
    """``random_gluing_spec`` with the gluing it was validated by building."""
    while True:
        left = random_semigroup(rng, max_multiplicity)
        right = random_semigroup(rng, max_multiplicity)
        lam_pool, mu_pool = _scalars(left), _scalars(right)
        for _ in range(16):
            spec = GluingSpec(left, right, rng.choice(lam_pool), rng.choice(mu_pool))
            try:
                return spec, glue(spec)
            except GluingError:
                continue


def random_lift(rng: random.Random, max_multiplicity: int, max_k: int = 7) -> tuple[NumericalSemigroup, int]:
    while True:
        s = random_semigroup(rng, max_multiplicity)
        k = rng.randint(1, max_k)
        if math.gcd(k, s.multiplicity) == 1:
            return s, k


_CHUNK = 64  # at most this many items to one pool task
_AHEAD = 2  # pool tasks in flight per worker


def _pmap(fn: Callable, items: Iterable, count: int) -> Iterator:
    """``fn`` over the ``count`` ``items`` in order, lazily.  A single worker
    consumes them one at a time, so an instance drawn lazily is freed once
    its record is built.  A pool forks all its workers at once, so it has at
    most one per CPU (and per item) whatever ``NSG_THREADS`` asks for; it
    draws items only to submit a chunk, and keeps at most ``_AHEAD`` chunks
    per worker in flight, so neither items nor finished records pile up."""
    workers = min(_setting("NSG_THREADS", 1, lambda n: n >= 1, "a positive integer"), os.cpu_count() or 1, count)
    if workers <= 1:
        yield from map(fn, items)
        return
    # imported here so that no command pays for multiprocessing at startup
    from concurrent.futures import ProcessPoolExecutor

    size = min(_CHUNK, max(1, count // (4 * workers)))
    items = iter(items)
    chunks = iter(lambda: list(itertools.islice(items, size)), [])
    with ProcessPoolExecutor(max_workers=workers) as pool:
        pending = deque(pool.submit(_map_chunk, fn, chunk) for chunk in itertools.islice(chunks, _AHEAD * workers))
        while pending:
            done = pending.popleft().result()
            pending.extend(pool.submit(_map_chunk, fn, chunk) for chunk in itertools.islice(chunks, 1))
            yield from done


def _map_chunk(fn: Callable, chunk: list) -> list:
    return [fn(item) for item in chunk]


def _random_worker(args: tuple) -> dict:
    s, stamp = args
    return build_record(s.generators, {"kind": "random"}, stamp, info_payload(s))


def _arithmetic_worker(args: tuple) -> dict:
    n1, d, e, stamp = args
    s = arithmetic_semigroup(n1, d, e)
    return build_record(s.generators, {"kind": "arithmetic", "n1": n1, "d": d, "e": e}, stamp, info_payload(s, toric=True))


def _gluing_worker(args: tuple) -> dict:
    spec, built, verify, stamp = args
    parents = [record_id(spec.left.generators), record_id(spec.right.generators)]
    provenance = {"kind": "gluing", "parents": parents, "lambda": spec.lam, "mu": spec.mu}
    return _construction_record(built, provenance, stamp, _glued_invariants(spec, built) if verify else None)


def _lifting_worker(args: tuple) -> dict:
    base, k, verify, stamp = args
    built = lift(base, k)
    provenance = {"kind": "lifting", "parent": record_id(base.generators), "k": k}
    return _construction_record(built, provenance, stamp, lifted_invariants(base, k) if verify else None)


def scan_family(
    family: str, seed: int, limit: int | None, max_multiplicity: int, out: str, verify: bool = False
) -> ScanSummary:
    """Deterministic scan of one family, appended to ``out`` by
    ``write_jsonl``; returns the counts of the records written.

    ``limit`` caps the instance count; None means the family default: the
    whole grid for ``arithmetic`` and ``DEFAULT_LIMIT`` draws otherwise.
    Workers receive the drawn semigroups, specs and gluings themselves, not
    their generators, so no drawn semigroup is rebuilt; with one worker each
    draw is made just before its record, and no record is kept once it is
    encoded.
    """
    if limit is not None and limit < 0:
        raise ValueError(f"scan limit must be >= 0, got {limit}")
    stamp = _stamp(seed)
    rng = random.Random(seed)
    count = DEFAULT_LIMIT if limit is None else limit
    if family == "random":
        draws = ((random_semigroup(rng, max_multiplicity), stamp) for _ in range(count))
        records = _pmap(_random_worker, draws, count)
    elif family == "arithmetic":
        items = []
        for n1 in range(3, max_multiplicity + 1):
            for d in range(1, ARITHMETIC_MAX_D + 1):
                if math.gcd(n1, d) != 1:
                    continue
                for e in range(3, n1 + 1):
                    items.append((n1, d, e, stamp))
        items = items[:limit]
        records = _pmap(_arithmetic_worker, items, len(items))
    elif family == "gluing":
        draws = ((*_draw_gluing(rng, max_multiplicity), verify, stamp) for _ in range(count))
        records = _pmap(_gluing_worker, draws, count)
    elif family == "lifting":
        draws = ((*random_lift(rng, max_multiplicity), verify, stamp) for _ in range(count))
        records = _pmap(_lifting_worker, draws, count)
    else:
        raise ValueError(f"unknown family {family!r}")
    tally = [0] * 5  # the ScanSummary fields, in order

    def keyed() -> Iterator[str]:
        for record in records:
            inv, check = record["invariants_json"], record.get("verification", {"verified": True})
            hits = 1, inv["gorenstein"], inv["nearly_gorenstein"], inv["question_holds"], not check["verified"]
            tally[:] = (total + hit for total, hit in zip(tally, hits))
            yield _keyed(record)

    write_jsonl(out, keyed())
    return ScanSummary(*tally)


def hunt(max_genus: int, out: str | None = None) -> tuple[int, list[dict], dict[int, int]]:
    """Enumerate the genus tree and look for residues above the gap bound.

    The tree draws nothing at random, so every record's seed is 0.  The
    tree comes from ``enumeration._walk`` one (genus, multiplicity) block at
    a time, an Apery matrix and a minimal-generator mask, which goes
    through one ``trace_columns`` call; ``_payloads`` then yields the
    block's payloads one at a time, and no semigroup or trace object is
    built.  The records form one stream, of which only the violating
    records are kept.  With ``out``, each record is encoded as soon as it
    is built and goes to ``write_jsonl``, which appends them to ``out`` in
    record order; without it, the stream is drained and no record is
    encoded.  Returns (records checked, violating records in record order,
    slack histogram).
    """
    from .enumeration import _walk

    stamp = _stamp(0)
    findings: list[dict] = []
    histogram: Counter = Counter()

    def records() -> Iterator[dict]:
        for genus, apery, mask in _walk(max_genus):
            m = apery.shape[1]
            generators = [(m, *gens) for gens in _sorted_rows(apery, mask)]
            columns = trace_columns(m, apery, np.where(mask, apery, m))
            for g, inv in zip(generators, _payloads(m, apery, generators, columns)):
                histogram[inv["slack"]] += 1
                rec = build_record(g, {"kind": "hunt", "genus": genus}, stamp, inv)
                if not inv["question_holds"]:
                    findings.append(rec)
                yield rec

    if out is None:
        deque(records(), maxlen=0)  # drained for the findings and the histogram
    else:
        write_jsonl(out, map(_keyed, records()))
    findings.sort(key=_keyed)
    return sum(histogram.values()), findings, dict(sorted(histogram.items()))  # one slack per record


# Keyed lines that ``write_jsonl`` holds in memory; each full buffer is
# spilled to the temporary files of the lines' first id digits.
_RUN_LINES = 1024

# Largest temporary file, in bytes, whose lines ``write_jsonl`` sorts in
# memory; a larger one is split again by the next id digit.
_HELD_BYTES = 1 << 24


def _keyed(record: dict) -> str:
    """The JSONL line of ``record`` behind its 16-hex-digit id and a space.
    These strings sort in record order: by id, then by canonical JSON (a
    random scan can draw one semigroup twice)."""
    return f"{record['id']} {canonical_json(record)}\n"


def write_jsonl(path: str, keyed_lines: Iterable[str]) -> None:
    """Append ``_keyed`` lines to ``path`` in sorted order, without their keys.

    At most ``_RUN_LINES`` lines wait in memory.  A full buffer is spilled
    to 16 anonymous temporary files (in TMPDIR), each line to the one of the
    first hex digit of its id; a line's first character thus names the
    bucket of its sort key.  ``path`` is opened only at the end, and each
    bucket in digit order is sorted and appended by ``_append_sorted``, so
    the end holds at most ``_HELD_BYTES`` of lines, or the lines of one id.
    A write that fits in one buffer opens no temporary file.
    """
    with contextlib.ExitStack() as stack:
        buckets: dict[str, IO[str]] = {}
        lines: list[str] = []
        for line in keyed_lines:
            if len(lines) == _RUN_LINES:
                _spill(lines, 0, buckets, stack)
                lines.clear()
            lines.append(line)
        if buckets:
            _spill(lines, 0, buckets, stack)
            lines.clear()
        with open(path, "a", encoding="utf-8") as fh:
            fh.writelines(line[17:] for line in sorted(lines))  # empty once anything was spilled
            for _, bucket in sorted(buckets.items()):
                _append_sorted(fh, bucket, 1)


def _spill(lines: list[str], depth: int, parts: dict[str, IO[str]], stack: contextlib.ExitStack) -> None:
    """Sort ``lines`` in place and append them to the temporary files in
    ``parts`` by their id digit at index ``depth``, one write per file; a
    file is opened on ``stack`` on its first line."""
    lines.sort()
    for digit, group in itertools.groupby(lines, key=itemgetter(depth)):
        if digit not in parts:
            parts[digit] = stack.enter_context(tempfile.TemporaryFile("w+", encoding="utf-8"))
        parts[digit].write("".join(group))


def _append_sorted(fh: IO[str], bucket: IO[str], depth: int) -> None:
    """Append the lines of the temporary file ``bucket``, whose ids share
    their first ``depth`` digits, to ``fh`` in sorted order without their
    keys.  A bucket of at most ``_HELD_BYTES`` bytes is sorted in memory.  A
    larger one is read ``_RUN_LINES`` lines at a time and split by the id
    digit at ``depth`` into temporary files, which go the same way in digit
    order and are closed on return.  At depth 16 every id is the same, so
    the lines of one id are sorted in memory whatever their size."""
    size = bucket.tell()
    bucket.seek(0)
    if size <= _HELD_BYTES or depth == 16:
        fh.writelines(line[17:] for line in sorted(bucket))
        return
    with contextlib.ExitStack() as stack:
        parts: dict[str, IO[str]] = {}
        for lines in iter(lambda: list(itertools.islice(bucket, _RUN_LINES)), []):
            _spill(lines, depth, parts, stack)
        for _, part in sorted(parts.items()):
            _append_sorted(fh, part, depth + 1)
