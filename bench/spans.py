"""Spans around the public functions of each ``nsg`` module, installed from
outside the package.

``Tracer.installed()`` replaces every binding of a traced function in every
loaded ``nsg`` module (a function imported with ``from .x import f`` is bound
in several namespaces, sometimes under another name) with a wrapper that
times the call, and puts the originals back on exit.  A traced function that
no ``nsg`` module binds any more is an error, not a silent 0.  Self time is a
span's duration minus the time covered by its child spans, kept with a span
stack.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from typing import Callable, Iterator

# Layer = module.  ``errors`` does no work; ``cli`` is the time outside all
# spans, so it has no traced functions of its own.
LAYERS: dict[str, tuple[str, ...]] = {
    "semigroup": ("new_semigroup", "gap_profile", "pseudo_frobenius"),
    "ideals": (
        "canonical_ideal",
        "dual_ideal",
        "ideal_sum",
        "minimal_generators",
        "trace_and_residue",
        "gap_bound_check",
    ),
    "constructions": ("arithmetic_semigroup", "glue", "glued_invariants", "verify_construction"),
    "toric": ("buchberger", "reduced_gb", "acm_and_hypothesis", "projective_ng_verdict"),
    "enumeration": ("children",),
    "scan": ("random_gluing_spec", "info_payload", "build_record", "scan_family", "hunt", "write_jsonl"),
}

SPAN_NAMES: tuple[str, ...] = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)


class _Stat:
    __slots__ = ("calls", "self_s", "max_s")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.max_s = 0.0


class Tracer:
    """Per-function call counts, self time and longest span, plus the
    counters the benchmark reports, accumulated over every traced call."""

    def __init__(self) -> None:
        self.stats = {name: _Stat() for name in SPAN_NAMES}
        self.root_s = 0.0  # total duration of spans with no traced parent
        self.traced_generators: set[tuple[int, ...]] = set()
        self.reduced = 0
        self.children_out = 0
        self._stack: list[float] = []  # per open span: time covered by its children

    def _observers(self) -> dict[str, Callable]:
        def traced(result):
            self.traced_generators.add(result.trace.ambient.generators)

        def constructed(result):
            self.reduced += result.was_reduced

        def enumerated(result):
            self.children_out += len(result)

        return {
            "ideals.trace_and_residue": traced,
            "semigroup.new_semigroup": constructed,
            "enumeration.children": enumerated,
        }

    def _wrap(self, name: str, fn: Callable, observe: Callable | None) -> Callable:
        stat = self.stats[name]
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                covered = stack.pop()
                stat.calls += 1
                stat.self_s += elapsed - covered
                if elapsed > stat.max_s:
                    stat.max_s = elapsed
                if stack:
                    stack[-1] += elapsed
                else:
                    self.root_s += elapsed
            if observe is not None:
                observe(result)
            return result

        return span

    @contextlib.contextmanager
    def installed(self) -> Iterator[None]:
        """Wrap every traced function wherever an ``nsg`` module binds it."""
        observers = self._observers()
        wrappers = {}
        for layer, fns in LAYERS.items():
            module = importlib.import_module(f"nsg.{layer}")
            for fn_name in fns:
                name = f"{layer}.{fn_name}"
                fn = getattr(module, fn_name, None)
                if not callable(fn):
                    # A renamed or moved function would otherwise read as 0 calls.
                    raise LookupError(f"nsg.{name} is not a function; update LAYERS in spans.py")
                wrappers[id(fn)] = (name, fn, self._wrap(name, fn, observers.get(name)))
        namespaces = [m for n, m in list(sys.modules.items()) if n == "nsg" or n.startswith("nsg.")]
        replaced = []
        for module in namespaces:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[1] is value:
                    setattr(module, attr, hit[2])
                    replaced.append((module, attr, value))
        unbound = set(SPAN_NAMES) - {wrappers[id(value)][0] for _, _, value in replaced}
        if unbound:
            for module, attr, value in replaced:
                setattr(module, attr, value)
            raise LookupError(f"no nsg module binds {sorted(unbound)}")
        try:
            yield
        finally:
            for module, attr, value in replaced:
                setattr(module, attr, value)
