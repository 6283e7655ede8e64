"""In-memory span tracing around the program's public functions.

``Tracer.install`` prepares, for every public function of the given
modules and wherever a module of the package holds a reference to it, a
wrapper that ``enable`` swaps in and ``disable`` swaps out.  A wrapper
records one span: (name, start, end, parent span index, attributes).
Attributes are computed after the end time is taken, so they do not count
toward the span.  Per-element helpers, called once per dart, face or log
line, are tallied instead (calls and total seconds per name), which keeps
the trace small.  Nothing inside the program is edited.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import io
import json
import sys
from time import perf_counter
from typing import Callable, Dict, List, Optional, Set


class Tracer:
    def __init__(self):
        self.spans: List[list] = []
        self.tallies: Dict[str, List[float]] = {}
        self._stack: List[int] = []

    def wrap(self, name: str, fn: Callable, attrs: Optional[Callable] = None) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, None]
            stack.append(len(spans))
            spans.append(span)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                span[1] = start
                stack.pop()
            if attrs is not None:
                span[4] = attrs(args, kwargs, result)
            return result

        return traced

    def tally(self, name: str, fn: Callable) -> Callable:
        tally = self.tallies.setdefault(name, [0, 0.0])

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tally[1] += perf_counter() - start
                tally[0] += 1

        return counted

    def install(self, modules, attrs: Dict[str, Callable], tallied: Set[str]) -> None:
        """Wrap the public functions of ``modules`` and the functions
        ``attrs`` names; ``attrs`` maps ``"module.function"`` names to
        attribute makers, ``tallied`` names the per-element helpers.
        The wrappers take effect on :meth:`enable`."""
        wrapped = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for fname, fn in vars(mod).items():
                qual = f"{short}.{fname}"
                public = not fname.startswith("_") and inspect.isfunction(fn)
                if qual in tallied:
                    wrapped[fn] = self.tally(qual, fn)
                elif (public and fn.__module__ == mod.__name__) or qual in attrs:
                    wrapped[fn] = self.wrap(qual, fn, attrs.get(qual))
        package = modules[0].__name__.rsplit(".", 1)[0]
        self._patches = []
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for name, value in vars(mod).items():
                if inspect.isfunction(value) and value in wrapped:
                    self._patches.append((vars(mod), name, value, wrapped[value]))
                elif isinstance(value, dict) and name != "__builtins__":
                    # tables of functions, such as charge.RULE_SETS
                    for key, entry in value.items():
                        if isinstance(entry, tuple) and any(
                                inspect.isfunction(e) and e in wrapped for e in entry):
                            new = tuple(wrapped.get(e, e) if inspect.isfunction(e) else e
                                        for e in entry)
                            self._patches.append((value, key, entry, new))

    def enable(self) -> None:
        for table, key, _, new in self._patches:
            table[key] = new

    def disable(self) -> None:
        for table, key, old, _ in self._patches:
            table[key] = old

    def dump(self, path: str, **extra) -> None:
        keys = ("name", "start", "end", "parent", "attrs")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": [dict(zip(keys, s)) for s in self.spans],
                       "tallies": {k: {"calls": c, "seconds": t} for k, (c, t) in self.tallies.items()},
                       **extra}, fh, indent=0)


LAYERS = ("cli", "diagram", "embedding", "charge", "patterns", "construct")


def _find_typed_attrs(args, kwargs, result):
    limit = kwargs.get("limit", args[2] if len(args) > 2 else None)
    return {"pattern": args[1].name, "limit": limit, "returned": len(result)}


SPAN_ATTRS = {
    "patterns.find_typed": _find_typed_attrs,
    "diagram.validate": lambda a, k, r: {"max_degree": max(map(len, a[0].rotations), default=0)},
    "embedding.trace_faces": lambda a, k, r: {"faces": len(r.faces)},
    "charge.apply_rule_set_a": lambda a, k, r: {"transfers": len(r[1])},
    "charge.apply_rule_set_b": lambda a, k, r: {"transfers": len(r[1])},
    "charge.apply_rule_set_c": lambda a, k, r: {"transfers": len(r[1])},
    "charge.extract_witness": lambda a, k, r: {"verified": r.all_verdicts_pass},
    # find_typed builds its whole match dict before it slices to the
    # limit; the dict's size here is the number of matches built
    "patterns._canonicalize": lambda a, k, r: {"built": len(a[1])},
}
# Helpers called once per dart, face, angle or printed element: tallied.
PER_ELEMENT = {"embedding.dart_head", "embedding.classify", "embedding.incident_faces",
               "charge.element_str", "charge.opposite_neighbor", "charge.g_neighbors",
               "charge.rule_a_equal_split", "charge.b2a_amount", "charge.b2b_amount",
               "charge.b2cde_amount", "charge.c2c_amount", "charge.degrees_fit_type",
               "charge.consistent_star_cases"}


def main() -> None:
    """Run a plan of ``onepl`` commands in process, each untraced then traced.

    ``python3 spans.py PLAN OUT``: PLAN is a JSON list of
    ``[args, untraced_stdout_path, traced_stdout_path]``; OUT receives the
    exit codes, wall times, spans and tallies.  Running in a fresh process
    keeps the benchmark's own heap out of the timings.
    """
    plan_path, out_path = sys.argv[1:]
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    modules = [importlib.import_module(f"oneplanar.{name}") for name in LAYERS]
    tracer = Tracer()
    tracer.install(modules, SPAN_ATTRS, PER_ELEMENT)
    results = {"plain_codes": [], "plain_walls": [], "traced_codes": [], "traced_walls": []}
    for args, plain_out, traced_out in plan:
        # an unmeasured first run grows the heap, so that neither measured
        # run pays for it; untraced and traced run back to back, so both
        # see the same machine
        modules[0].run(args, stdout=io.StringIO(), stderr=io.StringIO())
        for kind, path in (("plain", plain_out), ("traced", traced_out)):
            if kind == "traced":
                tracer.enable()
            out, err = io.StringIO(), io.StringIO()
            start = perf_counter()
            results[f"{kind}_codes"].append(modules[0].run(args, stdout=out, stderr=err))
            results[f"{kind}_walls"].append(perf_counter() - start)
            tracer.disable()
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(out.getvalue())
    tracer.dump(out_path, **results)

if __name__ == "__main__":
    main()
