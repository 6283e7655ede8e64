"""Line-oriented command front end.

Exit codes: 0 success, 1 validation failure or missing guarantee,
2 usage or input error.  All output is canonical and byte-stable for
identical inputs.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from typing import List, Optional, TextIO

from . import charge as ch
from . import construct as co
from . import diagram as dg
from . import embedding as em
from . import patterns as pt


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); raise instead
        raise _UsageError(message)


def _rational(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _load_diagram(path: str) -> dg.Diagram:
    with open(path, "r", encoding="utf-8") as fh:
        return dg.parse(fh.read())


def _print_report(report: dg.ValidationReport, out: TextIO) -> None:
    for code, elements, message in report.violations:
        where = ",".join(elements) if elements else "-"
        print(f"violation {code} {where} {message}", file=out)


def _require_valid(d: dg.Diagram, out: TextIO) -> bool:
    report = dg.validate(d)
    if not report.ok:
        _print_report(report, out)
        return False
    return True


def _valid_graph(path: str, out: TextIO) -> Optional[dg.SimpleGraph]:
    """G of a valid diagram, or None after printing its violations.

    The diagram, and the faces its validation traced, are freed on return.
    """
    d = _load_diagram(path)
    return dg.smooth(d) if _require_valid(d, out) else None


def _cmd_validate(args, out: TextIO, err: TextIO) -> int:
    d = _load_diagram(args.file)
    report = dg.validate(d)
    if report.ok:
        print("ok", file=out)
        return 0
    _print_report(report, out)
    return 1


def _cmd_faces(args, out: TextIO, err: TextIO) -> int:
    d = _load_diagram(args.file)
    if not _require_valid(d, out):
        return 1
    fs = em.trace_faces(d)
    for f in fs.faces:
        cls = em.classify(d, f)
        boundary = ",".join(f.corners)
        print(f"face {f.face_id} deg={f.degree} class={cls} boundary={boundary}", file=out)
    return 0


def _cmd_smooth(args, out: TextIO, err: TextIO) -> int:
    g = _valid_graph(args.file, out)
    if g is None:
        return 1
    for u, v in sorted(tuple(sorted(e)) for e in g.edges):
        print(f"edge {u} {v}", file=out)
    return 0


def _cmd_charge(args, out: TextIO, err: TextIO) -> int:
    d = _load_diagram(args.file)
    if not _require_valid(d, out):
        return 1
    fs = em.trace_faces(d)
    cs = ch.initial_charges(d, fs, ch.SCHEMES[args.scheme])
    for element, value in cs.charges.items():
        print(f"charge {ch.element_str(element)} {_rational(value)}", file=out)
    print(f"total={_rational(ch.total_charge(cs))}", file=out)
    return 0


def _cmd_discharge(args, out: TextIO, err: TextIO) -> int:
    d = _load_diagram(args.file)
    if not _require_valid(d, out):
        return 1
    fs = em.trace_faces(d)
    scheme, apply_fn = ch.RULE_SETS[args.rules]
    initial = ch.initial_charges(d, fs, scheme)
    final, transfers = apply_fn(d, fs, initial)
    print(
        f"total_initial={_rational(ch.total_charge(initial))}"
        f" total_final={_rational(ch.total_charge(final))}",
        file=out,
    )
    for element, value in ch.negative_elements(final):
        print(f"negative {ch.element_str(element)} {_rational(value)}", file=out)
    if args.log:
        for t in transfers:
            print(
                f"transfer {t.rule} {ch.element_str(t.src)} {ch.element_str(t.dst)}"
                f" {_rational(t.amount)} {t.site}",
                file=out,
            )
    return 0


def _parse_pattern_file(path: str) -> pt.TypedPattern:
    vertices: List[str] = []
    bounds = {}
    edges = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            tokens = line.split()
            if tokens[0] == "pvertex" and len(tokens) == 4:
                pv, lo, hi = tokens[1], tokens[2], tokens[3]
                vertices.append(pv)
                bounds[pv] = pt.DegreeInterval(int(lo), None if hi == "inf" else int(hi))
            elif tokens[0] == "pedge" and len(tokens) == 3:
                edges.append(frozenset((tokens[1], tokens[2])))
            else:
                raise _UsageError(f"{path}:{lineno}: expected pvertex/pedge line")
    if not vertices:
        raise _UsageError(f"{path}: pattern has no vertices")
    return pt.TypedPattern(
        name="user", vertices=tuple(vertices), edges=frozenset(edges), bounds=bounds
    )


def _cmd_find(args, out: TextIO, err: TextIO) -> int:
    if args.limit is not None and args.limit < 0:
        raise _UsageError("--limit must be >= 0")
    g = _valid_graph(args.file, out)
    if g is None:
        return 1
    if args.pattern:
        patterns = pt.catalog_by_name()
        if args.pattern not in patterns:
            raise _UsageError(
                f"unknown pattern {args.pattern!r}, expected one of {sorted(patterns)}"
            )
        pattern = patterns[args.pattern]
    else:
        pattern = _parse_pattern_file(args.pattern_file)
    matches = pt.find_typed(g, pattern, limit=args.limit)
    for m in matches:
        pairs = " ".join(f"{pv}={m[pv]}" for pv in pattern.vertices)
        print(f"match {pairs}", file=out)
    print(f"count={len(matches)}", file=out)
    return 0


def _cmd_glue(args, out: TextIO, err: TextIO) -> int:
    d = _load_diagram(args.file)
    if not _require_valid(d, out):
        return 1
    spec = co.GlueSpec(base=d, w1=args.w1, w2=args.w2, face_id=args.face, n=args.n)
    glued = co.glue(spec)
    out.write(dg.serialize(glued))
    return 0


def _cmd_check_theorems(args, out: TextIO, err: TextIO) -> int:
    d = _load_diagram(args.file)
    try:
        report = pt.check_guarantees(d)
    except pt.InvalidDiagram as exc:
        _print_report(exc.report, out)
        return 1
    for r in report.results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.name} {r.detail}", file=out)
    return 0 if report.ok else 1


def _build_parser() -> _Parser:
    parser = _Parser(prog="onepl", description="1-planar diagram toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check all diagram invariants")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("faces", help="trace and classify faces")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_faces)

    p = sub.add_parser("smooth", help="emit the edges of the original graph G")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_smooth)

    p = sub.add_parser("charge", help="initial charges under a scheme")
    p.add_argument("--scheme", choices=("A", "B"), required=True)
    p.add_argument("file")
    p.set_defaults(fn=_cmd_charge)

    p = sub.add_parser("discharge", help="run a discharging rule set")
    p.add_argument("--rules", choices=("A", "B", "C"), required=True)
    p.add_argument("--log", action="store_true", help="dump the transfer log")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_discharge)

    p = sub.add_parser("find", help="typed subgraph search on G")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--pattern", help="catalog pattern name")
    group.add_argument("--pattern-file", help="pvertex/pedge pattern file")
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("file")
    p.set_defaults(fn=_cmd_find)

    p = sub.add_parser("glue", help="glue n copies at two shared vertices")
    p.add_argument("--w1", required=True)
    p.add_argument("--w2", required=True)
    p.add_argument("--face", type=int, required=True)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("file")
    p.set_defaults(fn=_cmd_glue)

    p = sub.add_parser("check-theorems", help="run every guarantee check")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_check_theorems)

    return parser


def run(argv: List[str], stdout: Optional[TextIO] = None, stderr: Optional[TextIO] = None) -> int:
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args, out, err)
    except _UsageError as exc:
        print(f"error: {exc}", file=err)
        return 2
    except (OSError, dg.ParseError, dg.EmptyDiagram, co.UnknownFixture, co.NotOnFace,
            co.NotTrueVertex, co.DegreeTooSmall, ch.PreconditionMinDegree,
            pt.HostTooLarge, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=err)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
