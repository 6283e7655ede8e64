"""Typed subgraph search and the catalog of guaranteed light subgraphs.

A typed pattern is a small connected graph with a degree interval per
vertex; a match is an injective map into the host graph that covers every
pattern edge (subgraph semantics, not induced) and respects every
interval.  Matches are counted by image: two maps with the same vertex
and edge images are one match.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from .diagram import Diagram, SimpleGraph, ValidationReport, min_true_degree, smooth, validate
from .charge import (
    Element,
    PreconditionMinDegree,
    RULE_SETS,
    extract_witness,
    initial_charges,
    negative_elements,
)
from .embedding import trace_faces


class HostTooLarge(Exception):
    """The exhaustive oracle only accepts hosts with at most 12 vertices."""


class InvalidDiagram(Exception):
    """A guarantee check was asked about a diagram that fails validation."""

    def __init__(self, report: ValidationReport):
        self.report = report
        codes = ", ".join(code for code, _, _ in report.violations)
        super().__init__(f"diagram fails validation: {codes}")


@dataclass(frozen=True)
class DegreeInterval:
    lo: int
    hi: Optional[int]  # None = unbounded

    def contains(self, k: int) -> bool:
        return self.lo <= k and (self.hi is None or k <= self.hi)


@dataclass(frozen=True)
class TypedPattern:
    name: str
    vertices: Tuple[str, ...]
    edges: FrozenSet[FrozenSet[str]]
    bounds: Mapping[str, DegreeInterval]

    def neighbors(self, pv: str) -> Tuple[str, ...]:
        return tuple(sorted(u for e in self.edges if pv in e for u in e if u != pv))


Match = Dict[str, str]

ORACLE_MAX_VERTICES = 12


def _match_key(p: TypedPattern, m: Match) -> Tuple[FrozenSet[str], FrozenSet[FrozenSet[str]]]:
    image_vertices = frozenset(m.values())
    image_edges = frozenset(frozenset(m[x] for x in e) for e in p.edges)
    return (image_vertices, image_edges)


def _canonicalize(p: TypedPattern, found: Dict[Tuple, Match]) -> List[Match]:
    matches = list(found.values())
    matches.sort(key=lambda m: (sorted(m.values()), tuple(m[v] for v in p.vertices)))
    return matches


def _record(p: TypedPattern, found: Dict[Tuple, Match], m: Match) -> None:
    key = _match_key(p, m)
    prev = found.get(key)
    mapping = tuple(m[v] for v in p.vertices)
    if prev is None or mapping < tuple(prev[v] for v in p.vertices):
        found[key] = dict(m)


def find_typed(
    g: SimpleGraph, p: TypedPattern, limit: Optional[int] = None
) -> List[Match]:
    """Backtracking search for all image-distinct typed matches.

    Pattern vertices are assigned most-constrained-first: already-anchored
    neighbors first, then fewest degree-feasible host candidates.  The
    candidates for a pattern vertex are its degree-feasible hosts that are
    adjacent to the hosts of all its already-anchored neighbors.

    Twins are pattern vertices with equal degree intervals and the same
    neighbors apart from each other; permuting the hosts of twins gives a
    map with the same image.  Twins therefore take hosts in increasing
    string order along ``p.vertices``, which visits exactly the
    lexicographically smallest map of each such permutation class.  That
    map is the representative ``_record`` keeps anyway, so the returned
    matches are the same as without twin ordering; ``_record`` still
    merges maps related by any other automorphism.

    ``limit`` (>= 0) keeps a prefix of the canonically sorted matches.
    """
    if limit is not None and limit < 0:
        raise ValueError(f"limit must be >= 0, got {limit}")
    adj = g.adjacency
    feasible = {
        pv: frozenset(v for v in g.vertices if p.bounds[pv].contains(g.degree(v)))
        for pv in p.vertices
    }
    if any(not c for c in feasible.values()):
        return []

    neighbors = {pv: p.neighbors(pv) for pv in p.vertices}

    order: List[str] = []
    remaining = set(p.vertices)
    while remaining:
        nxt = min(
            remaining,
            key=lambda pv: (
                -sum(1 for u in neighbors[pv] if u in order),
                len(feasible[pv]),
                pv,
            ),
        )
        order.append(nxt)
        remaining.remove(nxt)

    # Per depth: the pattern vertex, its anchored neighbors, and its nearest
    # already-placed twins before and after it along p.vertices.  Placed
    # twins already hold hosts in order, so bounding by those two suffices.
    position = {pv: i for i, pv in enumerate(p.vertices)}
    plan = []
    for depth, pv in enumerate(order):
        placed = order[:depth]
        twins = [
            t for t in placed
            if p.bounds[t] == p.bounds[pv]
            and set(neighbors[t]) - {pv} == set(neighbors[pv]) - {t}
        ]
        earlier = [t for t in twins if position[t] < position[pv]]
        later = [t for t in twins if position[t] > position[pv]]
        plan.append((
            pv,
            [u for u in neighbors[pv] if u in placed],
            max(earlier, key=position.__getitem__, default=None),
            min(later, key=position.__getitem__, default=None),
        ))

    found: Dict[Tuple, Match] = {}
    assignment: Match = {}
    used = set()

    def backtrack(depth: int) -> None:
        if depth == len(plan):
            _record(p, found, assignment)
            return
        pv, anchored, earlier, later = plan[depth]
        candidates = feasible[pv].intersection(*(adj[assignment[u]] for u in anchored))
        above = assignment[earlier] if earlier is not None else None
        below = assignment[later] if later is not None else None
        for host in candidates:
            if host in used:
                continue
            if (above is not None and host < above) or (below is not None and host > below):
                continue
            assignment[pv] = host
            used.add(host)
            backtrack(depth + 1)
            used.remove(host)
            del assignment[pv]

    backtrack(0)
    matches = _canonicalize(p, found)
    return matches if limit is None else matches[:limit]


def oracle_find_typed(g: SimpleGraph, p: TypedPattern) -> List[Match]:
    """Exhaustive enumeration of injective maps; the independent oracle.

    Pattern vertices take every host vertex in turn, in pattern order.  A
    slot's degree bound and its edges to earlier slots are checked as soon
    as it is filled, so no failing prefix is extended.
    """
    if len(g.vertices) > ORACLE_MAX_VERTICES:
        raise HostTooLarge(
            f"oracle accepts at most {ORACLE_MAX_VERTICES} host vertices, got {len(g.vertices)}"
        )
    index = {pv: i for i, pv in enumerate(p.vertices)}
    allowed = [
        frozenset(v for v in g.vertices if p.bounds[pv].contains(g.degree(v)))
        for pv in p.vertices
    ]
    earlier: List[List[int]] = [[] for _ in p.vertices]
    for e in p.edges:
        i, j = sorted(index[x] for x in e)
        earlier[j].append(i)
    adj = g.adjacency
    found: Dict[Tuple, Match] = {}
    image: List[str] = []

    def extend(slot: int) -> None:
        if slot == len(p.vertices):
            _record(p, found, dict(zip(p.vertices, image)))
            return
        for v in g.vertices:
            if v not in allowed[slot] or v in image:
                continue
            if any(image[i] not in adj[v] for i in earlier[slot]):
                continue
            image.append(v)
            extend(slot + 1)
            image.pop()

    extend(0)
    return _canonicalize(p, found)


def _pattern(name: str, vertices: Sequence[str], edges: Sequence[Tuple[str, str]],
             bounds: Mapping[str, Tuple[int, Optional[int]]]) -> TypedPattern:
    return TypedPattern(
        name=name,
        vertices=tuple(vertices),
        edges=frozenset(frozenset(e) for e in edges),
        bounds={v: DegreeInterval(*bounds[v]) for v in vertices},
    )


def catalog() -> List[TypedPattern]:
    """The light subgraphs guaranteed in every 1-planar graph of minimum
    degree 7."""
    return [
        _pattern("edge_77", ("x1", "x2"), (("x1", "x2"),),
                 {"x1": (7, 7), "x2": (7, 7)}),
        _pattern(
            "k4_typed",
            ("x1", "x2", "x3", "x4"),
            (("x1", "x2"), ("x1", "x3"), ("x1", "x4"),
             ("x2", "x3"), ("x2", "x4"), ("x3", "x4")),
            {"x1": (7, 7), "x2": (0, 8), "x3": (0, 8), "x4": (0, 10)},
        ),
        _pattern(
            "star_k17",
            ("c", "l1", "l2", "l3", "l4", "l5", "l6", "l7"),
            tuple(("c", f"l{i}") for i in range(1, 8)),
            {"c": (7, 7), **{f"l{i}": (0, 23) for i in range(1, 8)}},
        ),
        _pattern(
            "triangle_779",
            ("x1", "x2", "x3"),
            (("x1", "x2"), ("x2", "x3"), ("x1", "x3")),
            {"x1": (7, 7), "x2": (7, 7), "x3": (0, 9)},
        ),
        _pattern(
            "chorded_c4",
            ("x1", "x2", "x3", "x4"),
            (("x1", "x2"), ("x2", "x3"), ("x3", "x4"), ("x4", "x1"), ("x1", "x3")),
            {"x1": (7, 7), "x3": (7, 7), "x2": (0, 9), "x4": (0, 9)},
        ),
        _pattern(
            "paw_9max",
            ("a", "b", "c", "d"),
            (("a", "b"), ("a", "c"), ("a", "d"), ("c", "d")),
            {v: (0, 9) for v in ("a", "b", "c", "d")},
        ),
    ]


def catalog_by_name() -> Dict[str, TypedPattern]:
    return {p.name: p for p in catalog()}


@dataclass(frozen=True)
class GuaranteeResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class GuaranteeReport:
    results: Tuple[GuaranteeResult, ...]

    @property
    def ok(self) -> bool:
        return all(r.passed for r in self.results)


def _check_discharge(d: Diagram, rule_set: str) -> GuaranteeResult:
    scheme, apply_fn = RULE_SETS[rule_set]
    fs = trace_faces(d)
    state = initial_charges(d, fs, scheme)
    final, _ = apply_fn(d, fs, state)

    # Witnesses are crossing vertices under A and 7-vertices under B/C; a
    # negative element of any other kind is a problem in itself.
    problems: List[str] = []
    witnesses: List[Element] = []
    negatives = negative_elements(final)
    for element, c in negatives:
        kind, ref = element
        if kind == "f":
            problems.append(f"face f{ref} negative ({c})")
        elif rule_set == "A":
            if d.is_crossing(ref):
                witnesses.append(element)
            else:
                problems.append(f"true vertex {ref} negative ({c})")
        elif d.is_crossing(ref) or d.degree(ref) != 7:
            problems.append(f"non-7-vertex {ref} negative ({c})")
        else:
            witnesses.append(element)
    if not negatives:
        problems.append("no negative element after discharging")

    verified = 0
    for element in witnesses:
        witness = extract_witness(d, fs, final, element, rule_set)
        if witness.all_verdicts_pass:
            verified += 1
        else:
            failed = [name for name, ok in witness.verdicts if not ok]
            problems.append(
                f"witness at {element[1]} fails: {', '.join(failed)}"
            )
    if negatives and verified == 0:
        problems.append("no verified witness")

    detail = "; ".join(problems) if problems else (
        f"{len(negatives)} negative element(s), {verified} verified witness(es)"
    )
    return GuaranteeResult(name=f"discharge_{rule_set}", passed=not problems, detail=detail)


def check_guarantees(d: Diagram) -> GuaranteeReport:
    """Run every theorem-level guarantee on a min-degree-7 diagram."""
    report = validate(d)
    if not report.ok:
        raise InvalidDiagram(report)
    if min_true_degree(d) < 7:
        raise PreconditionMinDegree(
            f"minimum true-degree is {min_true_degree(d)}, guarantees need >= 7"
        )

    g = smooth(d)
    results: List[GuaranteeResult] = []
    for p in catalog():
        matches = find_typed(g, p, limit=1)
        results.append(
            GuaranteeResult(
                name=f"pattern_{p.name}",
                passed=bool(matches),
                detail="found" if matches else "missing (counterexample or bug)",
            )
        )
    for rule_set in ("A", "B", "C"):
        results.append(_check_discharge(d, rule_set))
    return GuaranteeReport(results=tuple(results))
