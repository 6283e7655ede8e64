"""Rotation-system model of 1-planar drawings.

A drawing is stored as the rotation system of its planarized plane graph:
every crossing point becomes a degree-4 vertex tagged ``crossing``, every
original vertex is tagged ``true``, and each vertex carries the clockwise
cyclic order of its neighbors.  Smoothing suppresses the crossing vertices
again and recovers the original simple graph.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, List, Optional, Tuple

TRUE = "true"
CROSSING = "crossing"

_ID_RE = re.compile(r"^[A-Za-z0-9_]+$")


class DiagramError(Exception):
    """Base class for all diagram-level failures."""


class ParseError(DiagramError):
    """Raised on malformed diagram documents; carries a line number."""

    def __init__(self, line: Optional[int], message: str):
        self.line = line
        where = f"line {line}: " if line is not None else ""
        super().__init__(f"{where}{message}")


class EmptyDiagram(DiagramError):
    """Raised when serializing a diagram with no vertices."""


class SmoothingCreatesLoop(DiagramError):
    """Two opposite ends of a crossed edge are the same vertex."""


class SmoothingCreatesMultiEdge(DiagramError):
    """Suppressing a crossing duplicates an edge of the original graph."""


@dataclass(frozen=True)
class Diagram:
    """Associated plane graph of a 1-planar drawing.

    ``vertices`` lists ``(id, kind)`` pairs in declaration order and
    ``rotations`` is the parallel tuple of clockwise neighbor sequences.
    """

    vertices: Tuple[Tuple[str, str], ...]
    rotations: Tuple[Tuple[str, ...], ...]

    @cached_property
    def _index(self) -> Dict[str, int]:
        return {vid: i for i, (vid, _) in enumerate(self.vertices)}

    @cached_property
    def _rotation_map(self) -> Dict[str, Tuple[str, ...]]:
        return {vid: rot for (vid, _), rot in zip(self.vertices, self.rotations)}

    def index(self, v: str) -> int:
        return self._index[v]

    def has_vertex(self, v: str) -> bool:
        return v in self._index

    def kind(self, v: str) -> str:
        return self.vertices[self._index[v]][1]

    @cached_property
    def _crossing(self) -> Dict[str, bool]:
        return {vid: kind == CROSSING for vid, kind in self.vertices}

    def is_crossing(self, v: str) -> bool:
        return self._crossing[v]

    def rotation(self, v: str) -> Tuple[str, ...]:
        return self._rotation_map[v]

    def degree(self, v: str) -> int:
        return len(self._rotation_map[v])

    @cached_property
    def vertex_ids(self) -> Tuple[str, ...]:
        return tuple(vid for vid, _ in self.vertices)

    @cached_property
    def true_vertices(self) -> Tuple[str, ...]:
        return tuple(vid for vid, kind in self.vertices if kind == TRUE)

    @cached_property
    def crossing_vertices(self) -> Tuple[str, ...]:
        return tuple(vid for vid, kind in self.vertices if kind == CROSSING)

    @cached_property
    def edge_set(self) -> FrozenSet[FrozenSet[str]]:
        return frozenset(
            frozenset((vid, u)) for vid, rot in zip(self.vertex_ids, self.rotations) for u in rot
        )

    @property
    def num_edges(self) -> int:
        return len(self.edge_set)


@dataclass(frozen=True)
class SimpleGraph:
    """Plain undirected simple graph (the recovered original graph)."""

    vertices: Tuple[str, ...]
    edges: FrozenSet[FrozenSet[str]]

    @cached_property
    def adjacency(self) -> Dict[str, FrozenSet[str]]:
        adj: Dict[str, set] = {v: set() for v in self.vertices}
        for e in self.edges:
            u, v = tuple(e)
            adj[u].add(v)
            adj[v].add(u)
        return {v: frozenset(ns) for v, ns in adj.items()}

    def degree(self, v: str) -> int:
        return len(self.adjacency[v])

    def has_edge(self, u: str, v: str) -> bool:
        return frozenset((u, v)) in self.edges

    @property
    def num_edges(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of :func:`validate`; violations are data, not exceptions."""

    violations: Tuple[Tuple[str, Tuple[str, ...], str], ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def parse(text: str) -> Diagram:
    """Parse a diagram document (see the ``onepl`` file format).

    Only syntax is checked here; structural invariants are the job of
    :func:`validate`.
    """
    vertices: List[Tuple[str, str]] = []
    kinds: Dict[str, str] = {}
    rotations: Dict[str, Tuple[str, ...]] = {}
    saw_header = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if not saw_header:
            if tokens != ["onepl", "1"]:
                raise ParseError(lineno, "expected header 'onepl 1'")
            saw_header = True
            continue
        if tokens[0] == "vertex":
            if len(tokens) != 3 or tokens[2] not in (TRUE, CROSSING):
                raise ParseError(lineno, "expected 'vertex <id> true|crossing'")
            vid = tokens[1]
            if not _ID_RE.match(vid):
                raise ParseError(lineno, f"invalid vertex id {vid!r}")
            if vid in kinds:
                raise ParseError(lineno, f"duplicate vertex id {vid!r}")
            kinds[vid] = tokens[2]
            vertices.append((vid, tokens[2]))
        elif tokens[0] == "rot":
            if len(tokens) < 2:
                raise ParseError(lineno, "expected 'rot <id> <neighbors...>'")
            vid = tokens[1]
            if vid not in kinds:
                raise ParseError(lineno, f"rotation for undeclared vertex {vid!r}")
            if vid in rotations:
                raise ParseError(lineno, f"duplicate rotation for vertex {vid!r}")
            neighbors = tokens[2:]
            seen = set()
            for u in neighbors:
                if u not in kinds:
                    raise ParseError(lineno, f"rotation references unknown vertex {u!r}")
                if u == vid:
                    raise ParseError(lineno, f"SelfNeighbor: {vid!r} lists itself")
                if u in seen:
                    raise ParseError(lineno, f"DuplicateNeighbor: {u!r} repeated in rotation of {vid!r}")
                seen.add(u)
            rotations[vid] = tuple(neighbors)
        else:
            raise ParseError(lineno, f"unknown directive {tokens[0]!r}")

    if not saw_header:
        raise ParseError(None, "missing header 'onepl 1'")
    for vid, _ in vertices:
        if vid not in rotations:
            raise ParseError(None, f"missing rotation for vertex {vid!r}")
    return Diagram(
        vertices=tuple(vertices),
        rotations=tuple(rotations[vid] for vid, _ in vertices),
    )


def serialize(d: Diagram) -> str:
    """Render ``d`` in the canonical byte-stable document form."""
    if not d.vertices:
        raise EmptyDiagram("cannot serialize a diagram with no vertices")
    lines = ["onepl 1"]
    for vid, kind in d.vertices:
        lines.append(f"vertex {vid} {kind}")
    for vid, rot in zip(d.vertex_ids, d.rotations):
        lines.append("rot " + " ".join((vid,) + rot))
    return "\n".join(lines) + "\n"


def _reference_violations(d: Diagram) -> List[Tuple[str, Tuple[str, ...], str]]:
    """Declarations that the other checks rely on: one rotation per
    vertex, unique ids, known kinds, and rotations naming declared
    vertices only."""
    violations: List[Tuple[str, Tuple[str, ...], str]] = []
    if len(d.rotations) != len(d.vertices):
        violations.append(
            ("RotationCount", (),
             f"{len(d.vertices)} vertices but {len(d.rotations)} rotations")
        )
    declared = set()
    for vid, kind in d.vertices:
        if vid in declared:
            violations.append(("DuplicateVertex", (vid,), f"vertex {vid} is declared twice"))
        declared.add(vid)
        if kind not in (TRUE, CROSSING):
            violations.append(
                ("UnknownKind", (vid,), f"vertex {vid} has kind {kind!r}, expected true or crossing")
            )
    for vid, rot in zip(d.vertex_ids, d.rotations):
        for u in rot:
            if u not in declared:
                violations.append(
                    ("UndeclaredVertex", (vid, u), f"{u} in rotation of {vid} is not a declared vertex")
                )
    return violations


def _rotation_violations(d: Diagram) -> List[Tuple[str, Tuple[str, ...], str]]:
    """Self-loops and rotation entries without a unique matching entry.

    Each rotation is counted once, so the check is linear in the number of
    darts even around high-degree vertices.
    """
    own_counts = [Counter(rot) for rot in d.rotations]
    counts = dict(zip(d.vertex_ids, own_counts))
    violations: List[Tuple[str, Tuple[str, ...], str]] = []
    for vid, rot, own in zip(d.vertex_ids, d.rotations, own_counts):
        for u in rot:
            if u == vid:
                violations.append(("SelfLoop", (vid,), f"{vid} appears in its own rotation"))
            elif own[u] != 1 or counts[u][vid] != 1:
                violations.append(
                    ("RotationAsymmetry", (vid, u),
                     f"{u} in rotation of {vid} without a unique matching entry")
                )
    return violations


def _connected(d: Diagram) -> bool:
    if not d.vertices:
        return False
    seen = {d.vertex_ids[0]}
    stack = [d.vertex_ids[0]]
    while stack:
        v = stack.pop()
        for u in d.rotation(v):
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == len(d.vertices)


def validate(d: Diagram) -> ValidationReport:
    """Check every structural invariant of a 1-planar diagram.

    Returns a report; an empty violation list means ``d`` is a valid
    optimal 1-diagram of a connected simple graph.  A diagram whose
    declarations are broken (a rotation naming an undeclared vertex, an
    unknown kind, a repeated id, or a rotation count that differs from
    the vertex count) gets only those violations: every later check
    looks up each neighbour.
    """
    violations: List[Tuple[str, Tuple[str, ...], str]] = []

    if not d.vertices:
        violations.append(("EmptyDiagram", (), "diagram has no vertices"))
        return ValidationReport(tuple(violations))

    violations.extend(_reference_violations(d))
    if violations:
        return ValidationReport(tuple(violations))

    violations.extend(_rotation_violations(d))
    symmetric = not violations

    for c in d.crossing_vertices:
        if d.degree(c) != 4:
            violations.append(
                ("CrossingDegree", (c,), f"crossing vertex {c} has degree {d.degree(c)}, expected 4")
            )
        else:
            for u in d.rotation(c):
                if d.is_crossing(u):
                    violations.append(
                        ("CrossingAdjacency", (c, u), f"crossing vertices {c} and {u} are adjacent")
                    )

    if not _connected(d):
        violations.append(("Disconnected", (), "associated graph is not connected"))

    crossings_ok = all(d.degree(c) == 4 for c in d.crossing_vertices)
    if symmetric and crossings_ok:
        try:
            smooth(d)
        except SmoothingCreatesLoop as exc:
            violations.append(("SmoothingCreatesLoop", (), str(exc)))
        except SmoothingCreatesMultiEdge as exc:
            violations.append(("SmoothingCreatesMultiEdge", (), str(exc)))

    if symmetric:
        from . import embedding  # deferred: embedding depends on this module

        fs = embedding.trace_faces(d)
        n_v = len(d.vertices)
        n_e = d.num_edges
        n_f = len(fs.faces)
        if n_v - n_e + n_f != 2:
            violations.append(
                ("EulerViolation", (),
                 f"|V| - |E| + |F| = {n_v} - {n_e} + {n_f} = {n_v - n_e + n_f}, expected 2")
            )

    return ValidationReport(tuple(violations))


def smooth(d: Diagram) -> SimpleGraph:
    """Suppress all crossing vertices, recovering the original graph G.

    Opposite entries of a crossing's rotation are halves of the same
    original edge, so a crossing with rotation (a, b, a', b') turns into
    the edges a-a' and b-b'.
    """
    edges: set = set()
    for vid, rot in zip(d.vertex_ids, d.rotations):
        if d.is_crossing(vid):
            continue
        for u in rot:
            if not d.is_crossing(u):
                edges.add(frozenset((vid, u)))
    for c in d.crossing_vertices:
        rot = d.rotation(c)
        if len(rot) != 4:
            raise DiagramError(f"crossing vertex {c} has degree {len(rot)}, cannot smooth")
        for a, b in ((rot[0], rot[2]), (rot[1], rot[3])):
            if a == b:
                raise SmoothingCreatesLoop(f"crossed edge at {c} has both ends at {a}")
            e = frozenset((a, b))
            if e in edges:
                raise SmoothingCreatesMultiEdge(
                    f"edge {a}-{b} recovered at crossing {c} duplicates an existing edge"
                )
            edges.add(e)
    return SimpleGraph(vertices=d.true_vertices, edges=frozenset(edges))


def true_degrees(d: Diagram) -> Dict[str, int]:
    """Degree in G of every true vertex (its rotation length)."""
    return {vid: d.degree(vid) for vid in d.true_vertices}


def min_true_degree(d: Diagram) -> int:
    return min(true_degrees(d).values())
