"""Gluing construction and the built-in fixture corpus.

``glue`` makes n copies of a base diagram and identifies two chosen true
vertices across all copies, arranging the copies fan-wise inside the
chosen face.  The fixture rotation systems were derived from concrete
straight-line drawings (K5 with one crossing, K6 with three).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from .diagram import CROSSING, TRUE, Diagram
from .embedding import trace_faces


class UnknownFixture(Exception):
    pass


class NotOnFace(Exception):
    """A glue anchor vertex is not on the chosen face's boundary."""


class NotTrueVertex(Exception):
    pass


class DegreeTooSmall(Exception):
    """The first glue anchor must have degree at least 2."""


_FIXTURES: Dict[str, Tuple[Tuple[Tuple[str, str], ...], Tuple[Tuple[str, ...], ...]]] = {
    "tetrahedron": (
        (("a", "true"), ("b", "true"), ("c", "true"), ("d", "true")),
        (("c", "d", "b"), ("a", "d", "c"), ("b", "d", "a"), ("c", "b", "a")),
    ),
    "c4": (
        (("a", "true"), ("b", "true"), ("c", "true"), ("d", "true")),
        (("b", "d"), ("a", "c"), ("d", "b"), ("a", "c")),
    ),
    "k5": (
        (("a", "true"), ("b", "true"), ("c", "true"), ("d", "true"), ("e", "true"),
         ("x1", "crossing")),
        (("c", "x1", "e", "b"), ("a", "e", "d", "c"), ("b", "d", "x1", "a"),
         ("c", "b", "e", "x1"), ("x1", "d", "b", "a"), ("c", "d", "e", "a")),
    ),
    "k6": (
        (("a", "true"), ("b", "true"), ("c", "true"), ("d", "true"), ("e", "true"),
         ("f", "true"), ("x1", "crossing"), ("x2", "crossing"), ("x3", "crossing")),
        (("x1", "f", "e", "x2", "b"), ("c", "x1", "a", "x2", "d"),
         ("d", "x3", "f", "x1", "b"), ("b", "x2", "e", "x3", "c"),
         ("f", "x3", "d", "x2", "a"), ("c", "x3", "e", "a", "x1"),
         ("c", "f", "a", "b"), ("a", "e", "d", "b"), ("f", "c", "d", "e")),
    ),
}

FIXTURE_NAMES = tuple(_FIXTURES)


def fixture(name: str) -> Diagram:
    """Return a built-in valid diagram: tetrahedron, c4, k5 or k6."""
    try:
        vertices, rotations = _FIXTURES[name]
    except KeyError:
        raise UnknownFixture(f"unknown fixture {name!r}, expected one of {FIXTURE_NAMES}")
    return Diagram(vertices=vertices, rotations=rotations)


@dataclass(frozen=True)
class GlueSpec:
    base: Diagram
    w1: str
    w2: str
    face_id: int
    n: int


def _cut_rotation(base: Diagram, boundary, w: str) -> Tuple[str, ...]:
    """Linearize rotation(w) starting just after the face corner at w."""
    for dart in boundary:
        if dart.tail == w:
            rot = base.rotation(w)
            i = dart.head_index
            return rot[i:] + rot[:i]
    raise NotOnFace(f"vertex {w} is not on the chosen face's boundary")


def glue(spec: GlueSpec) -> Diagram:
    """Identify w1 and w2 across n copies of the base diagram.

    Per-copy rotations at the shared vertices are cut at the chosen face
    corner and concatenated in copy order.  A w1-w2 edge of the original
    graph (direct or crossed) is kept in copy 1 only.
    """
    base, w1, w2, n = spec.base, spec.w1, spec.w2, spec.n
    if n < 1:
        raise ValueError("n must be >= 1")
    if w1 == w2:
        raise ValueError("glue anchors must be distinct")
    for w in (w1, w2):
        if not base.has_vertex(w):
            raise KeyError(f"unknown vertex {w!r}")
        if base.is_crossing(w):
            raise NotTrueVertex(f"glue anchor {w} is a crossing vertex")
    if base.degree(w1) < 2:
        raise DegreeTooSmall(f"deg({w1}) = {base.degree(w1)}, need >= 2")

    fs = trace_faces(base)
    if not 0 <= spec.face_id < len(fs.faces):
        raise NotOnFace(f"no face with id {spec.face_id}")
    boundary = fs.faces[spec.face_id].boundary

    cut1 = _cut_rotation(base, boundary, w1)
    cut2 = _cut_rotation(base, boundary, w2)

    # the w1-w2 edge of G, if any: direct, or realized through a crossing
    direct_edge = w2 in base.rotation(w1)
    link_crossing = None
    if not direct_edge:
        for c in base.crossing_vertices:
            rot = base.rotation(c)
            if {rot[0], rot[2]} == {w1, w2} or {rot[1], rot[3]} == {w1, w2}:
                link_crossing = c
                break

    def rename(v: str, i: int) -> str:
        return v if v in (w1, w2) else f"{v}__{i}"

    vertices: List[Tuple[str, str]] = [(w1, TRUE), (w2, TRUE)]
    rotations: Dict[str, List[str]] = {w1: [], w2: []}

    for i in range(1, n + 1):
        drop_link = i > 1 and (direct_edge or link_crossing is not None)
        for vid, kind in base.vertices:
            if vid in (w1, w2):
                continue
            if drop_link and vid == link_crossing:
                continue
            new_id = rename(vid, i)
            rot = [rename(u, i) for u in base.rotation(vid)]
            if drop_link and link_crossing is not None:
                cname = rename(link_crossing, i)
                if cname in rot:
                    # vid is an endpoint of the edge crossed by w1-w2:
                    # splice that edge straight through the dropped crossing
                    crot = base.rotation(link_crossing)
                    j = crot.index(vid)
                    other = rename(crot[(j + 2) % 4], i)
                    rot[rot.index(cname)] = other
            vertices.append((new_id, kind))
            rotations[new_id] = rot
        for w, cut in ((w1, cut1), (w2, cut2)):
            block = [rename(u, i) for u in cut]
            if drop_link:
                dropped = w2 if w == w1 else w1
                target = dropped if direct_edge else rename(link_crossing, i)
                block = [u for u in block if u != target]
            if w == w1:
                rotations[w].extend(block)
            else:
                # copies appear in opposite cyclic order around the two
                # anchors, so later copies are prepended at w2
                rotations[w][0:0] = block

    return Diagram(
        vertices=tuple(vertices),
        rotations=tuple(tuple(rotations[vid]) for vid, _ in vertices),
    )
