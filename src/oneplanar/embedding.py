"""Face tracing and classification on the rotation system.

Faces are the orbits of the dart successor rule: from the dart u -> v,
the next dart leaves v toward the neighbor immediately after u in the
clockwise rotation of v.  Triangular faces split into true 3-faces (no
crossing corner) and false 3-faces (exactly one crossing corner).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, NamedTuple, Tuple

from .diagram import Diagram

TRUE_TRIANGLE = "true3"
FALSE_TRIANGLE = "false3"
BIG = "big"


class PreconditionNotTriangulated(Exception):
    """A query assumed all incident faces are 3-faces and one is not."""


class Dart(NamedTuple):
    tail: str
    head_index: int


@dataclass(frozen=True)
class Face:
    face_id: int
    boundary: Tuple[Dart, ...]

    @property
    def degree(self) -> int:
        return len(self.boundary)

    @property
    def corners(self) -> Tuple[str, ...]:
        return tuple(dart.tail for dart in self.boundary)


@dataclass(frozen=True)
class FaceSet:
    faces: Tuple[Face, ...]

    @cached_property
    def dart_to_face(self) -> Dict[Dart, int]:
        return {dart: f.face_id for f in self.faces for dart in f.boundary}

    @cached_property
    def dart_position(self) -> Dict[Dart, Tuple[int, int]]:
        """Map each dart to (face_id, position in the canonical boundary)."""
        return {
            dart: (f.face_id, p) for f in self.faces for p, dart in enumerate(f.boundary)
        }


def trace_faces(d: Diagram) -> FaceSet:
    """Decompose all darts into face boundaries, once per diagram.

    The first call traces ``d`` and stores the frozen result on it; later
    calls for the same instance return that same :class:`FaceSet`.  Face
    ids follow the smallest dart of each face, darts ordered by
    (declaration index of tail, head index), and each boundary starts at
    that dart.  Requires a symmetric rotation system whose rotations name
    only declared vertices (what :func:`~oneplanar.diagram.validate`
    checks before it traces).
    """
    fs = d.__dict__.get("_face_set")
    if fs is None:
        fs = d.__dict__["_face_set"] = _trace(d)
    return fs


def _trace(d: Diagram) -> FaceSet:
    # Darts are scanned in (declaration index, head index) order, so the
    # first unseen dart is the smallest of its orbit and orbits are found
    # in face-id order.
    index = {vid: i for i, vid in enumerate(d.vertex_ids)}
    nbrs = [[index[u] for u in rot] for rot in d.rotations]
    pos = [{u: j for j, u in enumerate(rot)} for rot in nbrs]
    seen = [bytearray(len(rot)) for rot in nbrs]
    ids = d.vertex_ids
    faces: List[Face] = []
    for v, rot in enumerate(nbrs):
        for i in range(len(rot)):
            if seen[v][i]:
                continue
            boundary = []
            t, j = v, i
            while not seen[t][j]:
                seen[t][j] = 1
                boundary.append(Dart(ids[t], j))
                h = nbrs[t][j]
                j = pos[h][t] + 1
                if j == len(nbrs[h]):
                    j = 0
                t = h
            faces.append(Face(len(faces), tuple(boundary)))
    return FaceSet(faces=tuple(faces))


def euler_check(d: Diagram, fs: FaceSet) -> bool:
    """True iff |V| - |E| + |F| = 2 (every face an open disc)."""
    return len(d.vertices) - d.num_edges + len(fs.faces) == 2


def classify(d: Diagram, f: Face) -> str:
    if f.degree >= 4:
        return BIG
    n_crossings = sum(1 for v in f.corners if d.is_crossing(v))
    return FALSE_TRIANGLE if n_crossings >= 1 else TRUE_TRIANGLE


def incident_faces(d: Diagram, fs: FaceSet, v: str) -> List[int]:
    """Face ids at v, one per dart leaving v (angle multiplicity counted)."""
    if not d.has_vertex(v):
        raise KeyError(f"unknown vertex {v!r}")
    return [fs.dart_to_face[Dart(v, i)] for i in range(d.degree(v))]


def false_triangle_parity(d: Diagram, fs: FaceSet, v: str) -> int:
    """Number of false 3-faces at a fully triangulated true vertex.

    Under the precondition (every incident face a 3-face) the count is
    always even; callers may assert that.
    """
    classes = [classify(d, fs.faces[fid]) for fid in incident_faces(d, fs, v)]
    if any(cls == BIG for cls in classes):
        raise PreconditionNotTriangulated(f"vertex {v} has an incident big face")
    return sum(1 for cls in classes if cls == FALSE_TRIANGLE)
