import io
import random
from collections import Counter

import pytest

from oneplanar import embedding
from oneplanar.cli import run
from oneplanar.construct import GlueSpec, fixture, glue
from oneplanar.diagram import Diagram, parse, smooth
from oneplanar.embedding import (
    BIG,
    FALSE_TRIANGLE,
    TRUE_TRIANGLE,
    PreconditionNotTriangulated,
    classify,
    euler_check,
    false_triangle_parity,
    incident_faces,
    trace_faces,
)


def test_tetrahedron_faces(tetra):
    fs = trace_faces(tetra)
    assert len(fs.faces) == 4
    assert all(f.degree == 3 for f in fs.faces)
    assert all(classify(tetra, f) == TRUE_TRIANGLE for f in fs.faces)


def test_c4_faces(corpus):
    fs = trace_faces(corpus["c4"])
    assert [f.degree for f in fs.faces] == [4, 4]
    assert all(classify(corpus["c4"], f) == BIG for f in fs.faces)


def test_k6_face_count(k6):
    fs = trace_faces(k6)
    assert len(fs.faces) == 14  # 2 - 9 + 21


def test_face_ids_canonical(k6):
    fs = trace_faces(k6)
    assert [f.face_id for f in fs.faces] == list(range(len(fs.faces)))
    keys = [(k6.index(f.boundary[0].tail), f.boundary[0].head_index) for f in fs.faces]
    assert keys == sorted(keys)


def test_darts_partition_into_faces(corpus):
    for name, d in corpus.items():
        fs = trace_faces(d)
        darts = [dart for f in fs.faces for dart in f.boundary]
        assert len(darts) == len(set(darts)) == 2 * d.num_edges, name


def test_face_degree_sum(corpus):
    for name, d in corpus.items():
        fs = trace_faces(d)
        assert sum(f.degree for f in fs.faces) == 2 * d.num_edges, name


def test_euler_check_corpus(corpus):
    for name, d in corpus.items():
        fs = trace_faces(d)
        assert euler_check(d, fs), name


def test_euler_check_disconnected_fails():
    d = Diagram(
        vertices=tuple((v, "true") for v in "abcpqr"),
        rotations=(("b", "c"), ("c", "a"), ("a", "b"),
                   ("q", "r"), ("r", "p"), ("p", "q")),
    )
    assert not euler_check(d, trace_faces(d))


def test_triangle_crossing_count(corpus):
    # a 3-face never contains two crossing vertices
    for name, d in corpus.items():
        fs = trace_faces(d)
        for f in fs.faces:
            if f.degree == 3:
                n = sum(1 for v in f.corners if d.is_crossing(v))
                assert n <= 1, (name, f.face_id)


def test_classify_false_triangles_k6(k6):
    fs = trace_faces(k6)
    classes = [classify(k6, f) for f in fs.faces]
    assert BIG not in classes
    assert classes.count(FALSE_TRIANGLE) == 4 * 3  # four angles per crossing
    assert classes.count(TRUE_TRIANGLE) == 14 - 12


def test_incident_faces_tetrahedron(tetra):
    fs = trace_faces(tetra)
    for v in tetra.vertex_ids:
        fids = incident_faces(tetra, fs, v)
        assert len(fids) == 3
        assert len(set(fids)) == 3  # no face meets a vertex twice here


def test_incident_faces_multiplicity(corpus):
    for name, d in corpus.items():
        fs = trace_faces(d)
        for v in d.vertex_ids:
            assert len(incident_faces(d, fs, v)) == d.degree(v), (name, v)


def test_incident_faces_unknown_vertex(tetra):
    with pytest.raises(KeyError):
        incident_faces(tetra, trace_faces(tetra), "zz")


def test_false_triangle_bound(corpus):
    # every true vertex sees at most 2*floor(deg/2) false 3-faces
    for name, d in corpus.items():
        fs = trace_faces(d)
        for v in d.true_vertices:
            n = sum(
                1
                for fid in incident_faces(d, fs, v)
                if classify(d, fs.faces[fid]) == FALSE_TRIANGLE
            )
            assert n <= 2 * (d.degree(v) // 2), (name, v)


def test_false_triangle_parity(corpus):
    for name, d in corpus.items():
        fs = trace_faces(d)
        for v in d.true_vertices:
            try:
                n = false_triangle_parity(d, fs, v)
            except PreconditionNotTriangulated:
                continue
            assert n % 2 == 0, (name, v)


def test_false_triangle_parity_values(tetra, k6):
    fs = trace_faces(tetra)
    assert all(false_triangle_parity(tetra, fs, v) == 0 for v in tetra.vertex_ids)
    fs = trace_faces(k6)
    counts = [false_triangle_parity(k6, fs, v) for v in k6.true_vertices]
    assert all(n % 2 == 0 for n in counts)
    assert any(n > 0 for n in counts)


def test_false_triangle_parity_precondition(corpus):
    c4 = corpus["c4"]
    fs = trace_faces(c4)
    with pytest.raises(PreconditionNotTriangulated):
        false_triangle_parity(c4, fs, "a")


def renamed(d, rng):
    names = [f"n{i}" for i in range(len(d.vertices))]
    rng.shuffle(names)
    name = dict(zip(d.vertex_ids, names))
    return Diagram(
        vertices=tuple((name[v], kind) for v, kind in d.vertices),
        rotations=tuple(tuple(name[u] for u in rot) for rot in d.rotations),
    ), name


def shuffled(d, rng):
    order = list(range(len(d.vertices)))
    rng.shuffle(order)
    return Diagram(
        vertices=tuple(d.vertices[i] for i in order),
        rotations=tuple(d.rotations[i] for i in order),
    )


def shifted(d, rng):
    def shift(rot):
        k = rng.randrange(len(rot)) if rot else 0
        return rot[k:] + rot[:k]

    return Diagram(vertices=d.vertices, rotations=tuple(shift(rot) for rot in d.rotations))


def cyclic_boundaries(fs, name=lambda v: v):
    """Face boundaries as corner cycles, each read from its smallest name."""
    out = []
    for f in fs.faces:
        corners = [name(v) for v in f.corners]
        k = min(range(len(corners)), key=lambda i: (corners[i:] + corners[:i]))
        out.append(tuple(corners[k:] + corners[:k]))
    return Counter(out)


def check_trace(d):
    fs = trace_faces(d)
    key = lambda dart: (d.index(dart.tail), dart.head_index)
    assert [f.face_id for f in fs.faces] == list(range(len(fs.faces)))
    # ids follow the smallest-dart order, and each boundary starts there
    firsts = [key(f.boundary[0]) for f in fs.faces]
    assert firsts == sorted(firsts) and len(set(firsts)) == len(firsts)
    for f in fs.faces:
        assert f.boundary[0] == min(f.boundary, key=key)
        # consecutive darts follow the successor rule
        for dart, nxt in zip(f.boundary, f.boundary[1:] + f.boundary[:1]):
            head = d.rotation(dart.tail)[dart.head_index]
            rot = d.rotation(head)
            assert nxt == (head, (rot.index(dart.tail) + 1) % len(rot))
    darts = Counter(dart for f in fs.faces for dart in f.boundary)
    assert set(darts.values()) == {1}
    assert set(darts) == {(v, i) for v in d.vertex_ids for i in range(d.degree(v))}
    assert len(d.vertices) - d.num_edges + len(fs.faces) == 2
    return fs


def tracer_inputs(corpus, pentakis7):
    yield from corpus.items()
    yield "pentakis7", pentakis7
    yield "k6_ab3", glue(GlueSpec(fixture("k6"), "a", "b", 0, 3))


def test_tracer_order_and_partition(corpus, pentakis7):
    rng = random.Random(7)
    for name, d in tracer_inputs(corpus, pentakis7):
        faces = cyclic_boundaries(check_trace(d))
        for _ in range(3):
            copy, rename = renamed(d, rng)
            back = {new: old for old, new in rename.items()}
            assert cyclic_boundaries(check_trace(copy), back.__getitem__) == faces, name
            assert cyclic_boundaries(check_trace(shuffled(d, rng))) == faces, name
            assert cyclic_boundaries(check_trace(shifted(d, rng))) == faces, name


def test_faces_traced_once_per_diagram(monkeypatch, pentakis7_path):
    traced = []
    real = embedding._trace
    monkeypatch.setattr(embedding, "_trace", lambda d: traced.append(d) or real(d))
    for argv in (["discharge", "--rules", "B", pentakis7_path],
                 ["faces", pentakis7_path],
                 ["check-theorems", pentakis7_path]):
        traced.clear()
        assert run(argv, stdout=io.StringIO(), stderr=io.StringIO()) == 0
        assert len(traced) == 1, argv
    with open(pentakis7_path, encoding="utf-8") as fh:
        d = parse(fh.read())
    assert trace_faces(d) is trace_faces(d)
    assert len(traced) == 2
