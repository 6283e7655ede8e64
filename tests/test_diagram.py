import pytest

from oneplanar.diagram import (
    Diagram,
    EmptyDiagram,
    ParseError,
    SmoothingCreatesLoop,
    SmoothingCreatesMultiEdge,
    parse,
    serialize,
    smooth,
    true_degrees,
    validate,
)

TETRA_DOC = """\
onepl 1
vertex a true
vertex b true
vertex c true
vertex d true
rot a c d b
rot b a d c
rot c b d a
rot d c b a
"""


def test_parse_tetrahedron():
    d = parse(TETRA_DOC)
    assert len(d.vertices) == 4
    assert all(kind == "true" for _, kind in d.vertices)
    assert all(len(rot) == 3 for rot in d.rotations)


def test_parse_ignores_comments_and_blank_lines():
    doc = "# drawing\nonepl 1\n\nvertex a true # only vertex\nrot a\n"
    d = parse(doc)
    assert d.vertex_ids == ("a",)


def test_parse_keeps_declaration_and_rotation_order():
    d = parse(TETRA_DOC)
    assert d.vertex_ids == ("a", "b", "c", "d")
    assert d.rotation("b") == ("a", "d", "c")


def test_parse_crossing_with_wrong_degree_is_deferred_to_validate():
    doc = "onepl 1\nvertex a true\nvertex b true\nvertex c crossing\n" \
          "rot a b c\nrot b c a\nrot c a b\n"
    d = parse(doc)  # parses fine
    report = validate(d)
    assert not report.ok
    assert any(code == "CrossingDegree" for code, _, _ in report.violations)


@pytest.mark.parametrize(
    "doc,fragment",
    [
        ("onepl 2\n", "onepl 1"),
        ("onepl 1\nvertex a true\nvertex a true\nrot a\n", "duplicate vertex"),
        ("onepl 1\nvertex a true\nrot a b\n", "unknown vertex"),
        ("onepl 1\nvertex a true\nvertex b true\nrot a b b\nrot b a\n", "DuplicateNeighbor"),
        ("onepl 1\nvertex a true\nrot a a\n", "SelfNeighbor"),
        ("onepl 1\nvertex a true\nrot a\nrot a\n", "duplicate rotation"),
        ("onepl 1\nvertex a true\n", "missing rotation"),
        ("onepl 1\nrot a\n", "undeclared"),
        ("onepl 1\nfoo a\n", "unknown directive"),
    ],
)
def test_parse_errors(doc, fragment):
    with pytest.raises(ParseError, match=fragment):
        parse(doc)


def test_parse_error_carries_line_number():
    with pytest.raises(ParseError) as err:
        parse("onepl 1\nvertex a true\nvertex a true\nrot a\n")
    assert err.value.line == 3


def test_serialize_round_trip_corpus(corpus):
    for name, d in corpus.items():
        assert parse(serialize(d)) == d, name


def test_serialize_is_byte_stable(k6):
    assert serialize(k6) == serialize(parse(serialize(k6)))


def test_serialize_empty_diagram_rejected():
    with pytest.raises(EmptyDiagram):
        serialize(Diagram(vertices=(), rotations=()))


def test_validate_corpus_ok(corpus):
    for name, d in corpus.items():
        report = validate(d)
        assert report.ok, (name, report.violations)


def test_validate_flags_every_single_rotation_flip(k6):
    ids = k6.vertex_ids
    for vi, rot in enumerate(k6.rotations):
        for ri, old in enumerate(rot):
            for repl in ids:
                if repl in (old, ids[vi]):
                    continue
                rotations = list(k6.rotations)
                new_rot = list(rot)
                new_rot[ri] = repl
                rotations[vi] = tuple(new_rot)
                broken = Diagram(vertices=k6.vertices, rotations=tuple(rotations))
                assert not validate(broken).ok, (ids[vi], ri, repl)


def test_validate_disconnected():
    two_triangles = Diagram(
        vertices=tuple((v, "true") for v in "abcpqr"),
        rotations=(("b", "c"), ("c", "a"), ("a", "b"),
                   ("q", "r"), ("r", "p"), ("p", "q")),
    )
    report = validate(two_triangles)
    assert any(code == "Disconnected" for code, _, _ in report.violations)
    assert any(code == "EulerViolation" for code, _, _ in report.violations)


def test_validate_crossing_adjacency():
    d = Diagram(
        vertices=(("a", "true"), ("b", "true"), ("x", "crossing"), ("y", "crossing")),
        rotations=(("b", "x", "y"), ("a", "y", "x"),
                   ("a", "y", "b", "y"), ("a", "x", "b", "x")),
    )
    report = validate(d)
    assert any(code == "CrossingAdjacency" for code, _, _ in report.violations)


def codes(report):
    return [code for code, _, _ in report.violations]


def test_validate_reports_undeclared_neighbor(k6):
    rotations = (k6.rotations[0] + ("zz",),) + k6.rotations[1:]
    report = validate(Diagram(vertices=k6.vertices, rotations=rotations))
    assert report.violations == (
        ("UndeclaredVertex", ("a", "zz"), "zz in rotation of a is not a declared vertex"),
    )


def test_validate_reports_unknown_kind(k6):
    vertices = (("a", "weird"),) + k6.vertices[1:]
    report = validate(Diagram(vertices=vertices, rotations=k6.rotations))
    assert codes(report) == ["UnknownKind"]
    assert report.violations[0][1] == ("a",)


def test_validate_reports_repeated_id_and_missing_rotation(tetra):
    repeated = Diagram(vertices=tetra.vertices + (("a", "true"),),
                       rotations=tetra.rotations + (tetra.rotations[0],))
    assert codes(validate(repeated)) == ["DuplicateVertex"]
    short = Diagram(vertices=tetra.vertices, rotations=tetra.rotations[:-1])
    assert codes(validate(short)) == ["RotationCount"]


def test_validate_bad_references_skip_later_checks():
    # undeclared neighbours on an otherwise asymmetric, disconnected input:
    # only the reference violations are reported, and nothing raises
    d = Diagram(
        vertices=(("a", "true"), ("b", "odd"), ("c", "true")),
        rotations=(("b", "zz"), ("yy",), ()),
    )
    assert codes(validate(d)) == ["UnknownKind", "UndeclaredVertex", "UndeclaredVertex"]


def test_is_crossing_unknown_vertex(k6):
    assert k6.is_crossing("x1") and not k6.is_crossing("a")
    with pytest.raises(KeyError):
        k6.is_crossing("zz")


def test_smooth_tetrahedron_is_k4(tetra):
    g = smooth(tetra)
    assert len(g.vertices) == 4
    assert g.num_edges == 6


def test_smooth_k6(k6):
    g = smooth(k6)
    assert len(g.vertices) == 6
    assert g.num_edges == 15
    assert all(g.degree(v) == 5 for v in g.vertices)
    # |E(G)| + 2 * #crossings = |E(associated)|
    assert g.num_edges + 2 * len(k6.crossing_vertices) == k6.num_edges


def test_smooth_edge_count_identity(corpus):
    for name, d in corpus.items():
        g = smooth(d)
        assert g.num_edges + 2 * len(d.crossing_vertices) == d.num_edges, name


def test_smooth_multi_edge_error():
    # crossing x recovers edge a-b, which already exists directly
    d = Diagram(
        vertices=(("a", "true"), ("b", "true"), ("p", "true"), ("q", "true"),
                  ("x", "crossing")),
        rotations=(("b", "x"), ("a", "x"), ("x",), ("x",), ("a", "p", "b", "q")),
    )
    with pytest.raises(SmoothingCreatesMultiEdge):
        smooth(d)


def test_smooth_loop_error():
    d = Diagram(
        vertices=(("a", "true"), ("p", "true"), ("q", "true"), ("x", "crossing")),
        rotations=(("x", "x"), ("x",), ("x",), ("a", "p", "a", "q")),
    )
    with pytest.raises(SmoothingCreatesLoop):
        smooth(d)


def test_true_degrees_match_rotation_lengths(corpus):
    for name, d in corpus.items():
        degrees = true_degrees(d)
        g = smooth(d)
        assert set(degrees) == set(d.true_vertices), name
        for v, k in degrees.items():
            assert k == d.degree(v) == g.degree(v), (name, v)


def test_true_degrees_k6(k6):
    assert set(true_degrees(k6).values()) == {5}
