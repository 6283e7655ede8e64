import io
import re
from fractions import Fraction

import pytest

from oneplanar import charge
from oneplanar.cli import run
from oneplanar.construct import GlueSpec, fixture, glue
from oneplanar.diagram import parse, serialize


@pytest.fixture
def write_diagram(tmp_path):
    def _write(d, name="input.onepl"):
        path = tmp_path / name
        path.write_text(serialize(d), encoding="utf-8")
        return str(path)

    return _write


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def test_validate_ok(write_diagram, k6):
    code, out, err = invoke(["validate", write_diagram(k6)])
    assert (code, out, err) == (0, "ok\n", "")


def two_triangles():
    from oneplanar.diagram import Diagram

    return Diagram(
        vertices=tuple((v, "true") for v in "abcpqr"),
        rotations=(("b", "c"), ("c", "a"), ("a", "b"),
                   ("q", "r"), ("r", "p"), ("p", "q")),
    )


def test_validate_failure(write_diagram):
    code, out, err = invoke(["validate", write_diagram(two_triangles())])
    assert code == 1
    assert out.startswith("violation ")


def test_missing_file_is_usage_error():
    code, out, err = invoke(["validate", "/nonexistent/xx.onepl"])
    assert code == 2
    assert err.startswith("error: ")


def test_bad_subcommand():
    code, _, err = invoke(["frobnicate", "x"])
    assert code == 2
    assert "error:" in err


def test_faces_output(write_diagram, tetra):
    code, out, _ = invoke(["faces", write_diagram(tetra)])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4
    assert all(line.startswith("face ") and "deg=3 class=true3" in line for line in lines)


def test_faces_classes_k6(write_diagram, k6):
    code, out, _ = invoke(["faces", write_diagram(k6)])
    assert code == 0
    lines = out.splitlines()
    assert sum("class=false3" in l for l in lines) == 12
    assert sum("class=true3" in l for l in lines) == 2


def test_smooth_output(write_diagram, k6):
    code, out, _ = invoke(["smooth", write_diagram(k6)])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 15
    assert lines == sorted(lines)
    assert lines[0].startswith("edge ")


def test_charge_totals(write_diagram, k6):
    path = write_diagram(k6)
    code, out, _ = invoke(["charge", "--scheme", "A", path])
    assert code == 0
    assert out.splitlines()[-1] == "total=-12/1"
    code, out, _ = invoke(["charge", "--scheme", "B", path])
    assert code == 0
    assert out.splitlines()[-1] == "total=-8/1"


def test_charge_lines_are_rationals(write_diagram, tetra):
    code, out, _ = invoke(["charge", "--scheme", "A", write_diagram(tetra)])
    assert code == 0
    body = out.splitlines()[:-1]
    assert [l.split()[1] for l in body][:4] == ["v:a", "v:b", "v:c", "v:d"]
    assert all(l.split()[2].count("/") == 1 for l in body)


def test_discharge_conserves_total(write_diagram, corpus):
    path = write_diagram(corpus["k6_ab2"])
    for rules, total in (("A", "-12/1"), ("B", "-8/1"), ("C", "-8/1")):
        code, out, _ = invoke(["discharge", "--rules", rules, path])
        assert code == 0
        first = out.splitlines()[0]
        assert first == f"total_initial={total} total_final={total}"


def test_discharge_log_replays(write_diagram, corpus):
    from fractions import Fraction

    d = corpus["k6_ab2"]
    path = write_diagram(d)
    code, out, _ = invoke(["discharge", "--rules", "B", "--log", path])
    assert code == 0
    lines = out.splitlines()
    negatives = {}
    moved = {}
    for line in lines:
        tok = line.split()
        if tok[0] == "negative":
            negatives[tok[1]] = Fraction(tok[2])
        elif tok[0] == "transfer":
            _, _, src, dst, amount, _ = tok
            moved[src] = moved.get(src, Fraction(0)) - Fraction(amount)
            moved[dst] = moved.get(dst, Fraction(0)) + Fraction(amount)
    assert negatives and moved
    # replaying the printed log against the printed initial charges must
    # reproduce the printed negatives
    _, charge_out, _ = invoke(["charge", "--scheme", "B", path])
    initial = {}
    for line in charge_out.splitlines()[:-1]:
        _, el, value = line.split()
        initial[el] = Fraction(value)
    final = {el: initial[el] + moved.get(el, Fraction(0)) for el in initial}
    assert {el: c for el, c in final.items() if c < 0} == negatives


def test_find_catalog_pattern(write_diagram, k6):
    code, out, _ = invoke(["find", "--pattern", "paw_9max", write_diagram(k6)])
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "count=180"
    assert all(l.startswith("match a=") for l in lines[:-1])


def test_find_limit(write_diagram, k6):
    code, out, _ = invoke(
        ["find", "--pattern", "paw_9max", "--limit", "3", write_diagram(k6)]
    )
    assert code == 0
    assert out.splitlines()[-1] == "count=3"


def test_find_negative_limit(write_diagram, k6):
    code, out, err = invoke(
        ["find", "--pattern", "paw_9max", "--limit", "-1", write_diagram(k6)]
    )
    assert (code, out, err) == (2, "", "error: --limit must be >= 0\n")


def test_find_unknown_pattern(write_diagram, k6):
    code, _, err = invoke(["find", "--pattern", "nope", write_diagram(k6)])
    assert code == 2
    assert "unknown pattern" in err


def test_find_pattern_file(write_diagram, k6, tmp_path):
    pf = tmp_path / "triangle.pat"
    pf.write_text(
        "# any triangle\n"
        "pvertex a 0 inf\n"
        "pvertex b 0 inf\n"
        "pvertex c 0 5\n"
        "pedge a b\npedge b c\npedge a c\n",
        encoding="utf-8",
    )
    code, out, _ = invoke(["find", "--pattern-file", str(pf), write_diagram(k6)])
    assert code == 0
    assert out.splitlines()[-1] == "count=20"  # C(6,3) triangles in K6


def test_find_bad_pattern_file(write_diagram, k6, tmp_path):
    pf = tmp_path / "bad.pat"
    pf.write_text("pvortex a 0 inf\n", encoding="utf-8")
    code, _, err = invoke(["find", "--pattern-file", str(pf), write_diagram(k6)])
    assert code == 2
    assert "expected pvertex/pedge" in err


def test_glue_round_trip(write_diagram, k6):
    code, out, _ = invoke(
        ["glue", "--w1", "a", "--w2", "b", "--face", "0", "-n", "2", write_diagram(k6)]
    )
    assert code == 0
    glued = parse(out)
    assert glued == glue(GlueSpec(fixture("k6"), "a", "b", 0, 2))


def test_glue_bad_anchor(write_diagram, k6):
    code, _, err = invoke(
        ["glue", "--w1", "a", "--w2", "x1", "--face", "0", "-n", "2", write_diagram(k6)]
    )
    assert code == 2
    assert "crossing" in err


def test_check_theorems_low_degree(write_diagram, k6):
    code, _, err = invoke(["check-theorems", write_diagram(k6)])
    assert code == 2
    assert "minimum true-degree is 5" in err


def test_check_theorems_invalid_input(write_diagram):
    code, out, _ = invoke(["check-theorems", write_diagram(two_triangles())])
    assert code == 1
    assert out.startswith("violation ")


def test_output_is_byte_stable(write_diagram, corpus):
    path = write_diagram(corpus["k6_ab2"])
    for argv in (
        ["faces", path],
        ["charge", "--scheme", "B", path],
        ["discharge", "--rules", "C", "--log", path],
        ["find", "--pattern", "edge_77", path],
    ):
        first = invoke(argv)
        second = invoke(argv)
        assert first == second, argv


def test_console_script_entry_point():
    import subprocess

    proc = subprocess.run(
        ["onepl", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "1-planar diagram toolkit" in proc.stdout


def test_check_theorems_reports_discharge_failure(monkeypatch, pentakis7_path):
    # an over-paying B clause drives 8+-vertices negative; that is a FAIL
    # line, not a crash in witness extraction
    monkeypatch.setattr(charge, "b2cde_amount", lambda k: Fraction(5))
    code, out, err = invoke(["check-theorems", pentakis7_path])
    assert (code, err) == (1, "")
    assert re.search(r"^FAIL discharge_B non-7-vertex \S+ negative \(-\d+\)", out, re.M)
    assert "PASS discharge_A" in out and "PASS discharge_C" in out
