from pathlib import Path

import pytest

from oneplanar.construct import FIXTURE_NAMES, GlueSpec, fixture, glue
from oneplanar.diagram import parse

# Seeded min-degree-7 pentakis dodecahedron with 24 crossings
# (`python3 onepl_bench/gen.py --seed 1`); every guarantee check passes.
PENTAKIS7 = Path(__file__).parent / "data" / "pentakis7.onepl"


def build_corpus():
    """Base fixtures plus glued variants used throughout the suite."""
    base = {name: fixture(name) for name in FIXTURE_NAMES}
    tetra_cd3 = glue(GlueSpec(base["tetrahedron"], "c", "d", 1, 3))
    corpus = dict(base)
    corpus["tetra_ab2"] = glue(GlueSpec(base["tetrahedron"], "a", "b", 0, 2))
    corpus["tetra_cd3"] = tetra_cd3
    corpus["c4_ac3"] = glue(GlueSpec(base["c4"], "a", "c", 0, 3))
    corpus["k5_ab2"] = glue(GlueSpec(base["k5"], "a", "b", 0, 2))
    corpus["k6_ab2"] = glue(GlueSpec(base["k6"], "a", "b", 0, 2))
    corpus["k6_ab4"] = glue(GlueSpec(base["k6"], "a", "b", 0, 4))
    # second-level glue: produces 7- and 9-vertices, exercising the
    # degree-conditional transfer clauses
    from oneplanar.embedding import trace_faces

    fs = trace_faces(tetra_cd3)
    fid = next(
        f.face_id for f in fs.faces if "a__1" in f.corners and "b__1" in f.corners
    )
    corpus["tetra_deep"] = glue(GlueSpec(tetra_cd3, "a__1", "b__1", fid, 4))
    return corpus


@pytest.fixture(scope="session")
def corpus():
    return build_corpus()


@pytest.fixture(scope="session")
def tetra(corpus):
    return corpus["tetrahedron"]


@pytest.fixture(scope="session")
def k5(corpus):
    return corpus["k5"]


@pytest.fixture(scope="session")
def k6(corpus):
    return corpus["k6"]


@pytest.fixture(scope="session")
def pentakis7_path():
    return str(PENTAKIS7)


@pytest.fixture(scope="session")
def pentakis7():
    return parse(PENTAKIS7.read_text(encoding="utf-8"))
