"""Independent checks of the benchmark's inputs and of the program's outputs.

Nothing here imports the program.  Diagrams are parsed, smoothed and
face-traced by this module's own code; typed matches are counted with
``networkx``; discharging logs are replayed in ``Fraction`` onto charges
computed from degrees.  Each check returns a list of problems (empty when
the output is right).
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import networkx as nx
from networkx.algorithms.isomorphism import GraphMatcher

Rot = Dict[str, List[str]]
Vertices = List[Tuple[str, str]]


def parse_onepl(text: str) -> Tuple[Vertices, Rot]:
    vertices: Vertices = []
    rot: Rot = {}
    lines = [ln.split("#", 1)[0].split() for ln in text.splitlines()]
    lines = [t for t in lines if t]
    if not lines or lines[0] != ["onepl", "1"]:
        raise ValueError("missing header 'onepl 1'")
    for t in lines[1:]:
        if t[0] == "vertex" and len(t) == 3:
            vertices.append((t[1], t[2]))
        elif t[0] == "rot" and len(t) >= 2:
            rot[t[1]] = t[2:]
        else:
            raise ValueError(f"bad line {' '.join(t)!r}")
    return vertices, rot


def smooth_edges(vertices: Vertices, rot: Rot) -> List[FrozenSet[str]]:
    """Edges of G, with repeats kept so that a multi-edge shows."""
    kind = dict(vertices)
    edges = [frozenset((v, u)) for v, _ in vertices if kind[v] == "true"
             for u in rot[v] if kind[u] == "true" and v < u]
    for c, k in vertices:
        if k == "crossing":
            r = rot[c]
            edges += [frozenset((r[0], r[2])), frozenset((r[1], r[3]))]
    return edges


def graph_of(vertices: Vertices, rot: Rot) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(v for v, k in vertices if k == "true")
    g.add_edges_from(tuple(e) for e in smooth_edges(vertices, rot))
    return g


def trace_faces(vertices: Vertices, rot: Rot) -> List[List[str]]:
    """Face corner sequences in the program's canonical order.

    The dart (v, i) leaves v toward rot[v][i]; its successor leaves the
    head toward the entry after v in the head's rotation.  A face is
    named by its smallest dart under (declaration index, i) and starts
    there; faces are numbered in the order of those darts.
    """
    index = {v: k for k, (v, _) in enumerate(vertices)}
    pos = {v: {u: i for i, u in enumerate(r)} for v, r in rot.items()}
    seen = set()
    faces = []
    for v, _ in vertices:
        for i in range(len(rot[v])):
            if (v, i) in seen:
                continue
            orbit = []
            dart = (v, i)
            while dart not in seen:
                seen.add(dart)
                orbit.append(dart)
                tail, k = dart
                head = rot[tail][k]
                dart = (head, (pos[head][tail] + 1) % len(rot[head]))
            if dart != (v, i):
                raise ValueError("rotation system is not a permutation of darts")
            k = min(range(len(orbit)), key=lambda j: (index[orbit[j][0]], orbit[j][1]))
            faces.append(((index[orbit[k][0]], orbit[k][1]), [t for t, _ in orbit[k:] + orbit[:k]]))
    faces.sort()
    return [corners for _, corners in faces]


def check_diagram(vertices: Vertices, rot: Rot, min_degree: Optional[int]) -> List[str]:
    """Every structural property a valid 1-planar diagram must have."""
    problems = []
    kind = dict(vertices)
    if len(kind) != len(vertices) or set(rot) != set(kind):
        return ["vertex declarations and rotations disagree"]
    for v, r in rot.items():
        if len(set(r)) != len(r) or v in r or any(u not in kind for u in r):
            problems.append(f"rotation of {v} repeats, loops or names unknown vertices")
        elif any(rot[u].count(v) != 1 for u in r):
            problems.append(f"rotation of {v} is not symmetric")
    if problems:
        return problems
    for c, k in vertices:
        if k != "crossing":
            continue
        r = rot[c]
        if len(r) != 4 or any(kind[u] != "true" for u in r):
            problems.append(f"crossing {c} must have four true neighbours")
        elif r[0] == r[2] or r[1] == r[3]:
            problems.append(f"crossing {c} has equal opposite ends")
    if problems:
        return problems
    edges = smooth_edges(vertices, rot)
    if len(set(edges)) != len(edges):
        problems.append("smoothed graph has a multi-edge")
    degrees = {v: len(rot[v]) for v, k in vertices if k == "true"}
    if min_degree is not None and min(degrees.values()) < min_degree:
        problems.append(f"minimum true degree {min(degrees.values())} < {min_degree}")
    planarization = nx.Graph((v, u) for v, r in rot.items() for u in r)
    planarization.add_nodes_from(kind)
    if not nx.is_connected(planarization):
        problems.append("diagram is disconnected")
    if not nx.check_planarity(planarization)[0]:
        problems.append("planarization is not planar")
    n_e = planarization.number_of_edges()
    if len(vertices) - n_e + len(trace_faces(vertices, rot)) != 2:
        problems.append("rotation system is not a sphere embedding (Euler)")
    return problems


# --- typed patterns (the catalog of light subgraphs, stated independently)

PATTERNS: Dict[str, Tuple[Dict[str, Tuple[int, int]], List[Tuple[str, str]]]] = {
    "edge_77": ({"x1": (7, 7), "x2": (7, 7)}, [("x1", "x2")]),
    "k4_typed": (
        {"x1": (7, 7), "x2": (0, 8), "x3": (0, 8), "x4": (0, 10)},
        [("x1", "x2"), ("x1", "x3"), ("x1", "x4"), ("x2", "x3"), ("x2", "x4"), ("x3", "x4")],
    ),
    "star_k17": (
        {"c": (7, 7), **{f"l{i}": (0, 23) for i in range(1, 8)}},
        [("c", f"l{i}") for i in range(1, 8)],
    ),
    "triangle_779": ({"x1": (7, 7), "x2": (7, 7), "x3": (0, 9)},
                     [("x1", "x2"), ("x2", "x3"), ("x1", "x3")]),
    "chorded_c4": (
        {"x1": (7, 7), "x2": (0, 9), "x3": (7, 7), "x4": (0, 9)},
        [("x1", "x2"), ("x2", "x3"), ("x3", "x4"), ("x4", "x1"), ("x1", "x3")],
    ),
    "paw_9max": ({v: (0, 9) for v in "abcd"}, [("a", "b"), ("a", "c"), ("a", "d"), ("c", "d")]),
}

MatchKey = Tuple[FrozenSet[str], FrozenSet[FrozenSet[str]]]


def _key(edges, m: Dict[str, str]) -> MatchKey:
    return frozenset(m.values()), frozenset(frozenset((m[a], m[b])) for a, b in edges)


def _matcher(g: nx.Graph, name: str) -> GraphMatcher:
    bounds, edges = PATTERNS[name]
    p = nx.Graph(edges)
    for pv, (lo, hi) in bounds.items():
        p.nodes[pv]["lo"], p.nodes[pv]["hi"] = lo, hi
    for v in g:
        g.nodes[v]["deg"] = g.degree(v)
    return GraphMatcher(g, p, node_match=lambda gv, pv: pv["lo"] <= gv["deg"] <= pv["hi"])


def match_keys(g: nx.Graph, name: str) -> set:
    """Image-distinct typed matches, by VF2 monomorphism enumeration."""
    edges = PATTERNS[name][1]
    return {_key(edges, {pv: hv for hv, pv in m.items()})
            for m in _matcher(g, name).subgraph_monomorphisms_iter()}


def has_match(g: nx.Graph, name: str) -> bool:
    return next(_matcher(g, name).subgraph_monomorphisms_iter(), None) is not None


def check_find(out: str, name: str, g: nx.Graph, expected: set) -> List[str]:
    bounds, edges = PATTERNS[name]
    lines = out.splitlines()
    if not lines or not lines[-1].startswith("count="):
        return ["find output does not end with count="]
    problems = []
    keys = set()
    for line in lines[:-1]:
        parts = line.split()
        m = dict(p.split("=", 1) for p in parts[1:])
        if parts[0] != "match" or list(m) != list(bounds):
            problems.append(f"malformed line {line!r}")
        elif len(set(m.values())) != len(m) or any(h not in g for h in m.values()):
            problems.append(f"not injective into G: {line!r}")
        elif any(not lo <= g.degree(m[pv]) <= hi for pv, (lo, hi) in bounds.items()):
            problems.append(f"degree bound broken: {line!r}")
        elif any(not g.has_edge(m[a], m[b]) for a, b in edges):
            problems.append(f"pattern edge missing in G: {line!r}")
        else:
            keys.add(_key(edges, m))
        if len(problems) > 3:
            break
    if int(lines[-1][6:]) != len(lines) - 1 or len(keys) != len(lines) - 1:
        problems.append("count line, match lines and distinct images disagree")
    if keys != expected:
        problems.append(f"{len(keys)} matches printed, networkx finds {len(expected)}")
    return problems


# --- check-theorems -------------------------------------------------------

THEOREM_LINES = [f"pattern_{p}" for p in PATTERNS] + [f"discharge_{r}" for r in "ABC"]
_WITNESSES = re.compile(r"^(\d+) negative element\(s\), (\d+) verified witness\(es\)$")


def check_theorems(out: str) -> List[str]:
    rows = [ln.split(" ", 2) for ln in out.splitlines()]
    if [r[1] if len(r) == 3 else None for r in rows] != THEOREM_LINES:
        return [f"expected the nine lines {THEOREM_LINES}, got {out!r}"]
    problems = []
    for status, name, detail in rows:
        ln = f"{status} {name} {detail}"
        if status != "PASS":
            problems.append(ln)
        if name.startswith("discharge_"):
            m = _WITNESSES.match(detail)
            if not m or m.group(1) != m.group(2) or int(m.group(1)) == 0:
                problems.append(f"witnesses do not cover every negative element: {ln}")
    return problems


# --- hub commands ---------------------------------------------------------

def check_faces(out: str, vertices: Vertices, rot: Rot) -> List[str]:
    n_v = len(vertices)
    n_e = sum(len(r) for r in rot.values()) // 2
    faces = trace_faces(vertices, rot)
    degs = [int(re.search(r" deg=(\d+) ", ln).group(1)) for ln in out.splitlines()]
    problems = []
    if len(degs) != 2 - n_v + n_e:
        problems.append(f"{len(degs)} faces, Euler wants {2 - n_v + n_e}")
    if sum(degs) != 2 * n_e:
        problems.append(f"face degrees sum to {sum(degs)}, want {2 * n_e}")
    if degs != [len(f) for f in faces]:
        problems.append("face degrees differ from an independent trace")
    return problems


def check_smooth(out: str, vertices: Vertices, rot: Rot) -> List[str]:
    n_e = sum(len(r) for r in rot.values()) // 2
    crossings = sum(1 for _, k in vertices if k == "crossing")
    printed = {frozenset(ln.split()[1:]) for ln in out.splitlines()}
    problems = []
    if len(out.splitlines()) != n_e - 2 * crossings:
        problems.append(f"{len(out.splitlines())} edges, want |E| - 2 crossings = {n_e - 2 * crossings}")
    if printed != set(smooth_edges(vertices, rot)):
        problems.append("edge set differs from an independent smoothing")
    return problems


def _rational(s: str) -> Fraction:
    p, q = s.split("/")
    return Fraction(int(p), int(q))


def check_discharge(out: str, rules: str, vertices: Vertices, rot: Rot,
                    faces: Sequence[Sequence[str]]) -> List[str]:
    """Replay the ``--log`` onto charges computed from degrees."""
    if rules == "A":
        vc, fc, total = (lambda k: Fraction(k - 6)), (lambda k: Fraction(2 * k - 6)), Fraction(-12)
    else:
        vc, fc, total = (lambda k: Fraction(k - 4)), (lambda k: Fraction(k - 4)), Fraction(-8)
    charges = {f"v:{v}": vc(len(rot[v])) for v, _ in vertices}
    charges.update({f"f:{i}": fc(len(f)) for i, f in enumerate(faces)})
    lines = out.splitlines()
    want_head = f"total_initial={total.numerator}/1 total_final={total.numerator}/1"
    if not lines or lines[0] != want_head:
        return [f"first line {lines[:1]!r}, want {want_head!r}"]
    if sum(charges.values()) != total:
        return ["independent initial charges do not sum to the scheme total"]
    negatives = [ln for ln in lines[1:] if ln.startswith("negative ")]
    for ln in lines[1 + len(negatives):]:
        t = ln.split()
        if t[0] != "transfer" or len(t) != 6 or t[2] not in charges or t[3] not in charges:
            return [f"malformed transfer line {ln!r}"]
        amount = _rational(t[4])
        charges[t[2]] -= amount
        charges[t[3]] += amount
    replayed = [f"negative {e} {c.numerator}/{c.denominator}" for e, c in charges.items() if c < 0]
    if replayed != negatives:
        return [f"replayed log gives {len(replayed)} negative elements, printed {len(negatives)}"]
    return []
