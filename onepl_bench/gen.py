"""Seeded input generator for the oneplanar benchmark.

Every input is a triangulated sphere with some adjacent face pairs turned
into crossings: the shared edge u-v of triangles (u, v, a) and (v, u, b)
gets a crossing vertex x, and the new edge a-b passes through x.  Each
crossing raises the degree of its two apexes by one, so a randomized
greedy that serves the vertex with the largest unmet need first reaches a
minimum true degree of 7 (or 5 for the K6 hub base).

The generator is independent of the program: it builds the rotation
systems itself, and ``run.py`` checks each one with ``check.py`` before
handing it over.

    python3 onepl_bench/gen.py --seed 3 --out /tmp/inputs
"""

from __future__ import annotations

import argparse
import os
import random
from typing import Dict, List, Optional, Sequence, Tuple

Tri = Tuple[int, int, int]

# Restart budget of the greedy; every family below succeeds within a few
# hundred restarts on every seed tried.
MAX_RESTARTS = 20000


def _det(a, b, c) -> float:
    return (a[0] * (b[1] * c[2] - b[2] * c[1])
            - a[1] * (b[0] * c[2] - b[2] * c[0])
            + a[2] * (b[0] * c[1] - b[1] * c[0]))


def _oriented(coords, tris) -> List[Tri]:
    """Orient triangles of a convex polytope around the origin outward."""
    out = []
    for a, b, c in tris:
        out.append((a, b, c) if _det(coords[a], coords[b], coords[c]) > 0 else (a, c, b))
    return out


def _hull_triangles(coords, edge_len2: float) -> List[Tri]:
    n = len(coords)

    def d2(i, j):
        return sum((coords[i][k] - coords[j][k]) ** 2 for k in range(3))

    adj = [[j for j in range(n) if j != i and abs(d2(i, j) - edge_len2) < 1e-6] for i in range(n)]
    tris = {
        tuple(sorted((i, j, k)))
        for i in range(n) for j in adj[i] for k in adj[j] if k in adj[i]
    }
    return _oriented(coords, sorted(tris))


def octahedron() -> Tuple[int, List[Tri]]:
    coords = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    return 6, _hull_triangles(coords, 2.0)


def icosahedron() -> Tuple[int, List[Tri]]:
    phi = (1 + 5 ** 0.5) / 2
    coords = []
    for s in (1, -1):
        for t in (1, -1):
            coords += [(0, s, t * phi), (s, t * phi, 0), (t * phi, 0, s)]
    return 12, _hull_triangles(coords, 4.0)


def geodesic(freq: int) -> Tuple[int, List[Tri]]:
    """Frequency-``freq`` subdivision of the icosahedron: 10 f^2 + 2 vertices."""
    _, faces = icosahedron()
    ids: Dict[Tuple, int] = {}

    def point(A, B, C, i, j):
        weights = ((A, freq - i - j), (B, i), (C, j))
        key = tuple(sorted((v, w) for v, w in weights if w))
        return ids.setdefault(key, len(ids))

    tris: List[Tri] = []
    for A, B, C in faces:
        for i in range(freq):
            for j in range(freq - i):
                tris.append((point(A, B, C, i, j), point(A, B, C, i + 1, j), point(A, B, C, i, j + 1)))
                if i + j <= freq - 2:
                    tris.append((point(A, B, C, i + 1, j), point(A, B, C, i + 1, j + 1),
                                 point(A, B, C, i, j + 1)))
    return len(ids), tris


def pentakis_dodecahedron() -> Tuple[int, List[Tri]]:
    """Kis of the dodecahedron: 12 vertices of degree 5, 20 of degree 6."""
    _, faces = icosahedron()
    face_of_dart = {}
    for fi, (a, b, c) in enumerate(faces):
        for u, v in ((a, b), (b, c), (c, a)):
            face_of_dart[(u, v)] = fi
    tris: List[Tri] = []
    for fi, (a, b, c) in enumerate(faces):
        for v, w in ((a, c), (b, a), (c, b)):
            # the icosahedron face after fi around v shares the edge v-w
            tris.append((v, 12 + fi, 12 + face_of_dart[(v, w)]))
    return 32, tris


def _rotate_to(t: Tri, v: int) -> Tri:
    i = t.index(v)
    return t[i:] + t[:i]


def greedy_crossings(
    n: int, tris: Sequence[Tri], target: int, rng: random.Random
) -> Optional[Tuple[List[Tuple[int, int, int, int]], List[int]]]:
    """One greedy attempt; returns crossings (u, v, a, b) and the sorted
    true degrees, or None.

    Crossing (u, v, a, b) crosses the edge u-v of the triangles (u, v, a)
    and (v, u, b) with the new edge a-b.
    """
    tri_of_dart = {}
    incident: List[List[int]] = [[] for _ in range(n)]
    adj = [set() for _ in range(n)]
    for ti, t in enumerate(tris):
        for k in range(3):
            u, v = t[k], t[(k + 1) % 3]
            tri_of_dart[(u, v)] = ti
            adj[u].add(v)
            incident[u].append(ti)
    need = [max(0, target - len(adj[v])) for v in range(n)]
    used = [False] * len(tris)
    crossings = []
    while True:
        top = max(need)
        if top == 0:
            return crossings, sorted(len(a) for a in adj)
        w = rng.choice([v for v in range(n) if need[v] == top])
        options = []
        for ti in incident[w]:
            if used[ti]:
                continue
            _, u, v = _rotate_to(tris[ti], w)
            tj = tri_of_dart[(v, u)]
            if used[tj]:
                continue
            b = _rotate_to(tris[tj], v)[2]
            if b == w or b in adj[w]:
                continue
            options.append((need[b] > 0, ti, tj, u, v, b))
        if not options:
            return None
        best = [o for o in options if o[0]] or options
        _, ti, tj, u, v, b = rng.choice(best)
        used[ti] = used[tj] = True
        adj[w].add(b)
        adj[b].add(w)
        need[w] = max(0, need[w] - 1)
        need[b] = max(0, need[b] - 1)
        crossings.append((u, v, w, b))


def build_diagram(
    n: int, tris: Sequence[Tri], crossings, rng: random.Random
) -> Tuple[List[Tuple[str, str]], Dict[str, List[str]]]:
    """Planarize: split each crossed edge and read rotations off the triangles.

    Vertex ids and declaration order are shuffled with ``rng``; rotations
    are clockwise around the outward normal.
    """
    x_of = {frozenset((u, v)): n + k for k, (u, v, _, _) in enumerate(crossings)}
    new_tris: List[Tri] = []
    for t in tris:
        for k in range(3):
            u, v, a = t[k], t[(k + 1) % 3], t[(k + 2) % 3]
            x = x_of.get(frozenset((u, v)))
            if x is not None:
                new_tris += [(u, x, a), (x, v, a)]
                break
        else:
            new_tris.append(t)
    total = n + len(crossings)
    succ: List[Dict[int, int]] = [dict() for _ in range(total)]
    for t in new_tris:
        for k in range(3):
            v, x, y = t[k], t[(k + 1) % 3], t[(k + 2) % 3]
            succ[v][x] = y  # counter-clockwise around the outward normal
    order = list(range(total))
    rng.shuffle(order)
    tnames = iter(rng.sample(range(10 * total), total))
    names = {}
    for v in order:
        names[v] = ("v" if v < n else "x") + str(next(tnames))
    vertices = [(names[v], "true" if v < n else "crossing") for v in order]
    rotations = {}
    for v in order:
        start = min(succ[v])
        cyc = [start]
        while succ[v][cyc[-1]] != start:
            cyc.append(succ[v][cyc[-1]])
        cyc.reverse()
        k = rng.randrange(len(cyc))
        rotations[names[v]] = [names[u] for u in cyc[k:] + cyc[:k]]
    return vertices, rotations


def to_text(vertices, rotations) -> str:
    lines = ["onepl 1"]
    lines += [f"vertex {vid} {kind}" for vid, kind in vertices]
    lines += ["rot " + " ".join([vid] + rotations[vid]) for vid, _ in vertices]
    return "\n".join(lines) + "\n"


def mindeg_diagram(family: Tuple[int, List[Tri]], target: int, degrees: Dict[int, int],
                   rng: random.Random):
    """Greedy with restarts until the true degrees are exactly ``degrees``.

    Pinning the degree sequence (and with it the number of crossings)
    keeps the work the program does nearly the same from seed to seed.
    """
    n, tris = family
    wanted = sorted(d for d, k in degrees.items() for _ in range(k))
    for _ in range(MAX_RESTARTS):
        attempt = greedy_crossings(n, tris, target, rng)
        if attempt is not None and attempt[1] == wanted:
            return build_diagram(n, tris, attempt[0], rng)
    raise RuntimeError(f"no diagram with true degrees {degrees} in {MAX_RESTARTS} restarts")


# (family, target true degree, true degree histogram): the histograms are
# the ones the greedy reaches most often.
FAMILIES = {
    "pentakis": (pentakis_dodecahedron, 7, {7: 28, 8: 4}),
    "geodesic4": (lambda: geodesic(4), 7, {7: 138, 8: 22, 9: 2}),
    "k6": (octahedron, 5, {5: 6}),
}


def generate(name: str, seed: int):
    make, target, degrees = FAMILIES[name]
    rng = random.Random(f"{name}:{seed}")
    return mindeg_diagram(make(), target, degrees, rng)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    os.makedirs(args.out, exist_ok=True)
    for name in FAMILIES:
        vertices, rotations = generate(name, args.seed)
        with open(os.path.join(args.out, f"{name}.onepl"), "w", encoding="utf-8") as fh:
            fh.write(to_text(vertices, rotations))


if __name__ == "__main__":
    main()
