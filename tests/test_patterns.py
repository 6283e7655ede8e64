import random

import pytest

from oneplanar.charge import (
    RULE_SETS,
    PreconditionMinDegree,
    extract_witness,
    initial_charges,
    negative_elements,
)
from oneplanar.diagram import Diagram, SimpleGraph, smooth
from oneplanar.embedding import trace_faces
from oneplanar.patterns import (
    ORACLE_MAX_VERTICES,
    DegreeInterval,
    HostTooLarge,
    InvalidDiagram,
    TypedPattern,
    catalog,
    catalog_by_name,
    check_guarantees,
    find_typed,
    oracle_find_typed,
)


def complete_graph(n):
    vs = tuple(f"v{i}" for i in range(n))
    return SimpleGraph(
        vertices=vs,
        edges=frozenset(frozenset((u, v)) for i, u in enumerate(vs) for v in vs[i + 1:]),
    )


def random_graph(n, p, rng):
    vs = tuple(f"v{i}" for i in range(n))
    edges = frozenset(
        frozenset((u, v))
        for i, u in enumerate(vs)
        for v in vs[i + 1:]
        if rng.random() < p
    )
    return SimpleGraph(vertices=vs, edges=edges)


def test_degree_interval():
    assert DegreeInterval(2, 5).contains(2)
    assert DegreeInterval(2, 5).contains(5)
    assert not DegreeInterval(2, 5).contains(6)
    assert DegreeInterval(7, None).contains(100)
    assert not DegreeInterval(7, None).contains(6)


def test_catalog_shape():
    pats = catalog()
    assert [p.name for p in pats] == [
        "edge_77", "k4_typed", "star_k17", "triangle_779", "chorded_c4", "paw_9max",
    ]
    by_name = catalog_by_name()
    assert len(by_name["chorded_c4"].edges) == 5
    assert len(by_name["paw_9max"].edges) == 4
    assert len(by_name["star_k17"].vertices) == 8
    assert by_name["star_k17"].bounds["c"] == DegreeInterval(7, 7)
    assert by_name["star_k17"].bounds["l3"] == DegreeInterval(0, 23)
    assert by_name["k4_typed"].bounds["x4"] == DegreeInterval(0, 10)
    # every catalog pattern is connected and simple
    for p in pats:
        assert all(len(e) == 2 for e in p.edges)
        seen = {p.vertices[0]}
        frontier = [p.vertices[0]]
        while frontier:
            v = frontier.pop()
            for u in p.neighbors(v):
                if u not in seen:
                    seen.add(u)
                    frontier.append(u)
        assert seen == set(p.vertices), p.name


def test_edge_77_in_k8():
    # every vertex of K8 has degree 7, so every edge matches: C(8,2) = 28
    matches = find_typed(complete_graph(8), catalog_by_name()["edge_77"])
    assert len(matches) == 28


def test_paw_in_k4():
    # K4 with degree cap 9: 4 choices of triangle-vertex triple times the
    # remaining pendant vertex... each paw image is (triangle, pendant edge)
    matches = find_typed(complete_graph(4), catalog_by_name()["paw_9max"])
    assert len(matches) == len(oracle_find_typed(complete_graph(4), catalog_by_name()["paw_9max"]))
    for m in matches:
        assert len(set(m.values())) == 4


def test_star_needs_no_triangle():
    # star host: center of degree 7, independent leaves
    vs = ("c",) + tuple(f"l{i}" for i in range(7))
    g = SimpleGraph(
        vertices=vs,
        edges=frozenset(frozenset(("c", v)) for v in vs[1:]),
    )
    assert len(find_typed(g, catalog_by_name()["star_k17"])) == 1
    assert find_typed(g, catalog_by_name()["triangle_779"]) == []
    assert find_typed(g, catalog_by_name()["paw_9max"]) == []


def test_subgraph_not_induced_semantics():
    # chorded C4 must match inside K8 even though every C4 there also has
    # the second chord
    matches = find_typed(complete_graph(8), catalog_by_name()["chorded_c4"])
    assert matches  # present despite the extra edges


def test_matches_respect_bounds_and_edges(corpus):
    for d in corpus.values():
        g = smooth(d)
        for p in catalog():
            for m in find_typed(g, p):
                assert len(set(m.values())) == len(p.vertices)
                for pv, host in m.items():
                    assert p.bounds[pv].contains(g.degree(host))
                for e in p.edges:
                    assert g.has_edge(*(m[x] for x in e))


def test_find_matches_oracle_on_random_graphs():
    rng = random.Random(20240817)
    pats = catalog()
    for _ in range(40):
        g = random_graph(rng.randint(4, 9), rng.uniform(0.2, 0.9), rng)
        for p in pats:
            assert find_typed(g, p) == oracle_find_typed(g, p), p.name


def test_find_matches_oracle_on_smoothed_corpus(corpus):
    for name, d in corpus.items():
        g = smooth(d)
        if len(g.vertices) > ORACLE_MAX_VERTICES:
            continue
        for p in catalog():
            assert find_typed(g, p) == oracle_find_typed(g, p), (name, p.name)


def test_limit_is_prefix_of_full_result():
    g = complete_graph(8)
    p = catalog_by_name()["edge_77"]
    full = find_typed(g, p)
    assert find_typed(g, p, limit=5) == full[:5]
    assert find_typed(g, p, limit=0) == []


def test_negative_limit_is_rejected():
    g = complete_graph(8)
    p = catalog_by_name()["edge_77"]
    with pytest.raises(ValueError, match="limit must be >= 0"):
        find_typed(g, p, limit=-1)
    # rejected even when no host vertex is degree-feasible
    with pytest.raises(ValueError):
        find_typed(complete_graph(3), p, limit=-1)


def random_twin_pattern(rng):
    """A blow-up of a random quotient graph on 2-5 vertices.

    Each class is a clique or an independent set and two classes are joined
    completely or not at all, so the vertices of a class are twins unless a
    vertex draws its own degree interval; then the class still has graph
    automorphisms, but ones that do not keep bounds.  Names are numbered so
    that their string order differs from their numeric order, and the
    vertex order is shuffled.
    """
    sizes = []
    while sum(sizes) < 2 or (sum(sizes) < 5 and rng.random() < 0.6):
        sizes.append(rng.randint(1, min(3, 5 - sum(sizes))))
    names = [f"p{i}" for i in rng.sample(range(5, 16), sum(sizes))]
    classes, start = [], 0
    for size in sizes:
        classes.append(names[start:start + size])
        start += size

    def interval():
        lo = rng.randint(0, 4)
        return DegreeInterval(lo, rng.choice([None, lo, lo + 1, lo + 3, 7]))

    edges, bounds = set(), {}
    for i, cls in enumerate(classes):
        if rng.random() < 0.5:
            edges |= {frozenset((a, b)) for a in cls for b in cls if a != b}
        for other in classes[i + 1:]:
            if rng.random() < 0.6:
                edges |= {frozenset((a, b)) for a in cls for b in other}
        shared = interval()
        for v in cls:
            bounds[v] = shared if rng.random() < 0.8 else interval()
    rng.shuffle(names)
    return TypedPattern(name="random", vertices=tuple(names),
                        edges=frozenset(edges), bounds=bounds)


def test_find_matches_oracle_on_random_twin_patterns():
    rng = random.Random(20261018)
    twin_pairs = bound_breaking_pairs = 0
    for _ in range(1500):
        p = random_twin_pattern(rng)
        n = rng.randint(2, 8)
        names = tuple(f"b{i}" for i in rng.sample(range(5, 16), n))  # b10 < b9
        density = rng.uniform(0.2, 0.9)
        g = SimpleGraph(
            vertices=names,
            edges=frozenset(
                frozenset((u, v)) for i, u in enumerate(names) for v in names[i + 1:]
                if rng.random() < density
            ),
        )
        assert find_typed(g, p) == oracle_find_typed(g, p), p
        nbrs = {pv: set(p.neighbors(pv)) for pv in p.vertices}
        for a in p.vertices:
            for b in p.vertices:
                if a < b and nbrs[a] - {b} == nbrs[b] - {a}:
                    if p.bounds[a] == p.bounds[b]:
                        twin_pairs += 1
                    else:
                        bound_breaking_pairs += 1
    assert twin_pairs > 500 and bound_breaking_pairs > 100


def _nx_representatives(g, p):
    """Smallest map per image, from networkx's monomorphism enumeration."""
    import networkx as nx
    from networkx.algorithms.isomorphism import GraphMatcher

    host = nx.Graph()
    host.add_nodes_from((v, {"degree": g.degree(v)}) for v in g.vertices)
    host.add_edges_from(tuple(e) for e in g.edges)
    pattern = nx.Graph()
    pattern.add_nodes_from((pv, {"bounds": p.bounds[pv]}) for pv in p.vertices)
    pattern.add_edges_from(tuple(e) for e in p.edges)
    matcher = GraphMatcher(
        host, pattern, node_match=lambda h, q: q["bounds"].contains(h["degree"])
    )
    best = {}
    for inverse in matcher.subgraph_monomorphisms_iter():
        m = {pv: hv for hv, pv in inverse.items()}
        key = _image(p, m)
        mapping = tuple(m[pv] for pv in p.vertices)
        if key not in best or mapping < best[key]:
            best[key] = mapping
    return best


def _image(p, m):
    return (frozenset(m.values()), frozenset(frozenset(m[x] for x in e) for e in p.edges))


def test_find_matches_networkx_above_oracle_cap(corpus):
    pytest.importorskip("networkx")
    rng = random.Random(20261019)
    hosts = [smooth(corpus["k6_ab4"]), smooth(corpus["tetra_deep"])]
    hosts += [random_graph(rng.randint(20, 30), rng.uniform(0.15, 0.25), rng) for _ in range(2)]
    for g in hosts:
        assert len(g.vertices) > ORACLE_MAX_VERTICES
        for p in catalog():
            ours = {_image(p, m): tuple(m[pv] for pv in p.vertices) for m in find_typed(g, p)}
            assert ours == _nx_representatives(g, p), p.name


def test_star_with_one_centre_is_recorded_once(monkeypatch):
    # the 7! leaf orders of the star are twin permutations: one map is built
    import oneplanar.patterns as patterns

    calls = []
    record = patterns._record
    monkeypatch.setattr(patterns, "_record", lambda *a: calls.append(1) or record(*a))
    vs = ("c",) + tuple(f"l{i}" for i in range(7))
    g = SimpleGraph(vertices=vs, edges=frozenset(frozenset(("c", v)) for v in vs[1:]))
    assert len(find_typed(g, catalog_by_name()["star_k17"])) == 1
    assert len(calls) == 1


def test_oracle_host_cap():
    with pytest.raises(HostTooLarge):
        oracle_find_typed(complete_graph(ORACLE_MAX_VERTICES + 1),
                          catalog_by_name()["edge_77"])


def test_tightening_bounds_shrinks_matches():
    rng = random.Random(7)
    g = random_graph(9, 0.6, rng)
    loose = TypedPattern(
        name="triangle",
        vertices=("a", "b", "c"),
        edges=frozenset({frozenset(("a", "b")), frozenset(("b", "c")),
                         frozenset(("a", "c"))}),
        bounds={v: DegreeInterval(0, None) for v in ("a", "b", "c")},
    )
    tight = TypedPattern(
        name="triangle",
        vertices=loose.vertices,
        edges=loose.edges,
        bounds={"a": DegreeInterval(0, 5), "b": DegreeInterval(0, None),
                "c": DegreeInterval(0, None)},
    )
    loose_keys = {frozenset(m.values()) for m in find_typed(g, loose)}
    tight_keys = {frozenset(m.values()) for m in find_typed(g, tight)}
    assert tight_keys <= loose_keys


def test_check_guarantees_rejects_invalid():
    bad = Diagram(
        vertices=(("a", "true"), ("b", "true")),
        rotations=(("b",), ("a", "a")),
    )
    with pytest.raises(InvalidDiagram):
        check_guarantees(bad)


def test_check_guarantees_rejects_low_degree(k6):
    with pytest.raises(PreconditionMinDegree, match="minimum true-degree is 5"):
        check_guarantees(k6)


def test_check_guarantees_positive_path(pentakis7):
    report = check_guarantees(pentakis7)
    assert report.ok, [r for r in report.results if not r.passed]
    fs = trace_faces(pentakis7)
    for rule_set, (scheme, apply_fn) in RULE_SETS.items():
        final, _ = apply_fn(pentakis7, fs, initial_charges(pentakis7, fs, scheme))
        negatives = negative_elements(final)
        assert negatives, rule_set
        for element, _ in negatives:
            witness = extract_witness(pentakis7, fs, final, element, rule_set)
            assert witness.all_verdicts_pass, (rule_set, element, witness.verdicts)


def test_guarantee_report_names(k6):
    # the report surface is fixed: six pattern checks plus three rule sets
    from oneplanar.patterns import GuaranteeReport, GuaranteeResult

    report = GuaranteeReport(results=(
        GuaranteeResult(name="pattern_edge_77", passed=True, detail="found"),
    ))
    assert report.ok
    report = GuaranteeReport(results=(
        GuaranteeResult(name="discharge_A", passed=False, detail="x"),
    ))
    assert not report.ok
