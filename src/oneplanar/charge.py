"""Exact-rational charge schemes and the three discharging rule sets.

Scheme A assigns deg-6 to vertices and 2*deg-6 to faces (total always
exactly -12); scheme B assigns deg-4 to both (total always exactly -8).
Every transfer is logged and conserves the total, so a negative element
in the final state certifies a local configuration, which is extracted
as a :class:`Witness`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from typing import Callable, Dict, List, Mapping, Sequence, Tuple

from .diagram import Diagram, smooth, true_degrees
from .embedding import (
    BIG,
    FALSE_TRIANGLE,
    TRUE_TRIANGLE,
    Dart,
    FaceSet,
    classify,
    incident_faces,
)

# Element = ("v", vertex_id) or ("f", face_id)
Element = Tuple[str, object]


class SchemeMismatch(Exception):
    """A rule set was applied to a state built with the wrong scheme."""


class WrongElementKind(Exception):
    """The element's kind does not match the rule set's witness kind."""


class PreconditionMinDegree(Exception):
    """An operation required minimum true-degree 7 and the input has less."""


@dataclass(frozen=True)
class ChargeScheme:
    name: str
    vertex_charge: Callable[[int], Fraction]
    face_charge: Callable[[int], Fraction]
    expected_total: Fraction


SCHEME_A = ChargeScheme(
    name="A",
    vertex_charge=lambda deg: Fraction(deg - 6),
    face_charge=lambda deg: Fraction(2 * deg - 6),
    expected_total=Fraction(-12),
)

SCHEME_B = ChargeScheme(
    name="B",
    vertex_charge=lambda deg: Fraction(deg - 4),
    face_charge=lambda deg: Fraction(deg - 4),
    expected_total=Fraction(-8),
)

SCHEMES = {"A": SCHEME_A, "B": SCHEME_B}


@dataclass(frozen=True)
class ChargeState:
    """Charge per element; insertion order of ``charges`` is canonical."""

    scheme: str
    charges: Mapping[Element, Fraction]


@dataclass(frozen=True)
class Transfer:
    rule: str
    src: Element
    dst: Element
    amount: Fraction
    site: str


@dataclass(frozen=True)
class Witness:
    center: str
    final_charge: Fraction
    incident_face_classes: Tuple[Tuple[int, str], ...]
    neighbor_degrees: Mapping[str, int]
    extraction: Mapping[str, object]
    verdicts: Tuple[Tuple[str, bool], ...]

    @property
    def all_verdicts_pass(self) -> bool:
        return all(ok for _, ok in self.verdicts)


def element_str(e: Element) -> str:
    kind, ref = e
    return f"{kind}:{ref}"


def _element_key(d: Diagram, e: Element) -> Tuple[int, object]:
    kind, ref = e
    return (0, d.index(ref)) if kind == "v" else (1, ref)


def initial_charges(d: Diagram, fs: FaceSet, scheme: ChargeScheme) -> ChargeState:
    charges: Dict[Element, Fraction] = {}
    for vid in d.vertex_ids:
        charges[("v", vid)] = scheme.vertex_charge(d.degree(vid))
    for f in fs.faces:
        charges[("f", f.face_id)] = scheme.face_charge(f.degree)
    return ChargeState(scheme=scheme.name, charges=charges)


def total_charge(cs: ChargeState) -> Fraction:
    return sum(cs.charges.values(), Fraction(0))


def negative_elements(cs: ChargeState) -> List[Tuple[Element, Fraction]]:
    """All elements with charge < 0, in canonical order."""
    return [(e, c) for e, c in cs.charges.items() if c < 0]


def replay(initial: ChargeState, transfers: Sequence[Transfer]) -> ChargeState:
    """Apply a transfer log to a state; the rule sets apply each stage so."""
    charges = dict(initial.charges)
    for t in transfers:
        charges[t.src] -= t.amount
        charges[t.dst] += t.amount
    return ChargeState(scheme=initial.scheme, charges=charges)


def _sort_transfers(d: Diagram, transfers: List[Transfer]) -> List[Transfer]:
    return sorted(
        transfers,
        key=lambda t: (t.rule, _element_key(d, t.src), _element_key(d, t.dst), t.site),
    )


# --- amount formulas, unit-evaluable -------------------------------------
# The B/C angle amounts depend on the degree alone, so each is computed
# once per degree.

_HALF = Fraction(1, 2)
_THIRD = Fraction(1, 3)


def rule_a_equal_split(k: int) -> Fraction:
    """Per-face share of a k-vertex with 2*floor(k/2) incident false 3-faces."""
    return Fraction(k - 6, 2 * (k // 2))


@lru_cache(maxsize=None)
def b2a_amount(k: int) -> Fraction:
    return Fraction(k - 4, k) - _THIRD


@lru_cache(maxsize=None)
def b2b_amount(k: int) -> Fraction:
    return Fraction(k - 4, 2 * k) - Fraction(1, 6)


@lru_cache(maxsize=None)
def b2cde_amount(k: int) -> Fraction:
    return Fraction(k - 4, 2 * k) - Fraction(1, 4)


@lru_cache(maxsize=None)
def c2c_amount(k: int) -> Fraction:
    return Fraction(k - 4, k) - _HALF


def opposite_neighbor(d: Diagram, w: str, c: str) -> str:
    """The G-neighbor of w reached through crossing vertex c.

    Opposite rotation entries at a crossing are halves of one original
    edge, so the target sits two positions past w in the rotation of c.
    """
    rot = d.rotation(c)
    j = rot.index(w)
    return rot[(j + 2) % 4]


def apply_rule_set_a(
    d: Diagram, fs: FaceSet, cs: ChargeState
) -> Tuple[ChargeState, List[Transfer]]:
    """Scheme-A discharging, staged R1 -> R2 -> R3.

    R1: each big face splits its charge equally over its crossing-corner
    angles.  R2: each 7+-true-vertex splits its charge equally over its
    false-3-face angles.  R3: each false 3-face forwards its post-R1/R2
    charge to its unique crossing corner.
    """
    if cs.scheme != "A":
        raise SchemeMismatch(f"rule set A requires scheme A, got {cs.scheme}")

    face_class = {f.face_id: classify(d, f) for f in fs.faces}
    log: List[Transfer] = []

    # R1: big faces -> crossing-corner angles
    stage: List[Transfer] = []
    for f in fs.faces:
        if f.degree < 4:
            continue
        spots = [p for p, dart in enumerate(f.boundary) if d.is_crossing(dart.tail)]
        if not spots:
            continue
        amount = cs.charges[("f", f.face_id)] / len(spots)
        if amount == 0:
            continue
        for p in spots:
            stage.append(
                Transfer("A1", ("f", f.face_id), ("v", f.boundary[p].tail), amount, f"f{f.face_id}:{p}")
            )
    stage = _sort_transfers(d, stage)
    cs = replay(cs, stage)
    log.extend(stage)

    # R2: 7+-true-vertices -> false-3-face angles
    stage = []
    for vid in d.true_vertices:
        if d.degree(vid) < 7:
            continue
        angles = [fs.dart_position[Dart(vid, i)] for i in range(d.degree(vid))]
        spots = [(fid, p) for fid, p in angles if face_class[fid] == FALSE_TRIANGLE]
        if not spots:
            continue
        charge = cs.charges[("v", vid)]
        if charge == 0:
            continue
        amount = charge / len(spots)
        for fid, p in spots:
            stage.append(Transfer("A2", ("v", vid), ("f", fid), amount, f"f{fid}:{p}"))
    stage = _sort_transfers(d, stage)
    cs = replay(cs, stage)
    log.extend(stage)

    # R3: false 3-faces -> their crossing corner
    stage = []
    for f in fs.faces:
        if face_class[f.face_id] != FALSE_TRIANGLE:
            continue
        charge = cs.charges[("f", f.face_id)]
        if charge == 0:
            continue
        if charge < 0:
            raise AssertionError(f"false 3-face f{f.face_id} negative before R3: {charge}")
        (cv,) = [v for v in f.corners if d.is_crossing(v)]
        stage.append(Transfer("A3", ("f", f.face_id), ("v", cv), charge, f"f{f.face_id}"))
    stage = _sort_transfers(d, stage)
    cs = replay(cs, stage)
    log.extend(stage)

    return cs, log


def _apply_rule_set_bc(
    d: Diagram, fs: FaceSet, cs: ChargeState, variant: str
) -> Tuple[ChargeState, List[Transfer]]:
    if cs.scheme != "B":
        raise SchemeMismatch(f"rule set {variant} requires scheme B, got {cs.scheme}")

    face_class = {f.face_id: classify(d, f) for f in fs.faces}
    transfers: List[Transfer] = []

    for f in fs.faces:
        cls = face_class[f.face_id]
        for p, dart in enumerate(f.boundary):
            w = dart.tail
            if d.is_crossing(w):
                continue
            k = d.degree(w)
            site = f"f{f.face_id}:{p}"
            if k >= 7 and cls != BIG:
                amount = _HALF if cls == FALSE_TRIANGLE else _THIRD
                transfers.append(
                    Transfer(f"{variant}1", ("v", w), ("f", f.face_id), amount, site)
                )
            if k < 8:
                continue
            # the head of a boundary dart is the tail of the next one
            c1 = f.boundary[p - 1].tail
            c2 = f.boundary[(p + 1) % f.degree].tail
            fired = set()

            def emit(clause: str, recipient: str, amount: Fraction) -> None:
                key = (clause, recipient)
                if key in fired:
                    return
                fired.add(key)
                if amount < 0:
                    raise AssertionError(
                        f"negative transfer {amount} in clause {clause} at {w} (deg {k})"
                    )
                transfers.append(
                    Transfer(f"{variant}2{clause}", ("v", w), ("v", recipient), amount, site)
                )

            if cls == TRUE_TRIANGLE:
                # Both corner assignments of the unordered angle are tried;
                # the fired-set keeps each clause at one payment per recipient.
                for x, y in ((c1, c2), (c2, c1)):
                    dx, dy = d.degree(x), d.degree(y)
                    if dx == 7 and dy >= 8:
                        emit("a", x, b2a_amount(k))
                    elif dx == 7 and dy == 7:
                        emit("b", x, b2b_amount(k))
            elif cls == FALSE_TRIANGLE:
                cx, wt = (c1, c2) if d.is_crossing(c1) else (c2, c1)
                if variant == "B":
                    emit("c", wt, b2cde_amount(k))
                    emit("c", opposite_neighbor(d, w, cx), b2cde_amount(k))
                else:
                    emit("c", wt, c2c_amount(k))
            else:
                for corner in (c1, c2):
                    if not d.is_crossing(corner):
                        emit("d", corner, b2cde_amount(k))
                    elif variant == "B":
                        emit("e", opposite_neighbor(d, w, corner), b2cde_amount(k))

    transfers = _sort_transfers(d, transfers)
    return replay(cs, transfers), transfers


def apply_rule_set_b(
    d: Diagram, fs: FaceSet, cs: ChargeState
) -> Tuple[ChargeState, List[Transfer]]:
    """Scheme-B discharging with pass-through at crossings (one batch)."""
    return _apply_rule_set_bc(d, fs, cs, "B")


def apply_rule_set_c(
    d: Diagram, fs: FaceSet, cs: ChargeState
) -> Tuple[ChargeState, List[Transfer]]:
    """Like rule set B, but false-3-face angles pay (k-4)/k - 1/2 to the
    true corner only, and big-face crossing corners get nothing."""
    return _apply_rule_set_bc(d, fs, cs, "C")


RULE_SETS = {
    "A": (SCHEME_A, apply_rule_set_a),
    "B": (SCHEME_B, apply_rule_set_b),
    "C": (SCHEME_B, apply_rule_set_c),
}


# --- witness extraction ---------------------------------------------------

K4_TYPE_BOUNDS = ((7, 7), (0, 8), (0, 8), (0, 10))


def degrees_fit_type(degrees: Sequence[int], bounds: Sequence[Tuple[int, int]]) -> bool:
    """True iff some assignment of degrees to (lo, hi) slots fits."""
    if len(degrees) != len(bounds):
        return False
    return any(
        all(lo <= deg <= hi for deg, (lo, hi) in zip(perm, bounds))
        for perm in permutations(degrees)
    )


def consistent_star_cases(
    w2_degree: int, other_degrees: Sequence[int]
) -> Tuple[int, ...]:
    """Star-configuration case numbers consistent with the degree data.

    ``w2_degree`` is the degree of the non-7 corner of the unique true
    3-face; the two distinguished outer neighbors are unknown, so every
    unordered pair drawn from ``other_degrees`` is tried.
    """
    cases = set()
    for i in range(len(other_degrees)):
        for j in range(i + 1, len(other_degrees)):
            lo, hi = sorted((other_degrees[i], other_degrees[j]))
            low_count = sum(1 for x in (lo, hi) if x in (7, 8))
            if low_count == 2 and w2_degree <= 11:
                cases.add(1)
            if low_count == 1 and w2_degree <= 9:
                if (
                    (w2_degree == 7 and hi <= 11)
                    or (w2_degree == 8 and hi <= 10)
                    or (w2_degree == 9 and hi == 9)
                ):
                    cases.add(2)
            if lo >= 9 and w2_degree in (7, 8):
                if lo == 9 and (
                    (w2_degree == 7 and hi <= 10) or (w2_degree == 8 and hi == 9)
                ):
                    cases.add(3)
    return tuple(sorted(cases))


def g_neighbors(d: Diagram, v: str) -> List[str]:
    """Neighbors of a true vertex in G, resolving crossings to the far end."""
    out = []
    for u in d.rotation(v):
        out.append(opposite_neighbor(d, v, u) if d.is_crossing(u) else u)
    return out


def extract_witness(
    d: Diagram, fs: FaceSet, final_state: ChargeState, element: Element, rule_set: str
) -> Witness:
    """Record and verify the local structure at a negative element."""
    tdeg = true_degrees(d)
    if min(tdeg.values()) < 7:
        raise PreconditionMinDegree(
            f"minimum true-degree is {min(tdeg.values())}, witness extraction needs >= 7"
        )
    charge = final_state.charges[element]
    if charge >= 0:
        raise ValueError(f"element {element_str(element)} has nonnegative charge {charge}")

    kind, ref = element
    face_class = {f.face_id: classify(d, f) for f in fs.faces}

    if rule_set == "A":
        if kind != "v" or not d.is_crossing(ref):
            raise WrongElementKind(
                f"rule set A witnesses are crossing vertices, got {element_str(element)}"
            )
        fids = incident_faces(d, fs, ref)
        classes = tuple((fid, face_class[fid]) for fid in fids)
        neighbors = list(d.rotation(ref))
        neighbor_degrees = {u: tdeg[u] for u in neighbors}
        all_three = all(cls != BIG for _, cls in classes)
        g = smooth(d)
        k4_edges = [
            (u, v)
            for idx, u in enumerate(neighbors)
            for v in neighbors[idx + 1 :]
            if g.has_edge(u, v)
        ]
        induces_k4 = all_three and len(k4_edges) == 6
        type_ok = induces_k4 and degrees_fit_type(
            [neighbor_degrees[u] for u in neighbors], K4_TYPE_BOUNDS
        )
        return Witness(
            center=ref,
            final_charge=charge,
            incident_face_classes=classes,
            neighbor_degrees=neighbor_degrees,
            extraction={"neighbor_k4_edges": tuple(k4_edges)},
            verdicts=(
                ("four_three_faces", all_three),
                ("neighbors_induce_k4", induces_k4),
                ("k4_type_7_8-_8-_10-", type_ok),
            ),
        )

    if rule_set not in ("B", "C"):
        raise ValueError(f"unknown rule set {rule_set!r}")
    if kind != "v" or d.is_crossing(ref) or d.degree(ref) != 7:
        raise WrongElementKind(
            f"rule set {rule_set} witnesses are 7-vertices, got {element_str(element)}"
        )

    fids = incident_faces(d, fs, ref)
    classes = tuple((fid, face_class[fid]) for fid in fids)
    n_false = sum(1 for _, cls in classes if cls == FALSE_TRIANGLE)
    n_true = sum(1 for _, cls in classes if cls == TRUE_TRIANGLE)
    star_shape = n_false == 6 and n_true == 1

    nbrs = g_neighbors(d, ref)
    neighbor_degrees = {u: tdeg[u] for u in nbrs}
    extraction: Dict[str, object] = {}
    verdicts: List[Tuple[str, bool]] = [("six_false_one_true", star_shape)]

    corner_ok = False
    cases: Tuple[int, ...] = ()
    if star_shape:
        (true_fid,) = [fid for fid, cls in classes if cls == TRUE_TRIANGLE]
        others = [v for v in fs.faces[true_fid].corners if v != ref]
        extraction["true_face_corners"] = tuple(others)
        corner_degs = sorted(tdeg[v] for v in others)
        corner_ok = corner_degs[0] == 7
        if rule_set == "C" and corner_ok:
            w2_degree = corner_degs[1]
            outer = [u for u in nbrs]
            # remove one 7-corner and the other corner (by identity)
            seven_corner = next(v for v in others if tdeg[v] == 7)
            other_corner = next(v for v in others if v != seven_corner)
            outer.remove(seven_corner)
            outer.remove(other_corner)
            cases = consistent_star_cases(w2_degree, [tdeg[u] for u in outer])
            extraction["consistent_cases"] = cases
    verdicts.append(("true_face_min_corner_deg_7", corner_ok))

    if rule_set == "B":
        verdicts.append(("all_neighbors_le_23", all(v <= 23 for v in neighbor_degrees.values())))
        verdicts.append(
            ("at_most_one_12_plus", sum(1 for v in neighbor_degrees.values() if v >= 12) <= 1)
        )
    else:
        verdicts.append(("case_consistent", bool(cases)))

    return Witness(
        center=ref,
        final_charge=charge,
        incident_face_classes=classes,
        neighbor_degrees=neighbor_degrees,
        extraction=extraction,
        verdicts=tuple(verdicts),
    )
