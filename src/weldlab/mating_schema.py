"""Combinatorial model of a conformal mating.

A schema is a list of slots (group or Blaschke) plus contact data saying
which hole corners are identified at singular points, with the ccw rotation
order of the hole wedges around each singular point.  Assembly produces the
boundary complex: arcs (hole sides, split at involution-fixed interior
points), corner classes, the faces of the multi-domain as the cycles of one
arc permutation, and the arc-level boundary involution.

A hole is its group slot, stored purely combinatorially: the boundary
involution on its sides is its one table.  Rendering assigns coordinates
separately.
"""

from __future__ import annotations

import cmath
import json
import math
import re

from . import SCHEMA_VERSION, fuchsian
from .errors import (DegenerateInput, DegreeMismatch, InconsistentInvolution,
                     InvalidArgument, NonPlanar, RankLimit, Record, VerificationFailed,
                     as_count)
from .fuchsian import CASE_I, CASE_II


class _UnionFind:
    """Disjoint sets of 0..n-1 with path halving (Tarjan, JACM 22, 1975);
    union(x, y) keeps y's root."""

    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, x, y):
        self.parent[self.find(x)] = self.find(y)


# -- slots -------------------------------------------------------------------

class Slot(Record):
    __slots__ = ()

    def __new__(cls, kind: str,               # "group" | "blaschke"
                n: int = 0, p: int = 0, case: str = CASE_I,
                degree: int = 0,              # Blaschke degree
                unbounded: bool = False):
        return tuple.__new__(cls, (kind, n, p, case, degree, unbounded))

    @property
    def circle_degree(self) -> int:
        return self.n * self.p - 1 if self.kind == "group" else self.degree

    def validate(self):
        if self.kind == "group":
            if as_count(self.n, "n") * as_count(self.p, "p") < 3:
                raise DegenerateInput(f"group slot needs np >= 3, got {self.n * self.p}")
            fuchsian.check_parameters(self.n, self.p, self.case)
        elif self.kind == "blaschke":
            if as_count(self.degree, "degree") < 2:
                raise DegenerateInput("Blaschke slot needs degree >= 2")
            if self.unbounded:
                raise DegenerateInput("Blaschke slots sit inside the domain")
        else:
            raise DegenerateInput(f"unknown slot kind {self.kind!r}")


def group_slot(n, p, case=CASE_I, unbounded=False) -> Slot:
    s = Slot("group", n=n, p=p, case=case, unbounded=unbounded)
    s.validate()
    return s


def blaschke_slot(degree) -> Slot:
    s = Slot("blaschke", degree=degree)
    s.validate()
    return s


# -- contact data ---------------------------------------------------------------

class ContactData(Record):
    """Corner identification classes, each a ccw-ordered tuple of incidences.

    An incidence is a pair (slot_index, corner); the tuple order is the ccw
    rotation order of the hole wedges around the singular point.
    """

    __slots__ = ()

    def __new__(cls, classes: tuple):
        return tuple.__new__(cls, (classes,))


# -- boundary complex ------------------------------------------------------------

class Arc(Record):
    """Directed boundary arc: a hole side or a half of a self-paired side,
    numbered by its position in BoundaryComplex.arcs."""

    __slots__ = ()

    def __new__(cls, hole: int,       # slot index
                side: int,            # 1..p
                piece: int,           # 0 = whole side; self-paired sides split into 0, 1
                start: int,           # vertex id
                end: int):            # vertex id
        return tuple.__new__(cls, (hole, side, piece, start, end))


class BoundaryComplex(Record):
    """Arcs, corner classes, domain faces and arc involution of a schema.

    A hole is its group slot and is named by the slot index.  Vertex ids
    below C = len(corners) are the corner classes, and C + k is the k-th
    split side's midpoint, where its piece 0 ends and piece 1 starts.  A face
    is a list of boundary cycles (several when the boundary graph is
    disconnected); a cycle lists the indices of its arcs, each walked
    backward.  Each arc lies on one cycle, so the faces are the one record
    of which face an arc bounds.  The hole interiors are not faces here.
    """

    __slots__ = ()

    def __new__(cls, slots: tuple, contact: ContactData,
                arcs: list,                 # Arc
                s_action: list,             # indexed by arc: the arc S carries it onto
                corners: list,              # corner classes: contact classes, then lone corners
                faces: list,                # list of faces; each face: list of arc-index cycles
                components: int):           # connected components of the boundary graph
        return tuple.__new__(cls, (slots, contact, arcs, s_action, corners, faces, components))

    def s_fixed_boundary_points(self):
        """S-fixed points on the desingularized boundary: the midpoints."""
        return sum(1 for a in self.arcs if a.piece == 1)

    def order2_total(self):
        """b of Cor 4.14: order-2 orbifold points across the group slots, one
        per self-paired side of each hole."""
        return sum(len(fuchsian.self_paired_sides(s.p, s.case))
                   for s in self.slots if s.kind == "group")


def assemble(slots, contact: ContactData) -> BoundaryComplex:
    """Build the boundary complex of a mating schema.

    The boundary is a planar map whose rotation at each corner class takes
    the incidences in ccw order, hole wedges alternating with domain wedges.
    The domain faces are the cycles of one arc permutation, each walking its
    arcs backward with the face on the left (see _domain_faces); the Euler
    count V - E + F = 2 per boundary component rejects non-planar contact
    data.

    A hole is its group slot h, with sides 1..p and corners 0..p-1; side s
    runs corner s-1 -> corner s mod p, the hole interior on its left.  The
    hole's one table is sigma on sides (fuchsian.sigma_side), which carries
    side s onto side sigma(s) reversed.

    Arcs are numbered hole by hole in slot order, each hole's sides 1..p in
    order, a split side's two pieces in order; first[h][s] is the index of
    side s's first arc on hole h (its piece 1 is the next one), and
    first[h][p + 1] is one past the hole's last arc.
    """
    slots = tuple(slots)
    # each slot object once, in order, so the first bad slot still raises;
    # not each equal slot once, as Slot(n=3.0) == Slot(n=3) but is invalid
    for s in {id(s): s for s in slots}.values():
        s.validate()
    if sum(1 for s in slots if s.unbounded) > 1:
        raise DegenerateInput("at most one unbounded slot")
    # sigma[h]: sigma on hole h's sides, one table per (p, case) this call
    tables = {key: fuchsian.sigma_side(*key)
              for key in dict.fromkeys((s.p, s.case) for s in slots if s.kind == "group")}
    sigma = {h: tables[s.p, s.case] for h, s in enumerate(slots) if s.kind == "group"}
    if not sigma:
        raise DegenerateInput("a schema needs at least one group slot")

    # corner classes: the identification classes, then each unclaimed corner
    # alone, hole by hole; corner_vertex[h][k] is the vertex of corner k.  An
    # incidence that is not a pair of integers (a bool is refused, as
    # schema_from_dict refuses it) raises InvalidArgument.
    corner_classes = [tuple(cls) for cls in contact.classes]
    corner_vertex = {h: [-1] * len(sig) for h, sig in sigma.items()}
    for vid, cls in enumerate(corner_classes):
        for inc in cls:
            if (type(inc) is not tuple or len(inc) != 2
                    or type(inc[0]) is not int or type(inc[1]) is not int):
                raise InvalidArgument(f"incidence {inc!r} must be a pair of integers "
                                      "(slot, corner)")
            h, k = inc
            ks = corner_vertex.get(h)
            if ks is None:
                raise InconsistentInvolution(f"incidence {inc}: slot {h} has no hole")
            if not 0 <= k < len(ks):
                raise InconsistentInvolution(f"incidence {inc}: corner out of range")
            if ks[k] >= 0:
                raise InconsistentInvolution(f"corner {inc} identified twice")
            ks[k] = vid
    nclasses = len(corner_classes)
    for h, ks in corner_vertex.items():
        for k, vid in enumerate(ks):
            if vid < 0:
                ks[k] = len(corner_classes)
                corner_classes.append(((h, k),))
    # involution consistency: the images of a class's corners are one vertex
    for vid, (cls, incs) in enumerate(zip(contact.classes, corner_classes)):
        if not incs:
            raise InconsistentInvolution(f"identification class {vid} is empty")
        # corner k ends side k (side p at k = 0), and sigma reverses that side
        # onto one that starts at corner sigma(k or p) - 1
        images = [corner_vertex[h][sigma[h][k or len(sigma[h])] - 1] for h, k in incs]
        if len(set(images)) != 1:
            # a class is named by its index, a lone corner by ("single", corner)
            named = {i if i < nclasses else ("single", corner_classes[i][0]) for i in images}
            raise InconsistentInvolution(f"class {cls}: images fall in distinct "
                                         f"classes {named}")

    # arcs: sigma reverses a side it pairs with itself, so that side has one
    # interior fixed point, where it is split; the midpoint ids follow C
    arcs = []
    first = {}
    vid = len(corner_classes)
    for h, sig in sigma.items():
        p, ks = len(sig), corner_vertex[h]
        f = first[h] = [len(arcs)] * (p + 2)
        for s in range(1, p + 1):
            f[s] = len(arcs)
            u, w = ks[s - 1], ks[s % p]
            if sig[s] == s:
                arcs += (Arc(h, s, 0, u, vid), Arc(h, s, 1, vid, w))
                vid += 1
            else:
                arcs.append(Arc(h, s, 0, u, w))
        f[p + 1] = len(arcs)

    # boundary involution on arcs: sigma carries side s onto sigma(s)
    # reversing orientation, so it swaps the halves of a split side
    s_action = [0] * len(arcs)
    for h, sig in sigma.items():
        f = first[h]
        for s, t in sig.items():
            a = f[s]
            if s == t:
                s_action[a], s_action[a + 1] = a + 1, a
            else:
                s_action[a] = f[t]

    faces, components = _domain_faces(arcs, first, vid, corner_classes)
    return BoundaryComplex(slots, contact, arcs, s_action, corner_classes, faces, components)


def _domain_faces(arcs, first, V, corner_classes):
    """Faces of the multi-domain and the number of boundary components.

    first is assemble's table, one entry per hole, and V the vertex count.
    A domain face walks its arcs backward (face on the left), so it leaves
    arc a at a's start into the wedge there.  If a is the first piece of
    side k+1 at incidence (h, k), that wedge lies between (h, k) and the
    incidence (h', k') before it in the ccw class, and nxt[a] is the last
    piece of side k' of hole h' (side p' when k' = 0), which ends there.  If
    a is piece 1 of a split side, the face turns at the fixed point into
    piece 0.  nxt is a permutation of the arcs and the domain faces are its
    cycles (Lando & Zvonkin, ch. 1); the sides of each hole bound its
    interior, one more face per hole.

    The boundary components are those of a union-find over the vertices
    that joins the two ends of each arc, in arc order.  A hole's boundary is
    one closed walk through all its corners and midpoints, so these are the
    holes joined by the identification classes; a merged face lists its
    cycles by the roots of their components.
    """
    E = len(arcs)
    nxt = list(range(-1, E - 1))     # piece 1 turns into piece 0 before it
    for cls in corner_classes:
        h2, k2 = cls[-1]
        for h, k in cls:
            # the last piece of side s ends one arc before side s+1 begins,
            # and that of side p one before the hole's end, first[h][-1]
            nxt[first[h][k + 1]] = first[h2][k2 + 1 if k2 else -1] - 1
            h2, k2 = h, k
    uf = _UnionFind(V)
    for a in arcs:
        uf.union(a.start, a.end)
    ncomp = sum(1 for v, root in enumerate(uf.parent) if v == root)

    # the cycles of nxt, each entry set to -1 once it is walked
    domain_cycles = []
    for a0 in range(E):
        cyc = []
        a = a0
        while nxt[a] >= 0:
            cyc.append(a)
            nxt[a], a = -1, nxt[a]
        if cyc:
            domain_cycles.append(cyc)

    # per-component sphere maps: V - E + F = 2 per component
    F = len(domain_cycles) + len(first)
    if V - E + F != 2 * ncomp:
        raise NonPlanar(f"V - E + F = {V - E + F}, expected {2 * ncomp}")

    # merge the outer faces of distinct components into multi-boundary faces
    if ncomp == 1:
        faces = [[cyc] for cyc in domain_cycles]
    else:
        by_comp = {}
        for cyc in domain_cycles:
            c = uf.find(arcs[cyc[0]].end)
            by_comp.setdefault(c, []).append(cyc)
        if any(len(v) != 1 for v in by_comp.values()):
            raise NonPlanar("disconnected contact graph needs nesting data "
                            "(a component has several domain faces)")
        faces = [[cyc for v in sorted(by_comp) for cyc in by_comp[v]]]
    return faces, ncomp


# -- degree accounting -----------------------------------------------------------

def validate_degrees(slots):
    """Critically-fixed-polynomial degree report for a schema.

    deg P = sum over bounded slots of (circle degree - 1) plus 1; a group
    slot on the unbounded basin must have circle degree equal to deg P.  The
    uniformizing-map degree d_R = deg P + 1 applies to connected blender
    surfaces.  (Rational schemas, e.g. Newton matings, are outside this
    accounting.)
    """
    slots = tuple(slots)
    unbounded = [s for s in slots if s.unbounded]
    if len(unbounded) > 1:
        raise DegreeMismatch("at most one unbounded slot")
    deg_p = 1 + sum(s.circle_degree - 1 for s in slots if not s.unbounded)
    report = {
        "polynomial_degree": deg_p,
        "uniformizing_degree_if_connected": deg_p + 1,
        "per_slot": [{"kind": s.kind, "circle_degree": s.circle_degree,
                      "unbounded": s.unbounded} for s in slots],
        "note": "polynomial accounting; not applicable to rational (Newton) schemas",
    }
    if unbounded:
        if unbounded[0].circle_degree != deg_p:
            raise DegreeMismatch(
                f"unbounded slot degree {unbounded[0].circle_degree} != deg P = {deg_p}")
    return report


# -- polynomial registry ------------------------------------------------------------

class PolynomialEntry(Record):
    __slots__ = ()

    def __new__(cls, name: str,
                coefficients: tuple,        # ascending powers
                critical_points: tuple,     # (point, multiplicity)
                fixed_points: tuple):
        return tuple.__new__(cls, (name, coefficients, critical_points, fixed_points))

    def degree(self):
        return len(self.coefficients) - 1

    def __call__(self, z):
        acc = 0j
        for c in reversed(self.coefficients):
            acc = acc * z + c
        return acc

    def derivative_coeffs(self, order=1):
        cs = list(self.coefficients)
        for _ in range(order):
            cs = [k * cs[k] for k in range(1, len(cs))]
        return tuple(cs)

    def eval_derivative(self, z, order=1):
        acc = 0j
        for c in reversed(self.derivative_coeffs(order)):
            acc = acc * z + c
        return acc


#: verify_polynomial: the fixed-point residual and each derivative that must
#: vanish at a critical point stay below TOL_SMALL, and the first derivative
#: that must not vanish reaches TOL_BIG.  The registry's coefficients are
#: closed forms rounded to double precision, so what must vanish is rounding
#: (at most 6e-15) and what must not is at least 4.2
TOL_SMALL = 1e-8
TOL_BIG = 1e-4


def verify_polynomial(entry: PolynomialEntry):
    """Check each declared critical point is fixed with the declared multiplicity."""
    report = {"name": entry.name, "critical_points": []}
    for (c, mult) in entry.critical_points:
        fix_res = abs(entry(c) - c)
        derivs = [abs(entry.eval_derivative(c, order=k)) for k in range(1, mult + 2)]
        ok = (fix_res < TOL_SMALL
              and all(d < TOL_SMALL for d in derivs[:mult])
              and derivs[mult] >= TOL_BIG)
        report["critical_points"].append({
            "point": [c.real, c.imag], "multiplicity": mult,
            "fixed_residual": fix_res, "derivative_magnitudes": derivs, "ok": ok,
        })
        if not ok:
            raise VerificationFailed(
                f"{entry.name}: critical point {c} fails (fix residual {fix_res:.2e}, "
                f"derivatives {derivs})")
    total = sum(m for (_, m) in entry.critical_points)
    report["finite_multiplicity_sum"] = total
    report["degree"] = entry.degree()
    return report


def _alpha_degree7():
    """First-quadrant root of 15 a + 6 a^7 - 14 a^5 conj(a)^2 = 0.

    The fixed-point condition R(alpha) = alpha for the degree-7 polynomial is
    equivalent to this equation.  With a = r e^{i theta}, u = r^6 and
    phi = 2 theta it reads 15 + u (6 e^{3 i phi} - 14 e^{i phi}) = 0: the
    imaginary part gives sin^2 phi = 1/6 and the real part u = 5/(4 cos phi)
    = sqrt(30)/4.
    """
    return (math.sqrt(30) / 4) ** (1 / 6) * cmath.exp(0.5j * math.asin(1 / math.sqrt(6)))


def polynomial_registry():
    """Explicit critically fixed polynomials used by the gallery schemas."""
    s2 = 1.0 / math.sqrt(2.0)
    cbrt3 = 3.0 ** (1.0 / 3.0)
    entries = [
        PolynomialEntry(
            "cubic_power", (0j, 0j, 0j, 1 + 0j),
            ((0j, 2),), (0j,)),
        PolynomialEntry(
            "cubic_two_basins", (0j, 1.5 + 0j, 0j, 1 + 0j),
            ((1j * s2, 1), (-1j * s2, 1)), (0j, 1j * s2, -1j * s2)),
        PolynomialEntry(
            "quartic_double", (0j, 0j, 0j, 4.0 / 9.0 ** (1.0 / 3.0) + 0j, 1 + 0j),
            ((0j, 2), (-cbrt3 + 0j, 1)), (0j, -cbrt3 + 0j)),
    ]
    alpha = _alpha_degree7()
    a5 = -(7.0 / 5.0) * (alpha ** 2 + alpha.conjugate() ** 2)
    a3 = (7.0 / 3.0) * abs(alpha) ** 4
    entries.append(PolynomialEntry(
        "deg7_symmetric",
        (0j, 0j, 0j, a3, 0j, a5, 0j, 1 + 0j),
        ((0j, 2), (alpha, 1), (alpha.conjugate(), 1), (-alpha, 1),
         (-alpha.conjugate(), 1)),
        (0j, alpha, alpha.conjugate(), -alpha, -alpha.conjugate())))
    return {e.name: e for e in entries}


# -- schema serialization -------------------------------------------------------------

def schema_to_dict(slots, contact: ContactData, polynomial: str | None = None):
    d = {
        "schema_version": SCHEMA_VERSION,
        "slots": [],
        "identifications": [{"corners": [[h, k] for (h, k) in cls]}
                            for cls in contact.classes],
    }
    for s in slots:
        if s.kind == "group":
            d["slots"].append({"kind": "group", "n": s.n, "p": s.p, "case": s.case,
                               "placement": "unbounded" if s.unbounded else "bounded"})
        else:
            d["slots"].append({"kind": "blaschke", "degree": s.degree,
                               "placement": "bounded"})
    if polynomial:
        d["polynomial"] = polynomial
    return d


def _corner_index(v) -> int:
    """v if it is an int (not a bool); int() would truncate 0.9 and "2"."""
    if type(v) is int:
        return v
    if isinstance(v, (bool, float, str)):
        raise ValueError(f"corner index must be an integer, not {v!r}")
    raise TypeError                 # null, arrays, objects: a malformed document


def _incidence(inc) -> tuple:
    """(slot, corner) of a pair [slot, corner]; TypeError for any other shape."""
    if not isinstance(inc, (list, tuple)) or len(inc) != 2:
        raise TypeError
    return _corner_index(inc[0]), _corner_index(inc[1])


def _json_count(v, name: str) -> int:
    """as_count, but JSON's true and false are no integers."""
    if isinstance(v, bool):
        raise InvalidArgument(f"{name} must be an integer, not {v!r}")
    return as_count(v, name)


def _unbounded(slot_doc) -> bool:
    """A slot's placement: "unbounded", or "bounded" where it is absent."""
    placement = slot_doc.get("placement", "bounded")
    if placement not in ("bounded", "unbounded"):
        raise DegenerateInput('placement must be "bounded" or "unbounded", '
                              f"not {placement!r}")
    return placement == "unbounded"


def schema_from_dict(d):
    """(slots, contact, polynomial) of a schema document.

    A document of the wrong shape raises DegenerateInput, and so do a
    placement other than "bounded" or "unbounded" (absent means bounded) and
    an unbounded Blaschke slot.  A slot count (n, p, degree) that is no
    JSON integer (true and false included) raises InvalidArgument.  A corner
    index must be a JSON integer: a number or string of any other kind
    raises ValueError, a usage error, and so does a boolean.  A polynomial
    that is present must be a string, or DegenerateInput.
    """
    if not isinstance(d, dict) or not isinstance(d.get("slots"), list):
        raise DegenerateInput("schema document needs a 'slots' array")
    slots = []
    for s in d["slots"]:
        kind = s.get("kind") if isinstance(s, dict) else None
        try:
            if kind == "group":
                slots.append(group_slot(_json_count(s["n"], "n"), _json_count(s["p"], "p"),
                                        s.get("case", CASE_I), _unbounded(s)))
            elif kind == "blaschke":
                slot = Slot("blaschke", degree=_json_count(s["degree"], "degree"),
                            unbounded=_unbounded(s))
                slot.validate()
                slots.append(slot)
            else:
                raise DegenerateInput(f"unknown slot {s!r}")
        except KeyError as exc:
            raise DegenerateInput(f"a {kind} slot needs {exc}") from None
    try:
        classes = tuple(tuple(_incidence(inc) for inc in cls["corners"])
                        for cls in d.get("identifications", []))
    except (TypeError, KeyError):
        raise DegenerateInput("'identifications' needs an array of "
                              "{\"corners\": [[slot, corner], ...]}") from None
    if "polynomial" in d and not isinstance(d["polynomial"], str):
        raise DegenerateInput(f"'polynomial' must be a string, not {d['polynomial']!r}")
    return tuple(slots), ContactData(classes), d.get("polynomial")


def _not_json(constant):
    raise ValueError(f"{constant} is not JSON")     # json.load takes NaN and Infinity


def load_schema(path):
    with open(path, "r", encoding="utf-8") as fh:
        return schema_from_dict(json.load(fh, parse_constant=_not_json))


# -- gallery fixtures ----------------------------------------------------------------

def newton_schema(n: int):
    """n immediate basins each carrying the (3,1) factor map, all teardrop
    corners identified at one point (the image of infinity); an n that is not
    an integer raises InvalidArgument."""
    n = as_count(n, "n")
    if n < 3:
        raise DegenerateInput("Newton schema needs n >= 3")
    if n > fuchsian.TILE_BUDGET:
        raise RankLimit(f"{n} basins, more than the budget of {fuchsian.TILE_BUDGET}")
    slots = (group_slot(3, 1),) * n
    contact = ContactData((tuple((i, 0) for i in range(n)),))
    return slots, contact


def paper_example(name: str):
    """Schema fixtures for the gallery examples (slots, contact, polynomial)."""
    if name == "5.1":
        slots = (group_slot(1, 4, unbounded=True), group_slot(1, 4))
        contact = ContactData(tuple(((0, k), (1, (-k) % 4)) for k in range(4)))
        return slots, contact, "cubic_power"
    if name == "5.2":
        slots = (group_slot(1, 4, unbounded=True), blaschke_slot(2), blaschke_slot(2))
        contact = ContactData((((0, 0), (0, 2)),))
        return slots, contact, "cubic_two_basins"
    if name == "5.3":
        slots = (group_slot(1, 4, unbounded=True), group_slot(3, 1), group_slot(3, 1))
        contact = ContactData((((0, 0), (1, 0), (0, 2), (2, 0)),))
        return slots, contact, "cubic_two_basins"
    if name == "5.4":
        slots = (group_slot(1, 4, CASE_II, unbounded=True), group_slot(3, 1),
                 blaschke_slot(2))
        return slots, ContactData(()), "cubic_two_basins"
    if name == "5.5":
        slots = (group_slot(5, 1, unbounded=True), group_slot(1, 4, CASE_II),
                 group_slot(1, 3))
        return slots, ContactData(()), "quartic_double"
    newton = NEWTON_NAME.fullmatch(name)
    if newton:
        slots, contact = newton_schema(int(newton[1] or 3))
        return slots, contact, None
    if name == "final":
        slots = (group_slot(4, 1), group_slot(3, 1), group_slot(3, 1),
                 group_slot(3, 1), blaschke_slot(2))
        contact = ContactData((((1, 0), (2, 0), (3, 0)),))
        return slots, contact, "deg7_symmetric"
    raise DegenerateInput(f"unknown example {name!r}")


PAPER_EXAMPLES = ("5.1", "5.2", "5.3", "5.4", "5.5", "final")
#: gallery names of the Newton family: 5.6 (n = 3) or 5.6:<n>, n in ASCII digits
NEWTON_NAME = re.compile(r"5\.6(?::(-?[0-9]+))?")


# -- randomized schemas -----------------------------------------------------------

_RANDOM_POOL = ((1, 3, CASE_I), (1, 4, CASE_I), (1, 5, CASE_I), (3, 1, CASE_I),
                (4, 1, CASE_I), (5, 1, CASE_I), (3, 2, CASE_I),
                (1, 4, CASE_II), (1, 6, CASE_II))


def random_schema(rng):
    """A random valid schema (slots, contact) for property sweeps.

    Patterns: isolated holes, fixed-corner wedge trees, a Newton-style
    multi-wedge, a fixed-corner pinch inside one hole, and the two-hole full
    corner pairing.  All are planar by construction; assemble() re-validates.
    """
    pattern = rng.choice(["isolated", "tree", "multiwedge", "pinch", "pairing"])
    if pattern == "isolated":
        k = rng.randint(1, 3)
        slots = tuple(group_slot(*_RANDOM_POOL[rng.randrange(len(_RANDOM_POOL))])
                      for _ in range(k))
        slots += tuple(blaschke_slot(rng.randint(2, 4))
                       for _ in range(rng.randint(0, 2)))
        return slots, ContactData(())
    if pattern == "tree":
        # Case I holes wedged at their fixed corner 0 along a random tree
        k = rng.randint(2, 4)
        pool = [ps for ps in _RANDOM_POOL if ps[2] == CASE_I]
        slots = tuple(group_slot(*pool[rng.randrange(len(pool))]) for _ in range(k))
        classes = []
        for child in range(1, k):
            parent = rng.randrange(child)
            # attach child's corner 0 to parent's corner 0 or p/2 (if fixed)
            pc = 0
            if slots[parent].p % 2 == 0 and rng.random() < 0.5:
                pc = slots[parent].p // 2
            classes.append(((parent, pc), (child, 0)))
        merged = _merge_classes(classes)
        return slots, ContactData(merged)
    if pattern == "multiwedge":
        k = rng.randint(3, 6)
        slots = tuple(group_slot(3, 1) if rng.random() < 0.7 else group_slot(4, 1)
                      for _ in range(k))
        contact = ContactData((tuple((i, 0) for i in range(k)),))
        return slots, contact
    if pattern == "pinch":
        p = rng.choice([4, 6])
        slots = (group_slot(1, p),)
        slots += tuple(blaschke_slot(rng.randint(2, 3))
                       for _ in range(rng.randint(0, 2)))
        contact = ContactData((((0, 0), (0, p // 2)),))
        return slots, contact
    p = rng.choice([3, 4, 5])
    slots = (group_slot(1, p, unbounded=True), group_slot(1, p))
    contact = ContactData(tuple(((0, k), (1, (-k) % p)) for k in range(p)))
    return slots, contact


def _merge_classes(classes):
    """Union overlapping identification pairs into classes (tree wedges can
    attach several children at the same parent corner)."""
    out = []
    for cls in classes:
        hit = None
        for existing in out:
            if set(existing) & set(cls):
                hit = existing
                break
        if hit is None:
            out.append(list(cls))
        else:
            hit.extend(inc for inc in cls if inc not in hit)
    return tuple(tuple(cls) for cls in out)
