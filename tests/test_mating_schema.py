import json
import random

import pytest

import weldlab.fuchsian as fuchsian
import weldlab.mating_schema as ms
from weldlab.errors import (DegenerateInput, DegreeMismatch, InconsistentInvolution,
                            InvalidArgument, InvalidCase, NonPlanar,
                            VerificationFailed, WeldlabError)
from weldlab.fuchsian import CASE_I, CASE_II


# -- holes -----------------------------------------------------------------

def _corner_image(slot, k):
    """sigma on the corners of slot's hole in closed form: corner k goes to
    -k mod p in Case I and to 1 - k mod p in Case II."""
    return ((0 if slot.case == CASE_I else 1) - k) % slot.p


def _lone_hole(slot):
    """sigma on corners read off the complex of slot's hole alone (S carries
    the start of each side's first arc to the end of its image), and the
    sides split at a midpoint, where a piece 1 starts."""
    bc = ms.assemble((slot,), ms.ContactData(()))
    corner = {}
    for a, arc in enumerate(bc.arcs):
        if arc.piece == 0:
            image = bc.arcs[bc.s_action[a]]
            corner[arc.side - 1] = bc.corners[image.end][0][1]
    split = [arc.side for arc in bc.arcs if arc.piece == 1]
    return [corner[k] for k in range(slot.p)], split


#: every hole shape of random_schema, and two larger polygons
_HOLE_SHAPES = [ms.group_slot(*shape) for shape in ms._RANDOM_POOL + ((1, 7, CASE_I),
                                                                       (1, 8, CASE_II))]


def test_teardrop_hole():
    slot = ms.group_slot(3, 1)
    assert fuchsian.sigma_side(1, CASE_I) == {1: 1}
    assert fuchsian.self_paired_sides(1, CASE_I) == [1]
    assert _lone_hole(slot) == ([0], [1])
    bc = ms.assemble((slot,), ms.ContactData(()))
    assert bc.arcs == [ms.Arc(0, 1, 0, 0, 1), ms.Arc(0, 1, 1, 1, 0)]


def test_case_ii_hole():
    assert fuchsian.sigma_side(4, CASE_II) == {1: 1, 2: 4, 3: 3, 4: 2}
    assert fuchsian.self_paired_sides(4, CASE_II) == [1, 3]
    # no fixed corner
    assert _lone_hole(ms.group_slot(1, 4, CASE_II)) == ([1, 0, 3, 2], [1, 3])


def test_case_i_hole_fixed_data():
    # fixed corners 0 and 2, and no split side
    assert _lone_hole(ms.group_slot(1, 4)) == ([0, 3, 2, 1], [])
    # fixed corner 0, and side (p+1)/2 split
    assert _lone_hole(ms.group_slot(1, 5)) == ([0, 4, 3, 2, 1], [3])
    for slot in _HOLE_SHAPES:
        assert _lone_hole(slot) == ([_corner_image(slot, k) for k in range(slot.p)],
                                    fuchsian.self_paired_sides(slot.p, slot.case))


@pytest.mark.parametrize("slot", _HOLE_SHAPES, ids=lambda s: f"{s.n},{s.p},{s.case}")
def test_two_corner_class_is_consistent_iff_sigma_keeps_it(slot):
    # assemble derives sigma on corners from sigma on sides; a class {k, j}
    # passes the involution check iff sigma carries it onto itself
    for k in range(slot.p):
        for j in range(k + 1, slot.p):
            keeps = {_corner_image(slot, k), _corner_image(slot, j)} == {k, j}
            try:
                ms.assemble((slot,), ms.ContactData((((0, k), (0, j)),)))
                refused = False
            except InconsistentInvolution as exc:
                refused = "images fall in distinct classes" in str(exc)
            except NonPlanar:
                refused = False
            assert refused != keeps, (k, j)


def test_blaschke_has_no_hole():
    slots = (ms.group_slot(3, 1), ms.blaschke_slot(2))
    with pytest.raises(InconsistentInvolution, match="slot 1 has no hole"):
        ms.assemble(slots, ms.ContactData((((1, 0),),)))


# -- slot checks ------------------------------------------------------------

def _raised(fn, *args):
    try:
        fn(*args)
    except WeldlabError as exc:
        return type(exc)
    return None


def test_slot_checks_raise_as_build_group():
    # group_slot adds only its own np >= 3 check.  build_group runs on every
    # rejected point and on the accepted ones with np <= 48: beyond that the
    # grid's large polygons only add run time.
    for n in range(40):
        for p in range(40):
            for case in (CASE_I, CASE_II, "III"):
                want = _raised(fuchsian.check_parameters, n, p, case)
                slot = DegenerateInput if n * p < 3 else want
                assert _raised(ms.group_slot, n, p, case) is slot, (n, p, case)
                if want is not None or n * p <= 48:
                    assert _raised(fuchsian.build_group, n, p, case) is want, \
                        (n, p, case)


@pytest.mark.parametrize("n,p", [(3.5, 1), (1.5, 1), (3, 2.0), ("3", 1)])
def test_group_slot_counts_must_be_integers(n, p):
    # group_slot(3.5, 1) used to return a Slot with n = 3.5
    with pytest.raises(InvalidArgument, match="must be an integer"):
        ms.group_slot(n, p)
    # blaschke_slot(2.5) used to return a Slot of circle degree 2.5; no
    # product n * p here is an integer
    with pytest.raises(InvalidArgument, match="degree must be an integer"):
        ms.blaschke_slot(n * p)


def test_assemble_builds_no_group(monkeypatch):
    def refuse(*args):
        raise AssertionError("a slot check built a group")

    monkeypatch.setattr(fuchsian, "build_group", refuse)
    bc = ms.assemble(*ms.newton_schema(8))
    assert len(bc.faces) == 1


def test_assemble_checks_each_slot_once_first_failure_first(monkeypatch):
    # newton_schema checks its one slot once and repeats it, and assemble
    # checks it once more; of two different bad slots the first one's error
    # is raised, in either order
    calls = []
    validate = ms.Slot.validate

    def counted(slot):
        calls.append(slot)
        validate(slot)

    monkeypatch.setattr(ms.Slot, "validate", counted)
    slots, contact = ms.newton_schema(50)
    ms.assemble(slots, contact)
    assert calls == [slots[0]] * 2
    bad_case = ms.Slot("group", n=1, p=4, case="III")
    bad_degree = ms.Slot("blaschke", degree=1)
    good = ms.group_slot(1, 4)
    with pytest.raises(InvalidCase, match="unknown case 'III'"):
        ms.assemble((good, bad_case, bad_degree, bad_case), ms.ContactData(()))
    with pytest.raises(DegenerateInput, match="degree >= 2"):
        ms.assemble((good, bad_degree, bad_case, bad_degree), ms.ContactData(()))
    # a slot equal to a good one is still checked: 3.0 == 3, yet n = 3.0 is refused
    with pytest.raises(InvalidArgument, match="n must be an integer, not 3.0"):
        ms.assemble((ms.group_slot(3, 1), ms.Slot("group", n=3.0, p=1)), ms.ContactData(()))


# -- contact validation -------------------------------------------------------

def test_involution_consistency_rejected():
    # identifying a fixed corner with a non-fixed one is inconsistent
    slots = (ms.group_slot(1, 4, unbounded=True), ms.group_slot(1, 4))
    bad = ms.ContactData((((0, 0), (1, 1)),))
    with pytest.raises(InconsistentInvolution):
        ms.assemble(slots, bad)


def test_double_identification_rejected():
    slots = (ms.group_slot(1, 4, unbounded=True), ms.group_slot(3, 1))
    bad = ms.ContactData((((0, 0), (1, 0)), ((0, 0), (0, 2))))
    with pytest.raises(InconsistentInvolution):
        ms.assemble(slots, bad)


@pytest.mark.parametrize("classes,index", [(((),), 0), ((((0, 0), (0, 2)), ()), 1),
                                           (((), ((0, 1), (0, 3))), 0)])
def test_empty_class_is_named(classes, index):
    # an empty class was refused as "images fall in distinct classes set()"
    with pytest.raises(InconsistentInvolution,
                       match=f"^identification class {index} is empty$"):
        ms.assemble((ms.group_slot(1, 4),), ms.ContactData(classes))


@pytest.mark.parametrize("inc", [(0, 1.0), (1, True), (True, 1), (0,), (0, 1, 2),
                                 [0, 1], "01", None])
def test_contact_incidence_must_be_an_integer_pair(inc):
    # (0, 1.0) and (1, True) were stored as corner 1 and printed back as 1.0
    # and true; (0,) raised a raw ValueError
    slots = (ms.group_slot(1, 4), ms.group_slot(1, 4))
    with pytest.raises(InvalidArgument, match="must be a pair of integers"):
        ms.assemble(slots, ms.ContactData(((inc,),)))


def test_swapped_pair_pinch_is_consistent_but_changes_topology():
    # the {1,3} pinch is involution-consistent (its image class is itself)
    slots = (ms.group_slot(1, 4, unbounded=True),)
    contact = ms.ContactData((((0, 1), (0, 3)),))
    bc = ms.assemble(slots, contact)
    assert len(bc.faces) == 2


# -- assembly of the gallery -----------------------------------------------------

def test_example_faces():
    want = {"5.1": 4, "5.2": 2, "5.3": 2, "5.4": 1, "5.5": 1, "final": 1}
    for name, faces in want.items():
        slots, contact, _ = ms.paper_example(name)
        bc = ms.assemble(slots, contact)
        assert len(bc.faces) == faces, name


def test_example_5_4_annulus():
    slots, contact, _ = ms.paper_example("5.4")
    bc = ms.assemble(slots, contact)
    assert len(bc.faces[0]) == 2  # two boundary cycles


def test_example_5_5_pants():
    slots, contact, _ = ms.paper_example("5.5")
    bc = ms.assemble(slots, contact)
    assert len(bc.faces[0]) == 3


def test_newton_wedge():
    for n in (3, 6):
        slots, contact = ms.newton_schema(n)
        bc = ms.assemble(slots, contact)
        assert len(bc.faces) == 1
        assert len(bc.faces[0]) == 1
    with pytest.raises(DegenerateInput):
        ms.newton_schema(2)


@pytest.mark.parametrize("n", [float("nan"), 3.5])
def test_newton_basin_count_must_be_an_integer(n):
    # both used to raise a raw TypeError from range()
    with pytest.raises(InvalidArgument, match="must be an integer"):
        ms.newton_schema(n)


@pytest.mark.parametrize("name", ["5.60", "5.6abc", "5.6: 4", "5.6:4:5", "5.6:x",
                                  "5.6:4.0", "5.6:\u0664", "5.6:", "5.6\n"])
def test_malformed_newton_name_is_unknown(name):
    # the first four returned Newton schemas, the next two raised a raw
    # ValueError, and an Arabic-Indic 4 named 5.6:4
    with pytest.raises(DegenerateInput, match="unknown example"):
        ms.paper_example(name)


def test_holes_built_once_per_shape_and_call(monkeypatch):
    calls = []
    real = fuchsian.sigma_side

    def counted(p, case):
        calls.append((p, case))
        return real(p, case)

    slots = (ms.group_slot(3, 1), ms.group_slot(1, 4, CASE_II), ms.group_slot(3, 1),
             ms.group_slot(1, 4), ms.group_slot(1, 4, CASE_II))
    alone = [a[1:3] for a in ms.assemble(slots[4:], ms.ContactData(())).arcs]
    monkeypatch.setattr(fuchsian, "sigma_side", counted)
    for _ in range(2):
        bc = ms.assemble(slots, ms.ContactData(()))
        assert sorted({a.hole for a in bc.arcs}) == [0, 1, 2, 3, 4]
        # hole 4 shares hole 1's table and is laid out as if alone
        assert [a[1:3] for a in bc.arcs if a.hole == 4] == alone
    assert calls == [(1, CASE_I), (4, CASE_II), (4, CASE_I)] * 2


def test_crossing_pinch_is_not_planar():
    # pinching both fixed corners of two holes at one point leaves too few
    # faces for a sphere
    slots = (ms.group_slot(1, 4), ms.group_slot(1, 4))
    contact = ms.ContactData((((0, 0), (1, 0), (0, 2), (1, 2)),))
    with pytest.raises(NonPlanar, match=r"V - E \+ F = 0, expected 2"):
        ms.assemble(slots, contact)


def test_disconnected_pinch_needs_nesting_data():
    # a hole pinched on itself beside a free hole: the pinched component has
    # two domain faces, and which one holds the other hole is not given
    slots = (ms.group_slot(1, 4), ms.group_slot(1, 4))
    contact = ms.ContactData((((0, 0), (0, 2)),))
    with pytest.raises(NonPlanar, match="disconnected contact graph needs nesting data"):
        ms.assemble(slots, contact)


# -- faces against the traced reference ----------------------------------------------

class DictUnionFind:
    """Disjoint sets of any hashable items, for the reference gluings: path
    halving, union(x, y) keeps y's root, classes() maps each root to its
    items in insertion order."""

    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, x, y):
        self.parent[self.find(x)] = self.find(y)

    def classes(self):
        out = {}
        for x in self.parent:
            out.setdefault(self.find(x), []).append(x)
        return out


def arc_faces(bc):
    """Each arc's face, indexed by arc, read off the face cycles of bc."""
    face = [None] * len(bc.arcs)
    for fi, f in enumerate(bc.faces):
        for cyc in f:
            for a in cyc:
                face[a] = fi
    return face


def reference_trace_faces(arcs, V, corner_classes):
    """Faces traced in the rotation system of darts, walking
    phi = sigma^{-1} o alpha over every dart; the hole interiors come out as
    the forward cycles.  Returns (faces, components) as
    mating_schema._domain_faces does."""
    # darts: (arc index, +1 forward / -1 reverse)
    arc_of = {(a.hole, a.side, a.piece): i for i, a in enumerate(arcs)}
    sides = {}  # hole -> p
    for a in arcs:
        sides[a.hole] = max(sides.get(a.hole, 0), a.side)

    def first_piece(h, s):
        return arc_of[(h, s, 0)]

    def last_piece(h, s):
        return arc_of.get((h, s, 1), arc_of[(h, s, 0)])

    rotation = {}  # vertex id -> ccw list of out-darts
    for vid, cls in enumerate(corner_classes):
        rot = []
        for (h, k) in cls:
            out_side = k + 1
            in_side = k if k > 0 else sides[h]
            rot.append((first_piece(h, out_side), +1))
            rot.append((last_piece(h, in_side), -1))
        rotation[vid] = rot
    for i, a in enumerate(arcs):
        if a.piece == 1:            # piece 1 starts at its side's midpoint
            rotation[a.start] = [(i, +1), (first_piece(a.hole, a.side), -1)]

    def tail(d):
        a, dr = d
        return arcs[a].start if dr > 0 else arcs[a].end

    def alpha(d):
        return (d[0], -d[1])

    pos = {}
    for vid, rot in rotation.items():
        for i, d in enumerate(rot):
            if tail(d) != vid:
                raise InconsistentInvolution("rotation lists a dart at the wrong vertex")
            pos[d] = (vid, i)

    def phi(d):
        vid, i = pos[alpha(d)]
        rot = rotation[vid]
        return rot[(i - 1) % len(rot)]

    # face orbits
    seen = set()
    cycles = []
    for d0 in sorted(pos):
        if d0 in seen:
            continue
        cyc = []
        d = d0
        while True:
            cyc.append(d)
            seen.add(d)
            d = phi(d)
            if d == d0:
                break
        cycles.append(cyc)

    # the hole interiors must come out as full forward cycles
    hole_face_of = {}
    domain_cycles = []
    for cyc in cycles:
        hs = {arcs[a].hole for (a, dr) in cyc}
        if all(dr > 0 for (_, dr) in cyc) and len(hs) == 1:
            h = hs.pop()
            expected = sum(1 for a in arcs if a.hole == h)
            if len(cyc) == expected and h not in hole_face_of:
                hole_face_of[h] = cyc
                continue
        domain_cycles.append(cyc)
    if len(hole_face_of) != len(sides):
        raise NonPlanar("some hole interior failed to close up as a face")
    for cyc in domain_cycles:
        if any(dr > 0 for (_, dr) in cyc):
            raise NonPlanar("a domain face uses a forward (hole-side) dart")

    uf = DictUnionFind(range(V))
    for a in arcs:
        uf.union(a.start, a.end)
    ncomp = len(uf.classes())

    E = len(arcs)
    F = len(cycles)
    if V - E + F != 2 * ncomp:
        raise NonPlanar(f"V - E + F = {V - E + F}, expected {2 * ncomp}")

    if ncomp == 1:
        faces = [[cyc] for cyc in domain_cycles]
    else:
        by_comp = {}
        for cyc in domain_cycles:
            c = uf.find(tail(cyc[0]))
            by_comp.setdefault(c, []).append(cyc)
        if any(len(v) != 1 for v in by_comp.values()):
            raise NonPlanar("disconnected contact graph needs nesting data "
                            "(a component has several domain faces)")
        faces = [[cyc for v in sorted(by_comp) for cyc in by_comp[v]]]
    faces = [[[a for (a, _) in cyc] for cyc in face] for face in faces]

    if len({a for face in faces for cyc in face for a in cyc}) != len(arcs):
        raise NonPlanar("some arc belongs to no domain face")
    return faces, ncomp


def _outcome(fn, *args):
    try:
        return fn(*args)
    except WeldlabError as exc:
        return type(exc), str(exc)


def _random_contact(rng):
    """Random slots and involution-consistent contact data in random ccw order:
    each class is a union of corner-involution orbits, or one corner from
    each of several swapped pairs next to the class of their partners."""
    slots = tuple(ms.group_slot(*rng.choice(ms._RANDOM_POOL))
                  for _ in range(rng.randint(1, 3)))
    orbits = set()
    for h, slot in enumerate(slots):
        orbits |= {tuple(sorted({(h, k), (h, _corner_image(slot, k))}))
                   for k in range(slot.p)}
    orbits = sorted(orbits)
    rng.shuffle(orbits)
    classes = []
    while orbits:
        group = [orbits.pop() for _ in range(min(len(orbits), rng.randint(1, 4)))]
        if all(len(o) == 2 for o in group) and rng.random() < 0.5:
            flips = [rng.randrange(2) for _ in group]
            halves = [[o[f] for o, f in zip(group, flips)],
                      [o[1 - f] for o, f in zip(group, flips)]]
        else:
            halves = [[inc for o in group for inc in o]]
        for cls in halves:
            rng.shuffle(cls)
            if len(cls) > 1 or rng.random() < 0.5:
                classes.append(tuple(cls))
    return slots, ms.ContactData(tuple(classes))


def test_arc_permutation_matches_traced_faces(monkeypatch):
    # faces and components (or the NonPlanar message) of the arc
    # permutation equal those of the traced rotation system, on the gallery,
    # Newton 3..60, 2,000 random schemas and 3,000 random contact data
    rng = random.Random(20261019)
    schemas = [ms.paper_example(name)[:2] for name in ms.PAPER_EXAMPLES]
    schemas += [ms.newton_schema(n) for n in range(3, 61)]
    schemas += [ms.random_schema(rng) for _ in range(2000)]
    schemas += [_random_contact(rng) for _ in range(3000)]
    real = ms._domain_faces
    seen = []

    def both(arcs, first, V, corner_classes):
        got = _outcome(real, arcs, first, V, corner_classes)
        assert got == _outcome(reference_trace_faces, arcs, V, corner_classes)
        seen.append(got[0])
        return real(arcs, first, V, corner_classes)

    monkeypatch.setattr(ms, "_domain_faces", both)
    for slots, contact in schemas:
        _outcome(ms.assemble, slots, contact)
    refused = seen.count(NonPlanar)
    assert refused > 300 and len(seen) - refused > 3000, (refused, len(seen))


def _vertex_involution(bc):
    """S on vertex ids, from the per-hole corner/side involutions: a corner
    class by its incidences, a midpoint by the split side whose piece 1
    starts there."""
    corner = {inc: vid for vid, cls in enumerate(bc.corners) for inc in cls}
    midpoint = {(a.hole, a.side): a.start for a in bc.arcs if a.piece == 1}
    out = {}
    for vid, ((h, k), *_) in enumerate(bc.corners):
        out[vid] = corner[(h, _corner_image(bc.slots[h], k))]
    for (h, s), vid in midpoint.items():
        sigma = fuchsian.sigma_side(bc.slots[h].p, bc.slots[h].case)
        out[vid] = midpoint[(h, sigma[s])]
    return out


def test_s_action_is_involution():
    for name in ms.PAPER_EXAMPLES:
        slots, contact, _ = ms.paper_example(name)
        bc = ms.assemble(slots, contact)
        assert len(bc.s_action) == len(bc.arcs)
        for a, b in enumerate(bc.s_action):
            assert a != b and bc.s_action[b] == a
        sv = _vertex_involution(bc)
        # involution on vertices, fixing exactly the midpoints among them
        for vid, img in sv.items():
            assert sv[img] == vid
            if vid >= len(bc.corners):
                assert img == vid
        # orientation reversal: S(start a) = end(S a), S(end a) = start(S a)
        for i, a in enumerate(bc.arcs):
            img = bc.arcs[bc.s_action[i]]
            assert sv[a.start] == img.end
            assert sv[a.end] == img.start


def test_fixed_point_counts_match_order2():
    # S-fixed points on the desингularized boundary per hole = order-2 count
    for name in ms.PAPER_EXAMPLES:
        slots, contact, _ = ms.paper_example(name)
        bc = ms.assemble(slots, contact)
        assert bc.s_fixed_boundary_points() == bc.order2_total()


def test_vertex_numbering():
    # ids below C are the corner classes, the contact classes as tuples and
    # then each lone corner hole by hole; id C + k is the midpoint where the
    # k-th piece 1 starts and the piece 0 before it ends
    rng = random.Random(7)
    schemas = [ms.paper_example(name)[:2] for name in ms.PAPER_EXAMPLES]
    schemas += [ms.random_schema(rng) for _ in range(600)]
    for slots, contact in schemas:
        bc = ms.assemble(slots, contact)
        claimed = {inc for cls in contact.classes for inc in cls}
        lone = [((h, k),) for h, s in enumerate(slots) if s.kind == "group"
                for k in range(s.p) if (h, k) not in claimed]
        assert bc.corners == [tuple(cls) for cls in contact.classes] + lone
        C = len(bc.corners)
        split = [a for a, arc in enumerate(bc.arcs) if arc.piece == 1]
        for k, a in enumerate(split):
            hole, side = bc.arcs[a][:2]
            assert bc.arcs[a - 1][:3] == (hole, side, 0)
            assert bc.arcs[a].start == bc.arcs[a - 1].end == C + k
        ends = {v for arc in bc.arcs for v in (arc.start, arc.end)}
        assert ends == set(range(C + len(split)))
        assert bc.s_fixed_boundary_points() == len(split) == bc.order2_total()


def test_every_arc_has_one_face():
    for name in ms.PAPER_EXAMPLES:
        slots, contact, _ = ms.paper_example(name)
        bc = ms.assemble(slots, contact)
        # each arc lies on one cycle of one face, and arc_faces names that face
        on = sorted((a, fi) for fi, face in enumerate(bc.faces) for cyc in face
                    for a in cyc)
        assert on == list(enumerate(arc_faces(bc)))
        assert len(on) == len(bc.arcs)


# -- degrees -------------------------------------------------------------------

def test_degree_reports():
    cases = {"5.4": (3, 4), "5.5": (4, 5), "final": (7, 8), "5.1": (3, 4)}
    for name, (dp, dr) in cases.items():
        slots, contact, _ = ms.paper_example(name)
        rep = ms.validate_degrees(slots)
        assert rep["polynomial_degree"] == dp
        assert rep["uniformizing_degree_if_connected"] == dr


def test_unbounded_degree_mismatch():
    slots = (ms.group_slot(1, 6, unbounded=True), ms.group_slot(3, 1))
    with pytest.raises(DegreeMismatch):
        ms.validate_degrees(slots)


# -- polynomial registry ----------------------------------------------------------

def test_registry_verifies():
    reg = ms.polynomial_registry()
    for name in ("cubic_power", "cubic_two_basins", "quartic_double",
                 "deg7_symmetric"):
        rep = ms.verify_polynomial(reg[name])
        assert all(c["ok"] for c in rep["critical_points"])


def test_registry_multiplicity_sum():
    # finite multiplicities + (d-1 at infinity) = 2d - 2
    for e in ms.polynomial_registry().values():
        total = sum(m for (_, m) in e.critical_points)
        assert total + (e.degree() - 1) == 2 * e.degree() - 2


def test_cubic_two_basins_values():
    import math
    e = ms.polynomial_registry()["cubic_two_basins"]
    s2 = 1 / math.sqrt(2)
    assert abs(e(1j * s2) - 1j * s2) < 1e-12
    assert abs(e.eval_derivative(1j * s2)) < 1e-12


def test_alpha_oracle():
    a = ms._alpha_degree7()
    assert a.real > 0 and a.imag > 0
    res = abs(15 * a + 6 * a ** 7 - 14 * a ** 5 * a.conjugate() ** 2)
    assert res < 1e-10


def test_bad_polynomial_fails():
    bad = ms.PolynomialEntry("bad", (0j, 1 + 0j, 0j, 1 + 0j), ((0.5 + 0j, 1),),
                             (0j,))
    with pytest.raises(VerificationFailed):
        ms.verify_polynomial(bad)


# -- serialization -----------------------------------------------------------------

def test_schema_round_trip(tmp_path):
    slots, contact, poly = ms.paper_example("5.4")
    doc = ms.schema_to_dict(slots, contact, poly)
    path = tmp_path / "schema.json"
    path.write_text(json.dumps(doc))
    slots2, contact2, poly2 = ms.load_schema(path)
    assert poly2 == poly
    assert [s.kind for s in slots2] == [s.kind for s in slots]
    assert contact2.classes == contact.classes
    bc1 = ms.assemble(slots, contact)
    bc2 = ms.assemble(slots2, contact2)
    assert len(bc1.faces) == len(bc2.faces)


def test_random_schemas_assemble():
    import random
    rng = random.Random(1)
    for _ in range(60):
        slots, contact = ms.random_schema(rng)
        bc = ms.assemble(slots, contact)
        assert len(bc.faces) >= 1
