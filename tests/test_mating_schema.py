import json

import pytest

import weldlab.fuchsian as fuchsian
import weldlab.mating_schema as ms
from weldlab.errors import (BlaschkeHasNoHole, DegenerateInput, DegreeMismatch,
                            InconsistentInvolution, VerificationFailed,
                            WeldlabError)
from weldlab.fuchsian import CASE_I, CASE_II


# -- holes -----------------------------------------------------------------

def test_teardrop_hole():
    hb = ms.build_hole(ms.group_slot(3, 1))
    assert hb.p == 1
    assert hb.fixed_corners == (0,)
    assert hb.interior_fixed_sides == (1,)
    assert hb.sigma_side == {1: 1}


def test_case_ii_hole():
    hb = ms.build_hole(ms.group_slot(1, 4, CASE_II))
    assert hb.fixed_corners == ()
    assert hb.interior_fixed_sides == (1, 3)
    assert hb.sigma_side == {1: 1, 2: 4, 3: 3, 4: 2}


def test_case_i_hole_fixed_data():
    hb = ms.build_hole(ms.group_slot(1, 4))
    assert hb.fixed_corners == (0, 2)
    assert hb.interior_fixed_sides == ()
    hb5 = ms.build_hole(ms.group_slot(1, 5))
    assert hb5.fixed_corners == (0,)
    assert hb5.interior_fixed_sides == (3,)  # (p+1)/2


def test_blaschke_has_no_hole():
    with pytest.raises(BlaschkeHasNoHole):
        ms.build_hole(ms.blaschke_slot(2))


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


def test_assemble_builds_no_group(monkeypatch):
    def refuse(*args):
        raise AssertionError("a slot check built a group")

    monkeypatch.setattr(fuchsian, "build_group", refuse)
    bc = ms.assemble(*ms.newton_schema(8))
    assert bc.face_count() == 1


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


def test_swapped_pair_pinch_is_consistent_but_changes_topology():
    # the {1,3} pinch is involution-consistent (its image class is itself)
    slots = (ms.group_slot(1, 4, unbounded=True),)
    contact = ms.ContactData((((0, 1), (0, 3)),))
    bc = ms.assemble(slots, contact)
    assert bc.face_count() == 2


# -- assembly of the gallery -----------------------------------------------------

def test_example_faces():
    want = {"5.1": 4, "5.2": 2, "5.3": 2, "5.4": 1, "5.5": 1, "final": 1}
    for name, faces in want.items():
        slots, contact, _ = ms.paper_example(name)
        bc = ms.assemble(slots, contact)
        assert bc.face_count() == faces, name


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
        assert bc.face_count() == 1
        assert len(bc.faces[0]) == 1
    with pytest.raises(DegenerateInput):
        ms.newton_schema(2)


def _vertex_involution(bc):
    """S on vertex classes, from the per-hole corner/side involutions."""
    lookup = {}
    for vid, v in enumerate(bc.vertices):
        for inc in v["incidences"]:
            lookup[(v["kind"], inc)] = vid
    out = {}
    for vid, v in enumerate(bc.vertices):
        if v["kind"] == "corner":
            (h, k) = v["incidences"][0]
            out[vid] = lookup[("corner", (h, bc.holes[h].sigma_corner[k]))]
        else:
            (h, s) = v["incidences"][0]
            out[vid] = lookup[("midpoint", (h, bc.holes[h].sigma_side[s]))]
    return out


def test_s_action_is_involution():
    for name in ms.PAPER_EXAMPLES:
        slots, contact, _ = ms.paper_example(name)
        bc = ms.assemble(slots, contact)
        for a, b in bc.s_action.items():
            assert a != b and bc.s_action[b] == a
        sv = _vertex_involution(bc)
        # involution on vertices, fixing exactly the midpoints among them
        for vid, img in sv.items():
            assert sv[img] == vid
            if bc.vertices[vid]["kind"] == "midpoint":
                assert img == vid
        # orientation reversal: S(start a) = end(S a), S(end a) = start(S a)
        for a in bc.arcs:
            img = bc.arcs[bc.s_action[a.index]]
            assert sv[a.start] == img.end
            assert sv[a.end] == img.start


def test_fixed_point_counts_match_order2():
    # S-fixed points on the desингularized boundary per hole = order-2 count
    for name in ms.PAPER_EXAMPLES:
        slots, contact, _ = ms.paper_example(name)
        bc = ms.assemble(slots, contact)
        assert bc.s_fixed_boundary_points() == bc.order2_total()


def test_every_arc_has_one_face():
    for name in ms.PAPER_EXAMPLES:
        slots, contact, _ = ms.paper_example(name)
        bc = ms.assemble(slots, contact)
        assert sorted(bc.arc_face) == [a.index for a in bc.arcs]


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
    assert bc1.face_count() == bc2.face_count()


def test_random_schemas_assemble():
    import random
    rng = random.Random(1)
    for _ in range(60):
        slots, contact = ms.random_schema(rng)
        bc = ms.assemble(slots, contact)
        assert bc.face_count() >= 1
