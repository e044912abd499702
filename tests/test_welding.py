import random

import pytest

import weldlab.mating_schema as ms
import weldlab.welding as wl
from test_mating_schema import DictUnionFind, arc_faces
from weldlab.errors import WeldlabError, ZipNotSphere


class CrosscheckFailed(WeldlabError):
    """Genus / fixed-point identities disagree (see genus_crosscheck)."""


def surface_of(name):
    slots, contact, _ = ms.paper_example(name)
    bc = ms.assemble(slots, contact)
    wc = wl.weld(bc)
    return bc, wc, wl.surface_report(wc)


# -- golden table --------------------------------------------------------------

GOLDEN = {
    "5.1": dict(comps=4, genera=[0, 0, 0, 0], zipped=2),
    "5.2": dict(comps=2, genera=[0, 0], zipped=1),
    "5.3": dict(comps=1, genera=[0], zipped=1),
    "5.4": dict(comps=1, genera=[1], zipped=1),
    "5.5": dict(comps=1, genera=[2], zipped=1),
    "final": dict(comps=1, genera=[2], zipped=1),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_topology(name):
    bc, wc, sr = surface_of(name)
    want = GOLDEN[name]
    assert len(sr.components) == want["comps"]
    assert sorted(c.genus for c in sr.components) == sorted(want["genera"])
    assert len(sr.zipped) == want["zipped"]
    for z in sr.zipped:
        assert z["euler_characteristic"] == 2


def test_example_5_1_structure():
    bc, wc, sr = surface_of("5.1")
    g = sr.welding_graph
    assert len(g.vertices()) == 8
    assert len(g.components()) == 4
    # eta pairs the four spheres in two 2-cycles
    assert all(not c.eta_invariant for c in sr.components)
    comps = [frozenset(c.faces) for c in sr.components]
    for c in sr.components:
        img = frozenset((fi, -cp) for (fi, cp) in c.faces)
        assert img in comps and img != frozenset(c.faces)


def test_example_5_2_eta_transitive():
    bc, wc, sr = surface_of("5.2")
    assert all(not c.eta_invariant for c in sr.components)
    assert len(sr.zipped) == 1


def test_example_5_3_two_fixed_points():
    bc, wc, sr = surface_of("5.3")
    c = sr.components[0]
    assert c.eta_invariant and c.fix_eta == 2 and c.genus == 0


def test_example_5_4_torus():
    bc, wc, sr = surface_of("5.4")
    c = sr.components[0]
    assert c.euler_characteristic == 0
    assert c.genus == 1
    assert c.fix_eta == 4
    assert bc.order2_total() == 3


def test_example_5_5_genus_two():
    bc, wc, sr = surface_of("5.5")
    c = sr.components[0]
    assert c.euler_characteristic == -2 and c.genus == 2 and c.fix_eta == 6


def test_final_example_genus_two():
    bc, wc, sr = surface_of("final")
    assert sr.components[0].genus == 2


def test_single_disk_doubles_to_sphere():
    # one Case II hole, no identifications: doubling a disk gives a sphere
    slots = (ms.group_slot(1, 4, ms.CASE_II, unbounded=True),)
    bc = ms.assemble(slots, ms.ContactData(()))
    sr = wl.surface_report(wl.weld(bc))
    assert len(sr.components) == 1
    assert sr.components[0].euler_characteristic == 2
    assert sr.components[0].fix_eta == 2


def test_single_odd_hole_doubles_to_sphere():
    # Case I odd p: the fixed corner and the side midpoint give Fix(eta) = 2
    slots = (ms.group_slot(1, 5, unbounded=True),)
    bc = ms.assemble(slots, ms.ContactData(()))
    sr = wl.surface_report(wl.weld(bc))
    c = sr.components[0]
    assert c.euler_characteristic == 2 and c.genus == 0 and c.fix_eta == 2


@pytest.mark.parametrize("fault", ["fixed", "outside", "float", "bool", "short"])
def test_weld_guards_malformed_involution(fault):
    # s_action must be a fixed-point-free involution on the arc indices
    from weldlab.errors import GluingInconsistency
    bc = ms.assemble(*ms.paper_example("5.4")[:2])
    S = bc.s_action
    b = S[0]
    if fault == "short":
        S.pop()
    else:
        S[0] = {"fixed": 0, "outside": len(S), "float": float(b), "bool": True}[fault]
    with pytest.raises(GluingInconsistency, match="not a fixed-point-free involution"):
        wl.weld(bc)


@pytest.mark.parametrize("fault", ["repeat", "outside", "float", "bool", "tuple",
                                   "forward", "triple", "list"])
def test_weld_refuses_each_bad_dart(fault):
    # each entry of a face cycle must be an integer arc walked once, E in
    # all; a dart in the old (a, -1) form, or any other shape, is refused
    from weldlab.errors import GluingInconsistency
    bc = ms.assemble(*ms.paper_example("5.4")[:2])
    cyc = bc.faces[0][0]
    a = cyc[1]
    cyc[1] = {"repeat": cyc[0], "outside": len(bc.arcs), "float": float(a), "bool": True,
              "tuple": (a, -1), "forward": (a, +1), "triple": (a, -1, 0),
              "list": [a, -1]}[fault]
    with pytest.raises(GluingInconsistency, match="each arc once backward"):
        wl.weld(bc)


@pytest.mark.parametrize("n", range(3, 11))
def test_newton_genus_law(n):
    slots, contact = ms.newton_schema(n)
    bc = ms.assemble(slots, contact)
    sr = wl.surface_report(wl.weld(bc))
    want = n // 2 - 1 if n % 2 == 0 else (n - 1) // 2
    assert len(sr.components) == 1
    assert sr.components[0].genus == want
    # Fix(eta): n interior fixed points plus the parity contribution of the
    # singular wedge class
    assert sr.components[0].fix_eta == n + (1 if n % 2 else 0)
    genus_crosscheck(sr, bc)


# -- lemma checks --------------------------------------------------------------

def fixtures_and_sweep(count=100, seed=20260809):
    rng = random.Random(seed)
    for name in ms.PAPER_EXAMPLES:
        slots, contact, _ = ms.paper_example(name)
        yield ms.assemble(slots, contact)
    for n in range(3, 8):
        slots, contact = ms.newton_schema(n)
        yield ms.assemble(slots, contact)
    for _ in range(count):
        slots, contact = ms.random_schema(rng)
        yield ms.assemble(slots, contact)


def test_lemma_4_6_edge_symmetry():
    for bc in fixtures_and_sweep():
        graph = wl.welding_graph(bc)
        assert all((b, a) in graph.edges for (a, b) in graph.edges)


def test_lemma_4_7_component_bijection():
    for bc in fixtures_and_sweep():
        wc = wl.weld(bc)
        g = wl.welding_graph(bc)
        assert len(g.components()) == len(wc.components)


def test_components_come_in_least_face_copy_order():
    # each component lists its copies as they rise, (f, -1) before (f, +1),
    # and the components come in the order of their least copy
    schemas = [ms.paper_example(name)[:2] for name in ms.PAPER_EXAMPLES]
    rng = random.Random(7)
    schemas += [ms.random_schema(rng) for _ in range(600)]
    for slots, contact in schemas:
        comps = wl.welding_graph(ms.assemble(slots, contact)).components()
        assert all(c == sorted(c) for c in comps)
        assert comps == sorted(comps)


def test_lemma_4_8_four_way():
    for bc in fixtures_and_sweep():
        wc = wl.weld(bc)
        sr = wl.surface_report(wc)
        for c in sr.components:
            minus = {fi for (fi, cp) in c.faces if cp == -1}
            plus = {fi for (fi, cp) in c.faces if cp == +1}
            graph_inv = minus == plus
            weak_inv = bool(minus & plus)
            assert graph_inv == weak_inv == c.eta_invariant


def test_zipped_spheres_everywhere():
    for bc in fixtures_and_sweep():
        for z in wl.zipped_report(bc):
            assert z["euler_characteristic"] == 2


def _corner_links(bc):
    """Pairs of arc-ends meeting at a domain-face corner.

    A face cycle walks its arcs backward, each from its end 'e' to its start
    's'; the corner between consecutive arcs a1, a2 joins the start of a1 to
    the end of a2.
    """
    links = []
    for face in bc.faces:
        for cyc in face:
            k = len(cyc)
            for i in range(k):
                links.append(((cyc[i], "s"), (cyc[(i + 1) % k], "e")))
    return links


def reference_weld_counts(bc):
    """The double's vertices glued on their own: union-find over the arc-end
    symbols (arc, end, copy), eta read off as the copy swap of each class.

    Returns V, Fix(eta) and, per component in weld's order, the face copies,
    the edge set, the vertex count and the eta-fixed vertex count.
    """
    S = bc.s_action
    arcs = bc.arcs
    uf = DictUnionFind([(a, end, copy) for a in range(len(arcs)) for end in ("s", "e")
                        for copy in (+1, -1)])
    for a in range(len(arcs)):
        uf.union((a, "s", +1), (S[a], "e", -1))
        uf.union((a, "e", +1), (S[a], "s", -1))
    for (p, q) in _corner_links(bc):
        for copy in (+1, -1):
            uf.union((p[0], p[1], copy), (q[0], q[1], copy))
    classes = [frozenset(c) for c in uf.classes().values()]
    fixed = [frozenset((a, e, -c) for (a, e, c) in cls) == cls for cls in classes]

    face = arc_faces(bc)
    uf2 = DictUnionFind([(fi, c) for fi in range(len(bc.faces)) for c in (+1, -1)])
    for a in range(len(arcs)):
        uf2.union((face[a], +1), (face[S[a]], -1))
    comps = {}
    for fi in range(len(bc.faces)):
        for c in (+1, -1):
            comps.setdefault(uf2.find((fi, c)), []).append((fi, c))
    out = []
    for faces in sorted(sorted(v) for v in comps.values()):
        # a symbol (a, end, c) lies on face(a) in copy c
        mine = [i for i, cls in enumerate(classes)
                if any((face[a], c) in faces for (a, _, c) in cls)]
        out.append((faces, {a for a in range(len(arcs)) if (face[a], +1) in faces},
                    len(mine), sum(fixed[i] for i in mine)))
    return len(classes), sum(fixed), out


def test_weld_matches_symbol_union_find():
    # chi and eta-fixed counts per component from the rho-cycles equal the
    # union-find gluing's, over the gallery, Newton 3..40 and 2,000 random
    # schemas
    rng = random.Random(20261018)
    schemas = [ms.paper_example(name)[:2] for name in ms.PAPER_EXAMPLES]
    schemas += [ms.newton_schema(n) for n in range(3, 41)]
    schemas += [ms.random_schema(rng) for _ in range(2000)]
    multi = 0
    for slots, contact in schemas:
        bc = ms.assemble(slots, contact)
        wc = wl.weld(bc)
        got = [(list(c.faces), c.euler_characteristic, c.fix_eta) for c in wc.components]
        V, fix, ref = reference_weld_counts(bc)
        want = [(faces, nv - len(edges) + sum(2 - len(bc.faces[fi]) for (fi, _) in faces),
                 nfix) for (faces, edges, nv, nfix) in ref]
        assert (sum(c.fix_eta for c in wc.components), got) == (fix, want)
        multi += len(want) > 1
    assert multi > 100


def test_weld_guards_faces_that_miss_an_arc():
    import copy
    from weldlab.errors import GluingInconsistency
    bc = ms.assemble(*ms.paper_example("5.4")[:2])
    bad = copy.deepcopy(bc)
    bad.faces[0][0].pop()
    with pytest.raises(GluingInconsistency):
        wl.weld(bad)


def reference_zipped_report(bc):
    """The zipped quotient glued on its own: one copy of each face, boundary
    self-glued along a ~ S(a), vertices and components by union-find."""
    S = bc.s_action
    arcs = bc.arcs
    pair_of = {a: min(a, S[a]) for a in range(len(arcs))}
    uf = DictUnionFind([(a, end) for a in range(len(arcs)) for end in ("s", "e")])
    for a in range(len(arcs)):
        uf.union((a, "s"), (S[a], "e"))
        uf.union((a, "e"), (S[a], "s"))
    for (p, q) in _corner_links(bc):
        uf.union(p, q)
    vertex_of = {}
    for vi, cls in enumerate(sorted(uf.classes().values())):
        for sym in cls:
            vertex_of[sym] = vi

    face = arc_faces(bc)
    uf2 = DictUnionFind([("f", fi) for fi in range(len(bc.faces))])
    for a in range(len(arcs)):
        uf2.union(("f", face[a]), ("f", face[S[a]]))
    comp_map = {}
    for fi in range(len(bc.faces)):
        comp_map.setdefault(uf2.find(("f", fi)), []).append(fi)

    out = []
    for key in sorted(comp_map):
        fis = sorted(comp_map[key])
        earcs = {pair_of[a] for a in range(len(arcs)) if face[a] in fis}
        verts = {vertex_of[(a, end)] for a in range(len(arcs))
                 if face[a] in fis for end in ("s", "e")}
        F = sum(2 - len(bc.faces[fi]) for fi in fis)
        chi = len(verts) - len(earcs) + F
        if chi != 2:
            raise ZipNotSphere(f"zipped component chi = {chi}")
        out.append({"faces": fis, "euler_characteristic": chi, "sphere": True})
    return out


def test_eta_quotient_matches_separate_gluing():
    # faces, chi and order, over the gallery, Newton 3..40 and 2,000 random
    # schemas; surface_report must carry the same list
    rng = random.Random(20261018)
    schemas = [ms.paper_example(name)[:2] for name in ms.PAPER_EXAMPLES]
    schemas += [ms.newton_schema(n) for n in range(3, 41)]
    schemas += [ms.random_schema(rng) for _ in range(2000)]
    multi = 0
    for slots, contact in schemas:
        bc = ms.assemble(slots, contact)
        want = reference_zipped_report(bc)
        assert wl.zipped_report(bc) == want
        assert list(wl.surface_report(wl.weld(bc)).zipped) == want
        multi += len(want) > 1
    assert multi > 100


def test_cor_4_14_sweep():
    for bc in fixtures_and_sweep():
        sr = wl.surface_report(wl.weld(bc))
        if sr.connected() and bc.order2_total() >= 3:
            assert sr.components[0].genus >= 1


def test_theorem_4_10_2():
    for bc in fixtures_and_sweep(count=60):
        sr = wl.surface_report(wl.weld(bc))
        for c in sr.components:
            if c.eta_invariant:
                assert c.fix_eta >= 2 and c.fix_eta % 2 == 0
                assert c.euler_characteristic == 2 - (c.fix_eta - 2)
        chis = {}
        for c in sr.components:
            if not c.eta_invariant:
                key = frozenset(fi for (fi, _) in c.faces)
                chis.setdefault(key, set()).add(c.euler_characteristic)
        for vals in chis.values():
            assert len(vals) == 1


def genus_crosscheck(sr, bc):
    """Reference: Prop 4.11 and Cor 4.14 on a connected report.

    g = (#Fix(eta) - 2)/2 must agree with the Euler-characteristic genus,
    and b >= 3 order-2 orbifold points force g >= 1.
    """
    if not sr.connected():
        raise CrosscheckFailed("crosscheck needs a connected surface")
    comp = sr.components[0]
    if not comp.eta_invariant:
        raise CrosscheckFailed("connected surface must be eta-invariant")
    g_fix = (comp.fix_eta - 2) / 2
    if g_fix != comp.genus:
        raise CrosscheckFailed(
            f"(Fix(eta) - 2)/2 = {g_fix} vs chi-genus {comp.genus}")
    b = bc.order2_total()
    if b >= 3 and comp.genus < 1:
        raise CrosscheckFailed(f"b = {b} >= 3 but genus {comp.genus} < 1")
    return True


def euler_additivity_check(wc):
    """Reference: the doubling identity, with the boundary-identification
    adjustment.

    chi(Sigma) = 2 chi(D closed) - 2 V_boundary + E_boundary + V_Sigma: the
    naive double 2 chi - chi(boundary) is corrected because singular vertex
    classes of the domain boundary open up into several vertices of Sigma.
    """
    bc = wc.bc
    V_b = len(bc.corners) + sum(1 for a in bc.arcs if a.piece == 1)
    E_b = len(bc.arcs)
    chi_domain_closed = V_b - E_b + sum(2 - len(f) for f in bc.faces)
    chi_sigma = sum(c.euler_characteristic for c in wc.components)
    V_sigma = reference_weld_counts(bc)[0]
    return chi_sigma == 2 * chi_domain_closed - 2 * V_b + E_b + V_sigma


def test_euler_additivity():
    for bc in fixtures_and_sweep(count=60):
        assert euler_additivity_check(wl.weld(bc))


def test_genus_crosscheck_errors():
    bc = ms.assemble(*ms.paper_example("5.1")[:2])
    sr = wl.surface_report(wl.weld(bc))
    with pytest.raises(CrosscheckFailed):
        genus_crosscheck(sr, bc)  # disconnected


def test_eta_fixed_vertices_match_prop_4_11():
    # two independent genus computations on every connected fixture
    for name in ms.PAPER_EXAMPLES:
        slots, contact, _ = ms.paper_example(name)
        bc = ms.assemble(slots, contact)
        sr = wl.surface_report(wl.weld(bc))
        if sr.connected():
            c = sr.components[0]
            assert (c.fix_eta - 2) // 2 == c.genus == (2 - c.euler_characteristic) // 2
