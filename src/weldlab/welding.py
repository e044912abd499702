"""Welding graph, doubled blender complex, and zipped quotient Sigma/eta.

Two copies of the multi-domain are glued along the desingularized boundary
via the involution S: edge e_a of the double identifies arc a in copy + with
arc S(a) in copy -, matching start(a) with end(S(a)).  The hyperelliptic
involution eta swaps the copies.  Since arcs are pre-split at the S-fixed
interior points, eta has no fixed edges and Fix(eta) is a pure vertex count.

Vertices of the double are the cycles of the arc permutation prev o S (see
weld): the singular points of the boundary open up into several vertices,
which is exactly what makes the fixed-point accounting of the welded surface
come out right (the Newton-family parity emerges rather than being
hard-coded).  Fix(eta) is the number of odd cycles.

The zipped surface (one copy of each face, boundary glued along a ~ S(a)) is
the quotient Sigma/eta, read off the welded complex one eta-orbit of
components at a time and checked against Riemann-Hurwitz.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import CrosscheckFailed, GluingInconsistency, ZipNotSphere
from .mating_schema import BoundaryComplex, _UnionFind


# -- welding graph --------------------------------------------------------------

class WeldingGraph(NamedTuple):
    """Graph on the formal copies v_i^+/- of the domain faces.

    v_{i1}^- and v_{i2}^+ share an edge iff S carries some boundary arc of
    face i1 into the boundary of face i2.
    """

    num_faces: int
    edges: frozenset       # frozenset of (i1, i2): edge v_{i1}^- ~ v_{i2}^+

    def vertices(self):
        return [(i, sgn) for i in range(self.num_faces) for sgn in (-1, +1)]

    def components(self):
        uf = _UnionFind(self.vertices())
        for (a, b) in self.edges:
            uf.union((a, -1), (b, +1))
        comps = sorted(sorted(vs) for vs in uf.classes().values())
        return comps


def welding_graph(bc: BoundaryComplex) -> WeldingGraph:
    edges = set()
    for a, b in bc.s_action.items():
        edges.add((bc.arc_face[a], bc.arc_face[b]))
    return WeldingGraph(bc.face_count(), frozenset(edges))


# -- welded complex ----------------------------------------------------------------

class WeldedComplex(NamedTuple):
    bc: BoundaryComplex      # edge e_a = {a^+, S(a)^-} for each arc index a
    eta_vertex: dict         # vertex index -> vertex index
    components: list         # per component: dict of cell sets
    comp_of_face_copy: dict
    graph: WeldingGraph      # its components are those of the double


def weld(bc: BoundaryComplex) -> WeldedComplex:
    """Glue two copies of the domain closure along the boundary involution.

    The vertices of the double are the cycles of one arc permutation.  Let
    prev(a) be the arc before a on its domain face (faces walk their arcs
    backward, so the face corner at the end of a is the start of prev(a))
    and rho = prev o S.  The gluing carries the start of arc a in copy c to
    the end of S(a) in copy -c, and the corner there to the start of
    prev(S(a)): each vertex is a rho-cycle walked with alternating copies.
    An odd cycle returns to a in the other copy, so it is one vertex that
    eta fixes; an even cycle is two vertices that eta swaps.  Fix(eta) is
    the number of odd rho-cycles.

    eta permutes the vertices by construction, and a vertex never spans two
    components: each corner step stays in its face copy and each gluing step
    stays on its edge.
    """
    E = len(bc.arcs)
    S = bc.s_action
    # guard hand-built complexes: the gluing needs a fixed-point-free arc
    # involution (fixed points of S are vertices because arcs are pre-split)
    for a in range(E):
        if S.get(S.get(a)) != a or S[a] == a:
            raise GluingInconsistency("s_action is not a fixed-point-free involution")
    # one pass over the darts: each is (a, -1) for an arc a not walked before,
    # and then the E arcs are all walked once backward
    once = "the domain faces do not traverse each arc once backward"
    prev = [-1] * E
    for face in bc.faces:
        for cyc in face:
            b = E                # the cycle's last arc, set once the cycle closes
            for dart in cyc:
                if (type(dart) is not tuple or len(dart) != 2 or dart[1] != -1
                        or type(a := dart[0]) is not int or not 0 <= a < E
                        or prev[a] != -1):
                    raise GluingInconsistency(once)
                prev[a] = b
                b = a
            if cyc:
                prev[cyc[0][0]] = b
    if -1 in prev:
        raise GluingInconsistency(once)

    # Orientability is structural: edge e_a borders face(a) in copy + (which
    # traverses arc a backward) and face(S a) in copy - (whose walk traverses
    # S a backward, i.e. arc a forward through the orientation-reversing
    # gluing).  Each edge is thus traversed once in each direction, so both
    # copies keep their original orientation and the double is oriented.

    # components: edge e_a joins face(a) in copy + to face(S a) in copy -,
    # the welding-graph edge v_{face(S a)}^- ~ v_{face(a)}^+ of arc S(a), so
    # the double's components are the graph's (Lemma 4.7)
    graph = welding_graph(bc)
    components = []
    comp_of_face_copy = {}
    for comp_faces in graph.components():
        for fc in comp_faces:
            comp_of_face_copy[fc] = len(components)
        components.append({"faces": comp_faces, "edges": set(), "vertices": set()})
    for a in range(E):
        components[comp_of_face_copy[(bc.arc_face[a], +1)]]["edges"].add(a)

    # walk each rho-cycle once; the start of arc a in copy c lies on face(a)
    # in copy c
    eta_vertex = {}
    seen = [False] * E
    for a0 in range(E):
        if seen[a0]:
            continue
        a, length = a0, 0
        while not seen[a]:
            seen[a] = True
            length += 1
            a = prev[S[a]]
        v = len(eta_vertex)
        if length % 2:     # one vertex through both copies, fixed by eta
            eta_vertex[v] = v
            placed = ((v, +1),)
        else:              # one vertex per copy, swapped by eta
            eta_vertex[v], eta_vertex[v + 1] = v + 1, v
            placed = ((v, +1), (v + 1, -1))
        for w, c in placed:
            components[comp_of_face_copy[(bc.arc_face[a0], c)]]["vertices"].add(w)

    return WeldedComplex(bc, eta_vertex, components, comp_of_face_copy, graph)


# -- surface report ------------------------------------------------------------------

class ComponentReport(NamedTuple):
    index: int
    faces: tuple
    euler_characteristic: int
    genus: int
    eta_invariant: bool
    fix_eta: int          # eta-fixed vertices on this component (0 if not invariant)


class SurfaceReport(NamedTuple):
    components: tuple
    welding_graph: WeldingGraph
    zipped: tuple          # per zipped component: {"euler_characteristic": 2, ...}

    def connected(self):
        return len(self.components) == 1


def component_euler(bc: BoundaryComplex, comp) -> int:
    """chi via compactly-supported counts: V - E + sum over face copies (2 - b)."""
    V = len(comp["vertices"])
    E = len(comp["edges"])
    F = sum(2 - len(bc.faces[fi]) for (fi, _) in comp["faces"])
    return V - E + F


def surface_report(wc: WeldedComplex) -> SurfaceReport:
    """Euler characteristic, genus and Fix(eta) per component of the double.

    The components are those of the welding graph (see weld).  A component
    is eta-invariant iff eta carries each of its face copies into it; by
    Lemma 4.8 that is iff it holds both copies of some face.
    """
    bc = wc.bc
    reports = []
    for ci, comp in enumerate(wc.components):
        chi = component_euler(bc, comp)
        if chi > 2 or chi % 2 != 0:
            raise GluingInconsistency(f"component chi = {chi} not of a closed "
                                      "orientable surface")
        genus = (2 - chi) // 2
        invariant = all(wc.comp_of_face_copy[(fi, -c)] == ci for (fi, c) in comp["faces"])
        fix = 0
        if invariant:
            fix = sum(1 for vi in comp["vertices"] if wc.eta_vertex[vi] == vi)
        reports.append(ComponentReport(ci, tuple(comp["faces"]), chi, genus,
                                       invariant, fix))
    zipped = _eta_quotient(wc)
    return SurfaceReport(tuple(reports), wc.graph, tuple(zipped))


# -- zipped quotient ---------------------------------------------------------------

def _eta_quotient(wc: WeldedComplex):
    """The zipped surface Sigma/eta: one sphere per eta-orbit of components.

    An orbit is one eta-invariant component C or a swapped pair C, eta(C);
    either way C meets every face of the orbit, so the quotient counts the
    eta-orbits of C's vertices and edges and each face once.  Riemann-Hurwitz
    checks the counts: chi(C) = 2 chi(C/eta) - #Fix(eta) for an invariant C,
    chi(C/eta) = chi(C) for a swapped pair.
    """
    bc = wc.bc
    S = bc.s_action
    out = []
    partners = set()
    for ci, comp in enumerate(wc.components):
        if ci in partners:
            continue
        f0, c0 = comp["faces"][0]
        partner = wc.comp_of_face_copy[(f0, -c0)]
        partners.add(partner)
        fis = sorted({fi for (fi, _) in comp["faces"]})
        V = len({min(v, wc.eta_vertex[v]) for v in comp["vertices"]})
        E = len({min(a, S[a]) for a in comp["edges"]})
        F = sum(2 - len(bc.faces[fi]) for fi in fis)
        chi = V - E + F
        lifted = chi
        if partner == ci:
            lifted = 2 * chi - sum(1 for v in comp["vertices"]
                                   if wc.eta_vertex[v] == v)
        if component_euler(bc, comp) != lifted:
            raise CrosscheckFailed(f"Riemann-Hurwitz violated: zipped chi = {chi}, "
                                   f"lifted {lifted} != {component_euler(bc, comp)}")
        out.append({"faces": fis, "euler_characteristic": chi, "sphere": True})
    out.sort(key=lambda z: z["faces"][-1])
    for z in out:
        if z["euler_characteristic"] != 2:
            raise ZipNotSphere(f"zipped component chi = {z['euler_characteristic']}")
    return out


def zipped_report(bc: BoundaryComplex):
    """The zipped quotient of the welded double of bc; see _eta_quotient.

    Every component must be a sphere (chi = 2) for schemas in the mating
    class; anything else raises ZipNotSphere.
    """
    return _eta_quotient(weld(bc))
