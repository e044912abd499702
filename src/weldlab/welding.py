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

weld counts each component's Euler characteristic and Fix(eta) in that one
walk over the cycles and keeps no vertex or edge sets.  The zipped surface
(one copy of each face, boundary glued along a ~ S(a)) is the quotient
Sigma/eta: its Euler characteristic per eta-orbit of components is counted
by Riemann-Hurwitz, and any component that is not a sphere is refused.
"""

from __future__ import annotations

from .errors import GluingInconsistency, Record, ZipNotSphere
from .mating_schema import BoundaryComplex, _UnionFind


# -- welding graph --------------------------------------------------------------

class WeldingGraph(Record):
    """Graph on the formal copies v_i^+/- of the domain faces.

    v_{i1}^- and v_{i2}^+ share an edge iff S carries some boundary arc of
    face i1 into the boundary of face i2.
    """

    __slots__ = ()

    def __new__(cls, num_faces: int,
                edges: frozenset):    # frozenset of (i1, i2): edge v_{i1}^- ~ v_{i2}^+
        return tuple.__new__(cls, (num_faces, edges))

    def vertices(self):
        return [(i, sgn) for i in range(self.num_faces) for sgn in (-1, +1)]

    def components(self):
        # v_i^- is 2i and v_i^+ is 2i + 1; a component enters at its least x
        uf = _UnionFind(2 * self.num_faces)
        for (a, b) in self.edges:
            uf.union(2 * a, 2 * b + 1)
        comps = {}
        for x in range(2 * self.num_faces):
            comps.setdefault(uf.find(x), []).append((x >> 1, 1 if x & 1 else -1))
        return list(comps.values())


def welding_graph(bc: BoundaryComplex) -> WeldingGraph:
    """The welding graph of bc, as weld builds it from the face cycles."""
    return weld(bc).graph


# -- welded complex ----------------------------------------------------------------

class ComponentReport(Record):
    __slots__ = ()

    def __new__(cls, index: int, faces: tuple, euler_characteristic: int, genus: int,
                eta_invariant: bool,
                fix_eta: int):        # eta-fixed vertices on this component (0 if not invariant)
        return tuple.__new__(cls, (index, faces, euler_characteristic, genus,
                                   eta_invariant, fix_eta))


class WeldedComplex(Record):
    """The double of bc, its components in the order of their least face
    copy, where (face, -1) comes before (face, +1)."""

    __slots__ = ()

    def __new__(cls, bc: BoundaryComplex,     # edge e_a = {a^+, S(a)^-} for each arc index a
                components: tuple,            # a ComponentReport per component of the double
                graph: WeldingGraph):         # its components are those of the double
        return tuple.__new__(cls, (bc, components, graph))


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

    A vertex never spans two components: each corner step stays in its face
    copy and each gluing step stays on its edge.  So one walk over the
    rho-cycles counts each component's chi = V - E + sum over its face
    copies of (2 - #boundary cycles) and its Fix(eta), and weld returns the
    component reports without storing a cell.
    """
    E = len(bc.arcs)
    S = bc.s_action
    # guard hand-built complexes: the gluing needs a fixed-point-free arc
    # involution (fixed points of S are vertices because arcs are pre-split)
    if (len(S) != E or any(type(b) is not int or not 0 <= b < E for b in S)
            or any(S[b] != a or b == a for a, b in enumerate(S))):
        raise GluingInconsistency("s_action is not a fixed-point-free involution")
    # one pass over the face cycles: each entry is an arc not walked before,
    # and then the E arcs are all walked backward; face[a] is a's face
    once = "the domain faces do not traverse each arc once backward"
    prev = [-1] * E
    face = [0] * E
    for fi, f in enumerate(bc.faces):
        for cyc in f:
            b = E                # the cycle's last arc, set once the cycle closes
            for a in cyc:
                if type(a) is not int or not 0 <= a < E or prev[a] != -1:
                    raise GluingInconsistency(once)
                prev[a], face[a], b = b, fi, a
            if cyc:
                prev[cyc[0]] = b
    if -1 in prev:
        raise GluingInconsistency(once)

    # Orientability is structural: edge e_a borders face(a) in copy + (which
    # traverses arc a backward) and face(S a) in copy - (whose walk traverses
    # S a backward, i.e. arc a forward through the orientation-reversing
    # gluing).  Each edge is thus traversed once in each direction, so both
    # copies keep their original orientation and the double is oriented.

    # components: edge e_a joins face(a) in copy + to face(S a) in copy -,
    # the welding-graph edge v_{face(S a)}^- ~ v_{face(a)}^+ of arc S(a), so
    # the double's components are the graph's (Lemma 4.7); comp[2 f + 1] is
    # the component of face f in copy + and comp[2 f] in copy -, so eta is
    # x -> x ^ 1 on the face copies x
    graph = WeldingGraph(len(bc.faces), frozenset((face[a], face[b]) for a, b in enumerate(S)))
    comps = graph.components()
    comp = [0] * (2 * len(bc.faces))
    for ci, faces in enumerate(comps):
        for (fi, c) in faces:
            comp[2 * fi + (c > 0)] = ci
    chi = [sum(2 - len(bc.faces[fi]) for (fi, _) in faces) for faces in comps]
    fix = [0] * len(comps)
    # edge e_a lies on face(a) in copy +, and so does the start of arc a
    plus = [comp[2 * fi + 1] for fi in face]
    for ci in plus:
        chi[ci] -= 1
    seen = [False] * E
    for a0 in range(E):
        if seen[a0]:
            continue
        a, length = a0, 0
        while not seen[a]:
            seen[a] = True
            length += 1
            a = prev[S[a]]
        chi[plus[a0]] += 1
        if length % 2:     # one vertex through both copies, fixed by eta
            fix[plus[a0]] += 1
        else:              # one vertex per copy, swapped by eta
            chi[comp[2 * face[a0]]] += 1

    # eta carries components to components (the welding graph's edges are
    # symmetric, Lemma 4.6), so one face copy decides invariance (Lemma 4.8)
    components = []
    for ci, faces in enumerate(comps):
        if chi[ci] > 2 or chi[ci] % 2 != 0:
            raise GluingInconsistency(f"component chi = {chi[ci]} not of a closed "
                                      "orientable surface")
        f0, c0 = faces[0]
        components.append(ComponentReport(ci, tuple(faces), chi[ci], (2 - chi[ci]) // 2,
                                          comp[(2 * f0 + (c0 > 0)) ^ 1] == ci, fix[ci]))
    return WeldedComplex(bc, tuple(components), graph)


# -- surface report ------------------------------------------------------------------

class SurfaceReport(Record):
    __slots__ = ()

    def __new__(cls, components: tuple, welding_graph: WeldingGraph,
                zipped: tuple):       # per zipped component: {"euler_characteristic": 2, ...}
        return tuple.__new__(cls, (components, welding_graph, zipped))

    def connected(self):
        return len(self.components) == 1


def surface_report(wc: WeldedComplex) -> SurfaceReport:
    """Euler characteristic, genus and Fix(eta) per component of the double,
    as weld counted them, and the zipped quotient.

    The components are those of the welding graph (see weld).  A component
    is eta-invariant iff eta carries each of its face copies into it; by
    Lemma 4.8 that is iff it holds both copies of some face.
    """
    return SurfaceReport(wc.components, wc.graph, tuple(_eta_quotient(wc)))


# -- zipped quotient ---------------------------------------------------------------

def _eta_quotient(wc: WeldedComplex):
    """The zipped surface Sigma/eta: one sphere per eta-orbit of components.

    An orbit is one eta-invariant component C or a swapped pair C, eta(C),
    of which the lower-indexed is kept; either way C meets every face of
    the orbit.  By Riemann-Hurwitz chi(C/eta) = (chi(C) + #Fix(eta))/2 for
    an invariant C, and chi(C/eta) = chi(C) for a swapped pair.
    """
    out = []
    for c in wc.components:
        # an orbit's least face copy is a - copy: this one is a pair's upper
        if c.faces[0][1] > 0:
            continue
        chi = c.euler_characteristic
        if c.eta_invariant:
            chi = (chi + c.fix_eta) // 2
        out.append({"faces": sorted({fi for (fi, _) in c.faces}),
                    "euler_characteristic": chi, "sphere": True})
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
