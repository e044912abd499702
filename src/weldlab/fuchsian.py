"""Preset Fuchsian groups from side pairings of regular ideal polygons.

Two pairing cases for the np-gon Pi:

  Case I   g_s = (reflection along C_{1,s}) then (reflection along the
           diameter l joining +-exp(i pi/n)); pairs side s with p+1-s.
  Case II  (p even) same with l~, the common perpendicular of C_{1,1} and
           C_{1,(p+2)/2}: the diameter through the centre of C_{1,1}; pairs
           side s with p+2-s mod p.

Both cases come from one closed form in h = pi/(np) and the axis angle
(build_group): the sides and the generator entries are written down directly,
with no reflection composed and no entry renormalised by a square root of a
difference that cancels (Beardon, The Geometry of Discrete Groups, section 7).

Only the first-sector generators plus the rotation M_w are stored.  Sector r
pairs by g_{r,s} = M_w^{r-1} g_s M_w^{-(r-1)}, which conjugation by a rotation
about 0 writes down: a and d are g_s's, b is multiplied by w = e^{2 pi i(r-1)/n}
and c by its conjugate.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

from .errors import (DegenerateInput, InvalidArgument, InvalidCase, NonParabolicCycle,
                     PairingViolation, RankLimit, as_count)
from .hyperbolic import Geodesic, MobiusMap, TAU, _canonical_sign, geodesic_between

CASE_I = "I"
CASE_II = "II"

#: most items one call returns, counted before any is built, or RankLimit: the
#: tiles of `bowen_series.tiles` and `correspondence.group_tiling`, the points
#: of a `correspondence.fiber` and the transition entries of a `markov_partition`.
#: It also bounds the sides np of a group (`check_parameters`) and the basins n
#: of a Newton schema (`mating_schema.newton_schema`), whose outputs grow with them
TILE_BUDGET = 250_000
#: most vertices in one `bowen_series.tiles` call: a budget of 30-gons, the
#: largest polygon of the preset grid
VERTEX_BUDGET = 30 * TILE_BUDGET
#: largest endpoint residual |g(e) - e'| side_pairing_check accepts
PAIRING_TOL = 1e-8
#: largest |log T'(v)| poincare_check accepts on a vertex cycle, which is 0
#: for an exact parabolic cycle.  Rounding grows with the polygon: the worst
#: cycle reaches 2.3e-12 on (64, 399), 4.0e-11 on (1, 50000) and 2.6e-10 on
#: (1, 250000) Case II, at the side budget
TOL_PARABOLIC = 1e-7
#: largest |trace| poincare_check accepts on an order-2 generator
TOL_TRACE = 1e-9


def sigma_side(p: int, case: str):
    """Side-pairing permutation on {1..p}."""
    if case == CASE_I:
        return {s: p + 1 - s for s in range(1, p + 1)}
    return {s: ((p + 1 - s) % p) + 1 for s in range(1, p + 1)}  # p+2-s mod p


def self_paired_sides(p: int, case: str):
    """Sides s with sigma(s) = s: p+1-s = s in Case I, 2s = 2 mod p (p even)
    in Case II."""
    if case == CASE_I:
        return [(p + 1) // 2] if p % 2 else []
    return [1, p // 2 + 1]


class GroupPreset(NamedTuple):
    n: int
    p: int
    case: str
    sides: tuple                 # Geodesic C_{r,s} at index side_index(r, s)
    axis: Geodesic
    first_sector: tuple          # MobiusMap for s = 1..p (index s-1)
    rotation: MobiusMap          # M_w, identity when n = 1
    sigma: dict                  # side pairing on {1..p}

    def generator(self, r: int, s: int) -> MobiusMap:
        """Side pairing of C_{r,s}; sectors transfer by rotation conjugation."""
        return self._sector_pairing(*self._check_label(r, s))

    def _sector_pairing(self, r: int, s: int) -> MobiusMap:
        """g_{r,s} = M_w^{r-1} g_s M_w^{-(r-1)} in closed form, for a checked
        label: b times w = e^{i tau (r-1)/n}, c times conj w, a and d kept,
        so |a| >= 1 keeps _canonical_sign's choice and no matrix is composed."""
        g = self.first_sector[s - 1]
        w = cmath.exp(1j * TAU * (r - 1) / self.n)
        return MobiusMap(g.a, g.b * w, g.c * w.conjugate(), g.d)

    def side(self, r: int, s: int) -> Geodesic:
        """The side C_{r,s}."""
        return self.sides[self.side_index(*self._check_label(r, s))]

    def _check_label(self, r: int, s: int):
        """(r, s) as ints; a label outside 1..n by 1..p raises InvalidArgument."""
        r, s = as_count(r, "r"), as_count(s, "s")
        if not (1 <= r <= self.n and 1 <= s <= self.p):
            raise InvalidArgument(f"side label ({r}, {s}) outside 1..{self.n} by 1..{self.p}")
        return r, s

    def side_index(self, r: int, s: int) -> int:
        return (r - 1) * self.p + (s - 1)

    def all_side_labels(self):
        return [(r, s) for r in range(1, self.n + 1) for s in range(1, self.p + 1)]

    @property
    def name(self) -> str:
        sup = "2" if self.case == CASE_II else ""
        return f"Gamma{sup}_{{{self.n},{self.p}}}"


def check_parameters(n: int, p: int, case: str = CASE_I):
    """Raise unless (n, p, case) names a group of the preset family; an n or
    p that is not an integer raises InvalidArgument."""
    n, p = as_count(n, "n"), as_count(p, "p")
    if n < 1 or p < 1 or n * p < 2:
        raise DegenerateInput(f"np = {n * p} < 2")
    if n * p > TILE_BUDGET:
        raise RankLimit(f"np = {n * p} sides, more than the budget of {TILE_BUDGET}")
    if n == 2:
        raise InvalidCase("n = 2 is outside the preset family (use n = 1 or n >= 3)")
    if case not in (CASE_I, CASE_II):
        raise InvalidCase(f"unknown case {case!r}")
    if case == CASE_II and p % 2 != 0:
        raise InvalidCase("Case II needs even p")
    if case == CASE_II and p == 2:
        # sides 1 and (p+2)/2 = 2 are adjacent: no common perpendicular
        raise InvalidCase("Case II needs p >= 4")
    if case == CASE_II and n != 1:
        # reflection in l~ fixes C_{1,1} endpoint-swapping, which forces the
        # corner action k -> 1-k mod p; the wrap k = p -> 0 only closes up
        # when the sector is the whole circle
        raise InvalidCase("Case II side pairings exist only for n = 1")


def build_group(n: int, p: int, case: str = CASE_I) -> GroupPreset:
    """Construct the preset group Gamma_{n,p} (Case I) or Gamma^2_{n,p} (Case II).

    With m = np, h = pi/m and the axis angle alpha = j h (j = p in Case I, so
    alpha = pi/n, and j = 1 in Case II), side k has centre e^{i(2k+1)h}/cos h
    and radius tan h, and g_s, reflection along C_{1,s} then along the axis,
    is [[a, b], [conj b, conj a]] with a = i e^{i(j-2s+1)h}/sin h and
    b = -i e^{i alpha} cot h, of determinant 1/sin^2 h - cot^2 h = 1, so no
    entry is renormalised.  The phase of a is an integer multiple of h: a
    self-paired side's a is exactly i/sin h in Case I.
    """
    check_parameters(n, p, case)
    m = n * p
    h = math.pi / m
    alpha, j = (math.pi / n, p) if case == CASE_I else (h, 1)
    sin_h = math.sin(h)
    b = -1j * cmath.exp(1j * alpha) / math.tan(h)
    gens = []
    for s in range(1, p + 1):
        a = 1j * cmath.exp(1j * (j - 2 * s + 1) * h) / sin_h
        gens.append(MobiusMap(*_canonical_sign(a, b, b.conjugate(), a.conjugate())))
    axis = geodesic_between(alpha, alpha + math.pi)
    rotation = MobiusMap.rotation(TAU / n) if n > 1 else MobiusMap.identity()
    return GroupPreset(n, p, case, _sides(m, h), axis, tuple(gens), rotation,
                       sigma_side(p, case))


def _sides(m: int, h: float) -> tuple:
    """Sides of the regular ideal m-gon, side k from vertex k to vertex k + 1.
    For m = 2 both are the diameter through vertices 0 and 1, where the circle
    would have radius tan(pi/2), about 1.6e16."""
    ends = [TAU * k / m for k in range(m)] + [0.0]
    if m == 2:
        return (Geodesic(ends[0], ends[1], True), Geodesic(ends[1], ends[2], True))
    cos_h, tan_h = math.cos(h), math.tan(h)
    return tuple(Geodesic(ends[k], ends[k + 1], False, cmath.exp(1j * (2 * k + 1) * h) / cos_h,
                          tan_h) for k in range(m))


# -- verification ----------------------------------------------------------

def side_pairing_check(preset: GroupPreset):
    """Each generator must carry its side's endpoint set onto the paired side's.

    Returns a report dict with the max residual; raises PairingViolation when
    any residual exceeds PAIRING_TOL.
    """
    worst = 0.0
    for (r, s), src in zip(preset.all_side_labels(), preset.sides):   # labels in range
        g = preset._sector_pairing(r, s)
        dst = preset.sides[preset.side_index(r, preset.sigma[s])]
        i1, i2 = (g(e) for e in src.endpoints)
        w1, w2 = dst.endpoints
        worst = max(worst, min(max(abs(i1 - w1), abs(i2 - w2)),
                               max(abs(i1 - w2), abs(i2 - w1))))
    if worst > PAIRING_TOL:
        raise PairingViolation(f"max endpoint residual {worst:.3e}")
    return {"max_residual": worst}


def vertex_cycles(preset: GroupPreset):
    """Ideal-vertex cycles under the side pairings, purely combinatorial.

    Each cycle lists its vertex indices and, in step with them, the side
    labels (r, s) whose pairing carries each vertex to the next; the cycle
    transformation is that word's product, which fixes the first vertex.
    Side e runs from vertex e to e + 1, and its pairing carries it onto side
    e' = side_index(r, sigma(s)) reversed, so the start e of side e goes to
    the end e' + 1 of side e', where the cycle leaves along side e' + 1: each
    vertex is the start of the side it leaves along.
    """
    m, p, sigma = preset.n * preset.p, preset.p, preset.sigma
    seen = [False] * m
    cycles = []
    for v0 in range(m):
        if seen[v0]:
            continue
        v = v0
        word = []
        cycle_vertices = []
        while True:
            seen[v] = True
            cycle_vertices.append(v)
            r, s = v // p + 1, v % p + 1
            word.append((r, s))
            v = (preset.side_index(r, sigma[s]) + 1) % m
            if v == v0:
                break
        cycles.append({"vertices": cycle_vertices, "word": word})
    return cycles


def poincare_check(preset: GroupPreset):
    """Poincaré-polygon sanity report.

    A vertex cycle's transformation T fixes its vertex v, so it is parabolic
    or the identity iff T'(v) = 1 (Beardon, ch. 4).  By the chain rule
    log|T'(v)| sums -2 log|c z + d| of each step's g_s at its exact vertex z,
    turned back r - 1 sectors (rotations have |derivative| 1), so no matrix
    is composed; |log T'(v)| is the cycle's log_multiplier_residual.
    Order-2 generators must have trace 0; M_w must have order exactly n.
    """
    report = {"cycles": [], "rotation_order": None}
    m, p = preset.n * preset.p, preset.p
    for cyc in vertex_cycles(preset):
        log_mult = 0.0
        for v, (r, s) in zip(cyc["vertices"], cyc["word"]):
            g, z = preset.first_sector[s - 1], cmath.exp(1j * TAU * (v - (r - 1) * p) / m)
            log_mult -= 2.0 * math.log(abs(g.c * z + g.d))
        res = abs(log_mult)
        report["cycles"].append({"vertices": cyc["vertices"],
                                 "log_multiplier_residual": res})
        if res > TOL_PARABOLIC:
            raise NonParabolicCycle(
                f"cycle through vertices {cyc['vertices']}: |log T'(v)| = {res:.3e}")
    for s in self_paired_sides(preset.p, preset.case):
        tr = abs(preset.first_sector[s - 1].trace)
        if tr > TOL_TRACE:
            raise NonParabolicCycle(f"generator {s} should be order 2, |trace| = {tr:.3e}")
    if preset.n == 1:
        rot_order = 1
    else:
        rot_order = preset.rotation.order(max_order=preset.n + 1)
    report["rotation_order"] = rot_order
    if rot_order != preset.n:
        raise NonParabolicCycle(f"rotation order {rot_order} != n = {preset.n}")
    return report


# -- orbifold signatures ----------------------------------------------------

class OrbifoldSignature(NamedTuple):
    genus: int
    punctures: int
    cone_orders: tuple


def orbifold_signature(preset: GroupPreset, extended: bool = True) -> OrbifoldSignature:
    """Signature of D/Gamma-hat (extended) or D/Gamma.

    Case n = 1 the two agree.  For n >= 3 the non-extended quotient is the
    n-fold cyclic cover: punctures come from the ideal-vertex cycles, one
    order-2 point per self-paired side in every sector, and no order-n point.
    """
    n, p, case = preset.n, preset.p, preset.case
    if extended or n == 1:
        if case == CASE_I:
            punctures = p // 2 + 1
            cones = [2] * (1 if p % 2 == 1 else 0)
        else:
            punctures = p // 2
            cones = [2, 2]
        if n >= 3:
            cones.append(n)
        return OrbifoldSignature(0, punctures, tuple(sorted(cones)))
    punctures = len(vertex_cycles(preset))
    cones = [2] * (n * len(self_paired_sides(p, case)))
    return OrbifoldSignature(0, punctures, tuple(sorted(cones)))


# -- degree calculator -------------------------------------------------------

class DegreePlan(NamedTuple):
    multiplicities: tuple
    degree: int
    top_multiplicity: int


def legal_presets():
    """All (n, p, case) triples of the grid n in 1, 3, 4, 5 by p in 1..6."""
    out = []
    for n in (1, 3, 4, 5):
        for p in range(1, 7):
            if n * p < 3:
                continue
            out.append((n, p, CASE_I))
            if n == 1 and p % 2 == 0 and p >= 4:
                out.append((n, p, CASE_II))
    return out


def degree_plan(multiplicities) -> DegreePlan:
    """Critically fixed polynomial degree realizing given finite multiplicities.

    Adds a fully ramified critical point of multiplicity sum(m_i), so the
    degree is sum(m_i) + 1; the constraints m_i <= d-1, sum = 2d-2 and
    n+1 <= d then hold automatically.  A multiplicity that is not an integer
    raises InvalidArgument.
    """
    ms = tuple(as_count(m, "multiplicity") for m in multiplicities)
    if not ms or any(m < 1 for m in ms):
        raise DegenerateInput("need a nonempty sequence of positive integers")
    top = sum(ms)
    d = top + 1
    assert all(m <= d - 1 for m in ms) and top <= d - 1
    assert sum(ms) + top == 2 * d - 2
    assert len(ms) + 1 <= d
    return DegreePlan(ms, d, top)
