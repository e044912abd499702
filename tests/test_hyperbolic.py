import cmath
import math
from typing import NamedTuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weldlab.errors import CoincidentEndpoints, DegenerateInput, InvalidArgument
from weldlab.fuchsian import CASE_I, CASE_II, build_group, legal_presets
from weldlab.hyperbolic import MobiusMap, TAU, geodesic_between

angles = st.floats(min_value=0.0, max_value=TAU - 1e-6)
disk_pts = st.complex_numbers(max_magnitude=0.95, allow_nan=False,
                              allow_infinity=False)


def random_disk_mobius(seed):
    # disk automorphism: rotation composed with a point-to-zero map
    import random
    rng = random.Random(seed)
    a = complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7))
    t = rng.uniform(0, TAU)
    rot = cmath.exp(0.5j * t)
    move = MobiusMap.from_entries(1, -a, -a.conjugate(), 1)
    return MobiusMap.from_entries(rot, 0, 0, 1 / rot).compose(move)


def test_identity_compose():
    f = random_disk_mobius(1)
    assert MobiusMap.identity().compose(f).dist(f) < 1e-12
    assert f.compose(f.inverse()).is_identity()


def test_rotation_compose_n3():
    mw = MobiusMap.rotation(TAU / 3)
    sq = mw.compose(mw)
    assert abs(sq(1 + 0j) - cmath.exp(4j * math.pi / 3)) < 1e-12


def test_det_normalized_and_su11():
    for seed in range(10):
        f = random_disk_mobius(seed)
        assert abs(f.a * f.d - f.b * f.c - 1.0) < 1e-12
        # SU(1,1) form d = conj a, c = conj b, up to +-1
        r1 = abs(f.d - f.a.conjugate()) + abs(f.c - f.b.conjugate())
        r2 = abs(f.d + f.a.conjugate()) + abs(f.c + f.b.conjugate())
        assert min(r1, r2) < 1e-9


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 1000), st.integers(0, 1000), st.integers(0, 1000))
# f^3 has entries near 70; renormalizing it by the computed ad - bc put the
# two groupings 2.4e-10 apart
@example(165, 165, 165)
def test_associativity(s1, s2, s3):
    f, g, h = (random_disk_mobius(s) for s in (s1, s2, s3))
    lhs = f.compose(g).compose(h)
    rhs = f.compose(g.compose(h))
    assert lhs.dist(rhs) < 1e-10


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 1000), angles)
def test_boundary_stays_unit(seed, t):
    f = random_disk_mobius(seed)
    w = f(cmath.exp(1j * t))
    assert abs(abs(w) - 1.0) < 1e-10


def test_geodesic_examples():
    d = geodesic_between(0.0, math.pi)
    assert d.is_diameter
    g = geodesic_between(0.0, math.pi / 2)
    assert not g.is_diameter
    assert abs(g.center - (1 + 1j)) < 1e-12
    assert abs(g.radius - 1.0) < 1e-12
    assert abs(abs(g.center) ** 2 - g.radius ** 2 - 1.0) < 1e-12
    # C_{1,1} for (n, p) = (3, 1) has endpoints at angles 0 and 2 pi/3
    s = build_group(3, 1).sides[0]
    assert abs(s.theta1 - 0.0) < 1e-12 and abs(s.theta2 - TAU / 3) < 1e-12


def test_geodesic_coincident_raises():
    with pytest.raises(CoincidentEndpoints):
        geodesic_between(1.0, 1.0 + 1e-14)


@settings(max_examples=50, deadline=None)
@given(angles, angles)
# near-antipodal ends: |c| is about 4097 and the residual 3.7e-9, one ulp of
# |c|^2, past a fixed bound of 1e-9
@example(3.547354474858434, 0.40625)
def test_orthogonality_invariant(a, b):
    if abs(a - b) < 1e-3 or abs(abs(a - b) - TAU) < 1e-3:
        return
    g = geodesic_between(a, b)
    assert g.is_diameter or (abs(abs(g.center) ** 2 - g.radius ** 2 - 1.0)
                             <= 2 * math.ulp(abs(g.center) ** 2))


# -- reference: the reflection path the presets were once built by ----------

class Reflection(NamedTuple):
    """z -> m(conj z): the former hyperbolic.AntiMobiusMap, kept with reflect
    as the reference for the closed-form presets of fuchsian.build_group."""

    m: MobiusMap

    def __call__(self, z):
        return self.m(z.conjugate())

    def compose_anti(self, other):
        """self after other; two anti maps compose to a Möbius map."""
        om = other.m
        return self.m.compose(MobiusMap.from_entries(om.a.conjugate(), om.b.conjugate(),
                                                     om.c.conjugate(), om.d.conjugate()))


def reflect(g):
    """Anti-Möbius inversion fixing g pointwise and preserving the disk."""
    if g.is_diameter:
        # reflection in the line at angle t: z -> exp(2it) conj(z)
        return Reflection(MobiusMap.from_entries(cmath.exp(2j * g.theta1), 0j, 0j, 1.0 + 0j))
    # inversion z -> c + r^2/conj(z - c); with |c|^2 = r^2 + 1 the matrix
    # [[c, -1], [1, -conj(c)]] has determinant -r^2
    c = g.center
    return Reflection(MobiusMap.from_entries(c, -1.0 + 0j, 1.0 + 0j, -c.conjugate()))


def reflection_generators(n, p, case):
    """First-sector generators as the reflection path built them: reflection
    along C_{1,s}, drawn by geodesic_between, then along the axis."""
    m = n * p
    if case == CASE_I:
        t = math.pi / n
    else:
        t = cmath.phase(geodesic_between(0.0, TAU / m).center)
    axis = reflect(geodesic_between(t, t + math.pi))
    return [axis.compose_anti(reflect(geodesic_between(TAU * (s - 1) / m, TAU * s / m)))
            for s in range(1, p + 1)]


def test_reflect_diameter_is_conjugation():
    g = geodesic_between(0.0, math.pi)
    r = reflect(g)
    z = 0.3 + 0.4j
    assert abs(r(z) - z.conjugate()) < 1e-12


def test_reflect_fixes_endpoints_and_points():
    g = geodesic_between(0.7, 2.9)
    r = reflect(g)
    for e in g.endpoints:
        assert abs(r(e) - e) < 1e-10
    for t in (0.2, 0.5, 0.8):
        z = g.point_at(t)
        assert abs(r(z) - z) < 1e-9


def test_reflect_involution_random_points():
    import random
    rng = random.Random(7)
    g = geodesic_between(0.3, 1.9)
    r = reflect(g)
    for _ in range(100):
        z = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6))
        assert abs(r(r(z)) - z) < 1e-10


def test_reflect_swaps_sides():
    g = geodesic_between(0.3, 1.9)
    r = reflect(g)
    z = 0j  # center is on the polygon side
    assert g.side(z) * g.side(r(z)) < 0


def test_anti_compose_is_mobius():
    # two reflections compose to an honest Möbius map
    r1 = reflect(geodesic_between(0.3, 1.9))
    r2 = reflect(geodesic_between(2.5, 4.4))
    m = r1.compose_anti(r2)
    assert isinstance(m, MobiusMap)
    z = 0.1 + 0.2j
    assert abs(m(z) - r1(r2(z))) < 1e-12
    assert abs(m.a * m.d - m.b * m.c - 1.0) < 1e-12


def test_regular_polygon():
    # side k of a preset joins vertex k to vertex k + 1 of the regular np-gon
    poly = build_group(3, 1).sides
    assert [round(side.theta1, 12) for side in poly] == \
        [round(TAU * k / 3, 12) for k in range(3)]
    for n, p in [(1, 2), (1, 4), (3, 5), (1, 997)]:
        m = n * p
        sides = build_group(n, p).sides
        assert len(sides) == m
        for k, side in enumerate(sides):
            assert side.theta1 == TAU * k / m
            assert side.theta2 == sides[(k + 1) % m].theta1
            drawn = geodesic_between(side.theta1, side.theta2)
            assert side.is_diameter == drawn.is_diameter == (m == 2)
            assert abs(side.center - drawn.center) <= 1e-9 * abs(drawn.center)
    with pytest.raises(DegenerateInput):
        build_group(1, 1)


@pytest.mark.parametrize("n,p,case", legal_presets() + [(3, 17, CASE_I), (7, 13, CASE_I),
                                                        (1, 300, CASE_II), (1, 997, CASE_I),
                                                        (1, 1000, CASE_II)])
def test_closed_form_matches_reflection_path(n, p, case):
    # up to the projective sign, within 1e-13 on the legal grid (np <= 36).
    # Beyond it the reflection path's own error dominates: it draws the radius
    # sqrt(|c|^2 - 1) with |c|^2 - 1 = tan^2(pi/np), losing a factor
    # 1/tan^2(pi/np) of its precision
    h = math.pi / (n * p)
    tol = 1e-13 if n * p <= 36 else 32 * 2.0 ** -52 / math.tan(h) ** 2
    for g, ref in zip(build_group(n, p, case).first_sector, reflection_generators(n, p, case)):
        size = max(abs(ref.a), abs(ref.b), abs(ref.c), abs(ref.d))
        assert g.dist(ref) < tol * size, (n, p, case)


@pytest.mark.parametrize("t1,t2", [(math.inf, 1.0), (1.0, -math.inf), (math.nan, 0.0)])
def test_geodesic_between_refuses_non_finite_angles(t1, t2):
    # geodesic_between(inf, 1.0) used to raise ValueError: math domain error
    with pytest.raises(InvalidArgument, match="finite"):
        geodesic_between(t1, t2)


@pytest.mark.parametrize("entries", [(0, 0, 0, 0), (1, 2, 2, 4), (1e-11, 0, 0, 1e-11),
                                     (1e200, 0, 0, 1e200)])
def test_from_entries_refuses_singular_matrices_by_name(entries):
    # these raised a raw ValueError ("singular matrix" or "zero matrix")
    with pytest.raises(DegenerateInput, match="singular"):
        MobiusMap.from_entries(*entries)


@pytest.mark.parametrize("entries", [(math.nan, 0, 0, 1), (math.inf, 0, 0, 1),
                                     (1, -math.inf, 0, 1), (1, 0, complex(0, math.inf), 1),
                                     (1, 0, 0, complex(1, math.nan))])
def test_from_entries_refuses_non_finite_entries(entries):
    with pytest.raises(InvalidArgument, match="finite"):
        MobiusMap.from_entries(*entries)


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
def test_boundary_angle_refuses_non_finite_angles(theta):
    # these returned nan
    g = build_group(3, 2).first_sector[0]
    with pytest.raises(InvalidArgument, match="finite"):
        g.boundary_angle(theta)
    assert 0.0 <= g.boundary_angle(1.0) < TAU


def _translation(cosh_half, k):
    """Hyperbolic translation through 0 along direction k, entries about cosh_half."""
    sh = math.sqrt(cosh_half ** 2 - 1)
    u = cmath.exp(1j * k)
    return MobiusMap.from_entries(cosh_half, sh * u, sh * u.conjugate(), cosh_half)


def test_order_of_hyperbolic_maps_is_none_without_raising():
    # |tr| > 2 means no finite order, decided without forming a power, whose
    # entries would outgrow double precision (440 here reach "singular matrix")
    for k in range(400):
        assert _translation(2 + 12.5 * k, k).order() is None


def test_order_of_large_half_turns_is_two():
    # a half-turn about a point far from 0 has entries about (1+r^2)/(1-r^2),
    # up to 1500 here, and a trace that is 0 up to rounding
    for k in range(300):
        size = 2 + 5 * k
        r = math.sqrt((size - 1) / (size + 1))
        t = _translation(1 / math.sqrt(1 - r * r), k)
        half = t.compose(MobiusMap.rotation(math.pi)).compose(t.inverse())
        assert abs(max(abs(half.a), abs(half.b)) - size) < 1e-6 * size
        assert half.order() == 2, size


def reference_order(g, max_order=64):
    """Order by powers: the smallest k with g^k the identity (the former
    MobiusMap.order, kept as the reference for the closed form)."""
    size = max(abs(g.a), abs(g.b), abs(g.c), abs(g.d))
    h = g
    for k in range(1, max_order + 1):
        if h.is_identity():
            return k
        h_size = max(abs(h.a), abs(h.b), abs(h.c), abs(h.d))
        if h_size > 1e6 or (h_size > size and size * h_size > 1e6):
            return None
        h = g.compose(h)
    return None


def test_order_from_trace_matches_powers():
    maps = []
    grid = [(n, p, CASE_I) for n in (1, 3, 4, 5, 6, 7, 8) for p in range(1, 9) if n * p >= 3]
    grid += [(1, p, CASE_II) for p in (4, 6, 8)]
    for n, p, case in grid:
        preset = build_group(n, p, case)
        maps.append(preset.rotation)
        for g in preset.first_sector:
            maps += [g, g.inverse()]
    assert len(maps) == 591
    for g in maps:
        assert g.order() == reference_order(g), g
