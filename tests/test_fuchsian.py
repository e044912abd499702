import cmath
import math
from decimal import Decimal, localcontext

import pytest

import weldlab.bowen_series as bs
from weldlab.errors import (DegenerateInput, InvalidArgument, InvalidCase,
                            NonParabolicCycle, PairingViolation)
from weldlab.fuchsian import (CASE_I, CASE_II, build_group, degree_plan,
                              legal_presets, orbifold_signature, poincare_check,
                              self_paired_sides, side_pairing_check, sigma_side,
                              vertex_cycles)
from weldlab.hyperbolic import MobiusMap

GRID = legal_presets()


def test_gamma_1_4_pairing():
    g = build_group(1, 4)
    assert g.sigma == {1: 4, 2: 3, 3: 2, 4: 1}
    # g_1 maps endpoints {1, i} onto {-i, 1} as a set
    g1 = g.first_sector[0]
    img = {round(g1(e).real, 9) + 1j * round(g1(e).imag, 9)
           for e in g.side(1, 1).endpoints}
    assert img == {1 + 0j, -0 - 1j} or all(
        min(abs(w - 1), abs(w + 1j)) < 1e-9 for w in img)
    assert side_pairing_check(g)["max_residual"] < 1e-8
    # no order-2 generator
    for s in range(1, 5):
        assert abs(g.first_sector[s - 1].trace) > 1e-3


def test_gamma_3_1_order_two():
    g = build_group(3, 1)
    g1 = g.first_sector[0]
    assert abs(g1.trace) < 1e-9
    assert g1.compose(g1).is_identity()
    # reverses its own side's endpoints
    e1, e2 = g.side(1, 1).endpoints
    assert abs(g1(e1) - e2) < 1e-9 and abs(g1(e2) - e1) < 1e-9


def test_case_ii_order_two_elements():
    g = build_group(1, 4, CASE_II)
    assert g.sigma == {1: 1, 2: 4, 3: 3, 4: 2}
    for s in (1, 3):
        assert abs(g.first_sector[s - 1].trace) < 1e-9
    for s in (2, 4):
        assert abs(g.first_sector[s - 1].trace) > 1e-3


def test_invalid_cases():
    with pytest.raises(InvalidCase):
        build_group(3, 3, CASE_II)   # odd p
    with pytest.raises(InvalidCase):
        build_group(1, 2, CASE_II)   # adjacent sides, no common perpendicular
    with pytest.raises(InvalidCase):
        build_group(3, 4, CASE_II)   # Case II exists only for n = 1
    with pytest.raises(InvalidCase):
        build_group(2, 2)            # n = 2 outside the family
    with pytest.raises(DegenerateInput):
        build_group(1, 1)


@pytest.mark.parametrize("n,p", [(3.5, 1), (3, 2.0), ("3", 1), (None, 4)])
def test_counts_must_be_integers(n, p):
    # build_group(3.5, 1) used to raise a raw TypeError
    with pytest.raises(InvalidArgument, match="must be an integer"):
        build_group(n, p)


@pytest.mark.parametrize("n,p,case", GRID)
def test_grid_pairing(n, p, case):
    assert side_pairing_check(build_group(n, p, case))["max_residual"] < 1e-8


@pytest.mark.parametrize("n,p,case", GRID)
def test_grid_poincare(n, p, case):
    rep = poincare_check(build_group(n, p, case))
    assert rep["rotation_order"] == n
    for c in rep["cycles"]:
        assert c["log_multiplier_residual"] < 1e-7


@pytest.mark.parametrize("n,p,case,side", [(3, 1, CASE_I, 1), (1, 3, CASE_I, 2),
                                           (1, 4, CASE_I, 1), (1, 4, CASE_II, 2),
                                           (4, 2, CASE_I, 2)])
def test_checks_reject_perturbed_generator(n, p, case, side):
    # one generator turned by 1e-4 moves its side's endpoints by 1e-4 and
    # leaves a cycle multiplier 1.2e-4 to 4.8e-4 from 1 in |log T'(v)|
    preset = build_group(n, p, case)
    gens = list(preset.first_sector)
    gens[side - 1] = gens[side - 1].compose(MobiusMap.rotation(1e-4))
    bad = preset._replace(first_sector=tuple(gens))
    with pytest.raises(PairingViolation, match="residual 1.0"):
        side_pairing_check(bad)
    with pytest.raises(NonParabolicCycle, match="log T'\\(v\\)"):
        poincare_check(bad)


@pytest.mark.parametrize("n,p,case", GRID)
def test_generator_symmetry(n, p, case):
    # the generating set is closed under inversion: g_{sigma(s)} = g_s^{-1}
    g = build_group(n, p, case)
    for s in range(1, p + 1):
        inv = g.first_sector[s - 1].inverse()
        assert inv.dist(g.first_sector[g.sigma[s] - 1]) < 1e-9


def power(g, k):
    """g^k by k compositions: the reference for the sector closed form."""
    out = MobiusMap.identity()
    for _ in range(k):
        out = g.compose(out)
    return out


@pytest.mark.parametrize("n,p,case", [t for t in GRID if t[0] > 1])
def test_sector_conjugation(n, p, case):
    g = build_group(n, p, case)
    mw = g.rotation
    for r in range(2, n + 1):
        for s in range(1, p + 1):
            lhs = g.generator(r, s)
            rhs = power(mw, r - 1).compose(g.first_sector[s - 1]).compose(
                power(mw, r - 1).inverse())
            assert lhs.dist(rhs) < 1e-9


def test_sector_pairings_compose_nothing(monkeypatch):
    # g_{r,s} is written down from g_s and w = e^{2 pi i(r-1)/n}: neither the
    # pairing check nor the Bowen-Series map's pairings multiply a matrix
    from weldlab.bowen_series import bowen_series_from_preset
    g = build_group(7, 7)

    def refuse(self, other):
        raise AssertionError("MobiusMap.compose called")

    monkeypatch.setattr(MobiusMap, "compose", refuse)
    assert side_pairing_check(g)["max_residual"] < 1e-8
    maps = bowen_series_from_preset(g).maps
    assert list(maps) == [g.generator(r, s) for r, s in g.all_side_labels()]


@pytest.mark.parametrize("n,p,case", [t for t in GRID if t[0] > 1])
def test_extended_group_closure(n, p, case):
    # conjugating any table generator by M_w lands on the table generator of
    # the next sector (index-level statement, wrap included)
    g = build_group(n, p, case)
    mw = g.rotation
    for r in range(1, n + 1):
        for s in range(1, p + 1):
            conj = mw.compose(g.generator(r, s)).compose(mw.inverse())
            r2 = r % n + 1
            assert conj.dist(g.generator(r2, s)) < 1e-9


@pytest.mark.parametrize("r,s", [(1, 0), (0, 1), (4, 1), (1, 3), (-1, 2), (1.0, 1), (1, None)])
def test_side_label_out_of_range_raises(r, s):
    g = build_group(3, 2)
    with pytest.raises(InvalidArgument):
        g.generator(r, s)
    with pytest.raises(InvalidArgument):
        g.side(r, s)


def test_case_ii_axis_is_perpendicular_diameter():
    # the axis must meet C_{1,1} and C_{1,(p+2)/2} at right angles: a
    # diameter does so iff its line passes through each circle's centre
    for p in range(4, 401, 2):
        g = build_group(1, p, CASE_II)
        assert g.axis.is_diameter, p
        normal = 1j * cmath.exp(1j * g.axis.theta1)
        for side in (g.sides[0], g.sides[(p + 2) // 2 - 1]):
            assert abs((side.center * normal.conjugate()).real) <= 1e-8, p


#: pi to 50 digits, for the 40-digit reference of the closed-form presets
_PI = Decimal("3.1415926535897932384626433832795028841971693993751")


def _sin_cos(x):
    """sin x and cos x of a Decimal |x| <= 2 pi by their Taylor series."""
    sin = cos = Decimal(0)
    term, k = Decimal(1), 0
    while abs(term) > Decimal(10) ** -45:
        if k % 2:
            sin += term if k % 4 == 1 else -term
        else:
            cos += term if k % 4 == 0 else -term
        k += 1
        term = term * x / k
    return sin, cos


def _ulps(z, x, y):
    """|z - (x + iy)| for a float complex z and Decimal x, y, in units of 2^-52 |z|."""
    err = math.hypot(float(Decimal(z.real) - x), float(Decimal(z.imag) - y))
    return err / (2.0 ** -52 * abs(z))


@pytest.mark.parametrize("n,p,case", [(3, 1, CASE_I), (1, 4, CASE_II), (5, 6, CASE_I),
                                      (64, 399, CASE_I), (100, 100, CASE_I),
                                      (1, 50000, CASE_II), (1, 250000, CASE_I)])
def test_closed_form_matches_40_digit_reference(n, p, case):
    # side k: centre e^{i(2k+1)h}/cos h and radius tan h; generator (r, s):
    # entries a = i e^{i(alpha - (2s-1)h)}/sin h and
    # b = -i e^{i(alpha + 2 pi (r-1)/n)} cot h, with c, d their conjugates;
    # sampled at both ends and the middle of each range, in sectors 1, 2 and n
    g = build_group(n, p, case)
    m = n * p
    with localcontext() as ctx:
        ctx.prec = 40
        h = _PI / m
        sin_h, cos_h = _sin_cos(h)
        alpha = _PI / n if case == CASE_I else h
        for k in sorted({0, 1, m // 2, m - 1}):
            sin_k, cos_k = _sin_cos((2 * k + 1) * h)
            assert _ulps(g.sides[k].center, cos_k / cos_h, sin_k / cos_h) < 8, k
            assert _ulps(g.sides[k].radius, sin_h / cos_h, Decimal(0)) < 8, k
        for r in sorted({1, 2, n} & set(range(1, n + 1))):
            sin_a, cos_a = _sin_cos(alpha + 2 * _PI * (r - 1) / n)
            b = (sin_a * cos_h / sin_h, -cos_a * cos_h / sin_h)
            for s in sorted({1, 2, p // 2 + 1, p} & set(range(1, p + 1))):
                sin_t, cos_t = _sin_cos(alpha - (2 * s - 1) * h)
                a = (-sin_t / sin_h, cos_t / sin_h)
                exact = [a, b, (b[0], -b[1]), (a[0], -a[1])]
                gen = g.generator(r, s)
                assert min(max(_ulps(sign * z, x, y) for z, (x, y) in
                               zip((gen.a, gen.b, gen.c, gen.d), exact))
                           for sign in (1, -1)) < 8, (r, s)


def _marked_angle_reference(p):
    """The Case II marked angle to 50 digits: the fixed point h + phi of g_2,
    h = pi/p, with phi by Newton's method on cos phi cos h = cos 2h from
    sqrt(3) h, checked against g_2's fixed-point quadratic
    c z^2 + (d - a) z - b = 0 with the entries of build_group."""
    with localcontext() as ctx:
        ctx.prec = 50
        h = _PI / p
        sin_h, cos_h = _sin_cos(h)
        cos_2h = _sin_cos(2 * h)[1]
        phi = Decimal(3).sqrt() * h
        for _ in range(8):
            sin_phi, cos_phi = _sin_cos(phi)
            phi += (cos_phi * cos_h - cos_2h) / (sin_phi * cos_h)
        z = _sin_cos(h + phi)[::-1]

        def mul(u, v):
            return (u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0])

        sin_2h = _sin_cos(2 * h)[0]
        a, b = (sin_2h / sin_h, cos_2h / sin_h), (cos_h, -cos_h * cos_h / sin_h)
        c, d_a = (b[0], -b[1]), (0, -2 * a[1])
        cz2, daz = mul(c, mul(z, z)), mul(d_a, z)
        residual = [cz2[i] + daz[i] - b[i] for i in (0, 1)]
        assert max(map(abs, residual)) < Decimal(10) ** -35, p
        return h + phi


@pytest.mark.parametrize("p", [4, 6, 10, 400, 20000, 250000])
def test_case_ii_marked_angle_matches_50_digit_reference(p):
    # the least root of g_2's fixed-point quadratic was 2264 ulp off at
    # p = 400 and 4.7e6 ulp at p = 20000
    got = bs.bowen_series_map(1, p, CASE_II).marked_fixed_angle
    assert abs(Decimal(got) - _marked_angle_reference(p)) < 4 * Decimal(math.ulp(got)), p


def test_case_ii_marked_angle_keeps_its_pinned_bits():
    # the bits every Case II pin of the CLI was taken with
    for p, angle in [(4, 2.356194490192345), (6, 1.478915393722808), (8, 1.091884246239748),
                     (14, 0.616420081688414), (26, 0.33062816179477406)]:
        assert bs.bowen_series_map(1, p, CASE_II).marked_fixed_angle == angle, p


def test_fixed_sides_and_corners_in_closed_form():
    # the closed forms name the fixed points of sigma on sides and corners;
    # corner k ends side k (side p at k = 0), so sigma carries it to the
    # start of side sigma(k or p), which is -k mod p in Case I and 1 - k mod p
    # in Case II; the fixed corners are {0}, {0, p/2} or none
    for p in range(1, 400):
        for case in (CASE_I, CASE_II) if p % 2 == 0 and p >= 4 else (CASE_I,):
            sides = sigma_side(p, case)
            assert self_paired_sides(p, case) == [s for s in sides if sides[s] == s]
            corners = [sides[k or p] - 1 for k in range(p)]
            shift = 0 if case == CASE_I else 1
            assert corners == [(shift - k) % p for k in range(p)]
            fixed = [k for k in range(p) if corners[k] == k]
            if case == CASE_II:
                assert fixed == []
            else:
                assert fixed == ([0] if p % 2 else [0, p // 2])


def test_signatures_examples():
    assert orbifold_signature(build_group(1, 4)) == \
        orbifold_signature(build_group(1, 4), extended=False)
    s = orbifold_signature(build_group(1, 4))
    assert (s.genus, s.punctures, s.cone_orders) == (0, 3, ())
    s = orbifold_signature(build_group(1, 4, CASE_II))
    assert (s.genus, s.punctures, s.cone_orders) == (0, 2, (2, 2))
    s = orbifold_signature(build_group(3, 1))
    assert (s.genus, s.punctures, s.cone_orders) == (0, 1, (2, 3))


@pytest.mark.parametrize("n,p,case", GRID)
def test_signature_class_f(n, p, case):
    s = orbifold_signature(build_group(n, p, case))
    assert s.genus == 0
    assert sum(1 for q in s.cone_orders if q == 2) <= 2
    assert sum(1 for q in s.cone_orders if q >= 3) <= 1


@pytest.mark.parametrize("n,p,case", [t for t in GRID if t[0] > 1])
def test_signature_cover_chi(n, p, case):
    g = build_group(n, p, case)
    ext = orbifold_signature(g, extended=True)
    sub = orbifold_signature(g, extended=False)

    def chi_orb(s):
        return 2 - 2 * s.genus - s.punctures - sum(1.0 - 1.0 / q for q in s.cone_orders)

    assert abs(chi_orb(sub) - n * chi_orb(ext)) < 1e-12


def test_vertex_cycle_counts_match_punctures():
    # non-extended puncture count = ideal vertex cycles
    for (n, p, case) in GRID:
        g = build_group(n, p, case)
        sig = orbifold_signature(g, extended=False)
        assert sig.punctures == len(vertex_cycles(g))


def reference_vertex_cycles(preset):
    """Reference: the walk over a dict-of-dicts vertex action that the
    arithmetic step replaced.  Side k (0-based full index) spans vertices k,
    k+1 and is carried to side k' in the same sector with the start and end
    exchanged: start(k) -> end(k'), end(k) -> start(k')."""
    m = preset.n * preset.p
    act = {}
    for (r, s) in preset.all_side_labels():
        k = preset.side_index(r, s)
        k2 = preset.side_index(r, preset.sigma[s])
        act[k] = {k % m: (k2 + 1) % m, (k + 1) % m: k2 % m}

    def sides_at(v):
        return ((v - 1) % m, v % m)  # side arriving at v, side leaving v

    seen = set()
    cycles = []
    for v0 in range(m):
        e0 = sides_at(v0)[1]
        if (v0, e0) in seen:
            continue
        v, e = v0, e0
        word = []
        cycle_vertices = []
        while True:
            seen.add((v, e))
            cycle_vertices.append(v)
            r, s = e // preset.p + 1, e % preset.p + 1
            word.append((r, s))
            v2 = act[e][v]
            e_img = preset.side_index(r, preset.sigma[s])
            ein, eout = sides_at(v2)
            e2 = eout if e_img == ein else ein
            v, e = v2, e2
            if (v, e) == (v0, e0):
                break
        cycles.append({"vertices": cycle_vertices, "word": word})
    return cycles


@pytest.mark.parametrize("n,p,case", GRID + [(500, 20, CASE_I), (1, 1000, CASE_I)])
def test_vertex_cycles_match_action_table_reference(n, p, case):
    g = build_group(n, p, case)
    assert vertex_cycles(g) == reference_vertex_cycles(g)


def test_degree_plans():
    for ms, d, top in [((1, 1), 3, 2), ((1, 2), 4, 3), ((2, 1, 1, 1, 1), 7, 6)]:
        plan = degree_plan(ms)
        assert plan.degree == d and plan.top_multiplicity == top
        assert sum(plan.multiplicities) + plan.top_multiplicity == 2 * d - 2
        assert all(m <= d - 1 for m in plan.multiplicities)
        assert len(plan.multiplicities) + 1 <= d
    with pytest.raises(DegenerateInput):
        degree_plan(())


@pytest.mark.parametrize("m", [1.5, "2", math.nan])
def test_degree_plan_multiplicities_must_be_integers(m):
    # int(m) once planned 1.5 as 1 and "2" as 2, and raised ValueError on nan
    with pytest.raises(InvalidArgument, match="multiplicity must be an integer"):
        degree_plan([1, m])
