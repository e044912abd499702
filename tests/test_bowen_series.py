import cmath
import collections
import math
import random
import time

import pytest

import weldlab.bowen_series as bs
from weldlab import MAX_DEPTH
from weldlab.errors import (AtBreakpoint, DegenerateInput, DepthTooSmall, InconsistentDegree,
                            InvalidArgument, OutsideDomain, RankLimit)
from weldlab.fuchsian import CASE_I, CASE_II, TILE_BUDGET, build_group, legal_presets
from weldlab.hyperbolic import TAU, MobiusMap, angle_dist, angle_in_open_arc, ccw_span, norm_angle

GRID = legal_presets()


def all_maps():
    out = []
    for (n, p, case) in GRID:
        out.append(bs.bowen_series_map(n, p, case))
        if n >= 3:
            out.append(bs.bowen_series_map(n, p, case, factor=True))
    return out


def _eval_circle_safe(m, theta):
    """eval_circle with the ccw one-sided value at breakpoints."""
    try:
        return bs.eval_circle(m, theta)
    except AtBreakpoint:
        return bs.eval_circle_one_sided(m, theta, +1)


# -- circle evaluation ---------------------------------------------------------

def test_fixed_point_case_i():
    m = bs.bowen_series_map(1, 4)
    assert angle_dist(bs.eval_circle_one_sided(m, m.marked_fixed_angle, +1),
                      m.marked_fixed_angle) < 1e-12


@pytest.mark.parametrize("m", all_maps(), ids=lambda m: m.name)
def test_pocket_arcs_tile_the_circle(m):
    k = len(m.maps)
    total = 0.0
    for i, (label, g) in enumerate(zip(m.preset.all_side_labels(), m.maps)):
        lo, hi = bs._arc(i, k)
        total += (hi - lo) % TAU or TAU / k
        assert angle_dist(hi % TAU, bs._arc((i + 1) % k, k)[0] % TAU) < 1e-12
        # the arc's endpoints are the vertices bounding the side
        side = m.preset.sides[i]
        assert angle_dist(side.theta1, lo % TAU) < 1e-12
        assert angle_dist(side.theta2, hi % TAU) < 1e-12
        # the map's sector conjugates are the preset's, bit for bit
        assert g == m.preset.generator(*label)
    assert abs(total - TAU) < 1e-9


def test_breakpoint_raises():
    m = bs.bowen_series_map(1, 4)
    with pytest.raises(AtBreakpoint):
        bs.eval_circle(m, math.pi / 2)


@pytest.mark.parametrize("factor", [False, True])
def test_non_finite_theta_is_invalid(factor):
    # not math.fmod's ValueError, nor AtBreakpoint from a NaN matching no arc
    m = bs.bowen_series_map(3, 2, factor=factor)
    entries = [lambda t: bs.eval_circle(m, t),
               lambda t: bs.eval_circle_raw(m, t),
               lambda t: bs.eval_circle_one_sided(m, t, +1),
               lambda t: bs.eval_circle_raw_one_sided(m, t, -1),
               lambda t: bs.count_preimages(m, t),
               lambda t: bs.circle_orbit(m, t, 0),
               lambda t: bs.circle_orbit(m, t, 3)]
    for theta in (math.nan, math.inf, -math.inf):
        for entry in entries:
            with pytest.raises(InvalidArgument, match="theta"):
                entry(theta)


def test_locate_refuses_infinite_theta():
    # inf used to raise math.fmod's raw ValueError; a NaN lies in no arc
    m = bs.bowen_series_map(1, 4)
    for theta in (math.inf, -math.inf):
        with pytest.raises(InvalidArgument, match="theta"):
            bs._pocket_index(m, theta)
    with pytest.raises(AtBreakpoint):
        bs._pocket_index(m, math.nan)


def test_factor_continuity_at_discontinuity():
    # the one-sided limits of the factor map agree at the projected cusp
    m = bs.bowen_series_map(3, 1, factor=True)
    lo = bs.eval_circle_one_sided(m, 0.0, -1)
    hi = bs.eval_circle_one_sided(m, 0.0, +1)
    assert angle_dist(lo, hi) < 1e-9


@pytest.mark.parametrize("side", [0, 2, 7, 0.5, -0.5, None, math.nan])
def test_one_sided_rejects_bad_side(side):
    for m in (bs.bowen_series_map(1, 4), bs.bowen_series_map(3, 1, factor=True)):
        with pytest.raises(InvalidArgument):
            bs.eval_circle_one_sided(m, 1.0, side)
        with pytest.raises(InvalidArgument):
            bs.eval_circle_raw_one_sided(m, 1.0, side)


def test_unfactored_jump_in_rotation_orbit():
    m = bs.bowen_series_map(3, 1)
    lo = bs.eval_circle_raw_one_sided(m, 0.0, -1)
    hi = bs.eval_circle_raw_one_sided(m, 0.0, +1)
    assert angle_dist(lo, hi) > 0.1
    assert min(abs(((lo - hi) % TAU) - TAU * k / 3) for k in range(3)) < 1e-9


@pytest.mark.parametrize("n,p", [(3, 1), (4, 1), (5, 1), (3, 2)])
def test_factor_well_defined_across_lifts(n, p):
    m = bs.bowen_series_map(n, p, factor=True)
    rng = random.Random(42)
    for _ in range(50):
        th = rng.uniform(1e-3, TAU - 1e-3)
        vals = [bs.eval_circle(m, th, lift=k) for k in range(n)]
        assert max(angle_dist(vals[0], v) for v in vals) < 1e-9


@pytest.mark.parametrize("n,p", [(3, 1), (4, 1), (3, 2)])
def test_equivariance(n, p):
    # A o M_w = M_w o A on the circle
    m = bs.bowen_series_map(n, p)
    rng = random.Random(7)
    rot = TAU / n
    for _ in range(50):
        th = rng.uniform(0, TAU)
        try:
            a = bs.eval_circle_raw(m, norm_angle(th + rot))
            b = norm_angle(bs.eval_circle_raw(m, th) + rot)
        except AtBreakpoint:
            continue
        assert angle_dist(a, b) < 1e-9


# -- degrees ----------------------------------------------------------------------

def test_degrees_examples():
    assert bs.circle_degree(bs.bowen_series_map(1, 4)) == 3
    assert bs.circle_degree(bs.bowen_series_map(3, 1, factor=True)) == 2
    assert bs.circle_degree(bs.bowen_series_map(5, 1, factor=True)) == 4


@pytest.mark.parametrize("m", all_maps(), ids=lambda m: m.name)
def test_degree_is_np_minus_one(m):
    assert bs.circle_degree(m) == m.preset.n * m.preset.p - 1


def test_preimage_count_oracle():
    # grid-crossing brute force agrees with the interval-arithmetic count
    m = bs.bowen_series_map(1, 4)
    y = 1.2345
    grid = 4096
    vals = []
    for i in range(grid):
        t = TAU * (i + 0.5) / grid
        vals.append(_eval_circle_safe(m, t))
    crossings = 0
    for i in range(grid):
        a = vals[i]
        b = vals[(i + 1) % grid]
        d1 = (y - a) % TAU
        d2 = (b - a) % TAU
        if 0 < d1 < d2 < math.pi:
            crossings += 1
    assert crossings == bs.count_preimages(m, y) == 3


def reference_count_preimages(m, target, images=None):
    """Reference: the preimage count the (start, span) pairs replaced, one
    angle_in_open_arc scan of the raw arc images per lifted target; the
    images are the pockets' _arc_image, made here unless passed in."""
    y = norm_angle(target)
    if images is None:
        images = [bs._arc_image(m, k) for k in range(len(m.maps))]
    if not m.factor:
        return sum(angle_in_open_arc(y, a, b) for a, b in images)
    n = m.preset.n
    total = sum(angle_in_open_arc(y / n + TAU * k / n, a, b)
                for a, b in images for k in range(n))
    if total % n != 0:
        raise InconsistentDegree(f"upstairs count {total} not divisible by n = {n}")
    return total // n


def reference_locate(m, theta, tol=bs.BREAK_TOL):
    """Reference: the linear pocket scan the index arithmetic replaced, over
    the arcs (2 pi k/np, 2 pi (k + 1)/np); returns the pocket's index."""
    t = norm_angle(theta)
    k = len(m.maps)
    for j in range(k):
        lo, hi = TAU * j / k, TAU * (j + 1) / k
        if angle_in_open_arc(t, lo, hi):
            if ccw_span(lo, t) < tol or ccw_span(t, hi) < tol:
                raise AtBreakpoint(f"theta = {theta} is a partition breakpoint")
            return j
    raise AtBreakpoint(f"theta = {theta} is a partition breakpoint")


def reference_circle_degree(m):
    """Reference: the degree as one hit count per sample angle, each by
    reference_count_preimages, in sample order."""
    images = [bs._arc_image(m, k) for k in range(len(m.maps))]
    counts = set()
    for i in range(bs.DEGREE_SAMPLES):
        y = TAU * (i + 0.318309886) / bs.DEGREE_SAMPLES
        counts.add(reference_count_preimages(m, y, images))
    if len(counts) != 1:
        raise InconsistentDegree(f"preimage counts disagree: {sorted(counts)}")
    return counts.pop()


def _outcome(f, *args):
    try:
        return f(*args)
    except (AtBreakpoint, InconsistentDegree) as exc:
        return (type(exc).__name__, str(exc))


def test_lookups_match_scan_references():
    # bit for bit on every map: seeded angles, the breakpoints 2 pi k/(np),
    # every arc-image end and NaN; on the mutated maps, whose degree counts
    # disagree or do not divide, the counts at fewer seeded angles and the
    # arc-image ends, where the miss windows end, and the degree's error
    for m, mutated in [(m, False) for m in all_maps()] + [(m, True) for m in mutated_maps()]:
        k = m.preset.n * m.preset.p
        images = [bs._arc_image(m, j) for j in range(k)]
        ends = [t for image in images for t in image]
        rng = random.Random(k + 100 * m.factor)
        thetas = ([rng.uniform(-TAU, 2 * TAU) for _ in range(10 if mutated else 300)]
                  + ([] if mutated else [TAU * j / k for j in range(k)]) + ends
                  + [-0.0, math.nextafter(TAU, 0.0)])
        if not mutated:         # the pocket index reads no pairing
            for theta in thetas + [math.nan]:
                assert _outcome(bs._pocket_index, m, theta) == \
                    _outcome(reference_locate, m, theta), (m.name, theta)
        for theta in thetas:
            assert _outcome(bs.count_preimages, m, theta) == \
                _outcome(reference_count_preimages, m, theta, images), (m.name, theta)
        assert _outcome(bs.circle_degree, m) == _outcome(reference_circle_degree, m)
    assert all(bs.circle_degree(m) == m.degree for m in all_maps())


def crushed_arc_maps():
    """The conjugacy maps with pocket 0's pairing replaced by the translation
    z -> (z + r)/(1 + rz), r = 1 - 1e-12, which crushes the arc's image to a
    span of about 1e-12: the miss window is then longer than the circle."""
    r = 1.0 - 1e-12
    crush = MobiusMap.from_entries(1.0, r, r, 1.0)
    return [m._replace(maps=(crush,) + m.maps[1:]) for m in conjugacy_maps()]


def test_crushed_arc_counts_match_references():
    # each lift is tested once, though the window wraps past a full turn
    for m in crushed_arc_maps():
        k = len(m.maps)
        images = [bs._arc_image(m, j) for j in range(k)]
        assert ccw_span(*images[0]) < 1e-11
        ends = [t for image in images for t in image]
        rng = random.Random(k)
        thetas = ([rng.uniform(0.0, TAU) for _ in range(20)] + ends
                  + [math.nextafter(t, d) for t in images[0] for d in (0.0, TAU)])
        for theta in thetas:
            assert _outcome(bs.count_preimages, m, theta) == \
                _outcome(reference_count_preimages, m, theta, images), (m.name, theta)
        assert _outcome(bs.circle_degree, m) == _outcome(reference_circle_degree, m)


# -- disk action --------------------------------------------------------------------

@pytest.mark.parametrize("m", all_maps(), ids=lambda m: m.name)
def test_inner_boundary_involution(m):
    rng = random.Random(3)
    sides = m.preset.sides
    for _ in range(40):
        side = sides[rng.randrange(len(sides))]
        z = side.point_at(rng.uniform(0.15, 0.85))
        if m.factor:
            z = z ** m.preset.n
        w = bs.eval_pocket(m, z)
        assert abs(bs.eval_pocket(m, w) - z) < 1e-8


def test_pocket_image_on_paired_geodesic():
    m = bs.bowen_series_map(1, 4)
    z = m.preset.sides[0].point_at(0.3)
    w = bs.eval_pocket(m, z)
    dst = m.preset.sides[m.preset.sigma[1] - 1]
    assert abs(abs(w - dst.center) - dst.radius) < 1e-8


def test_polygon_interior_rejected():
    m = bs.bowen_series_map(1, 4)
    with pytest.raises(OutsideDomain):
        bs.eval_pocket(m, 0j)


@pytest.mark.parametrize("factor", [False, True])
@pytest.mark.parametrize("z", [complex("nan"), complex(0.5, math.nan), complex(math.inf, 0.0),
                               complex(-math.inf, math.nan)], ids=repr)
def test_eval_pocket_refuses_non_finite_points(z, factor):
    # before the disk test, which a NaN passes and so reached the pocket scan
    m = bs.bowen_series_map(3, 1, factor=factor)
    with pytest.raises(InvalidArgument) as info:
        bs.eval_pocket(m, z)
    assert str(info.value) == f"z must be finite, not {z!r}"


def test_eval_pocket_refuses_huge_points_outside_the_disk():
    # abs() of this z overflows; its modulus is inf, outside the disk
    m = bs.bowen_series_map(1, 4)
    z = complex(1.7e308, 1.7e308)
    with pytest.raises(OutsideDomain, match="outside the closed disk"):
        bs.eval_pocket(m, z)


def test_factor_critical_structure():
    # local degree n at each preimage of the critical value 0
    for n in (3, 4):
        m = bs.bowen_series_map(n, 1, factor=True)
        g = m.preset.first_sector[0]
        u_c = g(0j)             # critical point upstairs (maps to 0)
        w_c = u_c ** n          # downstairs critical point
        r = 1e-3
        winding = 0.0
        prev = None
        for i in range(257):
            z = w_c + r * cmath.exp(1j * TAU * i / 256)
            img = bs.eval_pocket(m, z)
            ang = cmath.phase(img)
            if prev is not None:
                d = (ang - prev + math.pi) % TAU - math.pi
                winding += d
            prev = ang
        assert round(winding / TAU) == n


# -- Markov partitions ------------------------------------------------------------

def test_markov_1_4():
    part = bs.markov_partition(bs.bowen_series_map(1, 4))
    assert len(part.breakpoints) == 4
    for row in part.transition:
        assert sum(row) == 3
        assert sorted(row) == [0, 1, 1, 1]


@pytest.mark.parametrize("m", all_maps(), ids=lambda m: m.name)
def test_markov_row_sums(m):
    part = bs.markov_partition(m)
    d = m.preset.n * m.preset.p - 1
    for row in part.transition:
        assert sum(row) == d


def test_markov_factor_3_1():
    part = bs.markov_partition(bs.bowen_series_map(3, 1, factor=True))
    assert part.transition == ((2,),)


# -- conjugacy -----------------------------------------------------------------------

def test_h_normalization():
    m = bs.bowen_series_map(1, 4)
    h = bs.ConjugacyH(m)
    val, rad = h.value(0.0, 6)
    assert val == m.marked_fixed_angle and rad == 0.0


def test_h_cut_count_matches_degree():
    # h exists for the continuous maps: n = 1 in either case, or factor maps
    for m in all_maps():
        if m.preset.n >= 3 and not m.factor:
            continue
        h = bs.ConjugacyH(m)
        assert len(h.cuts) == bs.circle_degree(m)


def test_h_rejects_discontinuous_map():
    from weldlab.errors import InconsistentDegree
    with pytest.raises(InconsistentDegree):
        bs.ConjugacyH(bs.bowen_series_map(3, 1))


@pytest.mark.parametrize("n,p,case,factor", [(1, 4, CASE_I, False),
                                             (3, 1, CASE_I, True),
                                             (1, 4, CASE_II, False)])
def test_h_functional_equation_improves(n, p, case, factor):
    m = bs.bowen_series_map(n, p, case, factor=factor)
    h = bs.ConjugacyH(m)
    d = h.d
    rng = random.Random(11)
    sups = {6: 0.0, 12: 0.0}
    for _ in range(200):
        th = rng.uniform(1e-4, TAU - 1e-4)
        for depth in sups:
            hv, _ = h.value(th, depth)
            hd, _ = h.value(norm_angle(d * th), depth)
            res = angle_dist(hd, _eval_circle_safe(m, hv))
            sups[depth] = max(sups[depth], res)
    assert sups[12] < sups[6]


def test_h_monotone():
    m = bs.bowen_series_map(1, 4)
    h = bs.ConjugacyH(m)
    rng = random.Random(13)
    thetas = sorted(rng.uniform(0, TAU) for _ in range(300))
    vals = [h.value(t, 10)[0] for t in thetas]
    shift = vals.index(min(vals))
    rot = vals[shift:] + vals[:shift]
    assert all(rot[i] <= rot[i + 1] for i in range(len(rot) - 1))


def test_h_pull_back_inverts_forward():
    for m in (bs.bowen_series_map(1, 4), bs.bowen_series_map(3, 1, factor=True),
              bs.bowen_series_map(1, 4, CASE_II)):
        h = bs.ConjugacyH(m)
        rng = random.Random(5)
        for _ in range(60):
            u = rng.uniform(1e-6, TAU - 1e-6)
            j = rng.randrange(h.d)
            x, same = h._pull_back((j,), u, u)
            assert x == same
            fwd = _eval_circle_safe(m, norm_angle(h.base + x))
            assert abs(ccw_span(h.base, fwd) - u) < 1e-6
    # just inside each row end of every factor map, where two root lifts land
    # within 1e-9 of the piece, one at each end: the pull-back lies at the
    # near end, and the forward map carries it back to u
    ends = 0
    for n, p, case in GRID:
        if n < 3:
            continue
        m = bs.bowen_series_map(n, p, case, factor=True)
        h = bs.ConjugacyH(m)
        for j, (_, hi, rows) in enumerate(h._tables):
            for r, row in enumerate(rows):
                u0, u1, x0 = row[:3]
                x1 = rows[r + 1][2] if r + 1 < len(rows) else hi
                for e, inward, near, far in ((u0, 1.0, x0, x1), (u1, -1.0, x1, x0)):
                    for u in (math.nextafter(e, inward * math.inf), e + inward * 1e-12,
                              e + inward * 1e-10):
                        if not 0.0 < u < TAU:
                            continue
                        x, same = h._pull_back((j,), u, u)
                        assert x == same
                        assert abs(x - near) < abs(x - far), (m.name, j, u, x)
                        fwd = _eval_circle_safe(m, norm_angle(h.base + x))
                        assert angle_dist(fwd, norm_angle(h.base + u)) < 1e-6, (m.name, j, u)
                        ends += 1
    assert ends == 1670


def reference_pieces(h):
    """Reference: the per-piece dicts the flat tables replaced, one list of
    pieces per cut arc."""
    m = h.m
    n = m.preset.n if m.factor else 1
    cut_offs = [ccw_span(h.base, c) if i else 0.0 for i, c in enumerate(h.cuts)] + [TAU]
    bp_offs = sorted({norm_angle(b - h.base) for b in bs.breakpoints(m)} - {0.0})
    jarcs = []
    for j in range(h.d):
        lo, hi = cut_offs[j], cut_offs[j + 1]
        bounds = [lo] + [x for x in bp_offs if lo + 1e-12 < x < hi - 1e-12] + [hi]
        pieces = []
        u_acc = 0.0
        for i in range(len(bounds) - 1):
            x0, x1 = bounds[i], bounds[i + 1]
            am = norm_angle(h.base + 0.5 * (x0 + x1))
            if m.factor:
                g = m.maps[reference_locate(m, norm_angle(am / n) if abs(am) > 0 else 0.0,
                                            tol=0.0)]
            else:
                g = m.maps[reference_locate(m, am, tol=0.0)]
            alpha = bs.eval_circle_raw_one_sided(m, norm_angle(h.base + x0) / n, +1)
            a0 = norm_angle(n * alpha)
            a1 = bs.eval_circle_one_sided(m, norm_angle(h.base + x1), -1)
            rise = TAU if len(bounds) == 2 else (a1 - a0) % TAU
            pieces.append({"x0": x0, "x1": x1, "u0": u_acc, "rise": rise,
                           "map_inv": g.inverse(), "alpha": alpha})
            u_acc += rise
        scale = TAU / u_acc
        for pc in pieces:
            pc["u0"] *= scale
            pc["rise"] *= scale
        jarcs.append(pieces)
    return jarcs


def reference_invert_piece(h, pieces, u):
    """Reference: one pull-back through the piece dicts.  On a factor map it
    runs the root lift whose target lies nearest alpha + (u - u0)/n, where
    the piece's upstairs image arc carries u."""
    m = h.m
    pc = pieces[-1]
    for cand in pieces:
        if cand["u0"] <= u <= cand["u0"] + cand["rise"]:
            pc = cand
            break
    t = norm_angle(h.base + u)
    if not m.factor:
        x = pc["map_inv"].boundary_angle(t)
        return pc["x0"] + ccw_span(norm_angle(h.base + pc["x0"]) - 1e-12, x) - 1e-12
    n = m.preset.n
    up_lo = (h.base + pc["x0"]) / n
    up_len = (pc["x1"] - pc["x0"]) / n
    aim = pc["alpha"] + (u - pc["u0"]) / n
    k = min(range(n), key=lambda k: angle_dist(t / n + TAU * k / n, aim))
    x_up = pc["map_inv"].boundary_angle(t / n + TAU * k / n)
    delta = ccw_span(norm_angle(up_lo) - 1e-12, x_up) - 1e-12
    assert -1e-9 <= delta <= up_len + 1e-9, "the nearest root lift misses the branch piece"
    return pc["x0"] + n * min(max(delta, 0.0), up_len)


def reference_value(h, jarcs, theta, depth):
    """Reference: ConjugacyH.value pulled back through the piece dicts."""
    if norm_angle(theta) < bs.BREAK_TOL or TAU - norm_angle(theta) < bs.BREAK_TOL:
        return h.base, 0.0
    arc = (0.0, TAU)
    for sym in reversed(bs.power_map_itinerary(theta, h.d, depth)):
        pieces = jarcs[sym]
        arc = tuple(pieces[0]["x0"] if u <= 0.0 else pieces[-1]["x1"] if u >= TAU
                    else reference_invert_piece(h, pieces, u) for u in arc)
    radius = max(0.5 * (arc[1] - arc[0]), bs.RADIUS_FLOOR)
    return norm_angle(h.base + 0.5 * (arc[0] + arc[1])), radius


def reference_preimages_of_marked(m, d):
    """Reference: ConjugacyH._preimages_of_marked by arcs, not indices.  The
    pairing of pocket (1, s) carries its open arc onto the circle minus the
    closed arc of side sigma(s), so a target y_j = (y + 2 pi j)/n has a
    preimage there iff it lies in the open arc from vertex sigma(s) ccw to
    vertex sigma(s) - 1; the preimage in the pocket whose arc holds y is y
    itself, already a cut."""
    base = m.marked_fixed_angle
    n = m.preset.n if m.factor else 1
    np, sigma = len(m.maps), m.preset.sigma
    offs = [0.0]
    for k in range(len(bs.breakpoints(m))):
        g_inv = m.maps[k].inverse()
        lo, hi = bs._arc(k, np)
        if angle_in_open_arc(base, lo, hi):
            continue
        for j in range(n):
            target = (base + TAU * j) / n
            if not angle_in_open_arc(target, TAU * sigma[k + 1] / np,
                                     TAU * (sigma[k + 1] - 1) / np, 1e-9):
                continue
            u = g_inv.boundary_angle(target)
            if not angle_in_open_arc(u, lo, hi, bs.BREAK_TOL):
                raise InconsistentDegree(f"lift {j} of the marked angle pulls back to {u}, "
                                         f"outside the arc of pocket {(1, k + 1)}")
            offs.append(norm_angle(norm_angle(n * u) - base))
    if len(offs) != d:
        raise InconsistentDegree(f"marked angle has {len(offs)} preimages, expected {d}")
    return [norm_angle(t + base) for t in sorted(offs)]


def merge_preimages_of_marked(m, d):
    """Reference for the error classes: the preimages of the marked angle as
    they were found before sigma chose them, every (pocket, lift) tried and
    the candidates merged when closer than 1e-9."""
    base = m.marked_fixed_angle
    n = m.preset.n if m.factor else 1
    cuts = [base]
    for k in range(len(bs.breakpoints(m))):
        g_inv = m.maps[k].inverse()
        lo, hi = bs._arc(k, len(m.maps))
        for j in range(n):
            u = g_inv.boundary_angle((base + TAU * j) / n)
            if angle_in_open_arc(u, lo, hi, bs.BREAK_TOL):
                cuts.append(norm_angle(n * u))
    dedup = []
    for t in sorted(norm_angle(c - base) for c in cuts):
        if (not dedup or t - dedup[-1] > 1e-9) and t < TAU - 1e-9:
            dedup.append(t)
    cuts = [norm_angle(t + base) for t in dedup]
    if len(cuts) != d:
        raise InconsistentDegree(f"marked angle has {len(cuts)} preimages, expected {d}")
    return cuts


def reference_build_pieces(m, d, cuts):
    """Reference: ConjugacyH._build_pieces as it was before the build
    inverted each pairing once and inlined the one-sided values, each piece
    end by eval_circle_one_sided, and each row's root lift the one that
    carries the marked angle plus u0 to alpha.  Returns (lifts, tables)."""
    base = m.marked_fixed_angle
    n = m.preset.n if m.factor else 1
    np = len(m.maps)
    cut_offs = [ccw_span(base, c) if i else 0.0 for i, c in enumerate(cuts)] + [TAU]
    bp_offs = sorted({norm_angle(b - base) for b in bs.breakpoints(m)} - {0.0})
    lifts = tuple(TAU * k / n for k in range(n))
    tables = []
    for j in range(d):
        lo, hi = cut_offs[j], cut_offs[j + 1]
        inner = [x for x in bp_offs if lo + 1e-12 < x < hi - 1e-12]
        bounds = [lo] + inner + [hi]
        pieces = []
        u_acc = 0.0
        for i in range(len(bounds) - 1):
            x0, x1 = bounds[i], bounds[i + 1]
            am = norm_angle(base + 0.5 * (x0 + x1))
            g = m.maps[int(norm_angle(am / n) * np / TAU) % np]
            alpha = bs.eval_circle_raw_one_sided(m, norm_angle(base + x0) / n, +1)
            a0 = norm_angle(n * alpha)
            a1 = bs.eval_circle_one_sided(m, norm_angle(base + x1), -1)
            rise = (a1 - a0) % TAU
            if len(bounds) == 2:
                rise = TAU
            lift = round((n * alpha - base - u_acc) / TAU) % n
            pieces.append((u_acc, rise, x0, x1, g.inverse(), lift))
            u_acc += rise
        if abs(u_acc - TAU) > 1e-6:
            raise InconsistentDegree(f"cut arc {j} lifts to rise {u_acc}, expected 2 pi")
        scale = TAU / u_acc
        rows = []
        for u0, rise, x0, x1, g_inv, lift in pieces:
            u0, rise = u0 * scale, rise * scale
            ref = norm_angle(norm_angle((base + x0) / n) - 1e-12)
            rows.append((u0, u0 + rise, x0, ref, (x1 - x0) / n,
                         g_inv.a, g_inv.b, g_inv.c, g_inv.d, lift))
        tables.append((lo, hi, tuple(rows)))
    return lifts, tables


def reference_build(m, d, preimages=reference_preimages_of_marked):
    """Reference: (cuts, lifts, tables) of a ConjugacyH of degree d, its cuts
    by preimages."""
    cuts = preimages(m, d)
    return (cuts,) + reference_build_pieces(m, d, cuts)


def test_h_build_matches_reference(monkeypatch):
    # bit for bit, or the same error, on every conjugacy map and on the
    # mutated maps, with the degree taken as np - 1 so the build runs on
    # maps whose sampled degree would stop it; against the merge search, the
    # same build or an error of the same class
    def state(m):
        h = bs.ConjugacyH(m)
        return h.cuts, h._lifts, h._tables

    maps = conjugacy_maps()
    for m in maps:
        assert state(m) == reference_build(m, bs.circle_degree(m)), m.name
    monkeypatch.setattr(bs, "circle_degree", lambda m: m.degree)
    outcomes = collections.Counter()
    for m in maps + mutated_maps():
        got = _outcome(state, m)
        assert got == _outcome(reference_build, m, m.degree), m.name
        merged = _outcome(reference_build, m, m.degree, merge_preimages_of_marked)
        assert got == merged or isinstance(got[0], str) and got[0] == merged[0], m.name
        outcomes[got[0] if isinstance(got[0], str) else "built"] += 1
    assert outcomes["built"] > len(maps) and outcomes["InconsistentDegree"], outcomes


@pytest.mark.parametrize("n,p,case", [(1, 4, CASE_I), (1, 6, CASE_II), (3, 2, CASE_I),
                                      (5, 6, CASE_I)])
def test_h_build_inverts_each_pairing_once(monkeypatch, n, p, case):
    # the build inverts each pocket's pairing at most once, not once per
    # piece as well
    m = bs.bowen_series_map(n, p, case, factor=n >= 3)
    calls = collections.Counter()
    inverse = MobiusMap.inverse

    def counted(g):
        calls[id(g)] += 1
        return inverse(g)

    monkeypatch.setattr(MobiusMap, "inverse", counted)
    h = bs.ConjugacyH(m)
    pieces = sum(len(table[2]) for table in h._tables)
    assert pieces > len(calls) > 0
    assert set(calls) <= {id(g) for g in m.maps}
    assert max(calls.values()) == 1, calls


def test_h_build_is_linear_in_the_breakpoints():
    # each cut arc takes its breakpoints by bisection and each piece its
    # pocket once; a scan of all np breakpoints per cut arc made this build
    # take 12.6 s on a 2-core host
    m = bs.bowen_series_map(1, 20000)
    t0 = time.perf_counter()
    h = bs.ConjugacyH(m)
    assert time.perf_counter() - t0 < 3.0
    assert len(h._tables) == bs.circle_degree(m) == 19999


def assert_values_nest(h):
    """At 24 angles, the value at depths 3 and 12 lies in the arc one depth
    up, and no radius is 0."""
    for i in range(24):
        theta = TAU * (i + 0.5) / 24
        shallow = h.value(theta, 2)
        for depth in (3, 12):
            deep = h.value(theta, depth)
            assert deep[1] > 0.0
            assert angle_dist(deep[0], shallow[0]) <= shallow[1] - deep[1] + 1e-12
            shallow = deep


def test_h_builds_where_the_rise_rounds_past_a_fixed_tolerance():
    # np = 60,000: a cut arc's rises sum to within 5 eps K^2 of 2 pi, past
    # 1e-6, so a fixed tolerance refused this map; the values still nest
    h = bs.ConjugacyH(bs.bowen_series_map(3, 20000, factor=True))
    assert len(h._tables) == h.d == 59999
    assert_values_nest(h)


def test_h_builds_where_preimages_crowd_within_a_merge_window():
    # np = 130,000: 22,674 pairs of neighbouring cuts lie closer than 1e-9,
    # and merging candidates that close left 116,999 of the 129,999 cuts;
    # sigma names each cut, so none is merged
    h = bs.ConjugacyH(bs.bowen_series_map(10, 13000, factor=True))
    assert len(h.cuts) == len(h._tables) == h.d == 129999
    assert_values_nest(h)


def bisect_pull_back(h, j, u):
    """Reference: the point of cut arc j whose image lies u ccw of the marked
    angle, by bisection of the forward map down to adjacent floats.  Within
    1e-6 of 0 or 2 pi an image is read by the half of the arc it comes from."""
    lo = ccw_span(h.base, h.cuts[j]) if j else 0.0
    hi = ccw_span(h.base, h.cuts[j + 1]) if j + 1 < h.d else TAU
    if u <= 0.0:
        return lo
    if u >= TAU:
        return hi
    a, b = lo, hi
    while lo < 0.5 * (lo + hi) < hi:
        x = 0.5 * (lo + hi)
        y = ccw_span(h.base, _eval_circle_safe(h.m, norm_angle(h.base + x)))
        if x - a < b - x and y > TAU - 1e-6:
            y -= TAU
        elif x - a >= b - x and y < 1e-6:
            y += TAU
        lo, hi = (x, hi) if y < u else (lo, x)
    return 0.5 * (lo + hi)


def bisect_value(h, theta, depth):
    """Reference: the depth-k arc of h(theta) as (midpoint, half-width), each
    end pulled back by bisect_pull_back."""
    lo, hi = 0.0, TAU
    for sym in reversed(bs.power_map_itinerary(theta, h.d, depth)):
        lo, hi = bisect_pull_back(h, sym, lo), bisect_pull_back(h, sym, hi)
    return norm_angle(h.base + 0.5 * (lo + hi)), 0.5 * (hi - lo)


@pytest.mark.parametrize("n,p,theta,depths", [(64, 399, 0.0027066786128441527, (12,)),
                                              (3, 20000, 0.08273693106265005, (2, 3, 12)),
                                              (3, 500, 0.004191584594516068, (2, 12, 30))])
def test_h_value_matches_bisection_where_two_lifts_land(n, p, theta, depths):
    # the pull-backs pass just inside piece ends, where two root lifts land
    # within 1e-9 of the piece; keeping the first in index order put the
    # value 9.8e-8 and 4.4e-9 from the arc with a radius of 1.4e-14, and on
    # (3, 500) held the radius at 3.8e-6 against a half-width of 4.2e-10
    h = bs.ConjugacyH(bs.bowen_series_map(n, p, factor=True))
    for depth in depths:
        value, radius = h.value(theta, depth)
        mid, half = bisect_value(h, theta, depth)
        assert angle_dist(value, mid) <= radius + half, (depth, value, radius, mid, half)
        assert radius <= 2.0 * half + bs.RADIUS_FLOOR, (depth, radius, half)


@pytest.mark.parametrize("n,p,case", GRID)
def test_h_value_matches_piece_reference(n, p, case):
    # bit for bit: seeded angles, the angles 1-5, the cuts and the d-adic
    # angles 2 pi j / d, whose itineraries end on cut-arc ends
    h = bs.ConjugacyH(bs.bowen_series_map(n, p, case, factor=n >= 3))
    jarcs = reference_pieces(h)
    rng = random.Random(17 * n + p)
    thetas = ([rng.uniform(0.0, TAU) for _ in range(200)] + [1.0, 2.0, 3.0, 4.0, 5.0]
              + list(h.cuts) + [TAU * j / h.d for j in range(h.d)])
    for theta in thetas:
        for depth in (1, 2, 5, 12, 20, 30, 60, 64):
            assert h.value(theta, depth) == reference_value(h, jarcs, theta, depth), \
                (theta, depth)


@pytest.mark.parametrize("n,p,case", GRID)
def test_h_invert_matches_scan_at_piece_ends(n, p, case):
    # bit for bit at each row end u0, u1, the floats next to it and 1e-12,
    # 1e-9 and 1e-7 either side, the midpoints, and the points half and two
    # margins need = 1e-8 (|c| + |d|)^2 inside the ends, the margin within
    # which a scan of every lift once kept the first to land, often the one
    # at the far end of the piece
    h = bs.ConjugacyH(bs.bowen_series_map(n, p, case, factor=n >= 3))
    jarcs = reference_pieces(h)
    for j, (table, pieces) in enumerate(zip(h._tables, jarcs)):
        for row in table[2]:
            u0, u1, c, d = row[0], row[1], row[7], row[8]
            need = 1e-8 * (abs(c) + abs(d)) ** 2
            us = [0.5 * (u0 + u1)]
            for e, inward in ((u0, 1.0), (u1, -1.0)):
                us += [e, math.nextafter(e, -math.inf), math.nextafter(e, math.inf)]
                us += [e + sign * off for off in (1e-12, 1e-9, 1e-7) for sign in (1, -1)]
                us += [e + inward * f * n * need for f in (0.5, 2.0)]
            for u in us:
                got = h._pull_back((j,), u, u)
                want = (pieces[0]["x0"] if u <= 0.0 else pieces[-1]["x1"] if u >= TAU
                        else reference_invert_piece(h, pieces, u))
                assert got == (want, want), (u, got, want)


class _CountingCmath:
    """cmath with a count of its exp calls."""

    def __init__(self):
        self.exps = 0

    def exp(self, z):
        self.exps += 1
        return cmath.exp(z)

    def __getattr__(self, name):
        return getattr(cmath, name)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_h_pull_back_runs_one_lift(monkeypatch, n):
    # a pull-back past the early returns runs its row's root lift alone: one
    # exp for each end pulled back, at seeded itineraries and just inside
    # every row end, where two lifts land within 1e-9 of the piece
    h = bs.ConjugacyH(bs.bowen_series_map(n, 1, factor=True))
    counting = _CountingCmath()
    monkeypatch.setattr(bs, "cmath", counting)
    exps = []
    for j, (_, _, rows) in enumerate(h._tables):
        for u0, u1, *_ in rows:
            for u in (u0 + 1e-10, u1 - 1e-10):
                before = counting.exps
                h._pull_back((j,), u, u)
                exps.append((counting.exps - before) / 2)
    rng = random.Random(31)
    for _ in range(50):
        theta = rng.uniform(0.0, TAU)
        arc = (0.0, TAU)
        for sym in reversed(bs.power_map_itinerary(theta, h.d, 12)):
            ends = []
            for u in arc:
                before = counting.exps
                x, same = h._pull_back((sym,), u, u)
                assert x == same
                ends.append(x)
                if 0.0 < u < TAU:
                    exps.append((counting.exps - before) / 2)   # u pulled back twice
                else:
                    assert counting.exps == before
            arc = tuple(ends)
        assert h.value(theta, 12) == (norm_angle(h.base + 0.5 * (arc[0] + arc[1])),
                                      max(0.5 * (arc[1] - arc[0]), bs.RADIUS_FLOOR))
    assert len(exps) > 500
    assert set(exps) == {1}, collections.Counter(exps)


def min_form_itinerary(theta, d, depth):
    """Reference: power_map_itinerary with its digit clamped by min()."""
    t = norm_angle(theta) / TAU
    syms = []
    for _ in range(depth):
        t = t % 1.0
        syms.append(min(d - 1, int(t * d)))
        t = t * d
    return tuple(syms)


def test_power_map_itinerary_matches_min_form():
    rng = random.Random(29)
    thetas = ([rng.uniform(-20.0, 20.0) for _ in range(200)]
              + [0.0, -0.0, 1.0, -1.0, TAU, -TAU]
              + [TAU - k * 1e-16 for k in range(1, 11)]
              + [-k * 1e-16 for k in range(1, 11)]
              + [math.nextafter(TAU, 0.0), -math.ulp(0.0)])
    # norm_angle(theta) within 1e-15 below 2 pi, where every digit is d - 1
    near = [t for t in thetas if 0.0 < TAU - norm_angle(t) < 1e-15]
    assert near and all(bs.power_map_itinerary(t, 7, 3) == (6, 6, 6) for t in near)
    for d in range(2, 30):
        for theta in thetas:
            assert bs.power_map_itinerary(theta, d, 64) == min_form_itinerary(theta, d, 64), \
                (theta, d)


def test_h_value_argument_checks(monkeypatch):
    h = bs.ConjugacyH(bs.bowen_series_map(1, 4))
    monkeypatch.setattr(bs, "power_map_itinerary", _refuse_enumeration)
    with pytest.raises(_Enumerated):
        h.value(1.0, MAX_DEPTH)
    # refused before an itinerary of 10**9 symbols is built
    for depth in (MAX_DEPTH + 1, 10**9):
        with pytest.raises(RankLimit, match=str(depth)):
            h.value(1.0, depth)
    with pytest.raises(DepthTooSmall):
        h.value(1.0, 0)
    for depth in (12.0, "12", None):
        with pytest.raises(InvalidArgument, match="depth"):
            h.value(1.0, depth)
    for theta in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidArgument, match="theta"):
            h.value(theta, 12)


@pytest.mark.parametrize("n,p,case", GRID)
def test_h_radius_positive_and_nested(n, p, case):
    # through and past the depth where the arc collapses in double precision:
    # each value lies in the arc one level up, and no radius is 0
    h = bs.ConjugacyH(bs.bowen_series_map(n, p, case, factor=n >= 3))
    last = math.ceil(math.log(TAU / bs.RADIUS_FLOOR) / math.log(h.d)) + 3
    for theta in (1.0, 2.0, 3.0, 4.0, 5.0):
        shallow = h.value(theta, 1)
        for depth in range(2, last + 1):
            deep = h.value(theta, depth)
            assert deep[1] > 0.0
            assert angle_dist(deep[0], shallow[0]) <= shallow[1] - deep[1] + 1e-12
            shallow = deep
        assert shallow[1] == bs.RADIUS_FLOOR


# -- tiles ------------------------------------------------------------------------

def tile_counts(m, rank):
    return [len(lv) for lv in bs.tiles(m, rank)]


def test_tile_counts():
    assert tile_counts(bs.bowen_series_map(1, 4), 3) == [1, 4, 12, 36]
    assert tile_counts(bs.bowen_series_map(3, 1), 3) == [1, 3, 6, 12]
    assert tile_counts(bs.bowen_series_map(3, 1, factor=True), 3) == [1, 1, 2, 4]


def test_tile_branching_matches_degree():
    m = bs.bowen_series_map(1, 4)
    counts = tile_counts(m, 3)
    d = bs.circle_degree(m)
    assert counts[2] == d * counts[1]
    assert counts[3] == d * counts[2]


def test_tiles_refuse_a_branch_with_a_pole_in_the_disk():
    # z -> 1/z has its pole at 0; its inverse is itself.  Rank 0 applies no
    # branch and is not refused
    m = bs.bowen_series_map(1, 4)
    bad = m._replace(maps=m.maps[:2] + (MobiusMap.from_entries(0j, 1j, 1j, 0j),) + m.maps[3:])
    with pytest.raises(DegenerateInput, match=r"inverse branch \(1, 3\) has a pole"):
        bs.tiles(bad, 1)
    assert bs.tiles(bad, 0) == bs.tiles(m, 0)


def test_tile_rank_guard():
    with pytest.raises(RankLimit):
        bs.tiles(bs.bowen_series_map(1, 4), 99)


@pytest.mark.parametrize("count", [2.5, 3.0, "3", None])
def test_counts_must_be_integers(count):
    m = bs.bowen_series_map(1, 4)
    with pytest.raises(InvalidArgument, match="rank must be an integer"):
        bs.tiles(m, count)
    with pytest.raises(InvalidArgument, match="steps must be an integer"):
        bs.circle_orbit(m, 1.0, count)
    # lift 0.5 on factor (3, 1) at theta 1.0 used to return 2.804, where
    # every root lift gives 1.235
    for factor in (True, False):
        with pytest.raises(InvalidArgument, match="lift must be an integer"):
            bs.eval_circle(bs.bowen_series_map(3, 1, factor=factor), 1.0, count)


class _Enumerated(Exception):
    pass


def _refuse_enumeration(*args):
    raise _Enumerated


def test_tile_budget_checked_before_enumeration(monkeypatch):
    # tiles builds its branch table only once the budget check has passed
    monkeypatch.setattr(bs, "_branches", _refuse_enumeration)
    factor = bs.bowen_series_map(5, 6, factor=True)
    plain = bs.bowen_series_map(5, 6)
    # factor (5, 6): 146,334 tiles at rank 4 (151,561 with ranks 0-3) pass
    # the budget; 4,243,686 at rank 5 (4,395,247 in all) and about 1.1e11
    # at rank 8 do not
    with pytest.raises(_Enumerated):
        bs.tiles(factor, 4)
    with pytest.raises(RankLimit, match="4395247"):
        bs.tiles(factor, 5)
    with pytest.raises(RankLimit, match="107195659921"):
        bs.tiles(factor, 8)
    # unfactored, rank 4 has n = 5 times as many: 731,670 (757,801 in all)
    with pytest.raises(RankLimit, match="757801"):
        bs.tiles(plain, 4)
    with pytest.raises(_Enumerated):
        bs.tiles(plain, 3)


def test_orbit_budget_checked_before_enumeration(monkeypatch):
    m = bs.bowen_series_map(1, 4)
    monkeypatch.setattr(bs, "eval_circle", _refuse_enumeration)
    with pytest.raises(_Enumerated):
        bs.circle_orbit(m, 1.0, TILE_BUDGET)
    for steps in (TILE_BUDGET + 1, 10**9):
        with pytest.raises(RankLimit, match=str(steps)):
            bs.circle_orbit(m, 1.0, steps)


def test_orbit_refuses_negative_steps_before_work(monkeypatch):
    # a negative count used to return the one starting angle
    m = bs.bowen_series_map(1, 4)
    monkeypatch.setattr(bs, "eval_circle", _refuse_enumeration)
    with pytest.raises(RankLimit, match="-5"):
        bs.circle_orbit(m, 1.0, -5)


def test_partition_budget_checked_before_enumeration(monkeypatch):
    monkeypatch.setattr(bs, "eval_circle_one_sided", _refuse_enumeration)
    # 500 arcs give 250,000 transition entries, 501 give 251,001
    with pytest.raises(_Enumerated):
        bs.markov_partition(bs.bowen_series_map(1, 500))
    with pytest.raises(RankLimit, match="251001"):
        bs.markov_partition(bs.bowen_series_map(1, 501))
    # a factor map has p arcs, an unfactored one np
    with pytest.raises(_Enumerated):
        bs.markov_partition(bs.bowen_series_map(3, 200, factor=True))
    with pytest.raises(RankLimit, match="360000"):
        bs.markov_partition(bs.bowen_series_map(3, 200))


def tile_map(m, word):
    """The Möbius map a tile's word names: the inverse branches of word[0],
    ..., word[-1], with word[0] applied last."""
    g = MobiusMap.identity()
    for r, s in reversed(word):
        g = m.maps[m.preset.side_index(r, s)].inverse().compose(g)
    return g


def test_tiles_disjoint_interiors():
    m = bs.bowen_series_map(1, 4)
    levels = bs.tiles(m, 3)
    all_tiles = [t for lv in levels for t in lv]
    maps = [tile_map(m, t.word) for t in all_tiles]
    sides = m.preset.sides
    base = levels[0][0].vertices
    # the word determines the tile: its vertices are the map's images of Pi's
    for t, g in zip(all_tiles, maps):
        assert max(abs(g(z) - v) for z, v in zip(base, t.vertices)) < 1e-9, t.word

    def inside(g, z, tol=1e-9):
        w = g.inverse()(z)
        if abs(w) >= 1:
            return False
        return all(s.side(w) > tol for s in sides)

    # interior sample of each tile: image of interior points of the polygon
    samples = [0j, 0.2 + 0.1j, -0.15 + 0.2j, 0.1 - 0.25j]
    samples = [z for z in samples if all(s.side(z) > 0 for s in sides)]
    assert samples
    for i, g1 in enumerate(maps):
        pts = [g1(z) for z in samples]
        for j, g2 in enumerate(maps):
            if i == j:
                continue
            assert not any(inside(g2, z) for z in pts)


def test_tile_words_deterministic():
    m = bs.bowen_series_map(1, 4)
    l1 = bs.tiles(m, 2)
    l2 = bs.tiles(m, 2)
    assert [[t.word for t in lv] for lv in l1] == [[t.word for t in lv] for lv in l2]
    for lv in l1:
        assert [t.word for t in lv] == sorted(t.word for t in lv)


@pytest.mark.parametrize("n,p", [(3, 1), (4, 1), (3, 2)])
def test_tiles_are_rotation_equivariant(n, p):
    # M_w carries each tile to the tile whose word has every label (r, s)
    # moved to (r + 1 mod n, s); its vertices turn by 2 pi/n, and the vertex
    # list moves on by the p vertices of a sector
    m = bs.bowen_series_map(n, p)
    rot = cmath.exp(1j * TAU / n)
    for level in bs.tiles(m, 3):
        by_word = {t.word: t.vertices for t in level}
        assert len(by_word) == len(level)
        for t in level:
            verts = by_word[tuple((r % n + 1, s) for r, s in t.word)]
            k = len(verts)
            assert max(abs(verts[(i + p) % k] - rot * t.vertices[i])
                       for i in range(k)) < 1e-9, t.word


#: factor maps and ranks where orbit vertices sit at angle 0 as well as just
#: below 2 pi, so rounding the angles in [0, 2 pi) alone splits an M_w-orbit
WRAPPED_FACTOR_TILES = [(4, 1, 7), (3, 2, 5), (5, 1, 5), (4, 2, 3), (3, 1, 7)]


@pytest.mark.parametrize("n,p,rank", WRAPPED_FACTOR_TILES)
def test_factor_tile_counts_formula(n, p, rank):
    # M_w acts freely on the np (np - 1)^(r - 1) rank-r tiles upstairs
    counts = tile_counts(bs.bowen_series_map(n, p, factor=True), rank)
    assert counts == [1] + [p * (n * p - 1) ** (r - 1) for r in range(1, rank + 1)]


@pytest.mark.parametrize("n,p", [(3, 3), (4, 4), (5, 6), (6, 2)])
def test_factor_tile_order_survives_rounding(n, p):
    # a vertex at angle 0 mod 2 pi/n comes out at +-1e-15, so the order must
    # not depend on which side of 0 rounding puts it
    preset = build_group(n, p)
    want = [[t.word for t in lvl] for lvl in bs.tiles(bs.bowen_series_from_preset(preset, True), 2)]
    for eps in (-4e-15, 4e-15):
        tilt = MobiusMap.rotation(eps)
        gens = tuple(tilt.compose(g).compose(tilt.inverse()) for g in preset.first_sector)
        m = bs.bowen_series_from_preset(preset._replace(first_sector=gens), True)
        assert [[t.word for t in lvl] for lvl in bs.tiles(m, 2)] == want, eps


#: presets whose rank-4 factor tiles the rounded vertex-angle keys once merged
#: (29,476, 33,976 and 27,367 of the formula's counts)
RANK_4_FACTOR_TILES = [(3, 6), (4, 5), (5, 4)]


@pytest.mark.parametrize("n,p", RANK_4_FACTOR_TILES)
def test_rank_4_factor_tile_counts_formula(n, p):
    t0 = time.perf_counter()
    counts = tile_counts(bs.bowen_series_map(n, p, factor=True), 4)
    assert time.perf_counter() - t0 < 10.0
    assert counts == [1] + [p * (n * p - 1) ** (r - 1) for r in range(1, 5)]


def vertex_test_letters(m, tile, tol=1e-9):
    """Reference: the per-vertex child test the outer-letter rule replaced.

    Branch g_{r,s}^-1 is valid when every vertex of the tile lies outside the
    open pocket (r, sigma(s)).
    """
    out = []
    for r, s in m.preset.all_side_labels():
        tgt = m.preset.sides[m.preset.side_index(r, m.preset.sigma[s])]
        if all(tgt.side(v) >= -tol for v in tile.vertices):
            out.append((r, s))
    return out


def reference_branch_children(row, parents):
    """Reference: the per-row child step of one branch, one Tile per child,
    that the flat word and vertex lists replaced."""
    label, skip, a, b, c, d = row
    inf = complex("inf")
    out = []
    for t in parents:
        word = t.word
        if word and word[0] == skip:
            continue
        verts = tuple([inf if abs(den := c * z + d) < 1e-300 else (a * z + b) / den
                       for z in t.vertices])
        out.append(bs.Tile((label,) + word, verts))
    return out


@pytest.mark.parametrize("n,p,case", GRID)
def test_tile_children_match_vertex_test(n, p, case):
    # every tile at ranks 1-3, factor and not.  For n >= 3 and np > 15 the
    # rank-3 tiles are the factor map's, one per M_w-orbit, as checking all n
    # rotations of each costs about 50 s over the grid
    m = bs.bowen_series_map(n, p, case)
    levels = bs.tiles(m, 3 if n == 1 or n * p <= 15 else 2)[1:]
    if n > 1:
        levels += bs.tiles(bs.bowen_series_map(n, p, case, factor=True), 3)[1:]
    rows = bs._branches(m)
    for level in levels:
        for t in level:
            assert [c.word[0] for row in rows for c in reference_branch_children(row, [t])] == \
                vertex_test_letters(m, t), t.word


def reference_children(m, tile):
    """Reference: the per-tile child step the branch-by-branch levels
    replaced, inverting each pocket's pairing once per tile."""
    out = []
    for (r, s), g in zip(m.preset.all_side_labels(), m.maps):
        if tile.word and tile.word[0] == (r, m.preset.sigma[s]):
            continue
        inv = g.inverse()
        verts = tuple(inv(v) for v in tile.vertices)
        out.append(bs.Tile(((r, s),) + tile.word, verts))
    return out


def reference_tiles(m, rank):
    """Reference: tiles level by level, each tile's children in turn, and
    every level sorted by word."""
    base = bs.Tile((), tuple(cmath.exp(1j * side.theta1) for side in m.preset.sides))
    p = m.preset.p
    last = m._replace(maps=m.maps[:p]) if m.factor else m
    levels = [[base]]
    for k in range(rank):
        step = last if k == rank - 1 else m
        nxt = []
        for t in levels[-1]:
            nxt.extend(reference_children(step, t))
        nxt.sort(key=lambda t: t.word)
        levels.append(nxt)
    if not m.factor:
        return levels
    return [reference_project_tiles(m, lvl) for lvl in levels]


#: 2 pi as the reference factor keys round it
REFERENCE_KEY_TURN = round(TAU, 6)


def reference_angle_key(x):
    """Reference: the float key of one vertex phase x that the integer keys
    replaced, the angle in (0, 2 pi] rounded to 6 digits."""
    return round(norm_angle(x), 6) or REFERENCE_KEY_TURN


def reference_project_tiles(m, level):
    """Reference: first-sector tiles by their rounded vertex angles, then by
    word, sorted on per-vertex float keys."""
    n = m.preset.n
    kept = [t for t in level if not t.word or t.word[0][0] == 1]
    return sorted(kept, key=lambda t: sorted(
        reference_angle_key(cmath.phase(v ** n)) for v in t.vertices))


#: (n, p, case, factor, rank) beyond the grid at rank 2: deep unfactored
#: levels in both cases, and a deep factor map
DEEP_TILES = [(1, 4, CASE_I, False, 5), (1, 4, CASE_II, False, 5),
              (1, 3, CASE_I, False, 6), (3, 1, CASE_I, True, 6)]


def test_tiles_match_per_tile_reference():
    cases = [(n, p, case, factor, 2) for (n, p, case) in GRID
             for factor in ((False, True) if n >= 3 else (False,))] + DEEP_TILES
    for n, p, case, factor, rank in cases:
        m = bs.bowen_series_map(n, p, case, factor=factor)
        assert bs.tiles(m, rank) == reference_tiles(m, rank), (n, p, case, factor)


# -- grid references for the closed-form circle kernel ------------------------------
#
# The lifting-and-bisection root finders the closed forms replaced: every
# branch of the circle map is a Möbius map (after z -> z^n for factor maps),
# so rises, preimages and fixed points have closed forms, and these slow
# references must agree with them.

def grid_lifted_rise(m, lo, hi, grid=64):
    """Total increase of the lifted circle map across (lo, hi), on a grid."""
    span = ccw_span(lo, hi)
    steps = grid
    while True:
        total = 0.0
        prev = bs.eval_circle_one_sided(m, lo, +1)
        ok = True
        for i in range(1, steps + 1):
            t = lo + span * i / steps
            cur = (bs.eval_circle_one_sided(m, hi, -1) if i == steps
                   else _eval_circle_safe(m, norm_angle(t)))
            d = (cur - prev) % TAU
            if d > math.pi:  # step too coarse to lift safely
                ok = False
                break
            total += d
            prev = cur
        if ok:
            return total
        steps *= 2
        assert steps <= 65536, "cannot lift arc image"


def grid_arc_images(m):
    bps = bs.breakpoints(m)
    k = len(bps)
    return [(bs.eval_circle_one_sided(m, bps[i], +1),
             grid_lifted_rise(m, bps[i], bps[(i + 1) % k])) for i in range(k)]


def transition_from_images(images):
    k = len(images)
    arc_len = TAU / k
    rows = []
    for start, rise in images:
        row = [0] * k
        for j in range(round(rise / arc_len)):
            row[(round(start / arc_len) + j) % k] += 1
        rows.append(tuple(row))
    return tuple(rows)


def lifted_targets(y, start, rise):
    """Lifts y + 2 pi j of y lying strictly inside (start, start + rise)."""
    j = math.ceil((start - y) / TAU - 1e-13)
    out = []
    while y + TAU * j < start + rise - 1e-10:
        if y + TAU * j > start + 1e-10:
            out.append(y + TAU * j)
        j += 1
    return out


def grid_solve_lifted(m, lo, hi, target, grid=256):
    """x in (lo, hi) where the lifted circle map reaches target: grid, then bisection."""
    span = ccw_span(lo, hi)
    while True:
        lifted_prev = bs.eval_circle_one_sided(m, lo, +1)
        t_prev = 0.0
        bracket = None
        max_step = 0.0
        for i in range(1, grid + 1):
            t = span * i / grid
            val = (bs.eval_circle_one_sided(m, hi, -1) if i == grid
                   else _eval_circle_safe(m, norm_angle(lo + t)))
            step = (val - lifted_prev) % TAU
            max_step = max(max_step, step)
            lifted = lifted_prev + step
            if lifted >= target and bracket is None:
                bracket = (t_prev, t, lifted_prev)
            t_prev, lifted_prev = t, lifted
        if bracket is not None and max_step < 0.5 * math.pi:
            break
        grid *= 2
        assert grid <= 262144, "lift bracketing failed"
    a, b, base_lift = bracket
    val_a = (bs.eval_circle_one_sided(m, lo, +1) if a == 0.0
             else _eval_circle_safe(m, norm_angle(lo + a)))
    for _ in range(80):
        mid = 0.5 * (a + b)
        vm = _eval_circle_safe(m, norm_angle(lo + mid))
        if base_lift + (vm - val_a) % TAU < target:
            a = mid
        else:
            b = mid
    return lo + 0.5 * (a + b)


def grid_cuts(m, base):
    """Preimages of base: each lifted target solved on its partition arc."""
    bps = bs.breakpoints(m)
    k = len(bps)
    cuts = [base]
    for i, (start, rise) in enumerate(grid_arc_images(m)):
        for target in lifted_targets(base, start, rise):
            cuts.append(norm_angle(grid_solve_lifted(m, bps[i], bps[(i + 1) % k], target)))
    dedup = []
    for t in sorted(norm_angle(c - base) for c in cuts):
        if (not dedup or t - dedup[-1] > 1e-9) and t < TAU - 1e-9:
            dedup.append(t)
    return [norm_angle(t + base) for t in dedup]


def grid_fixed_points(m, grid=1024):
    """Fixed angles: crossings of the lifted displacement A(t) - t with
    multiples of 2 pi along each partition arc, refined by bisection."""
    out = []
    bps = bs.breakpoints(m)
    k = len(bps)
    for i in range(k):
        lo, hi = bps[i], bps[(i + 1) % k]
        span = ccw_span(lo, hi)

        def val_at(t_off):
            if t_off <= 0.0:
                return bs.eval_circle_one_sided(m, lo, +1)
            if t_off >= span:
                return bs.eval_circle_one_sided(m, hi, -1)
            return _eval_circle_safe(m, norm_angle(lo + t_off))

        v0 = val_at(0.0)
        disp = (v0 - lo + math.pi) % TAU - math.pi
        if abs(disp) < 1e-10:  # fixed arc endpoint (parabolic vertex)
            out.append(norm_angle(lo))
        prev_t, prev_v, prev_disp = 0.0, v0, disp
        for j in range(1, grid + 1):
            t = span * j / grid
            v = val_at(t)
            disp = prev_disp + ((v - prev_v) % TAU) - (t - prev_t)
            if abs(disp - round(disp / TAU) * TAU) < 1e-10:
                out.append(norm_angle(lo + t))
            else:
                lo_lvl = math.ceil(min(prev_disp, disp) / TAU + 1e-12)
                hi_lvl = math.floor(max(prev_disp, disp) / TAU - 1e-12)
                for lvl in range(lo_lvl, hi_lvl + 1):
                    target = TAU * lvl
                    if not (min(prev_disp, disp) + 1e-11 < target
                            < max(prev_disp, disp) - 1e-11):
                        continue
                    a, b = prev_t, t
                    da, va = prev_disp, prev_v
                    for _ in range(80):
                        mid = 0.5 * (a + b)
                        vm = val_at(mid)
                        dm = da + ((vm - va) % TAU) - (mid - a)
                        if (dm < target) == (da < target):
                            a, da, va = mid, dm, vm
                        else:
                            b = mid
                    out.append(norm_angle(lo + 0.5 * (a + b)))
            prev_t, prev_v, prev_disp = t, v, disp
    verified = [t for t in out if angle_dist(_eval_circle_safe(m, t), t) < 1e-6]
    dedup = []
    for t in sorted(norm_angle(x) for x in verified):
        if all(angle_dist(t, u) > 1e-6 for u in dedup):
            dedup.append(t)
    return dedup


def conjugacy_maps():
    """The maps with a conjugacy: n = 1 unfactored, n >= 3 factored."""
    return [bs.bowen_series_map(n, p, case, factor=n >= 3) for (n, p, case) in GRID]


def mutated_maps():
    """The conjugacy maps with one pocket's pairing replaced by the first or
    the last pocket's: 512 maps, whose preimage counts go wrong."""
    out = []
    for m in conjugacy_maps():
        k = len(m.maps)
        for j in range(k):
            for src in (0, k - 1):
                if src != j:
                    out.append(m._replace(maps=m.maps[:j] + (m.maps[src],) + m.maps[j + 1:]))
    return out


@pytest.mark.parametrize("m", all_maps(), ids=lambda m: m.name)
def test_markov_matches_grid_reference(m):
    part = bs.markov_partition(m)
    want = grid_arc_images(m)
    for (start, rise), (start_ref, rise_ref) in zip(part.arc_images, want):
        assert abs(start - start_ref) < 1e-12 and abs(rise - rise_ref) < 1e-12
    assert part.transition == transition_from_images(want)


@pytest.mark.parametrize("m", conjugacy_maps(), ids=lambda m: m.name)
def test_cuts_match_grid_reference(m):
    h = bs.ConjugacyH(m)
    want = grid_cuts(m, m.marked_fixed_angle)
    assert len(h.cuts) == len(want) == h.d
    assert max(angle_dist(a, b) for a, b in zip(h.cuts, want)) < 1e-12


@pytest.mark.parametrize("m", [m for m in all_maps() if m.preset.n == 1]
                         + [bs.bowen_series_map(1, p, CASE_II) for p in (8, 12, 20, 30)],
                         ids=lambda m: m.name)
def test_fixed_points_match_grid_reference(m):
    # the marked angle is the least fixed angle the grid finds: the fixed
    # vertex 0 in Case I, a root of g_2 inside arc 2 in Case II
    want = grid_fixed_points(m)
    assert abs(m.marked_fixed_angle - min(want)) < 1e-12


def test_circle_kernel_time_budget():
    # every legal preset's map and conjugacy; best of three against host noise
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        for (n, p, case) in GRID:
            bs.ConjugacyH(bs.bowen_series_map(n, p, case, factor=n >= 3))
        best = min(best, time.perf_counter() - t0)
    assert best < 0.35


def half_way_angles(ks):
    """The doubles nearest (k + 1/2) 1e-6 for each k, each with both of its
    neighbours."""
    out = []
    for k in ks:
        h = (2 * k + 1) / 2e6           # correctly rounded quotient
        out += (math.nextafter(h, 0.0), h, math.nextafter(h, 7.0))
    return out


def assert_same_order_and_ties(xs):
    keys, ref = bs._angle_keys(xs), [reference_angle_key(x) for x in xs]
    order = sorted(range(len(xs)), key=ref.__getitem__)
    assert sorted(range(len(xs)), key=keys.__getitem__) == order
    assert [ref[i] == ref[j] for i, j in zip(order, order[1:])] == \
        [keys[i] == keys[j] for i, j in zip(order, order[1:])]


def test_integer_angle_keys_sort_and_tie_as_rounded_angles():
    # the integer keys agree with round(angle, 6) on every phase, so factor
    # tiles sort and tie as before; half-way decimals are where the fast
    # round(x * 1e6) could part from it
    rng = random.Random(20)
    turn = round(TAU * 1e6)
    edges = [0.0, -0.0, 1e-15, -1e-15, math.pi, -math.pi, TAU - 1e-15, 5e-7, -5e-7]
    # j/128 times 10^6 is a half-integer exactly, which both round to even
    edges += [j / 128 for j in range(1, 805, 2)]
    seeded = [rng.uniform(-math.pi, math.pi) for _ in range(60000)]
    # both ends of the range, each binade edge of x 1e6, and a seeded sample
    ks = (list(range(200)) + list(range(turn - 200, turn))
          + [k for e in range(1, 23) for k in range(2 ** e - 3, 2 ** e + 3)]
          + rng.sample(range(turn), 60000))
    half_way = half_way_angles(ks)
    # as phases in [-pi, pi]: the half-way angles above pi come in below 0
    half_way += [x - TAU for x in half_way if x > math.pi]
    xs = edges + seeded + half_way
    assert_same_order_and_ties(xs)
    assert bs._angle_keys(edges[:4]) == [turn] * 4


def test_every_half_way_angle_is_in_the_fallback_band():
    # every (k + 1/2) 1e-6 in [0, 2 pi) and both its neighbours lie in the
    # band where the key goes through round(x, 6): x * 1e6 is within 1e-4 of
    # a half-integer.  numpy's float64 product and rint are IEEE, as are
    # Python's.  The library itself takes a sample of these angles above:
    # all 18.8 million take it about 13 s on a 2-core host
    np = pytest.importorskip("numpy")
    turn = round(TAU * 1e6)
    for lo in range(0, turn, 1 << 20):
        k = np.arange(lo, min(lo + (1 << 20), turn), dtype=np.float64)
        h = (2 * k + 1) / 2e6
        for x in (np.nextafter(h, 0.0), h, np.nextafter(h, 7.0)):
            y = x * 1e6
            assert np.all(np.abs(y - np.rint(y)) > 0.4999)


def test_factor_tiles_make_no_per_vertex_float_keys(monkeypatch):
    # the keys are integers from one pass over each batch of phases; the
    # per-vertex norm_angle and round(x, 6) keys they replaced must not come
    # back
    want = {(n, p, rank): bs.tiles(bs.bowen_series_map(n, p, factor=True), rank)
            for n, p, rank in [(3, 1, 5), (4, 2, 3), (5, 6, 2)]}

    def refuse(theta):
        raise AssertionError("per-vertex norm_angle in the factor tile keys")

    monkeypatch.setattr(bs, "norm_angle", refuse)
    for (n, p, rank), levels in want.items():
        assert bs.tiles(bs.bowen_series_map(n, p, factor=True), rank) == levels
