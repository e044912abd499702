"""Bowen-Series circle maps and their factor quotients.

The map acts on the closed disk minus the open fundamental polygon: in the
pocket bounded by C_{r,s} it is the side pairing of that pocket.  For n >= 3
the circle map is discontinuous at the sector boundaries but commutes with
M_w, so it descends through z -> z^n to the continuous factor map of degree
np - 1.
"""

from __future__ import annotations

import bisect
import cmath
import itertools
import math
import operator

from . import MAX_DEPTH
from .errors import (AtBreakpoint, DegenerateInput, DepthTooSmall, InconsistentDegree,
                     InvalidArgument, MarkovViolation, OutsideDomain, RankLimit, Record, as_count)
from .fuchsian import TILE_BUDGET, VERTEX_BUDGET, GroupPreset, build_group
from .hyperbolic import TAU, angle_in_open_arc, ccw_span, norm_angle

BREAK_TOL = 1e-12


class BowenSeriesMap(Record):
    __slots__ = ()

    def __new__(cls, preset: GroupPreset,
                maps: tuple,              # g_{r,s} of pocket k, the side at preset.sides[k]
                factor: bool, marked_fixed_angle: float):
        return tuple.__new__(cls, (preset, maps, factor, marked_fixed_angle))

    @property
    def degree(self) -> int:
        return self.preset.n * self.preset.p - 1

    @property
    def name(self) -> str:
        kind = "fBS" if self.factor else "BS"
        return f"A^{kind}_{self.preset.name}"


def bowen_series_map(n: int, p: int, case: str = "I", factor: bool = False) -> BowenSeriesMap:
    preset = build_group(n, p, case)
    return bowen_series_from_preset(preset, factor)


def bowen_series_from_preset(preset: GroupPreset, factor: bool = False) -> BowenSeriesMap:
    """The map whose pocket k, bounded by the side C_{r,s} at index k =
    side_index(r, s), carries the sector pairing g_{r,s}."""
    if factor and preset.n < 3:
        raise OutsideDomain("factor map needs n >= 3")
    maps = tuple(preset._sector_pairing(r, s) for r, s in preset.all_side_labels())
    return BowenSeriesMap(preset, maps, factor, _marked_fixed_angle(preset))


def _arc(k: int, np: int) -> tuple:
    """(lo, hi), the ccw boundary arc pocket k of np subtends: the k-th arc
    of the uniform partition, between the vertices bounding side k."""
    return TAU * k / np, TAU * (k + 1) / np


def _pocket_index(m: BowenSeriesMap, theta: float) -> int:
    """Pocket whose open arc contains theta; AtBreakpoint within BREAK_TOL
    of an arc end.

    The arcs are the uniform partition at multiples of 2 pi/(np), so the
    pocket is found by index arithmetic: only the indexed arc and its two
    neighbours can hold theta, and at most one does.  An infinite theta
    raises InvalidArgument; a NaN lies in no arc.
    """
    if math.isinf(theta):
        raise InvalidArgument(f"theta must be finite, not {theta!r}")
    t = norm_angle(theta)
    if t == t:                  # a NaN lies in no arc
        k = len(m.maps)
        i = int(t * k / TAU) % k
        for j in ((i - 1) % k, i, (i + 1) % k):
            lo, hi = _arc(j, k)
            if angle_in_open_arc(t, lo, hi):
                if ccw_span(lo, t) < BREAK_TOL or ccw_span(t, hi) < BREAK_TOL:
                    break
                return j
    raise AtBreakpoint(f"theta = {theta} is a partition breakpoint")


# -- circle evaluation -------------------------------------------------------

def _check_theta(theta: float):
    if not math.isfinite(theta):
        raise InvalidArgument(f"theta must be finite, not {theta!r}")


def eval_circle_raw(m: BowenSeriesMap, theta: float) -> float:
    """Unfactored circle action: apply the generator of the pocket at theta."""
    _check_theta(theta)
    return m.maps[_pocket_index(m, theta)].boundary_angle(theta)


def eval_circle_raw_one_sided(m: BowenSeriesMap, theta: float, side: int) -> float:
    """One-sided limit at theta: side=+1 uses the arc on the ccw side.

    The pockets subtend the uniform partition at multiples of 2 pi/(np), so
    the arc choice is index arithmetic; the pocket map is then evaluated at
    theta itself (Möbius maps extend continuously to the closed arc).  A side
    other than +1 or -1 raises InvalidArgument.
    """
    _check_theta(theta)
    if side != 1 and side != -1:
        raise InvalidArgument(f"side must be +1 or -1, not {side!r}")
    k = len(m.maps)
    t = norm_angle(theta)
    idx = math.floor(t * k / TAU + (1e-7 if side > 0 else -1e-7)) % k
    return m.maps[idx].boundary_angle(t)


def eval_circle(m: BowenSeriesMap, theta: float, lift: int = 0) -> float:
    """Circle action of the map (factor maps evaluated through z -> z^n).

    For the factor map, `lift` selects which n-th root lift to use; all
    choices agree (well-definedness is a tested invariant).  A theta that is
    not finite or a lift that is not an integer raises InvalidArgument.
    """
    lift = as_count(lift, "lift")
    if not m.factor:
        return eval_circle_raw(m, theta)
    _check_theta(theta)
    n = m.preset.n
    up = norm_angle(theta) / n + TAU * (lift % n) / n
    return norm_angle(n * eval_circle_raw(m, up))


def eval_circle_one_sided(m: BowenSeriesMap, theta: float, side: int) -> float:
    """One-sided limit of eval_circle at theta, side as in
    eval_circle_raw_one_sided (factor maps evaluated through z -> z^n)."""
    if not m.factor:
        return eval_circle_raw_one_sided(m, theta, side)
    _check_theta(theta)
    n = m.preset.n
    up = norm_angle(theta) / n
    return norm_angle(n * eval_circle_raw_one_sided(m, up, side))


def circle_orbit(m: BowenSeriesMap, theta: float, steps: int):
    """theta and its first `steps` images; a negative step count or more than
    TILE_BUDGET steps raises RankLimit, and a step count that is not an
    integer or a theta that is not finite InvalidArgument, before any work."""
    steps = as_count(steps, "steps")
    if steps < 0:
        raise RankLimit(f"{steps} orbit steps < 0")
    if steps > TILE_BUDGET:
        raise RankLimit(f"{steps} orbit steps, more than the budget of {TILE_BUDGET}")
    _check_theta(theta)
    out = [norm_angle(theta)]
    for _ in range(steps):
        out.append(eval_circle(m, out[-1]))
    return out


def breakpoints(m: BowenSeriesMap):
    """Partition breakpoints of the circle map (projected for factor maps)."""
    if m.factor:
        p = m.preset.p
        return [TAU * k / p for k in range(p)]
    mm = m.preset.n * m.preset.p
    return [TAU * k / mm for k in range(mm)]


# -- disk evaluation ---------------------------------------------------------

#: a disk point this far beyond a side's geodesic, on the polygon's side,
#: still lies in the closure of that side's pocket: rounding of a point
#: placed on the side
POCKET_TOL = 1e-12


def _locate_pocket_disk(m: BowenSeriesMap, z: complex) -> int:
    """Index of the pocket holding z: the deepest beyond its side."""
    best = None
    for k, side in enumerate(m.preset.sides):
        d = side.side(z)  # <= 0 on the pocket side of the geodesic
        if d <= POCKET_TOL and (best is None or d < best[0]):
            best = (d, k)
    if best is None:
        raise OutsideDomain(f"{z} lies in the interior of the polygon")
    return best[1]


def eval_pocket(m: BowenSeriesMap, z: complex) -> complex:
    """Disk action on the closure of the pocket union; a z that is not
    finite raises InvalidArgument."""
    if not cmath.isfinite(z):
        raise InvalidArgument(f"z must be finite, not {z!r}")
    if math.hypot(z.real, z.imag) > 1.0 + 1e-9:     # abs(z) can overflow
        raise OutsideDomain(f"{z} outside the closed disk")
    if not m.factor:
        return m.maps[_locate_pocket_disk(m, z)](z)
    n = m.preset.n
    u = _principal_root(z, n)
    return m.maps[_locate_pocket_disk(m, u)](u) ** n


def _principal_root(z: complex, n: int) -> complex:
    if z == 0:
        return 0j
    r = abs(z) ** (1.0 / n)
    return r * cmath.exp(1j * cmath.phase(z) / n)


# -- degree by preimage counting ----------------------------------------------

def _arc_image(m: BowenSeriesMap, k: int):
    """One-sided endpoint images of pocket k's arc under the unfactored map."""
    lo, hi = _arc(k, len(m.maps))
    g = m.maps[k]
    return g.boundary_angle(lo), g.boundary_angle(hi)


def _arc_spans(m: BowenSeriesMap):
    """Each pocket's _arc_image as (start, ccw span), normalised once.

    boundary_angle returns angles in [0, 2 pi), where norm_angle is the
    identity, so testing s = t - start (plus 2 pi when s <= 0) against
    0 < s < span decides exactly what angle_in_open_arc decides.
    """
    images = (_arc_image(m, k) for k in range(len(m.maps)))
    return [(a, ccw_span(a, b)) for a, b in images]


def count_preimages(m: BowenSeriesMap, target: float) -> int:
    """Number of circle preimages of a generic target angle."""
    _check_theta(target)
    return _preimage_counts(m, (norm_angle(target),))[0]


#: angles at which circle_degree counts preimages; every count must agree
DEGREE_SAMPLES = 20


def circle_degree(m: BowenSeriesMap) -> int:
    """Covering degree via preimage counting at DEGREE_SAMPLES generic angles."""
    # evenly spaced, offset from 0 to avoid breakpoints
    ys = [norm_angle(TAU * (i + 0.318309886) / DEGREE_SAMPLES) for i in range(DEGREE_SAMPLES)]
    counts = set(_preimage_counts(m, ys))
    if len(counts) != 1:
        raise InconsistentDegree(f"preimage counts disagree: {sorted(counts)}")
    return counts.pop()


#: the miss window of a pocket is the complement of its arc image widened
#: by this much at each end: far beyond the rounding of the exact test
MISS_MARGIN = 1e-9


def _preimage_counts(m: BowenSeriesMap, ys):
    """count_preimages of each of the S evenly spaced angles ys in [0, 2 pi).

    A preimage upstairs is a lift y_i/n + 2 pi k/n inside the open image arc
    (a, a + span) of a pocket (_arc_spans); the count divides the hits by the
    n-fold redundancy of z -> z^n (n = 1 when unfactored).  The lifts are an
    arithmetic progression: lift j = i + S k lies at ys[0]/n + 2 pi j/(S n).
    Each image arc covers all of the circle but about 2 pi/np, so the misses
    are counted: the lifts in the closed complement [a + span, a + 2 pi]
    widened by MISS_MARGIN are the j from a ceil to a floor, at most one turn
    of them, and only they get the exact test.  Any other lift lies more than
    MISS_MARGIN inside the open arc, so the exact test would count it a hit.
    """
    n = m.preset.n if m.factor else 1
    turn = len(ys) * n
    step, base = TAU / turn, ys[0] / n
    spans = _arc_spans(m)
    misses = [0] * len(ys)
    for a, span in spans:
        lo = (a + span - MISS_MARGIN) % TAU
        hi = lo + (TAU - span) + 2.0 * MISS_MARGIN
        first = math.ceil((lo - base) / step)
        for j in range(first, min(math.floor((hi - base) / step), first + turn - 1) + 1):
            k, i = divmod(j, len(ys))
            s = norm_angle(ys[i] / n + TAU * (k % n) / n) - a
            if s <= 0.0:
                s += TAU
            if not 0.0 < s < span:
                misses[i] += 1
    out = []
    for miss in misses:
        total = n * len(spans) - miss
        if total % n != 0:
            raise InconsistentDegree(f"upstairs count {total} not divisible by n = {n}")
        out.append(total // n)
    return out


# -- Markov partition ----------------------------------------------------------

class MarkovPartition(Record):
    __slots__ = ()

    def __new__(cls, breakpoints: tuple,
                transition: tuple,        # multiplicity table, row = source arc
                arc_images: tuple):       # per-arc (start, rise) of the lifted image
        return tuple.__new__(cls, (breakpoints, transition, arc_images))


#: largest miss of a breakpoint by an arc image's end that markov_partition
#: accepts; the ends are one-sided circle values, exact up to rounding
MARKOV_TOL = 1e-8


def markov_partition(m: BowenSeriesMap) -> MarkovPartition:
    """Partition at the pocket-arc endpoints with the covering verified Markov.

    Arc i carries one Möbius branch, the side pairing g of pocket i (of the
    first sector for factor maps, whose arc i is the z -> z^n image of that
    pocket).  g maps the pocket arc onto the ccw arc from g(lo) to g(hi), so
    the lifted image of arc i starts at its one-sided value at lo and rises
    by n ccw_span(g(lo), g(hi)), with n = 1 for unfactored maps.  The Markov
    property demands that both ends land on breakpoints within MARKOV_TOL.
    """
    bps = breakpoints(m)
    k = len(bps)
    if k * k > TILE_BUDGET:
        raise RankLimit(f"{k} arcs give {k * k} transition entries, more than {TILE_BUDGET}")
    n = m.preset.n if m.factor else 1
    arc_len = TAU / k
    rows = []
    images = []
    for i in range(k):
        start = eval_circle_one_sided(m, bps[i], +1)
        rise = n * ccw_span(*_arc_image(m, i))
        end = start + rise
        for v in (start, end):
            snap = round(v / arc_len) * arc_len
            if abs(v - snap) > MARKOV_TOL:
                raise MarkovViolation(
                    f"arc {i}: image endpoint {v} misses breakpoints by {abs(v - snap):.2e}")
        row = [0] * k
        j0 = round(start / arc_len)
        covered = round(rise / arc_len)
        for j in range(covered):
            row[(j0 + j) % k] += 1
        rows.append(tuple(row))
        images.append((start, rise))
    return MarkovPartition(tuple(bps), tuple(rows), tuple(images))


# -- topological conjugacy with z^d ------------------------------------------

def _marked_fixed_angle(preset: GroupPreset) -> float:
    """The normalising fixed angle: 0 in Case I, and in Case II (n = 1) the
    least fixed angle of the circle map, h + phi with h = pi/p.

    Side 1's pairing has order 2 and fixes no boundary point, and no vertex
    is fixed for even p (the map sends vertex v to 1 - v mod p), so this is
    the least fixed point of g_2, reflection in C_{1,2} then in the axis
    through e^{ih}: an end h +- phi of their common perpendicular, whose
    circle (centre e^{ih}/cos phi, radius tan phi) is orthogonal to C_{1,2}
    iff cos phi = cos 2h/cos h (Beardon, The Geometry of Discrete Groups,
    section 7), that is sin^2(phi/2) = sin(3h/2) sin(h/2)/cos h.
    """
    if preset.case == "I":
        return 0.0
    h = math.pi / preset.p
    return h + 2.0 * math.asin(math.sqrt(math.sin(1.5 * h) * math.sin(0.5 * h) / math.cos(h)))


#: least error radius of ConjugacyH.value.  Each pull-back rounds a few
#: times at the scale of 2 pi and the inverse branches contract the error
#: carried in, so the midpoint is off by a few ulps of 2 pi: at most 3.0e-15
#: against a 40-digit replay of the same pull-backs, on every preset at
#: depths 12, 30 and 60.  Arcs at two depths need not nest: on (5, 6)
#: factored at theta = 5.449952039984563, depth 12's arc is not inside depth
#: 8's (midpoints 8.97e-14 apart, radii 9.06e-14 and 1.42e-14); on (3, 5000)
#: factored at theta = 1.9905130152348351 the radius is 1.42e-14 at depth 3
#: and 3.13e-13 at depth 4, and depth 6's midpoint is 7.9e-13 from depth 3's.
RADIUS_FLOOR = 16 * math.ulp(TAU)

#: a cut arc's rises sum to 2 pi within max(1e-6, RISE_GROWTH eps K^2), K^2
#: the largest (|c| + |d|)^2 of its inverse branches, which bounds how much
#: their forward maps magnify rounding; at most 5.5 eps K^2 seen, np <= 128,000
RISE_GROWTH = 64


def power_map_itinerary(theta: float, d: int, depth: int) -> tuple:
    """Base-d digit itinerary of theta under t -> d t (arcs cut at 0)."""
    t = norm_angle(theta) / TAU
    top = d - 1
    syms = []
    for _ in range(depth):
        t = t % 1.0
        k = int(t * d)
        syms.append(k if k < top else top)
        t = t * d
    return tuple(syms)


class ConjugacyH:
    """Topological conjugacy h with h(d theta) = A(h(theta)), h(0) = marked.

    h is computed by itinerary matching: the depth-k symbol sequence of theta
    under multiplication by d selects a nested chain of inverse-branch arcs
    for the circle map, cut at the preimages of the marked fixed angle.  The
    value is returned as the midpoint of the depth-k arc together with its
    radius; no exactness beyond the arc width is claimed.

    Everything is in closed form, because every branch of the circle map is
    one side pairing (after z -> z^n for factor maps).  Each cut is one
    inverse-matrix application to a lift of the marked angle.  Each cut arc
    is divided at the partition breakpoints into pieces carrying a single
    Möbius branch, and pulling back is one inverse-matrix application.  On
    a factor map it applies to one of the n n-th root lifts of the target:
    the one that lies in the piece's upstairs image arc.  The piece fixes
    that lift, so the build stores its index and no lift is searched for.
    The build flattens each cut arc into one table (lo, hi, rows) with a row
    of constants per piece, so an evaluation does only the arithmetic that
    depends on the angle: value makes one _pull_back call, whose single loop
    carries both arc ends through the table of every itinerary symbol.
    value refuses a depth above MAX_DEPTH with RankLimit before it builds
    the itinerary.
    """

    def __init__(self, m: BowenSeriesMap):
        if m.preset.n >= 3 and not m.factor:
            raise InconsistentDegree(
                "the unfactored map is discontinuous for n >= 3; "
                "the conjugacy exists for n = 1 or for factor maps")
        self.m = m
        self.d = circle_degree(m)
        self.base = m.marked_fixed_angle
        # the inverse branches of the pockets over the partition arcs (of the
        # first sector for factor maps), each inverted once
        inverses = [g.inverse() for g in m.maps[:len(breakpoints(m))]]
        self.cuts = self._preimages_of_marked(inverses)
        self._build_pieces(inverses)

    def _preimages_of_marked(self, inverses):
        """The d preimages of the marked angle y, one inverse branch each.

        Pocket (1, s) (of the first sector for factor maps) holds one for
        each lift j in 0..n-1 whose target (y + 2 pi j)/n avoids the closed
        arc of side sigma(s), which g_s's image misses: in Case I y = 0 and
        the target is vertex jp; in Case II (n = 1) y lies in the arc of side
        2, which only pocket (1, p) misses, and pocket (1, 2)'s preimage is y
        itself.  It is one inverse-matrix application u, the cut is n u, and
        a u outside the pocket's open arc by BREAK_TOL is InconsistentDegree.
        """
        m = self.m
        n = m.preset.n if m.factor else 1
        np, p, sigma = len(m.maps), m.preset.p, m.preset.sigma
        offs = [0.0]
        for s, g_inv in enumerate(inverses, 1):
            if m.preset.case == "I":
                lifts = [j for j in range(n) if j * p % np not in (sigma[s] - 1, sigma[s] % np)]
            else:
                lifts = [] if s in (2, p) else [0]
            lo, hi = _arc(s - 1, np)
            for j in lifts:
                u = g_inv.boundary_angle((self.base + TAU * j) / n)
                if not angle_in_open_arc(u, lo, hi, BREAK_TOL):
                    raise InconsistentDegree(
                        f"lift {j} of the marked angle pulls back to {u}, "
                        f"outside the arc of pocket {(1, s)}")
                offs.append(norm_angle(norm_angle(n * u) - self.base))
        if len(offs) != self.d:
            raise InconsistentDegree(
                f"marked angle has {len(offs)} preimages, expected {self.d}")
        return [norm_angle(t + self.base) for t in sorted(offs)]

    def _build_pieces(self, inverses):
        """One table (lo, hi, rows) per cut arc, in offsets from the marked
        angle: the arc runs from lo to hi and each Möbius piece of it is a row
        (u0, u1, x0, ref, up_len, a, b, c, d, lift).  [u0, u1] is the image
        span of the piece rescaled to 2 pi, x0 its start, ref the upstairs
        angle a pull-back is measured from, up_len its upstairs length and
        a..d the entries of its inverse branch.  lift is the index of the
        n-th root lift that lands in the piece: the upstairs start alpha of
        the piece's image arc (its pocket's map at x0) has n alpha = base +
        u0 + 2 pi lift (mod 2 pi n), taken with u0 before the rescale.  A cut
        arc's breakpoints are a slice of the sorted offsets, found by
        bisection: no cut is one."""
        m = self.m
        n = m.preset.n if m.factor else 1
        maps = m.maps
        np = len(maps)
        cut_offs = [ccw_span(self.base, c) if i else 0.0
                    for i, c in enumerate(self.cuts)] + [TAU]
        bp_offs = sorted({norm_angle(b - self.base) for b in breakpoints(m)}
                         - {0.0})
        self._lifts = tuple(TAU * k / n for k in range(n))   # n-th root lifts, in order
        self._tables = []
        for j in range(self.d):
            lo, hi = cut_offs[j], cut_offs[j + 1]
            i = bisect.bisect_right(bp_offs, lo)
            bounds = [lo] + bp_offs[i:bisect.bisect_left(bp_offs, hi, i)] + [hi]
            pieces = []
            u_acc = 0.0
            for i in range(len(bounds) - 1):
                x0, x1 = bounds[i], bounds[i + 1]
                # a cut lies inside a pocket's arc by BREAK_TOL upstairs, so
                # a piece's midpoint lies inside one by far more than the
                # rounding of the index arithmetic
                am = norm_angle(self.base + 0.5 * (x0 + x1))
                k = int(norm_angle(am / n) * np / TAU) % np
                g_inv = inverses[k]
                # the piece's image runs from alpha, its pocket's map at x0
                # upstairs, to a1, that map at x1 brought down
                alpha = maps[k].boundary_angle(norm_angle(self.base + x0) / n)
                a0 = norm_angle(n * alpha)
                a1 = norm_angle(n * maps[k].boundary_angle(norm_angle(self.base + x1) / n))
                rise = (a1 - a0) % TAU
                if len(bounds) == 2:
                    rise = TAU
                lift = round((n * alpha - self.base - u_acc) / TAU) % n
                pieces.append((u_acc, rise, x0, x1, g_inv, lift))
                u_acc += rise
            miss = abs(u_acc - TAU)     # the growing bound only where 1e-6 fails
            if miss > 1e-6 and miss > RISE_GROWTH * math.ulp(1.0) * max(
                    (abs(g.c) + abs(g.d)) ** 2 for *_, g, _ in pieces):
                raise InconsistentDegree(
                    f"cut arc {j} lifts to rise {u_acc}, expected 2 pi")
            # rescale tiny lift error so piece lookup is exact at 2 pi
            scale = TAU / u_acc
            rows = []
            for u0, rise, x0, x1, g_inv, lift in pieces:
                u0, rise = u0 * scale, rise * scale
                ref = norm_angle(norm_angle((self.base + x0) / n) - 1e-12)
                rows.append((u0, u0 + rise, x0, ref, (x1 - x0) / n,
                             g_inv.a, g_inv.b, g_inv.c, g_inv.d, lift))
            self._tables.append((lo, hi, tuple(rows)))

    def _pull_back(self, syms, lo=0.0, hi=TAU):
        """The offsets lo and hi pulled back through the inverse branch of
        each cut arc in syms, in order, as the pair (lo, hi).

        Offsets are ccw from the marked angle, in the image and in the cut
        arc alike.  One loop carries both ends through every table, with the
        constants and cmath's exp and phase bound once per call.  On a
        factor map the pull-back runs the row's root lift, the next one when
        base + u wraps past 2 pi, and a lift that misses the piece by more
        than 1e-9 is InconsistentDegree.
        """
        tables, base, lifts = self._tables, self.base, self._lifts
        n = len(lifts)
        exp, phase, fmod = cmath.exp, cmath.phase, math.fmod
        ends = [lo, hi]
        for sym in syms:
            first, last, rows = tables[sym]
            for e in (0, 1):
                u = ends[e]
                if u <= 0.0:
                    ends[e] = first
                    continue
                if u >= TAU:
                    ends[e] = last
                    continue
                for row in rows:
                    if row[0] <= u <= row[1]:
                        break           # no match leaves the last row, as wanted
                _, _, x0, ref, up_len, a, b, c, d, k = row
                t = base + u            # norm_angle, as base is in [0, 2 pi)
                if t >= TAU:
                    t = fmod(t, TAU)
                    k += 1              # the same target, one lift up
                z = exp(1j * (t / n + lifts[k % n]))
                den = c * z + d
                w = complex("inf") if abs(den) < 1e-300 else (a * z + b) / den
                s = phase(w)            # in [-pi, pi]
                if s < 0.0:
                    s += TAU
                    if s >= TAU:
                        s -= TAU
                s -= ref
                if s <= 0.0:
                    s += TAU
                if n == 1:              # unfactored: the one lift, unclamped
                    ends[e] = x0 + s - 1e-12
                    continue
                delta = s - 1e-12
                if not -1e-9 <= delta <= up_len + 1e-9:
                    raise InconsistentDegree("the root lift misses the branch piece")
                if delta < 0.0:
                    delta = 0.0
                elif delta > up_len:
                    delta = up_len
                ends[e] = x0 + n * delta
        return ends[0], ends[1]

    def value(self, theta: float, depth: int):
        """h(theta) as (angle, radius): midpoint and half-width of the arc.

        The radius never drops below RADIUS_FLOOR, the midpoint's rounding
        error as measured on the legal grid, and is that floor once the arc
        collapses, where it can understate the error (see RADIUS_FLOOR).
        Only h(0) = marked angle is exact and has radius 0.  A depth that is
        not an integer or a theta that is not finite raises InvalidArgument,
        a depth above MAX_DEPTH RankLimit.
        """
        depth = as_count(depth, "depth")
        if depth < 1:
            raise DepthTooSmall("depth must be >= 1")
        if depth > MAX_DEPTH:
            raise RankLimit(f"depth {depth} above {MAX_DEPTH}")
        _check_theta(theta)
        t = norm_angle(theta)
        if t < BREAK_TOL or TAU - t < BREAK_TOL:
            return self.base, 0.0  # normalization: the fixed point 1 maps to the marked angle
        lo, hi = self._pull_back(reversed(power_map_itinerary(theta, self.d, depth)))
        radius = max(0.5 * (hi - lo), RADIUS_FLOOR)
        return norm_angle(self.base + 0.5 * (lo + hi)), radius


# -- tiles ---------------------------------------------------------------------

MAX_RANK = 8


class Tile(Record):
    """The image of Pi under the inverse branches its word names."""

    __slots__ = ()

    def __new__(cls, word: tuple,         # pocket labels (r, s), the branch applied last first
                vertices: tuple):         # image vertices (complex), unfactored
        return tuple.__new__(cls, (word, vertices))


#: least (|d| - |c|)(|d| + |c|) of an inverse branch that tiles applies.
#: A branch preserving the disk, normalised to determinant 1, has
#: |d|^2 - |c|^2 = 1, so |cz + d| >= |d| - |c| |z| > 0 on the closed disk
#: and no vertex meets a pole.  Half the exact value is far above rounding,
#: which moves it by about eps (|c| + |d|)^2: under 2e-3 on every map tiles
#: can take to rank 1 within VERTEX_BUDGET
POLE_MARGIN = 0.5


def _branches(m: BowenSeriesMap):
    """One row (label, skip, a, b, c, d) per pocket, sorted by label.

    a..d are the entries of g_{r,s}^-1, the inverse branch of pocket
    label = (r, s).  It pulls back every tile outside the open pocket
    skip = (r, sigma(s)), and a tile lies in the pocket of its outer letter
    word[0] (the Markov property of the Bowen-Series map).  A branch with a
    pole near the closed disk (POLE_MARGIN) raises DegenerateInput.
    """
    sigma = m.preset.sigma
    rows = []
    # side order is label order
    for (r, s), g in zip(m.preset.all_side_labels(), m.maps):
        inv = g.inverse()
        if not (abs(inv.d) - abs(inv.c)) * (abs(inv.d) + abs(inv.c)) > POLE_MARGIN:
            raise DegenerateInput(f"inverse branch {(r, s)} has a pole near the closed "
                                  f"disk: |c| = {abs(inv.c)!r}, |d| = {abs(inv.d)!r}")
        rows.append(((r, s), (r, sigma[s]), inv.a, inv.b, inv.c, inv.d))
    return rows


def tiles(m: BowenSeriesMap, rank: int):
    """Rank-k tiles as inverse-branch images of the fundamental polygon.

    Returned per rank, sorted by word in the pocket alphabet (word[0] the
    branch applied last).  Each inverse branch is computed once per map, and
    a level is held as two parallel lists, words and vertex tuples, built
    branch by branch: for each label in ascending order, the children of the
    previous level's tiles in their order, all of a branch's child vertices
    in one comprehension.  So it comes out in word order, with no sort, and
    a Tile record is made only for a returned tile.  M_w shifts pocket
    labels (r, s) -> (r + 1, s), so a factor map keeps the one tile per
    orbit whose outer letter lies in sector 1, ordered by vertex angle
    (_project_tiles).  Rank r >= 1 holds np (np - 1)^(r - 1) tiles of np
    vertices, p (np - 1)^(r - 1) for factor maps; more than TILE_BUDGET
    tiles or VERTEX_BUDGET vertices raises RankLimit and a rank that is not
    an integer InvalidArgument, before any is built, and a branch with a
    pole near the closed disk DegenerateInput (_branches).
    """
    rank = as_count(rank, "rank")
    if rank < 0 or rank > MAX_RANK:
        raise RankLimit(f"rank {rank} outside [0, {MAX_RANK}]")
    n, p = m.preset.n, m.preset.p
    first = p if m.factor else n * p
    count = 1 + sum(first * (n * p - 1) ** (r - 1) for r in range(1, rank + 1))
    if count > TILE_BUDGET or count * n * p > VERTEX_BUDGET:
        raise RankLimit(f"rank {rank} gives {count} tiles of {n * p} vertices, more "
                        f"than the budget of {TILE_BUDGET} tiles or {VERTEX_BUDGET} vertices")
    rows = _branches(m) if rank else []        # rank 0 applies no branch
    # the sector-1 labels (1, s) sort first: a factor map's last rank uses them
    last = rows[:p] if m.factor else rows
    nv = n * p
    words = [()]
    verts = [tuple(cmath.exp(1j * side.theta1) for side in m.preset.sides)]
    levels = []
    for k in range(rank):
        kid_words, kid_verts = [], []
        for label, skip, a, b, c, d in (last if k == rank - 1 else rows):
            kid_words += [(label,) + w for w in words if not w or w[0] != skip]
            # no pole near the disk (_branches), so no vertex meets one
            flat = [(a * z + b) / (c * z + d)
                    for w, vs in zip(words, verts) if not w or w[0] != skip for z in vs]
            kid_verts += zip(*[iter(flat)] * nv)     # cut into tuples of np
            del flat        # freed before the next branch's is built, which can reuse it
        # made into Tiles once its children are built, a factor level drops
        # the other sectors' tiles before the next level grows
        levels.append(_level(m, words, verts))
        words, verts = kid_words, kid_verts
    levels.append(_level(m, words, verts))
    return levels


def _level(m: BowenSeriesMap, words, verts):
    """A level's Tile records: every tile, or a factor map's projection."""
    if m.factor:
        return _project_tiles(m.preset.n, words, verts)
    return [tuple.__new__(Tile, wv) for wv in zip(words, verts)]


#: 2 pi in the factor tile keys, millionths of a radian: a key angle of 0
#: reads 2 pi, so a vertex at angle 0 sorts alike whichever way rounding
#: moved it
_KEY_TURN = round(TAU * 1e6)


def _project_tiles(n: int, words, verts):
    """First-sector tiles by vertex angles in (0, 2 pi] to 6 digits, then by
    word.

    A vertex v keys as the integer N nearest x 10^6, ties to even, where x
    is the phase of v^n plus 2 pi when negative; a key of 0 reads
    _KEY_TURN.  A tile keys as its sorted vertex keys.  round(x, 6) is the
    double nearest N / 10^6 (it rounds x correctly, ties to even), and
    distinct N give distinct doubles in the same order, so these keys sort
    and tie exactly as the rounded angles do, with no per-vertex decimal
    rounding.  x * 1e6 < 2^23 is within half an ulp, 4.7e-10, of exact
    x 10^6, so round(x * 1e6) is N unless x * 1e6 lies within 1e-4 of a
    half-integer; there the key is round(round(x, 6) * 1e6).  The sort is
    stable and the level is in word order, so ties keep word order.
    """
    # the level is in word order, so () and the sector-1 words come first
    kept = bisect.bisect_left(words, ((2,),))
    words, verts, nv = words[:kept], verts[:kept], len(verts[0])
    keys = []
    for lo in range(0, kept, 1024):         # in batches, to keep the float lists short
        vs = itertools.chain.from_iterable(verts[lo:lo + 1024])
        ks = _angle_keys(list(map(cmath.phase, map(pow, vs, itertools.repeat(n)))))
        keys += [sorted(ks[j:j + nv]) for j in range(0, len(ks), nv)]
    order = sorted(range(kept), key=keys.__getitem__)
    return [tuple.__new__(Tile, (words[j], verts[j])) for j in order]


def _angle_keys(xs):
    """The integer keys of phases xs in [-pi, pi] (see _project_tiles)."""
    ys = [(x + TAU if x < 0.0 else x) * 1e6 for x in xs]
    ks = list(map(round, ys))
    near_half = map((0.4999).__lt__, map(abs, map(operator.sub, ys, ks)))
    for j in itertools.compress(itertools.count(), near_half):
        x = xs[j]
        ks[j] = round(round(x + TAU if x < 0.0 else x, 6) * 1e6)
    return [k or _KEY_TURN for k in ks] if 0 in ks else ks
