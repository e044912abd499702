"""Desk-scale model of the correspondence on the blender surface.

The tiling-set components over a group slot are modeled as D x {1..p}: the
degree-n covering is (w, j) -> w^n and the deck rotation is

    tau(w, j) = (w, j+1)          for j < p,
    tau(w, p) = (exp(2 pi i/n) w, 1),

so tau^{np} = id exactly and every fiber of the covering is a tau-orbit.
Points carry the rotation exponent symbolically, which keeps both identities
tolerance-free.  The involution eta acts on components by the side pairing
sigma, and every word the model forms is tau^a o eta o tau^b, printed in
closed form.  The relation orders of the recovered generator words are
verified on the geometric side, where the recovered representation sends the
j-th word to the preset generator g_{1,j} and tau^p to the rotation M_w.
"""

from __future__ import annotations

import cmath
import math
import sys
from collections import Counter
from typing import NamedTuple

from .errors import (DegenerateInput, InvalidArgument, NotHyperbolic, OverlapDetected,
                     RankLimit, RelationMismatch, as_count)
from .fuchsian import TILE_BUDGET, GroupPreset, build_group, check_parameters, sigma_side
from .hyperbolic import TAU, MobiusMap, norm_angle


# -- model points and maps -----------------------------------------------------

class ModelPoint(NamedTuple):
    """Point of D x {1..p} with the rotation exponent kept symbolic.

    The complex value is w0 * exp(2 pi i e/n); e is an integer mod n so that
    tau^{np} = id holds exactly on representations.
    """

    w0: complex
    e: int
    j: int

    def value(self, n: int) -> complex:
        return self.w0 * cmath.exp(2j * math.pi * (self.e % n) / n)

    def canonical(self, n: int):
        return (self.w0, self.e % n, self.j)


class ModelMaps(NamedTuple):
    n: int
    p: int

    def point(self, w, j=1) -> ModelPoint:
        return ModelPoint(complex(w), 0, j)

    def R(self, pt: ModelPoint) -> complex:
        """The covering (w, j) -> w^n (exponent drops out exactly)."""
        return pt.w0 ** self.n

    def tau(self, pt: ModelPoint) -> ModelPoint:
        if pt.j < self.p:
            return ModelPoint(pt.w0, pt.e, pt.j + 1)
        return ModelPoint(pt.w0, (pt.e + 1) % self.n, 1)


def fiber(m: ModelMaps, pt: ModelPoint):
    """Full covering fiber through pt, as the tau-orbit in closed form.

    np points when w != 0 and p points at the critical fiber w = 0.  An n, p
    or sheet that is not an integer raises InvalidArgument, n or p below 1
    DegenerateInput, a sheet outside 1..p or a w that is not finite or not
    in the open unit disk InvalidArgument and np above TILE_BUDGET RankLimit.
    """
    n, p, j = as_count(m.n, "n"), as_count(m.p, "p"), as_count(pt.j, "sheet")
    if not cmath.isfinite(pt.w0):
        raise InvalidArgument(f"w must be finite, not {pt.w0!r}")
    if not math.hypot(pt.w0.real, pt.w0.imag) < 1.0:       # abs() can overflow
        raise InvalidArgument(f"w must lie in the open unit disk, not {pt.w0!r}")
    if n < 1 or p < 1:
        raise DegenerateInput(f"n = {n} and p = {p} must be at least 1")
    if not 1 <= j <= p:
        raise InvalidArgument(f"sheet {j} outside 1..{p}")
    if n * p > TILE_BUDGET:
        raise RankLimit(f"a fiber of {n * p} points, more than {TILE_BUDGET}")
    # tau^i takes sheet j to sheet (j - 1 + i) mod p + 1 and turns the
    # exponent once each time it passes sheet p; at w = 0 the exponent drops
    # out, and the fiber is the p sheets
    return [ModelPoint(pt.w0, (pt.e + (j - 1 + i) // p) % n, (j - 1 + i) % p + 1)
            for i in range(p if pt.w0 == 0 else n * p)]


# -- words in eta and tau ---------------------------------------------------------

def _tau_power(k: int) -> str:
    return "tau" if k == 1 else f"tau^{k}"


def tau_eta_word(a: int, b: int = 0) -> str:
    """The reduced word tau^a o eta o tau^b, printed in composition order
    with '*' between letters: tau^1 is 'tau' and tau^0 is left out.

    Every word the model forms has this shape, and the powers are not reduced
    mod np, so tau^np stays a letter.
    """
    return "*".join([_tau_power(a)] * (a != 0) + ["eta"] + [_tau_power(b)] * (b != 0))


# -- tiling-set model ---------------------------------------------------------------

class ModelTilingSet(NamedTuple):
    n: int
    p: int
    case: str
    sigma: dict            # side-pairing permutation of {1..p}
    k_exponents: tuple     # k_j, j = 1..p, each in {1..p}


def model_tiling_set(n: int, p: int, case: str = "I") -> ModelTilingSet:
    """The model of Gamma-hat_{n,p}; (n, p, case) is checked by
    fuchsian.check_parameters before any table is built."""
    check_parameters(n, p, case)
    sig = sigma_side(p, case)
    # f_j = tau^{k_j} o eta stabilizes component j, and eta sends component j
    # to sigma(j); tau steps the component index up by one
    ks = tuple(((j - sig[j] - 1) % p) + 1 for j in range(1, p + 1))
    return ModelTilingSet(n, p, case, sig, ks)


def branch_words(m: ModelTilingSet):
    """Forward branch words tau^k o eta, k = 1..np-1.

    The generator identity tau = (tau^2 eta)(tau eta)^-1 holds in any group
    where eta^2 = 1, so it is not checked here.
    """
    return [tau_eta_word(k) for k in range(1, m.n * m.p)]


class RecoveredGenerator(NamedTuple):
    j: int
    k: int
    word: str
    matrix: MobiusMap
    order:  object        # int or None (infinite within the probe bound)


def recover_representation(m: ModelTilingSet):
    """Generator word table of Remark 6.9 with relation-order verification.

    The j-th word tau^{-(j-1)} (tau^{k_j} eta) tau^{j-1} reduces to
    tau^{k_j - j + 1} eta tau^{j-1}.  It stabilizes component 1 by
    construction: tau^{j-1} takes component 1 to j, eta takes j to sigma(j),
    and tau^{k_j - j + 1} takes sigma(j) back to 1, as k_j = j - sigma(j) mod
    p.  Its geometric realization is the preset generator g_{1,j} (and tau^p
    realizes M_w), so relation orders are read off the matrices' traces and
    compared with the orbifold signature: sides with sigma(j) = j give
    order-2 words, and tau^p has order exactly n.
    """
    preset = build_group(m.n, m.p, m.case)
    table = []
    for j in range(1, m.p + 1):
        mat = preset.first_sector[j - 1]
        order = mat.order(max_order=16)
        expect2 = (m.sigma[j] == j)
        if expect2 and order != 2:
            raise RelationMismatch(f"side {j}: expected an order-2 word, got {order}")
        if not expect2 and order is not None and order != 1:
            raise RelationMismatch(f"side {j}: unexpected finite order {order}")
        k = m.k_exponents[j - 1]
        table.append(RecoveredGenerator(j, k, tau_eta_word(k - j + 1, j - 1), mat, order))
    rot_order = preset.rotation.order(max_order=m.n + 1) if m.n > 1 else 1
    if rot_order != m.n:
        raise RelationMismatch(f"tau^p order {rot_order} != n")
    return {"generators": table, "rotation_word": _tau_power(m.p),
            "rotation_order": rot_order}


# -- group tiling (proper discontinuity evidence) --------------------------------------

MAX_WORD_LENGTH = 8

#: a sample reduced into Pi-hat must come back this close to where it started
_RETURN_TOL = 1e-6
#: or within _RETURN_GROWTH eps |c z0 + d|^2 / (1 - |z0|^2) of it, a bound
#: that grows with the tile's map (a, b, c, d): rounding in the products of
#: long words grows like the square of their entries
_RETURN_GROWTH = 1024
#: sample points of Pi-hat that group_tiling carries into every tile
SAMPLES_PER_TILE = 20
#: margin by which a sample keeps inside Pi-hat, so that rounding never
#: moves it onto a side or into a pocket
_SAMPLE_MARGIN = 1e-6
#: start of the sample generator, so every run draws the same samples
_SAMPLE_SEED = 11


def _pi_hat_contains(preset: GroupPreset, z: complex) -> bool:
    """Membership in the open interior of the fundamental domain of the
    extended group, with a margin of _SAMPLE_MARGIN.

    Pi-hat is the sector 0 <= arg z <= 2 pi/n of the polygon (all of Pi when
    n = 1).
    """
    if abs(z) >= 1.0 - _SAMPLE_MARGIN:
        return False
    if preset.n > 1:
        a = norm_angle(cmath.phase(z)) if abs(z) > 0 else 0.0
        if not (_SAMPLE_MARGIN <= a <= TAU / preset.n - _SAMPLE_MARGIN):
            return False
    for s in range(1, preset.p + 1):
        if preset.sides[s - 1].side(z) < _SAMPLE_MARGIN:
            return False
    return True


def _pi_hat_samples(preset: GroupPreset):
    """SAMPLES_PER_TILE deterministic interior points of Pi-hat (simple LCG
    rejection)."""
    if preset.n * preset.p < 3:
        raise DegenerateInput("Pi-hat has no interior when np = 2")
    state = _SAMPLE_SEED
    pts = []
    while len(pts) < SAMPLES_PER_TILE:
        state = (state * 6364136223846793005 + 1442695040888963407) % (1 << 64)
        x = (state >> 11) / float(1 << 53) * 2 - 1
        state = (state * 6364136223846793005 + 1442695040888963407) % (1 << 64)
        y = (state >> 11) / float(1 << 53) * 2 - 1
        z = complex(0.85 * x, 0.85 * y)
        if _pi_hat_contains(preset, z):
            pts.append(z)
    return pts


def _free_factors(preset: GroupPreset):
    """The extended group as a free product: Z for each pair of sides {s,
    sigma(s)}, spelled by g_s and g_s' = g_s^-1 with s < sigma(s); Z/2 for each
    self-paired side; Z/n for M_w, whose shortest powers are m^k, k <= n/2, and
    m'^k, k < n/2.  Each factor lists (name, generator, longest run, undo) per
    letter, where undo is the side s whose pocket the letter carries Pi-hat
    into, so that the pocket's pairing g_s undoes it, or None for M_w.
    """
    factors = []
    for s, t in preset.sigma.items():
        g = preset.first_sector[s - 1]
        if s == t:
            factors.append([(f"g{s}", g, 1, s)])
        elif s < t:
            factors.append([(f"g{s}", g, math.inf, t), (f"g{s}'", g.inverse(), math.inf, s)])
    if preset.n > 1:
        factors.append([("m", preset.rotation, preset.n // 2, None),
                        ("m'", preset.rotation.inverse(), (preset.n - 1) // 2, None)])
    return factors


def _ball_size(preset: GroupPreset, length: int) -> int:
    """Elements of the extended group of word length <= length.

    Each element is one reduced sequence of syllables, runs of one letter in
    alternating factors (normal form theorem for free products), and its
    length is the sum of the runs.
    """
    factors = _free_factors(preset)
    sphere = [1] + [0] * length
    # ends[i][k]: elements of length k whose last syllable lies in factor i
    ends = [[0] * (length + 1) for _ in factors]
    for k in range(1, length + 1):
        for f, end in zip(factors, ends):
            end[k] = sum(sphere[k - j] - end[k - j]
                         for _, _, run, _ in f for j in range(1, min(run, k) + 1))
        sphere[k] = sum(end[k] for end in ends)
    return sum(sphere)


def group_elements(preset: GroupPreset, max_word_length: int):
    """Each element up to the length bound once, as its shortlex-least word.

    Distinct reduced syllable sequences are distinct elements (normal form
    theorem, Magnus-Karrass-Solitar 4.1), so words are enumerated, not
    compared: a letter starts a syllable unless its factor is the last
    letter's, and the last letter extends its run up to its bound.  word[-1]
    is the letter applied last.  Returns (word, element) pairs by length, ties
    broken lexicographically in the letter names.  A length that is not an
    integer raises InvalidArgument, and a negative one, one above
    MAX_WORD_LENGTH or a ball of more than TILE_BUDGET elements RankLimit,
    before any word is built.
    """
    max_word_length = as_count(max_word_length, "word length")
    if max_word_length < 0:
        raise RankLimit(f"word length {max_word_length} < 0")
    if max_word_length > MAX_WORD_LENGTH:
        raise RankLimit(f"word length {max_word_length} > {MAX_WORD_LENGTH}")
    count = _ball_size(preset, max_word_length)
    if count > TILE_BUDGET:
        raise RankLimit(f"word length {max_word_length} gives {count} tiles, "
                        f"more than the budget of {TILE_BUDGET}")
    letters = [(i, name, gen, run)
               for i, factor in enumerate(_free_factors(preset))
               for name, gen, run, _ in factor]
    ident = MobiusMap.identity()
    accepted = [((), ident)]
    frontier = [((), ident, None, 0)]   # word, element, last factor, its run
    for _ in range(max_word_length):
        nxt = []
        for word, mat, last, run in frontier:
            for i, name, gen, most in letters:
                if i != last:
                    k = 1
                elif name == word[-1] and run < most:
                    k = run + 1
                else:
                    continue
                entry = (word + (name,), gen.compose(mat))
                accepted.append(entry)
                nxt.append(entry + (i, k))
        frontier = nxt
    return sorted(accepted, key=lambda e: (len(e[0]), e[0]))


def _word_returns(preset: GroupPreset, elems, samples):
    """For each (word, element), the samples carried into its tile and reduced
    back along the word as group_tiling describes, or None where a point
    leaves the path the word names."""
    # M_w^-k is z -> e^{-ik sector} z; the sides of Pi-hat are never diameters
    # once np >= 3, so their pockets are |z - center| < radius
    spin = [cmath.exp(-1j * TAU / preset.n * k) for k in range(preset.n)]
    pockets = [(side.center, side.radius, g.a, g.b, g.c, g.d)
               for side, g in zip(preset.sides, preset.first_sector)]
    undo = {name: s for factor in _free_factors(preset) for name, _, _, s in factor}
    for word, g in elems:
        a, b, c, d = g.a, g.b, g.c, g.d
        ws = [(a * z + b) / (c * z + d) for z in samples]
        i = len(word)
        while i and ws is not None:
            name = word[i - 1]
            if undo[name] is None:
                j = i - 1
                while j and word[j - 1] == name:
                    j -= 1
                turn = spin[i - j] if name == "m" else spin[j - i]
                ws = [w * turn for w in ws]
                # 0 <= arg w < 2 pi/n: not below the real axis, below the far edge
                ws = ws if all(w.imag >= 0 > (w * spin[1]).imag for w in ws) else None
                i = j
            else:
                center, radius, pa, pb, pc, pd = pockets[undo[name] - 1]
                ws = ([(pa * w + pb) / (pc * w + pd) for w in ws]
                      if all(abs(w - center) < radius for w in ws) else None)
                i -= 1
        yield ws


def group_tiling(preset: GroupPreset, max_word_length: int):
    """Tiles gamma(Pi-hat) for reduced words up to the length bound, checked
    by Bowen-Series reduction to Pi-hat (Bowen & Series 1979) along each tile's
    own word.

    Each sample z0 of Pi-hat is carried into each tile, w = g(z0), and reduced
    back along the tile's normal-form word, the letter applied last first: a
    run of M_w by one rotation, after which w must lie in the sector of
    Pi-hat, and a pairing letter by the pairing g_s of the one pocket, beyond
    a side C_{1,s}, that the letter carries Pi-hat into, once w is found in
    that pocket.  At the end of the word w must be back within _RETURN_TOL of
    z0, or within _RETURN_GROWTH eps |c z0 + d|^2 / (1 - |z0|^2), a bound
    that grows with the tile's map (a, b, c, d) and is only evaluated where
    the fixed one fails.  Pockets and the sector are disjoint, so two distinct
    words that share an image cannot both pass, and a repeated tile can only
    be a repeated word; c copies of one word are c(c - 1)/2 shared pairs.  A
    stray tile or a shared pair raises OverlapDetected.  The length is checked
    by group_elements before any tile is built.
    """
    elems = group_elements(preset, max_word_length)
    base_pts = _pi_hat_samples(preset)
    tiles = [{"word": w, "map": g} for (w, g) in elems]
    growth = _RETURN_GROWTH * sys.float_info.epsilon
    stray = sum(1 for (_, g), ws in zip(elems, _word_returns(preset, elems, base_pts))
                if ws is None or any(abs(w - z0) > _RETURN_TOL
                                     and abs(w - z0) > growth * abs(g.c * z0 + g.d) ** 2
                                     / (1 - abs(z0) ** 2)
                                     for w, z0 in zip(ws, base_pts)))
    shared = sum(c * (c - 1) // 2 for c in Counter(w for w, _ in elems).values())
    if stray or shared:
        raise OverlapDetected(f"{stray} tiles fail the reduction to Pi-hat and "
                              f"{shared} tile pairs share the image of the first "
                              "sample")
    return {"tiles": tiles, "count": len(tiles), "overlaps": 0}


# -- Blaschke products -----------------------------------------------------------------

class BlaschkeProduct(NamedTuple):
    zeros: tuple
    rotation: complex
    fixed_point: complex
    multiplier: complex

    @property
    def degree(self):
        return len(self.zeros)

    def __call__(self, z: complex) -> complex:
        w = self.rotation
        for a in self.zeros:
            w *= (z - a) / (1.0 - a.conjugate() * z)
        return w


#: iterations from 0 that blaschke allows to reach its attracting fixed
#: point.  Near it the error shrinks by the multiplier |B'| < 1 per step, so
#: 2000 steps reach the 1e-14 stop unless |B'| is above about 0.984
BLASCHKE_MAX_ITER = 2000


def blaschke(zeros, rotation=1.0 + 0j) -> BlaschkeProduct:
    """Construct a hyperbolic Blaschke product; the attracting fixed point is
    located by iteration from 0 (which converges exactly in the hyperbolic
    case and fails loudly otherwise), and its multiplier B' is evaluated in
    closed form."""
    zeros = tuple(complex(a) for a in zeros)
    if len(zeros) < 2:
        raise NotHyperbolic("need degree >= 2")
    if any(abs(a) >= 1 for a in zeros):
        raise NotHyperbolic("zeros must lie in the open disk")
    rot = complex(rotation)
    if abs(abs(rot) - 1.0) > 1e-12:
        raise NotHyperbolic("rotation factor must be unimodular")
    b = BlaschkeProduct(zeros, rot, 0j, 0j)    # fixed point and multiplier found below
    z = 0j
    for _ in range(BLASCHKE_MAX_ITER):
        z2 = b(z)
        if abs(z2 - z) < 1e-14:
            break
        z = z2
    else:
        raise NotHyperbolic("iteration from 0 did not converge")
    if abs(z) >= 1 - 1e-9:
        raise NotHyperbolic("iteration escaped to the boundary")
    # B' = rot sum_k (1 - |a_k|^2)/(1 - conj(a_k) z)^2 times the other
    # factors, in closed form also where z is a zero
    f = [(z - a) / (1.0 - a.conjugate() * z) for a in zeros]
    mult = rot * sum((1.0 - abs(a) ** 2) / (1.0 - a.conjugate() * z) ** 2
                     * math.prod(f[:k] + f[k + 1:]) for k, a in enumerate(zeros))
    if abs(mult) >= 1 - 1e-9:
        raise NotHyperbolic(f"interior fixed point is not attracting (|B'| = {abs(mult):.4f})")
    return BlaschkeProduct(zeros, rot, z, mult)
