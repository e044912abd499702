"""Reference values computed apart from weldlab, and the checks built on them.

Nothing here imports weldlab.  Every expected value comes from a closed form
or a table of the paper, never from an earlier run of the program:

* the genus table of the paper's gallery and the Newton-family law;
* the ball sizes of the extended groups, read from their free-product
  structure (one Z per side pair {s, sigma(s)} with s != sigma(s), one Z/2 per
  self-paired side, one Z/n for the rotation when n >= 3);
* membership in the fundamental domain of the extended group, the sector
  0 < arg z < 2 pi/n of the regular ideal np-gon, for the disjointness of
  group tiles;
* circle degree np - 1, np - 1 cuts at the marked angle, Markov row sums, and
  tile counts np (np - 1)^(r-1) (unfactored) or p (np - 1)^(r-1) (factor).

Each ``check_*`` function returns None on success and raises ``Mismatch``
with a one-line reason otherwise.
"""

from __future__ import annotations

import cmath
import functools
import json
import math
import xml.etree.ElementTree as ET

TAU = 2.0 * math.pi

#: slack for arc nesting, far below the narrowest arc the seeded depths give
NEST_SLACK = 1e-12
#: a cut must map to the marked angle this closely (4e-13 is seen)
CUT_TOL = 1e-9


class Mismatch(Exception):
    """An output disagrees with its reference or with a required property."""


def _require(ok: bool, message: str):
    if not ok:
        raise Mismatch(message)


# -- surfaces ---------------------------------------------------------------

#: (component count, sorted genera) of the paper gallery: four spheres, two
#: spheres, a sphere, a torus, genus 2, genus 2
GALLERY = {
    "5.1": (4, (0, 0, 0, 0)),
    "5.2": (2, (0, 0)),
    "5.3": (1, (0,)),
    "5.4": (1, (1,)),
    "5.5": (1, (2,)),
    "final": (1, (2,)),
}


def newton_genus(n: int) -> int:
    """Genus of the connected blender surface of the Newton schema 5.6:n."""
    return n // 2 - 1 if n % 2 == 0 else (n - 1) // 2


def check_gallery(name: str, genera):
    count, want = GALLERY[name]
    got = tuple(sorted(genera))
    _require(len(got) == count and got == want,
             f"gallery {name}: genera {got}, expected {want}")


def check_newton(n: int, genera):
    want = (newton_genus(n),)
    _require(tuple(genera) == want, f"newton {n}: genera {tuple(genera)}, expected {want}")


def check_riemann_hurwitz(components):
    """components: (chi, genus, eta_invariant, fix_eta) per surface component.

    An eta-invariant component is a hyperelliptic double cover of the sphere,
    so chi = 4 - #Fix(eta); a component that eta swaps with another is a
    sphere.  chi = 2 - 2g holds on every closed orientable component.
    """
    for i, (chi, genus, invariant, fix) in enumerate(components):
        _require(chi == 2 - 2 * genus, f"component {i}: chi {chi} vs genus {genus}")
        if invariant:
            _require(chi == 4 - fix, f"component {i}: chi {chi} but #Fix(eta) = {fix}")
        else:
            _require(genus == 0, f"component {i}: swapped component has genus {genus}")


def check_zipped(chis):
    _require(len(chis) > 0, "no zipped components")
    for i, chi in enumerate(chis):
        _require(chi == 2, f"zipped component {i}: chi {chi}, expected 2")


# -- groups -------------------------------------------------------------------

def side_pairing(p: int, case: str):
    """sigma on sides 1..p: Case I s -> p + 1 - s, Case II s -> p + 2 - s mod p."""
    if case == "I":
        return {s: p + 1 - s for s in range(1, p + 1)}
    return {s: (p + 2 - s - 1) % p + 1 for s in range(1, p + 1)}


def _series_inverse(a, order):
    """Power-series inverse of an integer series with constant term 1."""
    out = [1] + [0] * order
    for k in range(1, order + 1):
        out[k] = -sum(a[j] * out[k - j] for j in range(1, min(k, len(a) - 1) + 1))
    return out


def _cyclic_sphere(n: int, order: int):
    """Sphere sizes of Z/n with generators {m, m^-1}."""
    out = [0] * (order + 1)
    for k in range(n):
        length = min(k, n - k)
        if length <= order:
            out[length] += 1
    return out


def free_factors(n: int, p: int, case: str):
    """Factor orders of the extended group: 0 stands for Z."""
    sig = side_pairing(p, case)
    factors = []
    for s in range(1, p + 1):
        if sig[s] == s:
            factors.append(2)
        elif s < sig[s]:
            factors.append(0)
    if n >= 3:
        factors.append(n)
    return factors


def ball_sizes(n: int, p: int, case: str, length: int):
    """Elements of word length <= k for k = 0..length.

    Growth series of a free product: 1/F = sum_i 1/F_i - (k - 1).
    """
    factors = free_factors(n, p, case)
    acc = [0] * (length + 1)
    for q in factors:
        if q == 0:
            sphere = [1] + [2] * length            # Z with {t, t^-1}
        elif q == 2:
            sphere = ([1, 1] + [0] * length)[:length + 1]
        else:
            sphere = _cyclic_sphere(q, length)
        inv = _series_inverse(sphere, length)
        for k in range(length + 1):
            acc[k] += inv[k]
    acc[0] -= len(factors) - 1
    growth = _series_inverse(acc, length)
    balls, total = [], 0
    for c in growth:
        total += c
        balls.append(total)
    return balls


def check_ball(n, p, case, length, count):
    want = ball_sizes(n, p, case, length)[length]
    _require(count == want, f"({n},{p},{case}) length {length}: {count} elements, "
             f"free-product ball has {want}")


def check_distinct(words):
    _require(len(set(words)) == len(words), f"{len(words) - len(set(words))} repeated words")


def domain_contains(n: int, p: int, z: complex) -> bool:
    """Open fundamental domain of the extended group: the sector
    0 < arg z < 2 pi/n (the whole disk when n = 1) of the regular ideal
    np-gon with vertices exp(2 pi i k/(np)).  The sector holds sides
    k = 0..p-1, each a circle orthogonal to the unit circle."""
    if abs(z) >= 1.0:
        return False
    if n > 1 and not 0.0 < math.atan2(z.imag, z.real) % TAU < TAU / n:
        return False
    return all(abs(z - center) > radius for center, radius in _side_circles(n, p))


@functools.lru_cache(maxsize=None)
def _side_circles(n: int, p: int):
    half = math.pi / (n * p)
    return tuple((cmath.exp(1j * (2 * k + 1) * half) / math.cos(half), math.tan(half))
                 for k in range(p))


def domain_points(n: int):
    """Two points well inside the domain for every n >= 1, np >= 3."""
    if n == 1:
        return [0.1 * cmath.exp(0.3j), 0.1 * cmath.exp(2.5j)]
    return [0.12 * cmath.exp(1j * math.pi / n * f) for f in (2 / 3, 4 / 3)]


def check_tiles_disjoint(n: int, p: int, maps):
    """maps: (a, b, c, d) of each tile's group element, determinant 1.

    A point z inside the domain, moved by tile i's element, must lie in tile
    i and in no other: g_j^-1 g_i z is inside the domain for j = i only.
    Overlapping or repeated tiles give a second owner.
    """
    inverses = [(d, -b, -c, a) for (a, b, c, d) in maps]
    for i, (a, b, c, d) in enumerate(maps):
        for z in domain_points(n):
            w = (a * z + b) / (c * z + d)
            owners = [j for j, (ia, ib, ic, id_) in enumerate(inverses)
                      if domain_contains(n, p, (ia * w + ib) / (ic * w + id_))]
            _require(owners == [i], f"({n},{p}): a point of tile {i} lies in "
                     f"tiles {owners}")


# -- circle maps ----------------------------------------------------------------

def check_degree(n, p, degree):
    _require(degree == n * p - 1, f"({n},{p}): degree {degree}, expected {n * p - 1}")


def check_cuts(n, p, cuts, base, images):
    """cuts: the preimages of the marked angle base; images: the circle map's
    one-sided values at every cut.  There are np - 1 distinct cuts, and each
    maps to base from both sides."""
    _require(len(cuts) == n * p - 1,
             f"({n},{p}): {len(cuts)} cuts at the marked angle, expected {n * p - 1}")
    offs = sorted((c - base) % TAU for c in cuts)
    _require(all(b - a > CUT_TOL for a, b in zip(offs, offs[1:])),
             f"({n},{p}): two cuts coincide")
    for v in images:
        gap = abs((v - base + math.pi) % TAU - math.pi)
        _require(gap <= CUT_TOL, f"({n},{p}): a cut maps {gap:.3e} away from "
                 "the marked angle")


def check_markov(n, p, transition):
    """Each arc covers np - 1 arcs: entries sum to (np - 1) * #arcs."""
    total = sum(sum(row) for row in transition)
    want = (n * p - 1) * len(transition)
    _require(total == want, f"({n},{p}): Markov entries sum to {total}, expected {want}")


def check_circular_order(base, values):
    """h is an orientation-preserving homeomorphism fixing 0 -> base, so the
    values at increasing angles in (0, 2 pi) have increasing ccw offsets."""
    offs = [(v - base) % TAU for v in values]
    for i in range(len(offs) - 1):
        _require(offs[i] < offs[i + 1], f"h reverses order at sorted index {i}")


def check_radius(radius):
    """An honest error radius is never 0 away from the exact value h(0)."""
    _require(radius > 0.0, f"radius {radius} is not positive")


def check_nested(shallow, deep):
    """(angle, radius) at two depths: both radii positive, deep arc inside
    the shallow arc."""
    (a, ra), (b, rb) = shallow, deep
    check_radius(ra)
    check_radius(rb)
    gap = abs((b - a + math.pi) % TAU - math.pi)
    _require(gap <= ra - rb + NEST_SLACK,
             f"deep value {b} lies {gap:.3e} from {a}, outside the shallow arc {ra:.3e}")


def tile_counts(n: int, p: int, factor: bool, rank: int):
    """M_w acts freely on the tiles, so a factor map has 1/n of them."""
    first = p if factor else n * p
    return [1] + [first * (n * p - 1) ** (r - 1) for r in range(1, rank + 1)]


def check_tile_counts(n, p, factor, rank, counts):
    want = tile_counts(n, p, factor, rank)
    _require(list(counts) == want, f"({n},{p}) factor={factor} rank {rank}: "
             f"counts {list(counts)}, expected {want}")


# -- command line ---------------------------------------------------------------

def _sorted_pairs(pairs):
    keys = [k for k, _ in pairs]
    if keys != sorted(keys):
        raise Mismatch(f"keys not sorted: {keys}")
    return dict(pairs)


def check_cli_json(stdout: str):
    """Parse a command's stdout: JSON with schema_version and sorted keys."""
    try:
        doc = json.loads(stdout, object_pairs_hook=_sorted_pairs)
    except ValueError as exc:
        raise Mismatch(f"stdout is not JSON: {exc}") from None
    _require(isinstance(doc, dict) and "schema_version" in doc, "no schema_version")
    return doc


def check_svg(data: bytes):
    try:
        root = ET.fromstring(data)
    except ET.ParseError as exc:
        raise Mismatch(f"SVG does not parse: {exc}") from None
    _require(root.tag.endswith("svg"), f"root element {root.tag!r} is not svg")


def check_cli_error(returncode: int, stderr: str):
    """A rejected invocation exits 1 or 2 with one 'weldlab:' line."""
    lines = [ln for ln in stderr.splitlines() if ln.strip()]
    _require("Traceback" not in stderr, "traceback on stderr")
    _require(returncode in (1, 2), f"exit code {returncode}")
    _require(len(lines) == 1 and lines[0].startswith("weldlab:"),
             f"stderr is not one weldlab: line: {lines[-1] if lines else ''!r}")


def check_signature(doc, genus, punctures, cones):
    sig = doc["signature"]
    got = (sig["genus"], sig["punctures"], tuple(sig["cone_orders"]))
    _require(got == (genus, punctures, tuple(cones)),
             f"signature {got}, expected {(genus, punctures, tuple(cones))}")
