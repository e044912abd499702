"""Double-precision arithmetic for the unit-disk model.

Möbius maps are stored as normalized 2x2 complex matrices, boundary points
as angles in [0, 2pi), geodesics by their ideal endpoints with a derived
Euclidean center/radius (or a diameter flag).  Everything is read-only after
construction: Geodesic is a Record (a tuple with named fields), and the
slots class MobiusMap is read-only by convention.
"""

from __future__ import annotations

import cmath
import math

from .errors import CoincidentEndpoints, DegenerateInput, InvalidArgument, Record

TAU = 2.0 * math.pi

#: default geometric tolerance; double precision leaves ~6 digits of headroom
#: for composed operations.
DEFAULT_TOL = 1e-9
#: ideal endpoints closer than this coincide, and endpoints this close to
#: antipodal span a diameter: about a thousand ulps of 2 pi, far below the
#: vertex spacing 2 pi / np of any polygon within the side budget
ENDPOINT_TOL = 1e-12


def norm_angle(theta: float) -> float:
    """Reduce an angle to [0, 2pi)."""
    t = math.fmod(theta, TAU)
    if t < 0.0:
        t += TAU
    if t >= TAU:  # fmod edge case
        t -= TAU
    return t


def angle_dist(a: float, b: float) -> float:
    """Shortest angular distance between two angles."""
    d = abs(norm_angle(a) - norm_angle(b))
    return min(d, TAU - d)


def ccw_span(a: float, b: float) -> float:
    """Length of the counterclockwise arc from a to b, in (0, 2pi]."""
    s = norm_angle(b) - norm_angle(a)
    if s <= 0.0:
        s += TAU
    return s


def angle_in_open_arc(theta: float, lo: float, hi: float, tol: float = 0.0) -> bool:
    """Is theta inside the open ccw arc from lo to hi (with margin tol)?"""
    s = ccw_span(lo, theta)
    return tol < s < ccw_span(lo, hi) - tol


def _canonical_sign(a: complex, b: complex, c: complex, d: complex):
    # first nonzero entry gets argument in (-pi/2, pi/2]; makes map equality
    # testable by plain matrix comparison up to the projective +-1 ambiguity
    for z in (a, b, c, d):
        if abs(z) > 1e-14:
            w = z
            break
    else:
        raise ValueError("zero matrix")
    if w.real < 0 or (abs(w.real) <= 1e-14 and w.imag < 0):
        return -a, -b, -c, -d
    return a, b, c, d


def _refusal(a, b, c, d) -> Exception:
    """The error for entries that give no Möbius map."""
    if all(map(cmath.isfinite, (a, b, c, d))):
        return DegenerateInput(f"matrix [[{a}, {b}], [{c}, {d}]] is singular or overflows")
    return InvalidArgument(f"matrix entries must be finite, not [[{a}, {b}], [{c}, {d}]]")


class MobiusMap:
    """z -> (az + b)/(cz + d), normalized to determinant 1.

    A slots class, the cheapest record Python builds for the kernel's hottest
    constructor; read-only by convention.  Equality, hash and repr go by the
    four complex entries a, b, c, d.
    """

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: complex, b: complex, c: complex, d: complex):
        self.a = a
        self.b = b
        self.c = c
        self.d = d

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.a, self.b, self.c, self.d) == (other.a, other.b, other.c, other.d)

    def __hash__(self):
        return hash((self.a, self.b, self.c, self.d))

    def __repr__(self):
        return f"MobiusMap(a={self.a!r}, b={self.b!r}, c={self.c!r}, d={self.d!r})"

    @staticmethod
    def from_entries(a, b, c, d) -> "MobiusMap":
        """The map of [[a, b], [c, d]], normalised; a singular matrix raises
        DegenerateInput and an entry that is not finite InvalidArgument."""
        det = a * d - b * c
        if abs(det) < 1e-20:
            raise _refusal(a, b, c, d)
        s = cmath.sqrt(det)
        try:
            return MobiusMap(*_canonical_sign(a / s, b / s, c / s, d / s))
        except ValueError:                  # a NaN or infinite det divides to NaN
            raise _refusal(a, b, c, d) from None

    @staticmethod
    def identity() -> "MobiusMap":
        return MobiusMap(1.0 + 0j, 0j, 0j, 1.0 + 0j)

    @staticmethod
    def rotation(theta: float) -> "MobiusMap":
        """Rotation of the disk about 0 by angle theta; a theta that is not
        finite raises InvalidArgument."""
        if not math.isfinite(theta):
            raise InvalidArgument(f"theta must be finite, not {theta!r}")
        h = cmath.exp(0.5j * theta)
        return MobiusMap.from_entries(h, 0j, 0j, 1.0 / h)

    def __call__(self, z: complex) -> complex:
        den = self.c * z + self.d
        if abs(den) < 1e-300:
            return complex("inf")
        return (self.a * z + self.b) / den

    def boundary_angle(self, theta: float) -> float:
        """Image angle of a unit-modulus point (for disk-preserving maps); a
        theta that is not finite raises InvalidArgument."""
        t = norm_angle(cmath.phase(self(cmath.exp(1j * theta))))
        if t != t:                          # NaN: theta was not finite
            raise InvalidArgument(f"theta must be finite, not {theta!r}")
        return t

    def compose(self, other: "MobiusMap") -> "MobiusMap":
        """self after other: the matrix product, not renormalised.  The product
        of two determinant-1 matrices has determinant 1, but the computed
        ad - bc loses about |ad| ulps to cancellation, so dividing by its root
        would scale every entry by that error.  Kept as computed, each entry
        is off by a few ulps."""
        a = self.a * other.a + self.b * other.c
        b = self.a * other.b + self.b * other.d
        c = self.c * other.a + self.d * other.c
        d = self.c * other.b + self.d * other.d
        return MobiusMap(*_canonical_sign(a, b, c, d))

    def inverse(self) -> "MobiusMap":
        return MobiusMap.from_entries(self.d, -self.b, -self.c, self.a)

    @property
    def trace(self) -> complex:
        return self.a + self.d

    def is_identity(self) -> bool:
        return self.dist(MobiusMap.identity()) < DEFAULT_TOL

    def dist(self, other: "MobiusMap") -> float:
        """Projective matrix distance (minimum over the +-1 ambiguity)."""
        dp = (abs(self.a - other.a) + abs(self.b - other.b)
              + abs(self.c - other.c) + abs(self.d - other.d))
        dm = (abs(self.a + other.a) + abs(self.b + other.b)
              + abs(self.c + other.c) + abs(self.d + other.d))
        return min(dp, dm)

    def order(self, max_order: int = 64):
        """Smallest k >= 1 with self^k = id, or None if none up to max_order.

        Read off the trace, no power is formed: the identity has order 1, and
        an elliptic map with real trace tr = +-2 cos(theta), |tr| < 2, has
        order k iff k theta/pi is an integer (within DEFAULT_TOL).  Parabolic,
        hyperbolic and loxodromic maps have none.
        """
        if self.is_identity():
            return 1
        tr = self.trace
        if abs(tr.imag) > DEFAULT_TOL or abs(tr.real) >= 2.0:
            return None
        turn = math.acos(0.5 * abs(tr.real)) / math.pi    # in (0, 1/2]
        return next((k for k in range(2, max_order + 1)
                     if abs(k * turn - round(k * turn)) <= DEFAULT_TOL and k * turn > 0.5), None)


class Geodesic(Record):
    """Bi-infinite geodesic with ideal endpoints theta1, theta2.

    Non-diameter geodesics carry the center/radius of the Euclidean circle
    orthogonal to the unit circle; antipodal endpoints get the dedicated
    diameter representation to avoid the infinite-radius blowup.
    """

    __slots__ = ()

    def __new__(cls, theta1: float, theta2: float, is_diameter: bool,
                center: complex = 0j, radius: float = 0.0):
        return tuple.__new__(cls, (theta1, theta2, is_diameter, center, radius))

    @property
    def endpoints(self):
        return (cmath.exp(1j * self.theta1), cmath.exp(1j * self.theta2))

    def point_at(self, t: float) -> complex:
        """Point on the geodesic; t in (0,1) runs endpoint 1 -> endpoint 2."""
        return self.points_at((t,))[0]

    def points_at(self, ts) -> list:
        """point_at of each t in ts, the endpoints and sweep found once."""
        z1, z2 = self.endpoints
        if self.is_diameter:
            return [(1.0 - t) * z1 + t * z2 for t in ts]
        a1, d = self.sweep(z1, z2)
        center, radius = self.center, self.radius
        return [center + radius * cmath.exp(1j * (a1 + t * d)) for t in ts]

    def sweep(self, z1: complex, z2: complex):
        """The phase a1 of z1 about the center, and the turn d from it to the
        phase of z2, wrapped into [-pi, pi]: the arc from z1 to z2 inside the
        disk is a1 + t d for t in [0, 1]."""
        a1 = cmath.phase(z1 - self.center)
        d = cmath.phase(z2 - self.center) - a1
        while d > math.pi:
            d -= TAU
        while d < -math.pi:
            d += TAU
        return a1, d

    def side(self, z: complex) -> float:
        """Signed separation: > 0 on the center-of-disk side, < 0 beyond."""
        if self.is_diameter:
            # sign alone is meaningless for a diameter (0 is on it)
            direction = cmath.exp(1j * self.theta1)
            return (z * direction.conjugate()).imag
        return abs(z - self.center) - self.radius


def geodesic_between(theta1: float, theta2: float) -> Geodesic:
    """Geodesic with the given ideal endpoints; an endpoint that is not a
    finite angle raises InvalidArgument."""
    if not (math.isfinite(theta1) and math.isfinite(theta2)):
        raise InvalidArgument(f"endpoints must be finite angles, not {theta1!r} and {theta2!r}")
    t1, t2 = norm_angle(theta1), norm_angle(theta2)
    if angle_dist(t1, t2) < ENDPOINT_TOL:
        raise CoincidentEndpoints(f"endpoints {t1} and {t2} coincide")
    z1, z2 = cmath.exp(1j * t1), cmath.exp(1j * t2)
    if abs(z1 + z2) < ENDPOINT_TOL:
        return Geodesic(t1, t2, True)
    denom = 1.0 + (z1 * z2.conjugate()).real
    center = (z1 + z2) / denom
    radius = math.sqrt(abs(center) ** 2 - 1.0)
    return Geodesic(t1, t2, False, center, radius)
