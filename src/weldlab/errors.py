"""Exception hierarchy shared by all weldlab modules, and the count check."""

import operator


class WeldlabError(Exception):
    """Base class for all weldlab errors."""


# -- hyperbolic ------------------------------------------------------------

class CoincidentEndpoints(WeldlabError):
    """Geodesic endpoints closer than the angular tolerance."""


class DegenerateInput(WeldlabError):
    """Polygon or group parameters below the minimal size."""


# -- fuchsian --------------------------------------------------------------

class InvalidCase(WeldlabError):
    """Side-pairing case not available for these parameters."""


class PairingViolation(WeldlabError):
    """A side pairing fails to carry its side onto the paired side."""


class NonParabolicCycle(WeldlabError):
    """An ideal-vertex cycle transformation is neither parabolic nor the identity."""


# -- bowen_series ----------------------------------------------------------

class AtBreakpoint(WeldlabError):
    """Circle evaluation requested exactly at a partition breakpoint."""


class OutsideDomain(WeldlabError):
    """Point lies in the interior of the fundamental polygon."""


class InconsistentDegree(WeldlabError):
    """Preimage counts disagree across sample angles."""


class MarkovViolation(WeldlabError):
    """An arc image fails to be a union of full partition arcs."""


class DepthTooSmall(WeldlabError):
    """Itinerary depth leaves an arc wider than the requested tolerance."""


class RankLimit(WeldlabError):
    """Tile rank, itinerary depth or output size beyond the resource guard."""


class InvalidArgument(WeldlabError):
    """An argument of the wrong kind: a count that is no integer, a theta that is not finite."""


def as_count(value, name: str) -> int:
    """value as an int by operator.index; anything else raises InvalidArgument."""
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidArgument(f"{name} must be an integer, not {value!r}") from None


# -- mating_schema ---------------------------------------------------------

class NonPlanar(WeldlabError):
    """Contact data does not assemble into a sphere map."""


class InconsistentInvolution(WeldlabError):
    """Corner identifications are not compatible with the boundary involution."""


class DegreeMismatch(WeldlabError):
    """Slot degrees violate the critically-fixed-polynomial accounting."""


class VerificationFailed(WeldlabError):
    """A registry polynomial fails its critical/fixed-point checks."""


# -- welding ---------------------------------------------------------------

class GluingInconsistency(WeldlabError):
    """Arc-end identification produced contradictory vertex classes."""


class ZipNotSphere(WeldlabError):
    """A zipped component has Euler characteristic different from 2."""


# -- correspondence --------------------------------------------------------

class OverlapDetected(WeldlabError):
    """Two tiles of the group tiling share interior sample points."""


class RelationMismatch(WeldlabError):
    """Recovered relation orders disagree with the orbifold signature."""


class NotHyperbolic(WeldlabError):
    """Blaschke product has no attracting fixed point in the disk."""


# -- cli -------------------------------------------------------------------

class UsageError(WeldlabError):
    """Bad command line or unreadable input file."""
