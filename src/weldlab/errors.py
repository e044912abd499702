"""Exception hierarchy shared by all weldlab modules, the count check, and
Record, the base of every layer's record classes."""

import collections
import operator


class Record(tuple):
    """Base of the layers' immutable records: a tuple with named fields.

    A record subclass writes ``__slots__ = ()`` and an explicit ``__new__``
    whose parameters are the fields, in order, with any defaults, and which
    returns ``tuple.__new__(cls, (field, ...))``.  The fields are read off that
    signature when the class is made, so no source is generated or compiled:
    ``_fields``, ``_field_defaults``, ``__match_args__`` and one read-only
    accessor per field, the C descriptor ``collections.namedtuple`` uses.
    Records compare and hash as their tuples, pickle and copy through
    ``__new__``, and ``_make``, ``_replace``, ``_asdict`` and ``repr`` act as
    on a named tuple.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        new = cls.__new__
        fields = new.__code__.co_varnames[1:new.__code__.co_argcount]
        defaults = new.__defaults__ or ()
        cls._fields = cls.__match_args__ = fields
        cls._field_defaults = dict(zip(fields[len(fields) - len(defaults):], defaults))
        for i, name in enumerate(fields):
            setattr(cls, name, collections._tuplegetter(i, f"Alias for field number {i}"))

    @classmethod
    def _make(cls, iterable):
        """A record of cls from the values of iterable, one per field."""
        record = tuple.__new__(cls, iterable)
        if len(record) != len(cls._fields):
            raise TypeError(f"Expected {len(cls._fields)} arguments, got {len(record)}")
        return record

    def _replace(self, /, **changes):
        """A copy of the record with the named fields changed."""
        record = self._make(map(changes.pop, self._fields, self))
        if changes:
            raise ValueError(f"Got unexpected field names: {list(changes)!r}")
        return record

    def _asdict(self):
        """The fields and their values, as a dict in field order."""
        return dict(zip(self._fields, self))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self))
        return f"{type(self).__name__}({fields})"

    def __getnewargs__(self):
        # pickle and copy rebuild the record through __new__ from its fields
        return tuple(self)


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
