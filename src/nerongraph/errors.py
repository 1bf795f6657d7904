"""Exception hierarchy shared by all nerongraph modules.

Everything raised on bad input derives from :class:`NeronGraphError`, so
callers (in particular the command line front end) can distinguish
validation failures from programming errors with a single except clause.
Messages name the offending field or id, cut by :func:`shown`, and never
echo an unbounded value.  :func:`check_modulus` is the one check of a
torsion order r or a modulus q.
"""

#: Most characters of an id or key that an error message shows.
SHOWN_CHARS = 40


def shown(text: str) -> str:
    """``text`` for an error message, cut to :data:`SHOWN_CHARS`
    characters."""
    if len(text) <= SHOWN_CHARS:
        return text
    return f"{text[:SHOWN_CHARS]}... ({len(text)} characters)"


def check_modulus(value: int, name: str) -> None:
    """Raise :class:`ValueError` unless ``value``, a torsion order r or a
    modulus q, is a positive integer; ``True`` and ``2.0`` are not."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ValueError(f"{name} must be a positive integer")


class NeronGraphError(Exception):
    """Base class for all errors raised by this package."""


class DuplicateId(NeronGraphError):
    """A vertex or edge identifier occurs more than once."""


class DanglingEndpoint(NeronGraphError):
    """An edge refers to a vertex that does not exist."""


class Disconnected(NeronGraphError):
    """The graph is not connected."""


class UnknownEdge(NeronGraphError):
    """An edge identifier does not name an edge of the graph."""


class TooManyCircuits(NeronGraphError):
    """The enumeration of circuits exceeded the configured cap."""


class DimensionMismatch(NeronGraphError):
    """Matrix/vector dimensions are incompatible."""


class MalformedSpectrum(NeronGraphError):
    """The Smith diagonal of the intersection matrix does not have exactly
    one zero entry, which signals a non-connected input that slipped
    validation."""


class InvalidReductionData(NeronGraphError):
    """Reduction data violates its invariants (bad r, m1 or multidegree)."""


class SemistabilityRequired(NeronGraphError):
    """An operation assuming a semistable minimal regular model over the
    base (m1 = 1) was invoked with m1 != 1."""


class MissingMultidegree(NeronGraphError):
    """An operation requiring a multidegree was invoked without one."""


class StabilizerMismatch(NeronGraphError):
    """An operation requiring all edge stabilizers equal to r found an
    edge violating that."""


class BadModulus(NeronGraphError):
    """The requested torsion order violates a precondition (the built-in
    table requires a positive multiple of 4)."""


class BoundsTooLarge(NeronGraphError):
    """Requested exhaustive-enumeration bounds, or an input's size,
    exceed the guarded limits."""


class ParseError(NeronGraphError):
    """An input document is malformed; the message carries a field-precise
    location such as ``edges[2].tip``."""
