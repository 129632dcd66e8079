"""Exception types shared across the package."""


class Euclid4Error(Exception):
    """Base class for all package errors."""


class NotCoprime(Euclid4Error):
    """Residue is not a unit of its residue ring."""


class DegenerateField(Euclid4Error):
    """The requested compositum does not have degree 4, or the data built for
    a field fails one of the checks that certify it (closure, discriminant,
    index, square roots, tower)."""


class NotImaginary(Euclid4Error):
    """The requested field has a real embedding."""


class UnsupportedConductor(Euclid4Error):
    """Cyclic conductor that is neither 16 nor a prime = 5 (mod 8)."""


class FieldMismatch(Euclid4Error):
    """Operands belong to different fields, or coordinates do not fit the
    field's degree."""


class NotAUnit(Euclid4Error):
    """Element norm is not +-1."""


class Ramified(Euclid4Error):
    """Prime divides the field discriminant."""


class SamePrime(Euclid4Error):
    """The two rational primes of a candidate pair coincide."""


class SearchExhausted(Euclid4Error):
    """No admissible pair found below the bound.

    Carries per-condition failure counters for diagnosis.
    """

    def __init__(self, message, stats=None):
        super().__init__(message)
        self.stats = dict(stats or {})


class CapExceeded(Euclid4Error):
    """A computation would exceed its configured cap."""


class NotGenerator(Euclid4Error):
    """A certified generator fails to generate; certificate data is corrupt."""


class BoundExceeded(Euclid4Error):
    """No element found within the coordinate bound."""


class SchemaError(Euclid4Error):
    """Certificate JSON does not match the expected schema."""


class ConditionFailed(Euclid4Error):
    """A certificate condition failed re-verification."""

    def __init__(self, condition, message):
        super().__init__(f"condition ({condition}) failed: {message}")
        self.condition = condition


class OracleMismatch(Euclid4Error):
    """The surjectivity oracle contradicts the certificate, or an oracle's
    own arithmetic contradicts itself."""


class UnknownLabel(Euclid4Error):
    """Label not present in the field registry."""
