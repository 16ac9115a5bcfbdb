"""Exception types shared across the package."""


class SemitopError(Exception):
    """Base class for all errors raised by this package."""


class MalformedTable(SemitopError):
    """Cayley table is not square, or an entry is out of range."""


class NonAssociative(SemitopError):
    """Operation table violates associativity; carries one witness triple."""

    def __init__(self, a, b, c):
        self.triple = (a, b, c)
        super().__init__(f"(a*b)*c != a*(b*c) for (a, b, c) = ({a}, {b}, {c})")


class NotIdempotent(SemitopError):
    """An element expected to be idempotent is not."""


class SizeCapExceeded(SemitopError):
    """Requested exhaustive computation is above the supported size cap."""


class BadParameter(SemitopError):
    """Parameter outside its documented domain."""


class Inapplicable(SemitopError):
    """Operation precondition not met for this input."""


class ParseError(SemitopError):
    """Cayley text is malformed; carries line and column."""

    def __init__(self, message, line, column=0):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {message}")


class SchemaMismatch(SemitopError):
    """Report document has an unknown version or a malformed field."""


class NotFound(SemitopError):
    """A search that may legitimately come up empty did so."""


class CorpusIntegrityError(SemitopError):
    """A declared fact contradicts search evidence, or a builder lied."""


class CertificationFailed(SemitopError):
    """A claim guaranteed by theory could not be certified at the bound."""

    def __init__(self, claim, data=None):
        self.claim = claim
        self.data = data
        super().__init__(f"certification failed: {claim} ({data!r})")


class BudgetExhausted(SemitopError):
    """A computation that must finish exactly ran out of budget."""
