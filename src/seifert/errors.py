"""Exception hierarchy shared by every module.

Two families matter for the CLI exit codes: InputError covers malformed or
invalid input (exit code 2) and PreconditionError covers well-formed input
fed to an operation whose mathematical precondition it violates (exit 3).
InternalError marks a broken mathematical invariant, a defect of this
package rather than of its input.
"""


class SeifertError(Exception):
    """Base class for every error raised by this package."""


class InternalError(SeifertError):
    """A mathematical invariant the package relies on does not hold."""


class InputError(SeifertError):
    """Malformed or invalid input data."""


class PreconditionError(SeifertError):
    """Valid object handed to an operation that does not apply to it."""


class ZeroDenominator(InputError):
    """A fraction with denominator zero."""


class ParseError(InputError):
    """Symbol text that does not match the grammar.

    Carries the character offset of the failure in .position.
    """

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class OutputTooLong(InputError):
    """A result holding an integer past the interpreter's int-to-str digit
    limit (4300 digits by default), which cannot be written out."""

    def __init__(self):
        super().__init__("the result has an integer too long to convert "
                         "to text")


COUNT_LIMIT = 10**6


class CountTooLarge(InputError):
    """A genus, boundary count or index-2 count past COUNT_LIMIT where a
    result would write out one generator or pair for each."""


class ValidityError(InputError):
    """Structurally parseable data violating a symbol invariant."""


class NotCoprime(InputError):
    """Lens parameters p, q with gcd(p, q) > 1."""


class BadDeterminant(InputError):
    """Gluing matrix whose determinant is not +1 or -1."""


class InvalidIndex(InputError):
    """Triangle index smaller than 2."""


class InvalidSurface(InputError):
    """Surface description that names no compact surface."""


class ModeError(PreconditionError):
    """Fiber-oriented comparison requested for non-orientable symbols."""


class NotOriented(PreconditionError):
    """Orientation reversal of a symbol that carries no orientation."""


class NotClosed(PreconditionError):
    """Closed-only operation applied to a bounded symbol."""


class NotClosedOriented(PreconditionError):
    """Euler-sum style operation applied outside closed oriented symbols."""


class AlreadyOrientable(PreconditionError):
    """Orientation double cover of an already orientable space."""


class WrongBase(PreconditionError):
    """Sphere-orbit recognition applied to a different orbit surface."""


class ExcludedSpace(PreconditionError):
    """Bounded rigidity query on a space the uniqueness theorem excludes."""


class IndexNotDivisible(PreconditionError):
    """Cover degree not divisible by every exceptional fiber index."""


class QuotientFinite(PreconditionError):
    """Fiberless cover requested over a finite Fuchsian quotient."""


class OddEulerCharacteristic(PreconditionError):
    """Cover surface would need odd Euler characteristic yet be orientable."""


class LimitTooSmall(PreconditionError):
    """Coset enumeration invoked with a zero or negative coset budget."""
