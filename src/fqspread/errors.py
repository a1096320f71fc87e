"""Domain errors.

Every error carries a machine-parsable ``code`` (the class name); the CLI
prints that code on its own line before any prose.
"""


class DomainError(Exception):
    @property
    def code(self) -> str:
        return type(self).__name__


class CharacteristicTwo(DomainError):
    pass


class NotPrime(DomainError):
    pass


class SizeExceeded(DomainError):
    pass


class NotASquare(DomainError):
    pass


class DimensionMismatch(DomainError):
    pass


class BadArity(DomainError):
    pass


class BudgetExceeded(DomainError):
    pass


class BadResidue(DomainError):
    pass


class OddDimension(DomainError):
    pass


class BadDimension(DomainError):
    pass


class DependentInput(DomainError):
    pass


class TooFewPoints(DomainError):
    pass


class SphereTooSmall(DomainError):
    pass


class VacuousBound(DomainError):
    pass


class DuplicatePoint(DomainError):
    pass


class FormatError(DomainError):
    pass


class InternalError(DomainError):
    pass
