"""Domain errors raised by the library and mapped to CLI exit code 1."""

__all__ = ["DomainError", "SingularMatrix", "NotDivisible", "NotUnimodular", "PrimeMismatch", "NotPrimitive",
           "LengthMismatch", "Degenerate", "NotAUnit", "NotRepresentable"]


class DomainError(Exception):
    """Base class for all domain-level failures."""


class SingularMatrix(DomainError):
    """A nonsingular matrix was required but det = 0."""


class NotDivisible(DomainError):
    """quotient() was asked for y/x although x does not divide y."""


class NotUnimodular(DomainError):
    """An automorphism conjugator must have determinant +1 or -1."""


class PrimeMismatch(DomainError):
    """Two local classes at different primes cannot be compared."""


class NotPrimitive(DomainError):
    """Only classes with coprime entries correspond to picture vertices."""


class LengthMismatch(DomainError):
    """Dirichlet convolution needs tables of equal length."""


class Degenerate(DomainError):
    """A projective matrix must have nonzero determinant."""


class NotAUnit(DomainError):
    """The Moebius action is undefined: a + c*z vanishes at some component.

    ``prime`` is the offending prime, or None when the failure is at the
    default (unmapped) components, i.e. a + c = 0.
    """

    def __init__(self, prime: int | None, message: str = ""):
        self.prime = prime
        super().__init__(message or f"a + c*z is not invertible at {prime if prime is not None else 'the default components'}")


class NotRepresentable(DomainError):
    """A Moebius image left the p-power-or-zero class of components.

    ``prime`` is the offending prime, or None when the default component
    (b+d)/(a+c) is neither 1 nor part of an all-zero result.
    """

    def __init__(self, prime: int | None, message: str = ""):
        self.prime = prime
        super().__init__(message or f"result component at {prime if prime is not None else 'the default primes'} is not a prime power or zero")
