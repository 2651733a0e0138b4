"""Exception hierarchy shared across the package.

The CLI maps these onto its exit-code contract: InputError -> 2,
NumericError -> 3, DiagnosticError -> 4.
"""


class InputError(ValueError):
    """A caller violated a precondition (bad dimensions, bad flags, ...)."""


class SymmetryError(InputError):
    """A claimed symmetry pair failed certification.

    Carries the worst observed residual of ``psi(f(z)) - f(phi(z))`` so
    callers can report how badly the pair fails.
    """

    def __init__(self, message, residual):
        super().__init__(f"{message} (residual {residual:.6g})")
        self.residual = float(residual)


class NumericError(ArithmeticError):
    """A computation hit an excluded point or an inconsistent result.

    ``chain`` is the index of the first failing chain when the computation
    ran a stack of chains, else None.
    """

    def __init__(self, message, chain=None):
        super().__init__(message)
        self.chain = chain


class PatternViolationError(NumericError):
    """A jet coefficient that must vanish in the limit is too large.

    ``coefficient_class`` names the offending block, e.g. "first j>=2,k=1".
    """

    def __init__(self, coefficient_class, magnitude):
        super().__init__(
            f"vanishing-pattern violation in class {coefficient_class!r}: "
            f"|coefficient| = {magnitude:.6g}"
        )
        self.coefficient_class = coefficient_class
        self.magnitude = float(magnitude)


class DiagnosticError(RuntimeError):
    """A structural check failed (e.g. the sequence does not escape).

    Finite computations may still be meaningful, but limit claims are
    withheld; pipelines treat this as its own failure mode.
    """
