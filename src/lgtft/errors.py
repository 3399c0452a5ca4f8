"""Exception types shared across the package."""


class LGError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(LGError):
    """Malformed polynomial source text."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class RingMismatchError(LGError):
    """Operands live in different polynomial rings."""


class ShapeError(LGError):
    """Matrix or module dimensions do not line up."""


class SingularMatrixError(LGError):
    """Attempted to invert a singular matrix."""


class NonIsolatedCriticalLocusError(LGError):
    """The critical locus is not finite; quotient-algebra outputs are undefined.

    Callers that hit this should switch to the Koszul module, whose graded
    cohomology tables remain meaningful (and detect the failure degreewise).
    """


class DegenerateTraceError(LGError):
    """The residue pairing is degenerate (or the algebra is zero)."""


class AdjointnessError(LGError):
    """A boundary-bulk image fails Tr(h_k f_a(t)) = tr_a(e_a(h_k) o t).

    lhs is tr_a(e_a(h_k) o t) read off the structure tables, rhs is
    Tr(h_k f_a(t)) from the chain-level f_a(t).
    """

    def __init__(self, bulk_index, lhs, rhs):
        super().__init__(
            f"adjointness fails on bulk basis element {bulk_index}: "
            f"{lhs} != {rhs}"
        )
        self.bulk_index = bulk_index
        self.lhs = lhs
        self.rhs = rhs


class FactorizationError(LGError):
    """A claimed factorization does not square to W times the identity."""


class NonCocycleError(LGError):
    """A morphism expected to be closed under the defect differential is not."""


class ClassBoundError(LGError):
    """A cohomology class falls outside the computed degree window."""


class InternalCheckError(LGError):
    """A mathematical self-check of the engine failed (for example d^2 != 0)."""


class ValidationError(LGError):
    """A job file or user input failed validation."""
