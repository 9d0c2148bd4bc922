"""Exception types shared across the package."""


class SeqloccError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(SeqloccError):
    """Operands have incompatible shapes or subsystem dimensions."""


class DimensionTooSmall(SeqloccError):
    """A construction needs subsystem dimension >= 2."""


class NotUnitary(SeqloccError):
    """Matrix fails the unitarity check; carries the measured defect."""

    def __init__(self, defect, tol):
        self.defect = float(defect)
        self.tol = float(tol)
        super().__init__(f"unitarity defect {self.defect:.3e} exceeds tolerance {self.tol:.3e}")


class NumericalFailure(SeqloccError):
    """An underlying numerical routine did not converge."""


class Indistinguishable(SeqloccError):
    """The two operations agree up to a global phase; no scheme exists."""


class ArcTooSmall(SeqloccError):
    """Eigenphase arc is below pi; carries the best achievable overlap."""

    def __init__(self, theta, achievable_overlap):
        self.theta = float(theta)
        self.achievable_overlap = float(achievable_overlap)
        super().__init__(
            f"arc {self.theta:.6f} < pi; minimum achievable |<psi|T|psi>| is "
            f"{self.achievable_overlap:.3e}"
        )


class StageStalled(SeqloccError):
    """A sequential-scheme stage could not gain enough arc; carries the trace."""

    def __init__(self, message, theta_trace):
        self.theta_trace = list(theta_trace)
        super().__init__(f"{message}; theta trace: {self.theta_trace}")


class TooManyQueries(SeqloccError):
    """A sequential scheme would need more queries than config.MAX_QUERIES;
    carries the count."""

    def __init__(self, queries, cap):
        self.queries = int(queries)
        self.cap = int(cap)
        super().__init__(f"{self.queries} queries needed, above the cap of {self.cap}")


class SynthesisFailed(SeqloccError):
    """No template within the layer budget reached the target accuracy."""

    def __init__(self, best_delta, best_k):
        self.best_delta = float(best_delta)
        self.best_k = int(best_k)
        super().__init__(f"best delta {self.best_delta:.3e} at k={self.best_k}")


class GeneratorPrimitive(SeqloccError):
    """Synthesis generator is a product (or swapped product); it cannot generate."""


class CaseFailure(SeqloccError):
    """Wraps a downstream error with the case label where it occurred."""

    def __init__(self, case_trace, cause):
        self.case_trace = list(case_trace)
        self.cause = cause
        super().__init__(f"case {'/'.join(self.case_trace)}: {cause}")


class MatrixFileError(SeqloccError):
    """Matrix or scheme file is malformed."""


class MalformedScheme(SeqloccError):
    """A scheme's template is out of normal form or has no query, its inputs
    are not unit vectors of the template's dimensions, or its budget is
    negative or non-finite."""
