"""Exception hierarchy shared by all modules."""


class ToolkitError(Exception):
    """Base class for every error raised by this package."""


class ExpressionError(ToolkitError):
    """Malformed expression text or an unsupported node (e.g. non-integer power)."""


class SingularityError(ToolkitError):
    """A quotient denominator fell below the 1e-14 guard during evaluation."""


class DomainError(ToolkitError):
    """Evaluation requested outside the field's rectangle, or incompatible rectangles."""


class ResolutionError(ToolkitError):
    """Grid too coarse for the requested stencil (nx or ny < 3)."""


class CompatibilityError(ToolkitError):
    """Antiderivative compatibility condition violated."""

    def __init__(self, which: str, residual: float, tol: float):
        self.which = which
        self.residual = residual
        self.tol = tol
        super().__init__(
            f"compatibility condition {which} violated: max residual "
            f"{residual:.3e} exceeds tolerance {tol:.3e}"
        )


class NonvanishingError(ToolkitError):
    """A field required to be nonvanishing dipped below the sampled threshold."""

    def __init__(self, name: str, min_abs: float, at):
        self.name = name
        self.min_abs = min_abs
        self.at = at
        super().__init__(
            f"{name} must be nonvanishing: sampled min |{name}| = {min_abs:.3e} at {at}"
        )


class ZeroSetError(ToolkitError):
    """A denominator field vanishes inside the evaluation region."""

    def __init__(self, name: str, min_abs: float, at):
        self.name = name
        self.min_abs = min_abs
        self.at = at
        super().__init__(f"{name} vanishes in the region: min |{name}| = {min_abs:.3e} at {at}")


class DegeneratePairError(ToolkitError):
    """Two fields entering a denominator are numerically identical."""

    def __init__(self, pair: str, min_abs: float):
        self.pair = pair
        self.min_abs = min_abs
        super().__init__(f"degenerate pair {pair}: min |difference| = {min_abs:.3e}")


class ContourError(ToolkitError):
    """Invalid contour (too few nodes, open where closed is required, ...)."""


class QuadratureError(ToolkitError):
    """Segment quadrature gave a non-finite value or did not converge within MAX_PANELS."""


class NotASolutionError(ToolkitError):
    """An input that must solve its equation fails the residual precondition."""

    def __init__(self, what: str, residual: float, tol: float):
        self.what = what
        self.residual = residual
        self.tol = tol
        super().__init__(
            f"{what} is not a solution: residual {residual:.3e} exceeds {tol:.3e}"
        )


class ParameterError(ToolkitError):
    """Invalid constructor parameters (zero sets inside domain, eps = 0, ...)."""


class ConfigError(ToolkitError):
    """Run-config parse or validation failure."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
