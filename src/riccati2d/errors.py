"""Exception hierarchy shared by all modules.

The errors of the hypothesis gates derive from ``GateError``: each carries the
gated quantity's name ``what``, its sampled ``value``, the ``limit`` it failed
and, for a gate on a minimum, the sample point ``at`` where it was found."""


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


class GateError(ToolkitError):
    """A hypothesis gate failed: the sampled ``value`` of ``what`` against ``limit``,
    at the sample point ``at`` where the gate locates it (else None).  Each subclass
    words the message with its own ``template``."""

    template = ""

    def __init__(self, what: str, value: float, limit: float, at=None):
        self.what, self.value, self.limit, self.at = what, value, limit, at
        super().__init__(self.template.format(what=what, value=value, limit=limit, at=at))


class CompatibilityError(GateError):
    """Antiderivative compatibility condition violated."""

    template = ("compatibility condition {what} violated: max residual {value:.3e} "
                "exceeds tolerance {limit:.3e}")


class NonvanishingError(GateError):
    """A field required to be nonvanishing dipped below the sampled threshold."""

    template = "{what} must be nonvanishing: sampled min |{what}| = {value:.3e} at {at}"


class ZeroSetError(GateError):
    """A denominator field vanishes inside the evaluation region."""

    template = "{what} vanishes in the region: min |{what}| = {value:.3e} at {at}"


class DegeneratePairError(GateError):
    """Two fields entering a denominator are numerically identical."""

    template = "degenerate pair {what}: min |difference| = {value:.3e}"


class ContourError(ToolkitError):
    """Invalid contour (too few nodes, open where closed is required, ...)."""


class QuadratureError(ToolkitError):
    """Segment quadrature gave a non-finite value or did not converge within MAX_PANELS."""


class NotASolutionError(GateError):
    """An input that must solve its equation fails the residual precondition."""

    template = "{what} is not a solution: residual {value:.3e} exceeds {limit:.3e}"


class ParameterError(ToolkitError):
    """Invalid constructor parameters (zero sets inside domain, eps = 0, ...)."""


class ConfigError(ToolkitError):
    """Run-config parse or validation failure."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
