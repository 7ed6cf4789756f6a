"""The check record and the exception hierarchy shared by all modules.

Every checked value is one ``Check``: a hypothesis gate's sampled quantity or an
identity's residual, against its limit.  The errors of the gates derive from
``GateError``, which holds the failed ``Check`` and words its message from it."""
from dataclasses import dataclass


@dataclass(frozen=True)
class Check:
    """``value`` of ``what`` against ``limit``, and the verdict; ``at`` is where a gate on
    a minimum found it, ``refinement`` an identity's (resolution, residual) pairs."""

    what: str
    value: float
    limit: float
    passed: bool
    at: tuple | None = None
    refinement: tuple = ()


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
    """A hypothesis gate failed its ``check``.  Each subclass words the message from
    the check's fields with its own ``template``."""

    template = ""

    def __init__(self, check: Check):
        self.check = check
        super().__init__(self.template.format(**vars(check)))


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
