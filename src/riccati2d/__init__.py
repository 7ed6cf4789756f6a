"""Desk-scale verification toolkit for the correspondence between the planar
stationary Schrodinger equation and a complex differential Riccati equation."""

from .errors import (
    CompatibilityError,
    ConfigError,
    ContourError,
    DegeneratePairError,
    DomainError,
    ExpressionError,
    NonvanishingError,
    NotASolutionError,
    ParameterError,
    QuadratureError,
    ResolutionError,
    SingularityError,
    ToolkitError,
    ZeroSetError,
)
from .expressions import parse_expression
from .field import (
    ComplexField,
    DomainSpec,
    ExprField,
    Field,
    GridField,
    Point,
    ScalarField,
    check_nonvanishing,
    constant_field,
    d_z,
    d_zbar,
    exp_field,
    gradient_norm_ratio,
    laplacian,
    max_abs,
    min_abs_location,
    read_grid_csv,
    write_grid_csv,
)
from .oracle import (
    OracleSolution,
    default_matrix,
    exp_family,
    harmonic_family,
    perturb,
    separable_family,
)
from .quadrature import (
    AntiderivativeConfig,
    Contour,
    compatibility_check,
    line_integral_dz,
    op_A,
    op_Abar,
)
from .riccati import (
    RiccatiProblem,
    darboux_potential_eta,
    darboux_u_from_v,
    darboux_v_from_u,
    euler_first_Q_from_W,
    euler_first_W_from_Q,
    exp_reconstruct,
    factorization_apply,
    log_derivative,
    riccati_residual,
    schrodinger_residual,
    vekua_residual,
)
from .theorems import (
    IdentityResult,
    analytic_exp,
    analytic_power,
    cauchy_laplace_reductions,
    cauchy_riccati,
    cauchy_schrodinger,
    euler_second_baseline,
    picard_identity,
)

__version__ = "0.1.0"
