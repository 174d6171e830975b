"""Numerical geometry of Lagrangian and Finslerian mechanical systems.

The package evaluates, at machine precision via derivative programs
compiled from the Lagrangian and force expressions, the canonical and
forced (evolution) semisprays of a regular Lagrangian, their nonlinear
connections, the Cartan forms and tensor, dissipation and
symplectic-compatibility diagnostics, and integrates evolution,
horizontal and geodesic curves.
"""

from .dsl import (
    bind_scalar,
    bind_vertical,
    parse,
    to_source,
)
from .errors import (
    ArityError,
    ConfigError,
    DomainError,
    FinslerModeError,
    LagmechError,
    ParseError,
    SingularMetric,
    UnboundParameter,
    UnknownBuiltin,
    VariableIndexError,
)
from .finsler import (
    FinslerIdentityReport,
    HomogeneityReport,
    finsler_identities,
    homogeneity_report,
)
from .jets import (
    Jet,
    SymMatrix,
    eval_jet,
)
from .mechanics import (
    ClassificationReport,
    MechanicalSystem,
    PointGeometry,
    classify,
    stack_points,
)
from .phase import PhasePoint, ScalarField, VerticalField
from .sampling import halton, sample_box
from .systems import BuiltinEntry, catalog, find, instantiate, standard_samples
from .trajectories import (
    IntegratorConfig,
    Trajectory,
    energy_audit,
    integrate_evolution,
    integrate_geodesic,
    integrate_horizontal,
)
from .verify import run_verification

__version__ = "0.1.0"

__all__ = [
    "ArityError",
    "BuiltinEntry",
    "ClassificationReport",
    "ConfigError",
    "DomainError",
    "FinslerIdentityReport",
    "FinslerModeError",
    "HomogeneityReport",
    "IntegratorConfig",
    "Jet",
    "LagmechError",
    "MechanicalSystem",
    "ParseError",
    "PhasePoint",
    "PointGeometry",
    "ScalarField",
    "SingularMetric",
    "SymMatrix",
    "Trajectory",
    "UnboundParameter",
    "UnknownBuiltin",
    "VariableIndexError",
    "VerticalField",
    "bind_scalar",
    "bind_vertical",
    "catalog",
    "classify",
    "energy_audit",
    "eval_jet",
    "find",
    "finsler_identities",
    "halton",
    "homogeneity_report",
    "instantiate",
    "integrate_evolution",
    "integrate_geodesic",
    "integrate_horizontal",
    "parse",
    "run_verification",
    "sample_box",
    "stack_points",
    "standard_samples",
    "to_source",
]
