"""Global solutions of four coagulation models with gelation.

Solves the gel-inert and gel-interacting multiplicative-kernel models and
their limited-aggregation ("arms") variants via generating functions and the
method of characteristics, with an independent truncated-ODE oracle.
"""

from .characteristics import (
    ArmsFlow,
    SolutionState,
    ell_smolu,
    gel_time,
    l_flory,
)
from .errors import (
    ConfigError,
    DomainError,
    GelsolveError,
    ModelError,
    SolverError,
    UsageError,
)
from .measures import (
    ArmMeasure,
    Discrete,
    ExponentialDensity,
    MassMeasure,
    Monodisperse,
    PowerLawDensity,
    conv_power,
)
from .models import (
    Flory,
    FloryArms,
    Model,
    Smoluchowski,
    SmoluchowskiArms,
    asymptotics_report,
    make_model,
    mass_right_derivative_at_gel,
)
from .series import (
    LimitingConcentrations,
    PowerSeries,
    arms_concentrations,
    concentrations,
    limiting_concentrations,
    ps_compose,
    ps_exp,
    ps_mul,
    ps_revert,
)

__version__ = "0.1.0"

__all__ = [
    "ArmMeasure",
    "ArmsFlow",
    "ConfigError",
    "Discrete",
    "DomainError",
    "ExponentialDensity",
    "Flory",
    "FloryArms",
    "GelsolveError",
    "LimitingConcentrations",
    "MassMeasure",
    "Model",
    "ModelError",
    "Monodisperse",
    "PowerLawDensity",
    "PowerSeries",
    "Smoluchowski",
    "SmoluchowskiArms",
    "SolutionState",
    "SolverError",
    "UsageError",
    "arms_concentrations",
    "asymptotics_report",
    "concentrations",
    "conv_power",
    "ell_smolu",
    "gel_time",
    "l_flory",
    "limiting_concentrations",
    "make_model",
    "mass_right_derivative_at_gel",
    "ps_compose",
    "ps_exp",
    "ps_mul",
    "ps_revert",
]
