"""Dirichlet spectrum, localized eigenbases and Szego-type determinant
asymptotics for the Laplacian on the Sierpinski gasket."""

from .decimation import (
    BirthGroup,
    enumerate_spectrum,
    extend_eigenfunction,
    gamma_step,
    make_groups,
)
from .functions import (
    ConstantFunction,
    ExpressionFunction,
    HarmonicFunction,
    SimpleCellFunction,
    parse_function_spec,
)
from .laplacian import ResistanceComputer
from .szego import (
    CompressedOperator,
    NotPositiveDefiniteError,
    basis_columns,
    beta_exponent,
    beta_tilde_exponent,
    equidistribution_compare,
    fit_rate,
    log_det,
    orthonormality_check,
    spectral_functional,
    sweep_plan,
    szego_sweep,
)
from .topology import (
    LevelTopology,
    level_topology,
    quadrature,
)

__version__ = "0.1.0"
