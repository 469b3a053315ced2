"""Dirichlet spectrum, localized eigenbases and Szego-type determinant
asymptotics for the Laplacian on the Sierpinski gasket."""

from .decimation import (
    EigenvalueDescriptor,
    SpectrumTable,
    enumerate_spectrum,
    extend_eigenfunction,
    gamma_step,
    make_descriptor,
    renormalized_lambda,
)
from .eigenbasis import EigenspaceBasis, localize_basis, orthonormality_check
from .functions import (
    ConstantFunction,
    ExpressionFunction,
    HarmonicFunction,
    SimpleCellFunction,
    parse_function_spec,
)
from .laplacian import ResistanceComputer, dirichlet_laplacian
from .szego import (
    CompressedOperator,
    NotPositiveDefiniteError,
    assemble_compressed,
    beta_exponent,
    beta_tilde_exponent,
    cutoff_operator,
    equidistribution_compare,
    fit_rate,
    log_det,
    spectral_functional,
    szego_sweep,
)
from .topology import (
    LevelTopology,
    enumerate_cells,
    level_topology,
    quadrature,
)

__version__ = "0.1.0"
