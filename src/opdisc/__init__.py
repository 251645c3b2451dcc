"""Numerical laboratory for discretizing monotone operator layers on L2(0,1)."""

from .decompose import DecompositionResult, decompose
from .discretize import convergence_scan
from .galerkin import (
    ConvexNonlinearity,
    FemMesh,
    fem_convergence,
    galerkin_path_matrix,
    singularity_scan,
    solve_semilinear,
)
from .invert import invert_chain
from .layers import (
    CoordinateNetwork,
    FiniteRankOperator,
    NeuralOperatorLayer,
    ResidualChain,
    make_layer,
)
from .monotone import bilipschitz_estimate, pairwise_alpha
from .spectral import BasisSpec, Space

__version__ = "0.1.0"

__all__ = [
    "BasisSpec",
    "ConvexNonlinearity",
    "CoordinateNetwork",
    "DecompositionResult",
    "FemMesh",
    "FiniteRankOperator",
    "NeuralOperatorLayer",
    "ResidualChain",
    "Space",
    "bilipschitz_estimate",
    "convergence_scan",
    "decompose",
    "fem_convergence",
    "galerkin_path_matrix",
    "invert_chain",
    "make_layer",
    "pairwise_alpha",
    "singularity_scan",
    "solve_semilinear",
    "__version__",
]
