"""Physics-informed Gaussian processes for static Timoshenko beams.

Provides an analytic beam oracle, operator-derived covariance kernels,
multi-output GP assembly and prediction, Metropolis-Hastings stiffness
identification, and entropy-based sensor placement.
"""

from timopigp.quantities import QuantityKind
from timopigp.beam import BeamConfig, NoiseSpec
from timopigp.data import BoundaryCondition, Dataset
from timopigp.gp import Theta

__all__ = [
    "QuantityKind",
    "BeamConfig",
    "NoiseSpec",
    "Dataset",
    "BoundaryCondition",
    "Theta",
]

__version__ = "0.1.0"
