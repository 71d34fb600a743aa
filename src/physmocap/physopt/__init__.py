from .problem import (ReducedProblem, ReducedTargets, ReducedWeights,
                      targets_from_kinematic)
from .solve import PhysOptReport, initial_guess, solve_reduced
from .spline import (hermite_coeffs, hermite_eval, hermite_weights, locate,
                     segment_count)
from .trajectory import CentroidalTrajectory, TrajectoryLayout

__all__ = [
    "ReducedProblem", "ReducedTargets", "ReducedWeights",
    "targets_from_kinematic", "TrajectoryLayout", "CentroidalTrajectory",
    "PhysOptReport", "initial_guess", "solve_reduced",
    "hermite_coeffs", "hermite_eval", "hermite_weights", "locate",
    "segment_count",
]
