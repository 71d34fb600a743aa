"""Kinematic cleanup: IK init, a floor fit on the 3D estimate, one contact-aware fit."""
from .floor import fit_floor, fit_floor_from_motion
from .init import estimate_bone_lengths, initialize_from_3d
from .problem import KinematicProblem
from .solve import KinfitReport, run_kinematic_init, solve_stage

__all__ = [
    "fit_floor", "fit_floor_from_motion",
    "estimate_bone_lengths", "initialize_from_3d",
    "KinematicProblem",
    "KinfitReport", "run_kinematic_init", "solve_stage",
]
