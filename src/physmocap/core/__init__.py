from .skeleton import SkeletonModel, default_skeleton
from .types import (
    CentroidalStates,
    FloorPlane,
    JointAngleMotion,
    PoseSequence,
)
from .kinematics import compute_com_inertia, forward_kinematics
from .preprocess import preprocess_low_confidence
