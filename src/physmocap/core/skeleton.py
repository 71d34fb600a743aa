"""The one body: a skeleton layout and mass model, from two tables.

Joints: 28, the 25 OpenPose-style body and foot keypoints plus 3 spine joints
between pelvis and neck, which have no 2D detections. Rest-pose bone offsets
are in the shared zero-angle frame (z up, character facing +x, arms along
+-y). Point-mass segments: 14, with De Leva 1996 mass fractions and adjusted
COM ratios.

The program fits this one body, scaled to the subject: a SkeletonModel varies
only in its bone lengths, and what the tables alone give is computed once.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import ClassVar

import numpy as np

# (name, parent name, rest-pose bone direction (unit, parent frame), bone
# length in m), parents before children
_JOINTS = (
    ("pelvis", None, (0.0, 0.0, 0.0), 0.0),
    ("spine_lower", "pelvis", (0.0, 0.0, 1.0), 0.07),
    ("spine_middle", "spine_lower", (0.0, 0.0, 1.0), 0.11),
    ("spine_upper", "spine_middle", (0.0, 0.0, 1.0), 0.11),
    ("neck", "spine_upper", (0.0, 0.0, 1.0), 0.16),
    ("nose", "neck", (0.6, 0.0, 0.8), 0.13),
    ("left_eye", "nose", (-0.4472, 0.8944, 0.0), 0.055),
    ("right_eye", "nose", (-0.4472, -0.8944, 0.0), 0.055),
    ("left_ear", "left_eye", (-0.8, 0.6, 0.0), 0.07),
    ("right_ear", "right_eye", (-0.8, -0.6, 0.0), 0.07),
    ("left_shoulder", "neck", (0.0, 1.0, 0.0), 0.18),
    ("left_elbow", "left_shoulder", (0.0, 1.0, 0.0), 0.28),
    ("left_wrist", "left_elbow", (0.0, 1.0, 0.0), 0.25),
    ("right_shoulder", "neck", (0.0, -1.0, 0.0), 0.18),
    ("right_elbow", "right_shoulder", (0.0, -1.0, 0.0), 0.28),
    ("right_wrist", "right_elbow", (0.0, -1.0, 0.0), 0.25),
    ("left_hip", "pelvis", (0.0, 1.0, 0.0), 0.09),
    ("left_knee", "left_hip", (0.0, 0.0, -1.0), 0.40),
    ("left_ankle", "left_knee", (0.0, 0.0, -1.0), 0.40),
    # heel = (-0.035, 0, -0.070), toe drop = 0.070: a zero-pitch ankle puts
    # heel and toe at exactly the same height, so flat feet sit on the floor
    ("left_heel", "left_ankle",
     (-0.4472135954999579, 0.0, -0.8944271909999159), 0.07826237921249264),
    ("left_toe", "left_ankle", (0.8660254037844386, 0.0, -0.5), 0.14),
    ("left_toe_end", "left_toe", (0.5547, 0.8321, 0.0), 0.05),
    ("right_hip", "pelvis", (0.0, -1.0, 0.0), 0.09),
    ("right_knee", "right_hip", (0.0, 0.0, -1.0), 0.40),
    ("right_ankle", "right_knee", (0.0, 0.0, -1.0), 0.40),
    ("right_heel", "right_ankle",
     (-0.4472135954999579, 0.0, -0.8944271909999159), 0.07826237921249264),
    ("right_toe", "right_ankle", (0.8660254037844386, 0.0, -0.5), 0.14),
    ("right_toe_end", "right_toe", (0.5547, -0.8321, 0.0), 0.05),
)
JOINT_NAMES = tuple(name for name, *_ in _JOINTS)
PARENTS = tuple(-1 if parent is None else JOINT_NAMES.index(parent)
                for _, parent, *_ in _JOINTS)
_JOINT_IDS = {name: j for j, name in enumerate(JOINT_NAMES)}

# rest-pose bone directions (unit; the root row is zero) and lengths (m) per
# joint. Each bone row is divided by its norm once, so FK lengths are exact.
_BONE_DIRS = np.array([direction for _, _, direction, _ in _JOINTS])
_BONE_DIRS[1:] /= np.linalg.norm(_BONE_DIRS[1:], axis=1, keepdims=True)
_BONE_DIRS.flags.writeable = False
_REST_LENGTHS = np.array([length for *_, length in _JOINTS])

# joints without any 2D detection (dropped from reprojection terms)
SPINE_JOINTS = ("spine_lower", "spine_middle", "spine_upper")

# the four contact joints, in the order used for contact labels everywhere
CONTACT_JOINT_NAMES = ("left_toe", "left_heel", "right_toe", "right_heel")

# lower-body joints feeding the contact classifier features
LOWER_BODY_JOINT_NAMES = (
    "pelvis",
    "left_hip", "right_hip",
    "left_knee", "right_knee",
    "left_ankle", "right_ankle",
    "left_heel", "right_heel",
    "left_toe", "right_toe",
    "left_toe_end", "right_toe_end",
)


def _leg(j):   # the joints from j's hip, its ancestor that hangs from the root, down to j
    return (*_leg(PARENTS[j]), j) if PARENTS[j] > 0 else (j,)


_LEGS = tuple(_leg(_JOINT_IDS[name]) for name in CONTACT_JOINT_NAMES)
_WITH_2D = tuple(j for j, name in enumerate(JOINT_NAMES) if name not in SPINE_JOINTS)
_POSED = tuple(sorted(set(PARENTS[1:])))


@dataclass(frozen=True)
class MassSegment:
    """One point mass: fraction of total mass at proximal + ratio*(distal - proximal)."""
    name: str
    mass_fraction: float
    proximal: str
    distal: str
    com_ratio: float


# fractions sum to 1; com_ratio runs from the proximal joint to the distal
_SEGMENTS = (
    MassSegment("head", 0.0694, "neck", "nose", 0.7),
    MassSegment("trunk", 0.4346, "pelvis", "neck", 0.5),
    MassSegment("left_upper_arm", 0.0271, "left_shoulder", "left_elbow", 0.577),
    MassSegment("right_upper_arm", 0.0271, "right_shoulder", "right_elbow", 0.577),
    MassSegment("left_forearm", 0.0162, "left_elbow", "left_wrist", 0.457),
    MassSegment("right_forearm", 0.0162, "right_elbow", "right_wrist", 0.457),
    MassSegment("left_hand", 0.0061, "left_wrist", "left_wrist", 0.0),
    MassSegment("right_hand", 0.0061, "right_wrist", "right_wrist", 0.0),
    MassSegment("left_thigh", 0.1416, "left_hip", "left_knee", 0.41),
    MassSegment("right_thigh", 0.1416, "right_hip", "right_knee", 0.41),
    MassSegment("left_shank", 0.0433, "left_knee", "left_ankle", 0.446),
    MassSegment("right_shank", 0.0433, "right_knee", "right_ankle", 0.446),
    MassSegment("left_foot", 0.0137, "left_heel", "left_toe", 0.44),
    MassSegment("right_foot", 0.0137, "right_heel", "right_toe", 0.44),
)


@dataclass(frozen=True, eq=False)
class SkeletonModel:
    """The one body, scaled to a subject: bone_lengths (m, per joint, the
    root's 0) is its only init field, and dataclasses.replace of it
    recomputes l_foot (per side, the rest toe-heel distance) and l_leg (per
    foot joint, the bone lengths summed from its hip down to it). Every
    skeleton shares the class attributes, which the tables give: bone_dirs[j]
    is the unit rest direction of the bone parent(j) -> j in the parent's
    frame (all frames coincide in the zero-angle pose), foot_joint_ids are
    CONTACT_JOINT_NAMES', and foot_hip_ids their hips, the joints that hang
    from the root. Joint angles everywhere are intrinsic Z-Y-X Euler.
    """
    bone_lengths: np.ndarray = field(default_factory=_REST_LENGTHS.copy)  # J
    l_foot: tuple = field(init=False)
    l_leg: tuple = field(init=False)

    joint_names: ClassVar[tuple] = JOINT_NAMES
    parents: ClassVar[tuple] = PARENTS
    bone_dirs: ClassVar[np.ndarray] = _BONE_DIRS                  # J x 3, read-only
    n_joints: ClassVar[int] = len(JOINT_NAMES)
    mass_total: ClassVar[float] = 73.0                            # kg
    segments: ClassVar[tuple] = _SEGMENTS
    foot_joint_ids: ClassVar[tuple] = tuple(leg[-1] for leg in _LEGS)
    foot_hip_ids: ClassVar[tuple] = tuple(leg[0] for leg in _LEGS)

    def __post_init__(self):
        lengths = np.array(self.bone_lengths, dtype=float)
        if lengths.shape != (self.n_joints,) or not np.all(lengths >= 0):
            raise ValueError(f"bone_lengths must be {self.n_joints} lengths >= 0, got {lengths}")
        set_ = partial(object.__setattr__, self)
        set_("bone_lengths", lengths)
        rest = self.rest_positions()
        feet = self.foot_joint_ids
        set_("l_foot", tuple(float(np.linalg.norm(rest[toe] - rest[heel]))
                             for toe, heel in (feet[:2], feet[2:])))
        set_("l_leg", tuple(float(sum(lengths[j] for j in leg[1:])) for leg in _LEGS))

    def joint_id(self, name):
        return _JOINT_IDS[name]

    def rest_positions(self):
        """Joint positions in the zero-angle pose, root at the origin. J x 3."""
        pos = np.zeros((self.n_joints, 3))
        for j in range(1, self.n_joints):
            pos[j] = pos[self.parents[j]] + self.bone_dirs[j] * self.bone_lengths[j]
        return pos

    def joints_with_2d(self):   # the joints that carry 2D detections: all but the spine
        return _WITH_2D

    def posed_joints(self):   # the joints whose angles move a position: those with a child
        return _POSED


def default_skeleton():
    return SkeletonModel()
