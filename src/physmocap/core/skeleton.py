"""Skeleton layout and mass model, from two tables.

Joints: 28, the 25 OpenPose-style body and foot keypoints plus 3 spine joints
between pelvis and neck, which have no 2D detections. Rest-pose bone offsets
are in the shared zero-angle frame (z up, character facing +x, arms along
+-y). Point-mass segments: 14, with De Leva 1996 mass fractions and adjusted
COM ratios.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

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


def _unit_rows(dirs, tol):
    """dirs with each nonzero row whose norm is off 1 by more than tol
    divided by that norm, so FK lengths are exact."""
    dirs = np.array(dirs, dtype=float)
    norms = np.linalg.norm(dirs, axis=1)
    off = (norms > 1e-12) & (np.abs(norms - 1.0) > tol)
    dirs[off] /= norms[off, None]
    return dirs


# rest-pose bone directions (unit) and lengths (m) per joint; the
# directions are normalized here once, so a copy never divides them again
_REST_DIRS = _unit_rows([direction for _, _, direction, _ in _JOINTS], 0.0)
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
    """Kinematic tree plus the mass model.

    bone_dirs[j] is the unit rest direction of the bone parent(j) -> j in the
    parent's frame (all frames coincide in the zero-angle pose); the root row
    is zero. bone_lengths are in meters. Joint angles everywhere are intrinsic
    Z-Y-X Euler. The leg layout is derived, so dataclasses.replace recomputes
    it: foot_joint_ids (CONTACT_JOINT_NAMES), foot_hip_ids (per foot joint,
    its ancestor that hangs from the root), l_foot (per side, the rest
    toe-heel distance) and l_leg (per foot joint, the bone lengths summed
    from its hip down to it).
    """
    joint_names: tuple = JOINT_NAMES
    parents: tuple = PARENTS
    bone_dirs: np.ndarray = field(default_factory=_REST_DIRS.copy)        # J x 3
    bone_lengths: np.ndarray = field(default_factory=_REST_LENGTHS.copy)  # J
    mass_total: float = 73.0
    segments: tuple = _SEGMENTS
    foot_joint_ids: tuple = field(init=False)
    foot_hip_ids: tuple = field(init=False)
    l_foot: tuple = field(init=False)
    l_leg: tuple = field(init=False)
    _name_to_id: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        set_ = partial(object.__setattr__, self)
        set_("_name_to_id", {n: i for i, n in enumerate(self.joint_names)})
        # rows already unit to rounding keep their bits: dividing by a norm
        # one ulp off 1 would move them on every copy and file round trip
        set_("bone_dirs", _unit_rows(self.bone_dirs, 1e-12))
        set_("bone_lengths", np.array(self.bone_lengths, dtype=float))
        validate_skeleton(self)
        feet = tuple(self._name_to_id[n] for n in CONTACT_JOINT_NAMES)
        chains = []   # per foot joint, the joints from its hip down to it
        for j in feet:
            chain = [j]
            while self.parents[chain[0]] > 0:
                chain.insert(0, self.parents[chain[0]])
            chains.append(chain)
        set_("foot_joint_ids", feet)
        set_("foot_hip_ids", tuple(chain[0] for chain in chains))
        rest = self.rest_positions()
        set_("l_foot", tuple(float(np.linalg.norm(rest[toe] - rest[heel]))
                             for toe, heel in (feet[:2], feet[2:])))
        set_("l_leg", tuple(float(sum(self.bone_lengths[j] for j in chain[1:]))
                            for chain in chains))

    def joint_id(self, name):
        return self._name_to_id[name]

    @property
    def n_joints(self):
        return len(self.joint_names)

    def rest_positions(self):
        """Joint positions in the zero-angle pose, root at the origin. J x 3."""
        pos = np.zeros((self.n_joints, 3))
        for j in range(1, self.n_joints):
            pos[j] = pos[self.parents[j]] + self.bone_dirs[j] * self.bone_lengths[j]
        return pos

    def joints_with_2d(self):
        """Indices of joints that carry 2D detections (everything but the spine)."""
        skip = {self._name_to_id[n] for n in SPINE_JOINTS if n in self._name_to_id}
        return tuple(j for j in range(self.n_joints) if j not in skip)

    def posed_joints(self):
        """Indices of joints with at least one child: the joints whose angles
        move some joint position (a leaf's angles move none)."""
        return tuple(sorted(set(self.parents[1:])))


def validate_skeleton(skel):
    J = len(skel.joint_names)
    if len(skel.parents) != J:
        raise ValueError(f"parents has {len(skel.parents)} entries for {J} joints")
    if skel.parents[0] != -1:
        raise ValueError(f"joint 0 must be the root, got parent {skel.parents[0]}")
    for j in range(1, J):
        p = skel.parents[j]
        if not 0 <= p < j:
            raise ValueError(
                f"joint {j} ({skel.joint_names[j]}) has parent {p}; "
                "parents must precede children")
    if skel.bone_dirs.shape != (J, 3):
        raise ValueError(f"bone_dirs shape {skel.bone_dirs.shape}, expected {(J, 3)}")
    if skel.bone_lengths.shape != (J,):
        raise ValueError(f"bone_lengths shape {skel.bone_lengths.shape}, expected {(J,)}")
    if np.any(skel.bone_lengths < 0):
        raise ValueError("negative bone length")
    norms = np.linalg.norm(skel.bone_dirs[1:], axis=1)
    if np.any(np.abs(norms - 1.0) > 1e-3):
        bad = 1 + int(np.argmax(np.abs(norms - 1.0)))
        raise ValueError(
            f"bone_dirs[{bad}] ({skel.joint_names[bad]}) has norm {norms[bad - 1]:.6f}, "
            "expected unit vectors")
    total = sum(s.mass_fraction for s in skel.segments)
    if abs(total - 1.0) > 1e-6:
        raise ValueError(f"segment mass fractions sum to {total:.8f}, expected 1")
    for s in skel.segments:
        for joint in (s.proximal, s.distal):
            if joint not in skel._name_to_id:
                raise ValueError(f"segment {s.name} references unknown joint {joint!r}")
    if skel.mass_total <= 0:
        raise ValueError(f"mass_total must be positive, got {skel.mass_total}")


def default_skeleton():
    return SkeletonModel()
