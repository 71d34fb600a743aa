"""Versioned JSON file formats for poses, motions and floors.

Every file carries {"format_version": 1, "kind": "<schema name>"}. Floats are
written with Python's shortest round-trip repr, so save/load is bit-exact for
finite values; non-finite values are rejected on both sides. Contact files
live next to their type (contact.sequence) and reuse the helpers here.

Files hold only what their type cannot derive, and keys of older files
that held derived values are ignored on load: the leg-layout keys of a
motion's skeleton block (foot_joints, hip_joints, l_foot, l_leg), a
floor's tangents, which FloorPlane derives from its normal, and a contact
file's phases, which ContactSequence derives from its labels, and
joint_names, the constant CONTACT_JOINT_NAMES.
"""
from __future__ import annotations

import json

import numpy as np

from .skeleton import MassSegment, SkeletonModel
from .types import FloorPlane, PoseSequence, JointAngleMotion

FORMAT_VERSION = 1


class SchemaError(ValueError):
    """Raised when a file does not match its documented schema."""


def check_finite(arr, field):
    arr = np.asarray(arr, dtype=float)
    if not np.all(np.isfinite(arr)):
        bad = np.argwhere(~np.isfinite(arr))[0].tolist()
        raise SchemaError(f"non-finite value in {field} at index {tuple(bad)}")
    return arr


def write_json(path, payload):
    # json.dumps runs the C encoder (json.dump never does); the "\n" is written, not appended
    with open(path, "w") as f:
        f.write(json.dumps(payload))
        f.write("\n")


def read_json(path, kind):
    with open(path) as f:
        try:
            raw = json.load(f)
        except json.JSONDecodeError as e:
            raise SchemaError(f"{path}: invalid JSON at line {e.lineno}: {e.msg}") from e
    if not isinstance(raw, dict):
        raise SchemaError(f"{path}: top level must be an object")
    got_kind = raw.get("kind")
    if got_kind != kind:
        raise SchemaError(f"{path}: kind is {got_kind!r}, expected {kind!r}")
    version = raw.get("format_version")
    if version != FORMAT_VERSION:
        raise SchemaError(
            f"{path}: format_version {version!r} not supported (expected {FORMAT_VERSION})")
    return raw


def need(raw, field, path="", kind=object):
    where = f"{path}.{field}" if path else field
    if field not in raw:
        raise SchemaError(f"missing field {where!r}")
    if not isinstance(raw[field], kind):
        raise SchemaError(f"{where}: {type(raw[field]).__name__}, expected {kind.__name__}")
    return raw[field]


def numbers(raw, field, shape=None, path=""):
    """The field as a finite float array, of the given shape if one is given;
    a value that is not that raises a SchemaError naming the field."""
    where = f"{path}.{field}" if path else field
    try:
        arr = np.asarray(need(raw, field, path), dtype=float)
    except (TypeError, ValueError) as e:
        raise SchemaError(f"{where}: not numbers ({e})") from e
    if shape is not None and arr.shape != tuple(shape):
        raise SchemaError(f"{where}: shape {arr.shape}, expected {tuple(shape)}")
    return check_finite(arr, where)


def save_pose_sequence(seq, path):
    check_finite(seq.joints2d, "joints2d")
    check_finite(seq.conf, "conf")
    check_finite(seq.joints3d, "joints3d")
    write_json(path, {
        "format_version": FORMAT_VERSION,
        "kind": "pose_sequence",
        "fps": seq.fps,
        "focal": seq.focal,
        "image_size": list(seq.image_size),
        "joint_names": list(seq.joint_names),
        "joints2d": seq.joints2d.tolist(),
        "conf": seq.conf.tolist(),
        "joints3d": seq.joints3d.tolist(),
    })


def load_pose_sequence(path):
    raw = read_json(path, "pose_sequence")
    names = tuple(need(raw, "joint_names", kind=list))
    T = len(need(raw, "conf", kind=list))
    J = len(names)
    return PoseSequence(
        joint_names=names,
        fps=float(numbers(raw, "fps", ())),
        joints2d=numbers(raw, "joints2d", (T, J, 2)),
        conf=numbers(raw, "conf", (T, J)),
        joints3d=numbers(raw, "joints3d", (T, J, 3)),
        focal=float(numbers(raw, "focal", ())),
        image_size=tuple(numbers(raw, "image_size", (2,)).tolist()),
    )


def _skeleton_payload(skel):
    return {
        "joint_names": list(skel.joint_names),
        "parents": list(skel.parents),
        "bone_dirs": skel.bone_dirs.tolist(),
        "bone_lengths": skel.bone_lengths.tolist(),
        "mass_total": skel.mass_total,
        "segments": [
            {"name": s.name, "mass_fraction": s.mass_fraction, "proximal": s.proximal,
             "distal": s.distal, "com_ratio": s.com_ratio}
            for s in skel.segments
        ],
    }


def _skeleton_from_payload(raw, path="skeleton"):
    names = tuple(need(raw, "joint_names", path, list))
    J = len(names)
    segs = tuple(
        MassSegment(need(s, "name", f"{path}.segments[{i}]"),
                    float(numbers(s, "mass_fraction", (), f"{path}.segments[{i}]")),
                    need(s, "proximal", f"{path}.segments[{i}]"),
                    need(s, "distal", f"{path}.segments[{i}]"),
                    float(numbers(s, "com_ratio", (), f"{path}.segments[{i}]")))
        for i, s in enumerate(need(raw, "segments", path, list))
    )
    return SkeletonModel(
        joint_names=names,
        parents=tuple(int(p) for p in numbers(raw, "parents", (J,), path)),
        bone_dirs=numbers(raw, "bone_dirs", (J, 3), path),
        bone_lengths=numbers(raw, "bone_lengths", (J,), path),
        mass_total=float(numbers(raw, "mass_total", (), path)),
        segments=segs,
    )


def save_motion(motion, path):
    check_finite(motion.root_pos, "root_pos")
    check_finite(motion.joint_angles, "joint_angles")
    write_json(path, {
        "format_version": FORMAT_VERSION,
        "kind": "motion",
        "fps": motion.fps,
        "skeleton": _skeleton_payload(motion.skeleton),
        "root_pos": motion.root_pos.tolist(),
        "joint_angles": motion.joint_angles.tolist(),
    })


def load_motion(path):
    raw = read_json(path, "motion")
    skel = _skeleton_from_payload(need(raw, "skeleton"))
    T = len(need(raw, "root_pos", kind=list))
    return JointAngleMotion(
        skeleton=skel,
        fps=float(numbers(raw, "fps", ())),
        root_pos=numbers(raw, "root_pos", (T, 3)),
        joint_angles=numbers(raw, "joint_angles", (T, skel.n_joints, 3)),
    )


def save_floor(floor, path):
    write_json(path, {
        "format_version": FORMAT_VERSION,
        "kind": "floor_plane",
        "normal": check_finite(floor.normal, "normal").tolist(),
        "point": check_finite(floor.point, "point").tolist(),
    })


def load_floor(path):
    raw = read_json(path, "floor_plane")
    return FloorPlane(
        normal=numbers(raw, "normal", (3,)),
        point=numbers(raw, "point", (3,)),
    )
