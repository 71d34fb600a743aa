from __future__ import annotations

import json

import numpy as np
import pytest

from physmocap.core import io
from physmocap.core.types import FloorPlane, PoseSequence

from conftest import random_motion


def _pose_sequence(rng, T=5, J=28):
    from physmocap.core.skeleton import JOINT_NAMES
    return PoseSequence(
        joint_names=JOINT_NAMES,
        fps=30.0,
        joints2d=rng.normal(960.0, 200.0, (T, J, 2)),
        conf=rng.uniform(0.0, 1.0, (T, J)),
        joints3d=rng.normal(0.0, 1.0, (T, J, 3)),
    )


def test_pose_sequence_round_trip_bit_exact(tmp_path, rng):
    seq = _pose_sequence(rng)
    path = tmp_path / "pose.json"
    io.save_pose_sequence(seq, path)
    back = io.load_pose_sequence(path)
    assert np.array_equal(back.joints2d, seq.joints2d)
    assert np.array_equal(back.conf, seq.conf)
    assert np.array_equal(back.joints3d, seq.joints3d)
    assert back.fps == seq.fps
    assert back.joint_names == seq.joint_names


def test_motion_round_trip_bit_exact(tmp_path, skeleton, rng):
    motion = random_motion(skeleton, rng, n_frames=4)
    path = tmp_path / "motion.json"
    io.save_motion(motion, path)
    back = io.load_motion(path)
    assert np.array_equal(back.root_pos, motion.root_pos)
    assert np.array_equal(back.joint_angles, motion.joint_angles)
    assert back.skeleton.joint_names == skeleton.joint_names
    assert np.array_equal(back.skeleton.bone_lengths, skeleton.bone_lengths)
    assert np.array_equal(back.skeleton.bone_dirs, skeleton.bone_dirs)
    assert back.skeleton.l_foot == skeleton.l_foot
    assert [s.name for s in back.skeleton.segments] == [s.name for s in skeleton.segments]


def test_motion_file_legacy_skeleton_keys_ignored(tmp_path, skeleton, rng):
    # older files also stored the derived leg layout; a stale value there
    # must not override what the bones give
    motion = random_motion(skeleton, rng, n_frames=2)
    path = tmp_path / "motion.json"
    io.save_motion(motion, path)
    raw = json.loads(path.read_text())
    assert not {"foot_joints", "hip_joints", "l_foot", "l_leg"} & set(raw["skeleton"])
    raw["skeleton"].update(foot_joints=["left_toe", "left_heel", "right_toe", "right_heel"],
                           hip_joints=["left_hip", "right_hip"], l_foot=0.2, l_leg=99.0)
    io.write_json(path, raw)
    back = io.load_motion(path).skeleton
    assert back.l_leg == skeleton.l_leg
    assert back.l_foot == skeleton.l_foot
    assert back.foot_hip_ids == skeleton.foot_hip_ids


def test_floor_round_trip(tmp_path):
    floor = FloorPlane(normal=[0.02, -0.99, 0.05], point=[0.0, 1.2, 4.0])
    path = tmp_path / "floor.json"
    io.save_floor(floor, path)
    back = io.load_floor(path)
    assert np.array_equal(back.normal, floor.normal)
    assert np.array_equal(back.point, floor.point)
    assert np.array_equal(back.tangents, floor.tangents)


def _frame_error(floor):
    F = np.vstack([floor.tangents, floor.normal])
    return np.abs(F @ F.T - np.eye(3)).max()


def test_floor_frame_is_orthonormal(rng):
    """The tangents derived from any normal, random or on either side of the
    switch of reference axis at |n.x| = 0.9, form an orthonormal frame with it."""
    normals = list(rng.normal(size=(2000, 3)) * rng.uniform(0.1, 10.0, (2000, 1)))
    for nx in 0.9 + np.array([-1e-9, -1e-15, 0.0, 1e-15, 1e-9]):
        for phi in np.linspace(0.0, 2 * np.pi, 7):
            rest = np.sqrt(1.0 - nx * nx)
            normals += [np.array([s * nx, rest * np.cos(phi), rest * np.sin(phi)])
                        for s in (1.0, -1.0)]
    for n in normals:
        assert _frame_error(FloorPlane(n, np.zeros(3))) <= 1e-15, n
    R = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    moved = FloorPlane([0.0, 0.0, 1.0], np.zeros(3)).transformed(R, np.ones(3))
    assert _frame_error(moved) <= 1e-15


def test_floor_file_tangents_ignored(tmp_path):
    """An older floor file's tangents, even ones off the plane, load as the
    frame the normal gives."""
    path = tmp_path / "floor.json"
    io.write_json(path, {"format_version": 1, "kind": "floor_plane",
                         "normal": [0.0, 0.0, 1.0], "point": [0.0, 0.0, 0.0],
                         "tangents": [[1.0, 0.0, 0.5], [0.0, 1.0, 0.0]]})
    back = io.load_floor(path)
    assert np.array_equal(back.tangents, FloorPlane([0.0, 0.0, 1.0], np.zeros(3)).tangents)
    assert _frame_error(back) <= 1e-15
    io.save_floor(back, path)
    assert "tangents" not in json.loads(path.read_text())


@pytest.mark.parametrize("field, value", [
    ("focal", 0.0), ("focal", float("nan")), ("image_size", [1920.0]),
    ("focal", None), ("fps", None), ("image_size", 1920), ("fps", "abc"),
], ids=["zero focal", "nan focal", "one image size", "null focal", "null fps",
        "scalar image size", "string fps"])
def test_bad_camera_rejected_on_load(tmp_path, rng, field, value):
    # a bad value is refused with an error that names its field, whatever
    # its type
    path = tmp_path / "pose.json"
    io.save_pose_sequence(_pose_sequence(rng), path)
    raw = json.loads(path.read_text())
    raw[field] = value
    io.write_json(path, raw)
    with pytest.raises(ValueError, match=field):
        io.load_pose_sequence(path)


@pytest.mark.parametrize("kind, field", [
    ("pose", "conf"), ("pose", "joint_names"), ("motion", "root_pos"),
])
def test_number_for_a_list_names_the_field(tmp_path, rng, skeleton, kind, field):
    # the frame count and the joint names are read from lists; a number there
    # is refused with an error that names the field, like any other bad value
    path = tmp_path / "file.json"
    if kind == "pose":
        io.save_pose_sequence(_pose_sequence(rng), path)
    else:
        io.save_motion(random_motion(skeleton, rng, n_frames=3), path)
    raw = json.loads(path.read_text())
    raw[field] = 3
    io.write_json(path, raw)
    load = io.load_pose_sequence if kind == "pose" else io.load_motion
    with pytest.raises(io.SchemaError, match=field):
        load(path)


def test_wrong_kind_rejected(tmp_path, rng):
    seq = _pose_sequence(rng)
    path = tmp_path / "pose.json"
    io.save_pose_sequence(seq, path)
    with pytest.raises(io.SchemaError, match="kind"):
        io.load_motion(path)


def test_missing_field_names_the_field(tmp_path):
    path = tmp_path / "floor.json"
    io.write_json(path, {"format_version": 1, "kind": "floor_plane",
                         "normal": [0.0, 0.0, 1.0]})
    with pytest.raises(io.SchemaError, match="point"):
        io.load_floor(path)


def test_bad_version_rejected(tmp_path):
    path = tmp_path / "floor.json"
    io.write_json(path, {"format_version": 99, "kind": "floor_plane"})
    with pytest.raises(io.SchemaError, match="format_version"):
        io.load_floor(path)


def test_non_finite_rejected_on_save(tmp_path, skeleton, rng):
    motion = random_motion(skeleton, rng, n_frames=3)
    motion.root_pos[1, 2] = np.nan
    with pytest.raises(io.SchemaError, match="root_pos"):
        io.save_motion(motion, tmp_path / "motion.json")


def test_non_finite_rejected_on_load(tmp_path):
    path = tmp_path / "floor.json"
    io.write_json(path, {"format_version": 1, "kind": "floor_plane",
                         "normal": [0.0, 0.0, 1.0], "point": [0.0, None, 0.0],
                         "tangents": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]})
    with pytest.raises((io.SchemaError, TypeError)):
        io.load_floor(path)


def test_syntax_error_reports_line(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format_version": 1,\n "kind": oops}\n')
    with pytest.raises(io.SchemaError, match="line 2"):
        io.load_floor(path)
