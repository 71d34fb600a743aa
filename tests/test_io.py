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
