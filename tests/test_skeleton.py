from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from physmocap.core.skeleton import SkeletonModel


def test_replace_recomputes_leg_layout(skeleton):
    scaled = dataclasses.replace(skeleton, bone_lengths=1.3 * skeleton.bone_lengths)
    assert np.array_equal(scaled.bone_dirs, skeleton.bone_dirs)
    assert skeleton.l_leg[0] == pytest.approx(0.94, abs=1e-12)
    assert scaled.l_leg == pytest.approx([1.3 * l for l in skeleton.l_leg], abs=1e-12)
    assert scaled.l_foot == pytest.approx([1.3 * l for l in skeleton.l_foot], abs=1e-12)
    rest = scaled.rest_positions()
    toe, heel = scaled.foot_joint_ids[:2]
    assert scaled.l_foot[0] == np.linalg.norm(rest[toe] - rest[heel])
    with pytest.raises(ValueError, match="l_leg"):
        dataclasses.replace(skeleton, l_leg=1.0)


def test_foot_hip_ids_follow_the_tree(skeleton):
    hip = skeleton.joint_id
    assert skeleton.foot_hip_ids == (hip("left_hip"), hip("left_hip"),
                                     hip("right_hip"), hip("right_hip"))


def test_tables_describe_one_body():
    """What every skeleton relies on, checked once on the tables: parents
    come before children, each bone's rest direction is unit, the segment
    mass fractions sum to 1 over existing joints, and the body has mass."""
    names, parents, dirs = (SkeletonModel.joint_names, SkeletonModel.parents,
                            SkeletonModel.bone_dirs)
    assert len(names) == len(set(names)) == len(parents) == SkeletonModel.n_joints
    assert parents[0] == -1
    assert all(0 <= p < j for j, p in enumerate(parents[1:], 1))
    assert dirs.shape == (len(names), 3) and not dirs[0].any()
    assert np.abs(np.linalg.norm(dirs[1:], axis=1) - 1.0).max() <= 1e-15
    segments = SkeletonModel.segments
    assert sum(s.mass_fraction for s in segments) == pytest.approx(1.0, abs=1e-12)
    assert {j for s in segments for j in (s.proximal, s.distal)} <= set(names)
    assert SkeletonModel.mass_total > 0


def test_bone_lengths_are_all_a_skeleton_takes(skeleton):
    assert [f.name for f in dataclasses.fields(skeleton) if f.init] == ["bone_lengths"]
    for table in ("joint_names", "parents", "bone_dirs", "mass_total", "segments"):
        with pytest.raises(TypeError, match=table):
            dataclasses.replace(skeleton, **{table: getattr(skeleton, table)})
    for lengths in (skeleton.bone_lengths[:-1], np.append(skeleton.bone_lengths, 0.1)):
        with pytest.raises(ValueError, match="28 lengths >= 0"):
            dataclasses.replace(skeleton, bone_lengths=lengths)
    for bad in (-0.01, np.nan):
        lengths = skeleton.bone_lengths.copy()
        lengths[5] = bad
        with pytest.raises(ValueError, match="28 lengths >= 0"):
            dataclasses.replace(skeleton, bone_lengths=lengths)
    # every skeleton shares the one table, which no one can write
    scaled = dataclasses.replace(skeleton, bone_lengths=2.0 * skeleton.bone_lengths)
    assert scaled.bone_dirs is skeleton.bone_dirs
    with pytest.raises(ValueError, match="read-only"):
        scaled.bone_dirs[1, 0] = 1.0
