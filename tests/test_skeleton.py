from __future__ import annotations

import dataclasses

import numpy as np
import pytest


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
