"""Tests for the synthetic clip generator."""
import numpy as np
import pytest

from physmocap.core.kinematics import compute_com_inertia, forward_kinematics
from physmocap.metrics import plausibility_report
from physmocap.synth.dataset import (classifier_suite, exact_suite, generate_suite,
                                     plausibility_suite, write_dataset)
from physmocap.synth.generate import generate
from physmocap.synth.profiles import (design_stance_accel, integrate_pwl_accel,
                                      sample_pwl_accel, swing_lift, swing_shift)
from physmocap.synth.rig import solve_leg, two_bone_ik
from physmocap.synth.scripts import MotionScript


def test_integrate_constant_accel_matches_closed_form():
    nodes = np.full(6, -9.8)
    v, z = integrate_pwl_accel(nodes, 0.1, v0=2.0, z0=1.0)
    t = 0.1 * np.arange(6)
    assert np.allclose(v, 2.0 - 9.8 * t, atol=1e-14)
    assert np.allclose(z, 1.0 + 2.0 * t - 4.9 * t**2, atol=1e-14)


def test_sample_pwl_accel_matches_node_values():
    rng = np.random.default_rng(7)
    nodes = rng.normal(size=9)
    t = 0.1 * np.arange(9)
    z, v, a = sample_pwl_accel(nodes, 0.1, t, v0=0.3, z0=-0.2)
    vn, zn = integrate_pwl_accel(nodes, 0.1, v0=0.3, z0=-0.2)
    assert np.allclose(a, nodes, atol=1e-13)
    assert np.allclose(v, vn, atol=1e-13)
    assert np.allclose(z, zn, atol=1e-13)


def test_design_stance_accel_hits_targets():
    dt = 0.1
    for n_seg, dv, dz in [(5, 1.96, 0.0), (6, 1.47, 0.0), (4, 0.5, -0.02)]:
        nodes = design_stance_accel(n_seg, dt, 0.0, -9.8, v_start=0.0, dv=dv, dz=dz)
        assert nodes[0] == pytest.approx(0.0, abs=1e-12)
        assert nodes[-1] == pytest.approx(-9.8, abs=1e-12)
        v, z = integrate_pwl_accel(nodes, dt, v0=0.0, z0=0.0)
        assert v[-1] == pytest.approx(dv, abs=1e-10)
        assert z[-1] == pytest.approx(dz, abs=1e-10)


def test_swing_curves_boundary_conditions():
    assert swing_shift(0.0) == pytest.approx(0.0, abs=1e-15)
    assert swing_shift(1.0) == pytest.approx(1.0, abs=1e-15)
    eps = 1e-6
    assert swing_shift(eps) / eps < 1e-4          # zero start velocity
    assert (1.0 - swing_shift(1.0 - eps)) / eps < 1e-4
    assert swing_lift(0.0) == pytest.approx(0.0, abs=1e-15)
    assert swing_lift(1.0) == pytest.approx(0.0, abs=1e-12)
    assert swing_lift(0.5) == pytest.approx(1.0)


def test_two_bone_ik_preserves_lengths(rng):
    hip = np.array([0.0, 0.09, 0.85])
    for _ in range(20):
        ankle = hip + np.array([rng.uniform(-0.3, 0.3), rng.uniform(-0.1, 0.1),
                                rng.uniform(-0.75, -0.45)])
        knee = two_bone_ik(hip, ankle, 0.40, 0.40)
        assert np.linalg.norm(knee - hip) == pytest.approx(0.40, abs=1e-12)
        assert np.linalg.norm(ankle - knee) == pytest.approx(0.40, abs=1e-12)
        assert knee[0] >= min(hip[0], ankle[0]) - 1e-9  # bends forward


def test_two_bone_ik_rejects_unreachable():
    with pytest.raises(ValueError, match="out of reach"):
        two_bone_ik(np.zeros(3), np.array([0.0, 0.0, -0.81]), 0.4, 0.4)


def test_two_bone_ik_batch_rejects_one_unreachable_frame():
    hip = np.zeros((5, 3))
    ankle = np.tile([0.05, 0.0, -0.7], (5, 1))
    ankle[3, 2] = -0.81
    with pytest.raises(ValueError, match="out of reach"):
        two_bone_ik(hip, ankle, 0.4, 0.4)


def test_solve_leg_batch_equals_single_frames(skeleton, rng):
    T = 40
    hip = np.array([0.0, 0.09, 0.83]) + rng.normal(0.0, 0.02, (T, 3))
    ankle = np.column_stack([rng.uniform(-0.3, 0.3, T), rng.uniform(0.0, 0.2, T),
                             rng.uniform(0.07, 0.3, T)])
    batch = solve_leg(skeleton, "left", hip, ankle)
    for t in range(T):
        single = solve_leg(skeleton, "left", hip[t], ankle[t])
        for b, s in zip(batch, single):
            assert np.array_equal(b[t], s)


def test_solve_leg_fk_roundtrip(skeleton):
    from physmocap.core.types import JointAngleMotion

    root = np.array([0.0, 0.0, 0.83])
    angles = np.zeros((1, skeleton.n_joints, 3))
    targets = {"left": np.array([0.12, 0.09, 0.11]),
               "right": np.array([-0.08, -0.09, 0.07])}
    for side in ("left", "right"):
        hip = root + np.array([0.0, 0.09 if side == "left" else -0.09, 0.0])
        hip_a, knee_a, ankle_a = solve_leg(skeleton, side, hip, targets[side])
        angles[0, skeleton.joint_id(f"{side}_hip")] = hip_a
        angles[0, skeleton.joint_id(f"{side}_knee")] = knee_a
        angles[0, skeleton.joint_id(f"{side}_ankle")] = ankle_a
    motion = JointAngleMotion(skeleton, 30.0, root[None], angles)
    pos = forward_kinematics(motion)[0]
    for side in ("left", "right"):
        ankle = pos[skeleton.joint_id(f"{side}_ankle")]
        assert np.allclose(ankle, targets[side], atol=1e-12)
        # flat foot: heel and toe at the same height, 0.07 below the ankle
        heel = pos[skeleton.joint_id(f"{side}_heel")]
        toe = pos[skeleton.joint_id(f"{side}_toe")]
        assert heel[2] == pytest.approx(ankle[2] - 0.07, abs=1e-12)
        assert toe[2] == pytest.approx(ankle[2] - 0.07, abs=1e-12)


def _hop_script(**overrides):
    params = dict(flight_time=0.3, push_time=0.5, land_time=0.5, tuck=0.25)
    params.update(overrides)
    return MotionScript("hop_t", "hop", duration=2.0, params=params, camera_yaw=0.7)


def test_hop_flight_is_exactly_ballistic():
    clip = generate(_hop_script(), seed=3)
    states = compute_com_inertia(clip.motion)
    fps = clip.motion.fps
    labels = clip.contacts.labels
    flight = ~labels.any(axis=1)
    assert flight.sum() == round(0.3 * fps)
    idx = np.flatnonzero(flight)
    g = -9.8 * clip.floor.normal
    # central second differences are exact on a parabola
    for f in idx[1:-1]:
        acc = (states.r[f - 1] - 2.0 * states.r[f] + states.r[f + 1]) * fps * fps
        assert np.linalg.norm(acc - g) < 1e-10


def test_hop_com_keeps_its_floor_tangent_coordinates():
    clip = generate(_hop_script(), seed=3)
    states = compute_com_inertia(clip.motion)
    n = clip.floor.normal
    tangent = states.r - np.outer(states.r @ n, n)
    assert np.ptp(tangent, axis=0).max() < 1e-12
    # the root never rotates: a constant orientation
    assert np.ptp(states.theta, axis=0).max() < 1e-12


def test_plausibility_hop_and_jump_gt_fly_without_contact_force():
    """The GT COM is ballistic in flight under the skeleton's own segment
    table, which kinfit and the physics targets also use."""
    scripts = plausibility_suite()
    clips = generate_suite(scripts, seed=0)
    for script, clip in zip(scripts, clips):
        if script.name in ("hop_n0", "jump_n0"):
            report = plausibility_report(clip.motion, clip.floor, clip.contacts)
            assert report.ballistic_grf < 1.0, script.name


def test_hop_contacts_match_design():
    clip = generate(_hop_script(), seed=5)
    labels = clip.contacts.labels
    assert np.all(labels.all(axis=1) | (~labels).all(axis=1))  # all four feet agree
    runs = clip.contacts.phases(0)
    kinds = [k for k, _ in runs]
    assert kinds == ["contact", "flight", "contact"]


def test_stance_feet_exactly_still_and_on_floor():
    clip = generate(_hop_script(), seed=11)
    pos = forward_kinematics(clip.motion)
    labels = clip.contacts.labels
    feet = clip.motion.skeleton.foot_joint_ids
    for k, j in enumerate(feet):
        pts = pos[:, j]
        heights = clip.floor.height(pts)
        contact = labels[:, k]
        assert np.abs(heights[contact]).max() < 1e-9
        steps = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        both = contact[1:] & contact[:-1]
        assert steps[both].max() < 1e-9


def test_exact_suite_builds_and_stays_reachable():
    clips = [generate(s, seed=50 + i) for i, s in enumerate(exact_suite())]
    assert len(clips) >= 10
    for clip in clips:
        assert clip.pose.joints3d[..., 2].min() > 1.0


def test_walk_stance_feet_pinned():
    script = MotionScript("walk_t", "walk", duration=3.0, camera_yaw=2.0)
    clip = generate(script, seed=8)
    pos = forward_kinematics(clip.motion)
    labels = clip.contacts.labels
    feet = clip.motion.skeleton.foot_joint_ids
    assert labels.any(axis=1).all()   # never fully airborne
    frac = labels.mean()
    assert 0.55 < frac < 0.85         # duty cycle plus slow swing edges
    for k, j in enumerate(feet):
        steps = np.linalg.norm(np.diff(pos[:, j], axis=0), axis=1)
        both = labels[1:, k] & labels[:-1, k]
        assert steps[both].max() < 0.02 + 1e-9


def test_walk_advances():
    script = MotionScript("walk_t", "walk", duration=3.0, camera_yaw=2.0)
    clip = generate(script, seed=8)
    # world displacement survives the rigid camera transform
    disp = np.linalg.norm(clip.motion.root_pos[-1] - clip.motion.root_pos[0])
    assert disp > 1.0


def test_dance_builds_and_keeps_support():
    script = MotionScript("dance_t", "dance", duration=3.6, camera_yaw=4.0)
    clip = generate(script, seed=9)
    labels = clip.contacts.labels
    assert labels.any(axis=1).all()
    assert (labels.all(axis=1)).mean() > 0.3   # generous double-support share


def test_every_suite_script_generates():
    # the longest dance steps must still keep each ankle target within reach
    for suite in (exact_suite, plausibility_suite, classifier_suite):
        for script in suite():
            clip = generate(script, seed=0)
            assert clip.contacts.n_frames == clip.pose.n_frames


def test_generate_deterministic_per_seed():
    script = MotionScript("walk_t", "walk", duration=2.0, pixel_noise=4.0,
                          depth_noise=0.015, conf_drop=0.05)
    a = generate(script, seed=21)
    b = generate(script, seed=21)
    c = generate(script, seed=22)
    assert np.array_equal(a.pose.joints2d, b.pose.joints2d)
    assert np.array_equal(a.pose.conf, b.pose.conf)
    assert np.array_equal(a.motion.root_pos, b.motion.root_pos)
    assert not np.array_equal(a.pose.joints2d, c.pose.joints2d)


def test_noise_free_pose_matches_fk():
    clip = generate(_hop_script(), seed=3)
    pos = forward_kinematics(clip.motion)
    assert np.array_equal(clip.pose.joints3d, pos)
    spine = [clip.motion.skeleton.joint_id(n)
             for n in ("spine_lower", "spine_middle", "spine_upper")]
    assert np.all(clip.pose.conf[:, spine] == 0.8)


def test_noisy_pose_perturbs_observations():
    script = MotionScript("walk_t", "walk", duration=2.0, pixel_noise=4.0,
                          depth_noise=0.015, conf_drop=0.05)
    clip = generate(script, seed=21)
    pos = forward_kinematics(clip.motion)
    err3d = np.linalg.norm(clip.pose.joints3d - pos, axis=-1)
    assert 0.005 < np.median(err3d) < 0.08
    assert (clip.pose.conf < 0.3).mean() > 0.01


def test_write_dataset_roundtrip(tmp_path):
    import json

    from physmocap.contact.sequence import load_contacts
    from physmocap.core import io as core_io

    clip = generate(_hop_script(), seed=3)
    manifest = write_dataset([clip], tmp_path)
    meta = json.loads(manifest.read_text())
    assert meta["clips"][0]["name"] == clip.name
    entry = meta["clips"][0]
    pose = core_io.load_pose_sequence(tmp_path / entry["pose"])
    assert np.array_equal(pose.joints2d, clip.pose.joints2d)
    contacts = load_contacts(tmp_path / entry["contacts"])
    assert np.array_equal(contacts.labels, clip.contacts.labels)
    motion = core_io.load_motion(tmp_path / entry["motion"])
    assert np.array_equal(motion.root_pos, clip.motion.root_pos)


def test_bad_script_params_rejected():
    with pytest.raises(ValueError, match="unknown params"):
        generate(MotionScript("x", "walk", params=dict(strid=0.5)))
    with pytest.raises(ValueError, match="unknown script kind"):
        MotionScript("x", "sprint")
    # script files from before the single mass model still name the field
    with pytest.raises(ValueError, match="unknown MotionScript fields"):
        MotionScript.from_json(dict(name="x", kind="hop", mass_override="upper_body"))
