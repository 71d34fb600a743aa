import numpy as np
import pytest

from physmocap.contact.sequence import ContactSequence
from physmocap.core.kinematics import (GRAVITY, compute_com_inertia,
                                       fk_positions_rotations,
                                       forward_kinematics, segment_points,
                                       transform_motion)
from physmocap.core.skeleton import default_skeleton
from physmocap.core.types import FloorPlane, JointAngleMotion
from physmocap.metrics import (_com_forces, grf_metrics, plausibility_report,
                               positions_report)
from physmocap.synth.generate import generate
from physmocap.synth.scripts import MotionScript


@pytest.fixture(scope="module")
def stand_clip():
    return generate(MotionScript(name="s", kind="stand", duration=2.0), seed=11)


def _constant_motion(T=30, fps=30.0):
    skel = default_skeleton()
    root = np.tile([0.1, -0.9, 3.0], (T, 1))
    angles = np.zeros((T, skel.n_joints, 3))
    return JointAngleMotion(skel, fps, root, angles)


def _implied_grf(motion, floor):
    """The forces _report implies when it is given none."""
    pts, masses = segment_points(motion.skeleton, forward_kinematics(motion))
    return _com_forces(pts, masses, motion.fps, floor)


def test_implied_grf_stationary_is_body_weight():
    motion = _constant_motion()
    floor = FloorPlane(np.array([0.0, -1.0, 0.0]), np.array([0.0, 0.0, 3.0]))
    f = _implied_grf(motion, floor)
    mass = compute_com_inertia(motion).mass
    assert np.allclose(f, mass * GRAVITY * floor.normal, atol=1e-9)
    mean, peak, ballistic = grf_metrics(
        f, ContactSequence(30.0, np.ones((motion.n_frames, 4), dtype=bool)),
        mass)
    assert abs(mean - 100.0) < 1e-9 and abs(peak - 100.0) < 1e-9
    assert ballistic is None


def test_implied_grf_ballistic_arc_is_zero():
    motion = _constant_motion(T=20)
    floor = FloorPlane(np.array([0.0, -1.0, 0.0]), np.array([0.0, 0.0, 3.0]))
    t = np.arange(20) / 30.0
    g = -GRAVITY * floor.normal
    arc = 2.0 * t[:, None] * np.array([0.3, 0.0, 0.1]) + 0.5 * g * t[:, None] ** 2
    motion = motion.with_frames(motion.root_pos + arc, motion.joint_angles)
    f = _implied_grf(motion, floor)
    # second differences are exact on a quadratic, boundaries included
    assert np.abs(f).max() < 1e-8


def test_implied_grf_sinusoid_matches_analytic():
    motion = _constant_motion(T=90)
    up = np.array([0.0, -1.0, 0.0])
    floor = FloorPlane(up, np.array([0.0, 0.0, 3.0]))
    amp, omega = 0.05, 4.0
    t = np.arange(90) / 30.0
    lift = amp * np.sin(omega * t)
    motion = motion.with_frames(motion.root_pos + lift[:, None] * up,
                                motion.joint_angles)
    mass = compute_com_inertia(motion).mass
    f = _implied_grf(motion, floor)
    analytic = mass * (GRAVITY - amp * omega ** 2 * np.sin(omega * t))
    got = f @ up
    # interior frames: central differences are O(dt^2) accurate
    assert np.abs(got[1:-1] - analytic[1:-1]).max() < 0.02 * mass


def test_grf_metrics_hand_toy():
    mass = 50.0
    bw = mass * GRAVITY
    forces = np.array([[0.0, 0.0, bw], [0.0, 0.0, 0.0], [0.0, 0.0, 2 * bw]])
    labels = np.array([[1, 1, 1, 1], [0, 0, 0, 0], [1, 1, 0, 0]], dtype=bool)
    mean, peak, ballistic = grf_metrics(
        forces, ContactSequence(30.0, labels), mass)
    assert abs(mean - 100.0) < 1e-12
    assert abs(peak - 200.0) < 1e-12
    assert ballistic == 0.0


def _foot_percents(motion, floor, contacts):
    report = plausibility_report(motion, floor, contacts)
    return report.floating, report.penetration, report.skate


def _mpjpes(clip, pred):
    report = plausibility_report(pred, clip.floor, clip.contacts,
                                 gt_motion=clip.motion)
    return report.feet_mpjpe, report.body_mpjpe, report.body_align1_mpjpe


def test_foot_metrics_clean_stand_is_zero(stand_clip):
    floating, penetration, skate = _foot_percents(
        stand_clip.motion, stand_clip.floor, stand_clip.contacts)
    assert floating == 0.0
    assert penetration == 0.0
    assert skate == 0.0


def test_foot_metrics_counts_constructed_offsets(stand_clip):
    motion, floor, contacts = (stand_clip.motion, stand_clip.floor,
                               stand_clip.contacts)
    T = motion.n_frames
    assert contacts.labels.all()    # standing: every joint in contact

    # lift the whole body 5 cm for 10 frames: those frames float, and the
    # two boundary transitions (4 joints each) skate
    lift = np.zeros((T, 1))
    lift[20:30] = 0.05
    up = floor.normal
    lifted = motion.with_frames(motion.root_pos + lift * up,
                                motion.joint_angles)
    floating, penetration, skate = _foot_percents(lifted, floor, contacts)
    assert floating == pytest.approx(100.0 * 10 * 4 / (T * 4))
    assert penetration == 0.0
    assert skate == pytest.approx(100.0 * 2 * 4 / ((T - 1) * 4))

    sunk = motion.with_frames(motion.root_pos - lift * up,
                              motion.joint_angles)
    floating, penetration, _ = _foot_percents(sunk, floor, contacts)
    assert floating == 0.0
    assert penetration == pytest.approx(100.0 * 10 * 4 / (T * 4))


def test_positional_metrics_identity_and_offset(stand_clip):
    motion = stand_clip.motion
    feet, body, align1 = _mpjpes(stand_clip, motion)
    assert feet == 0.0 and body == 0.0 and align1 == 0.0

    d = np.array([0.02, -0.01, 0.03])
    shifted = motion.with_frames(motion.root_pos + d, motion.joint_angles)
    feet, body, align1 = _mpjpes(stand_clip, shifted)
    assert body == pytest.approx(np.linalg.norm(d) * 1000.0, rel=1e-9)
    assert feet == pytest.approx(np.linalg.norm(d) * 1000.0, rel=1e-9)
    assert align1 == pytest.approx(0.0, abs=1e-9)


def test_positional_metrics_match_brute_force(stand_clip):
    rng = np.random.default_rng(5)
    motion = stand_clip.motion
    other = motion.with_frames(
        motion.root_pos + rng.normal(0.0, 0.03, motion.root_pos.shape),
        motion.joint_angles + rng.normal(0.0, 0.05, motion.joint_angles.shape))
    feet, body, align1 = _mpjpes(stand_clip, other)

    pred, _ = fk_positions_rotations(other.skeleton, other.root_pos,
                                     other.joint_angles)
    gt, _ = fk_positions_rotations(motion.skeleton, motion.root_pos,
                                   motion.joint_angles)
    names = ("pelvis", "neck",
             "left_shoulder", "right_shoulder", "left_elbow", "right_elbow",
             "left_wrist", "right_wrist",
             "left_hip", "right_hip", "left_knee", "right_knee",
             "left_ankle", "right_ankle", "left_toe", "right_toe")
    ids = [motion.skeleton.joint_id(n) for n in names]
    total = 0.0
    for t in range(motion.n_frames):
        for j in ids:
            total += np.linalg.norm(pred[t, j] - gt[t, j])
    expect = total / (motion.n_frames * len(ids)) * 1000.0
    assert abs(body - expect) < 1e-9


def test_metrics_invariant_under_rigid_transform(stand_clip):
    motion, floor, contacts = (stand_clip.motion, stand_clip.floor,
                               stand_clip.contacts)
    ang = 0.7
    R = np.array([[np.cos(ang), -np.sin(ang), 0.0],
                  [np.sin(ang), np.cos(ang), 0.0],
                  [0.0, 0.0, 1.0]])
    t = np.array([0.4, -0.2, 1.1])
    moved = transform_motion(motion, R, t)
    moved_floor = floor.transformed(R, t)

    base = plausibility_report(motion, floor, contacts, gt_motion=motion)
    far = plausibility_report(moved, moved_floor, contacts, gt_motion=moved)
    for key in ("mean_grf", "max_grf", "floating", "penetration", "skate",
                "feet_mpjpe", "body_mpjpe"):
        assert getattr(base, key) == pytest.approx(getattr(far, key), abs=1e-6)


def test_report_serializes_missing_ballistic(stand_clip):
    report = plausibility_report(stand_clip.motion, stand_clip.floor,
                                 stand_clip.contacts)
    d = report.as_dict()
    assert d["ballistic_grf"] == "n/a"
    assert d["feet_mpjpe"] == "n/a"
    assert isinstance(d["mean_grf"], float)


def test_positions_report_of_fk_equals_motion_report(stand_clip):
    """The pose-input row and a motion's row are one computation: the
    report of a motion's FK positions is the motion's report, exactly."""
    rng = np.random.default_rng(9)
    motion, floor, contacts = (stand_clip.motion, stand_clip.floor,
                               stand_clip.contacts)
    pred = motion.with_frames(
        motion.root_pos + rng.normal(0.0, 0.02, motion.root_pos.shape),
        motion.joint_angles + rng.normal(0.0, 0.03, motion.joint_angles.shape))
    got = positions_report(forward_kinematics(pred), pred.skeleton, pred.fps,
                           floor, contacts, gt_motion=motion)
    want = plausibility_report(pred, floor, contacts, gt_motion=motion)
    assert got.as_dict() == want.as_dict()
