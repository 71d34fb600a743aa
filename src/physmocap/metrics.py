"""Plausibility and positional metrics for recovered motions.

Every report is computed from per-frame joint positions through one path;
a joint-angle motion reaches it through forward kinematics, the noisy pose
input directly. Ground-reaction forces are those of a physics trajectory
when given, and otherwise implied by twice differencing the segment-model
COM; they are reported as a percentage of the idle body-weight force. Foot
metrics count frames where a foot floats, penetrates the floor, or skates
during ground-truth contact. Positional metrics are global mean per-joint
errors in millimetres against the ground-truth motion's FK, with an extra
variant that aligns the root of the first frame only.
"""
from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .core.kinematics import GRAVITY, forward_kinematics, segment_points

FLOAT_THRESHOLD = 0.03        # m above the floor while labelled in contact
PENETRATION_THRESHOLD = 0.03  # m below the floor, any frame
SKATE_THRESHOLD = 0.02        # m moved between consecutive contact frames

BODY_EVAL_JOINTS = (
    "pelvis", "neck",
    "left_shoulder", "right_shoulder", "left_elbow", "right_elbow",
    "left_wrist", "right_wrist",
    "left_hip", "right_hip", "left_knee", "right_knee",
    "left_ankle", "right_ankle", "left_toe", "right_toe",
)
FEET_EVAL_JOINTS = ("left_ankle", "right_ankle", "left_toe", "right_toe")


@dataclass
class PlausibilityReport:
    """Table-2/3 style summary. GRF values in percent of idle body weight,
    foot metrics in percent of their frame counts, positions in mm."""
    mean_grf: float
    max_grf: float
    ballistic_grf: float | None   # None when the clip has no flight frames
    floating: float
    penetration: float
    skate: float
    feet_mpjpe: float | None = None
    body_mpjpe: float | None = None
    body_align1_mpjpe: float | None = None

    def as_dict(self):
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        return {k: "n/a" if v is None else float(v) for k, v in values.items()}


def _central_second_difference(track, fps):
    """Second time derivative, one-sided at the ends. T x 3."""
    acc = np.empty_like(track)
    acc[1:-1] = track[2:] - 2.0 * track[1:-1] + track[:-2]
    acc[0] = track[0] - 2.0 * track[1] + track[2]
    acc[-1] = track[-1] - 2.0 * track[-2] + track[-3]
    return acc * fps * fps


def _com_forces(pts, masses, fps, floor):
    """Net contact force m (r'' - g) implied by the segment-model COM, T x 3.

    pts, masses: segment_points of the joint positions; m is their total.
    r'' comes from second differences, and gravity points against the floor
    normal.
    """
    if len(pts) < 3:
        raise ValueError("need at least 3 frames to difference the COM")
    mass = masses.sum()
    com = np.einsum("s,tsd->td", masses, pts) / mass
    return mass * (_central_second_difference(com, fps) + GRAVITY * floor.normal)


def implied_grf(traj):
    """Per-frame net contact force of a physics trajectory, T x 3.

    The trajectory carries its contact forces, so they are summed directly
    at the frame grid.
    """
    fps = traj.layout.fps
    times = np.arange(round(traj.layout.total * fps)) / fps
    return traj.sample(times)["forces"].sum(axis=1)


def grf_metrics(forces, contacts_gt, mass):
    """(mean, max, ballistic) force magnitude in percent of idle body weight.

    Ballistic is the median over frames whose ground-truth labels have no
    foot in contact; it is None when the clip never leaves the ground.
    """
    percent = np.linalg.norm(forces, axis=1) / (mass * GRAVITY) * 100.0
    flight = ~contacts_gt.labels.any(axis=1)
    ballistic = float(np.median(percent[flight])) if flight.any() else None
    return float(percent.mean()), float(percent.max()), ballistic


def _foot_counts(positions, skeleton, floor, labels):
    """(floating, penetration, skate) fractions of the four foot joints.

    Floating: > 3 cm above the floor while labelled in contact. Penetration:
    > 3 cm below the floor at any frame. Skate: moved > 2 cm from the
    previous frame while both frames are labelled in contact.
    """
    feet = positions[:, list(skeleton.foot_joint_ids)]          # T x 4 x 3
    height = feet @ floor.normal - floor.normal @ floor.point
    n_contact = labels.sum()
    floating = float((labels & (height > FLOAT_THRESHOLD)).sum()
                     / max(n_contact, 1))
    penetration = float((height < -PENETRATION_THRESHOLD).mean())
    move = np.linalg.norm(feet[1:] - feet[:-1], axis=2)
    pair = labels[1:] & labels[:-1]
    skate = float((pair & (move > SKATE_THRESHOLD)).sum() / max(pair.sum(), 1))
    return floating, penetration, skate


def _mpjpe(positions, skeleton, gt):
    """(feet, body, body_align1) mean per-joint errors in mm against the FK
    of the motion gt. body_align1 first shifts every frame by the frame-0
    root (joint 0) offset."""
    gt_pos = forward_kinematics(gt)

    def mpjpe(pos, names):
        ids = [skeleton.joint_id(n) for n in names]
        ids_gt = [gt.skeleton.joint_id(n) for n in names]
        err = np.linalg.norm(pos[:, ids] - gt_pos[:, ids_gt], axis=2)
        return float(err.mean() * 1000.0)

    shift = positions[0, 0] - gt_pos[0, 0]
    return (mpjpe(positions, FEET_EVAL_JOINTS), mpjpe(positions, BODY_EVAL_JOINTS),
            mpjpe(positions - shift, BODY_EVAL_JOINTS))


def _report(positions, skeleton, fps, floor, contacts_gt, forces, gt_motion):
    """PlausibilityReport of per-frame joint positions, T x J x 3."""
    pts, masses = segment_points(skeleton, positions)
    mass = float(masses.sum())
    if forces is None:
        forces = _com_forces(pts, masses, fps, floor)
    mean, peak, ballistic = grf_metrics(forces, contacts_gt, mass)
    floating, penetration, skate = _foot_counts(positions, skeleton, floor,
                                                contacts_gt.labels)
    report = PlausibilityReport(
        mean_grf=mean, max_grf=peak, ballistic_grf=ballistic,
        floating=100.0 * floating, penetration=100.0 * penetration,
        skate=100.0 * skate)
    if gt_motion is not None:
        (report.feet_mpjpe, report.body_mpjpe,
         report.body_align1_mpjpe) = _mpjpe(positions, skeleton, gt_motion)
    return report


def plausibility_report(motion, floor, contacts_gt, forces=None, gt_motion=None):
    """Assemble the full report for one motion.

    forces: per-frame net contact force from the physics stage; when None
    they are implied from the motion's COM (the right choice for raw inputs
    and kinematic-only results).
    """
    return _report(forward_kinematics(motion), motion.skeleton, motion.fps,
                   floor, contacts_gt, forces, gt_motion)


def positions_report(positions, skeleton, fps, floor, contacts_gt,
                     gt_motion=None):
    """Report for raw per-frame joint positions (the noisy pose input),
    with forces implied from their segment-model COM."""
    return _report(np.asarray(positions, dtype=float), skeleton, fps, floor,
                   contacts_gt, None, gt_motion)
