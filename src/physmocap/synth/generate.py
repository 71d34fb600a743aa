"""Closed-form synthetic clips: scripted motions, camera simulation, noise.

World frame is z-up with the floor at z = 0; everything the caller sees is
already transformed into the camera frame (x right, y down, z forward).

The vertical scripts (stand / hop / jump) are exactly feasible for the
centroidal physics stage under the skeleton's own segment table: the planned
COM's vertical acceleration is piecewise linear on the physics knot grid and
exactly -g from liftoff to touchdown, an exact parabola, and the unrotated
root moves to keep the posed body's COM on that plan as the legs bend and tuck.

Each script builder returns the root track, the upper body's joint angles and
both ankle tracks (T x 3 per side); `generate` then poses both legs of every
frame with one `solve_leg` call per side. The hips' offsets from the root, in
the builders and in that call, are the skeleton's rest positions.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..contact.heuristic import heuristic_label
from ..core.kinematics import (GRAVITY, forward_kinematics, fk_positions_rotations,
                               project_perspective, segment_points, transform_motion)
from ..core.skeleton import SPINE_JOINTS, default_skeleton
from ..core.types import FloorPlane, JointAngleMotion, PoseSequence
from ..physopt.trajectory import COM_KNOT_DT
from .profiles import design_stance_accel, sample_pwl_accel, swing_lift, swing_shift
from .rig import ANKLE_DROP, arms_down_angles, solve_leg, two_bone_ik
from .scripts import MotionScript

MAX_LEG_EXTENSION = 0.999   # largest dance hip-ankle distance, in leg lengths
_ROOT_TOL = 1e-14           # m: the COM root solve stops once no root moves more


@dataclass(frozen=True)
class GeneratedClip:
    """One synthetic clip: ground truth, noisy observations, and the floor."""
    script: MotionScript
    seed: int
    motion: JointAngleMotion     # camera frame
    pose: PoseSequence           # noisy detections + 3D estimate, camera frame
    contacts: object             # ContactSequence from the clean motion
    floor: FloorPlane            # camera frame

    @property
    def name(self):
        return f"{self.script.name}_s{self.seed}"


def _grid_count(value, name):
    n = round(value / COM_KNOT_DT)
    if n < 1 or abs(value - n * COM_KNOT_DT) > 1e-9:
        raise ValueError(
            f"{name} must be a positive multiple of {COM_KNOT_DT} s, got {value}")
    return n


def _script_params(script, defaults):
    unknown = set(script.params) - set(defaults)
    if unknown:
        raise ValueError(
            f"unknown params for '{script.kind}' script: {sorted(unknown)}")
    merged = dict(defaults)
    merged.update(script.params)
    return merged


def _pose_legs(skeleton, hips, root_pos, angles, ankles):
    """Set both legs' angles in place, one solve_leg call per side."""
    for side, hip in hips.items():
        legs = [skeleton.joint_id(f"{side}_{j}") for j in ("hip", "knee", "ankle")]
        angles[:, legs] = np.stack(
            solve_leg(skeleton, side, root_pos + hip, ankles[side]), axis=1)


def _root_under_com_plan(skeleton, hips, plan, angles, ankles):
    """Root track keeping the COM (the skeleton's own segment table) at plan +
    frame 0's offset: root = plan + (off[0] - off(root)), off being the COM's
    offset from the root, until no root moves more than _ROOT_TOL. The root
    carries the joints above the knees, the feet keep their targets and
    two-bone IK re-places the knees; frames posed as frame 0 keep root = plan."""
    posed = angles.copy()
    _pose_legs(skeleton, hips, plan, posed, ankles)
    pos, _ = fk_positions_rotations(skeleton, plan, posed)
    pts, masses = segment_points(skeleton, np.eye(skeleton.n_joints)[..., None])
    w = pts[..., 0] @ masses / masses.sum()     # each joint's share of the COM
    carried = np.ones(skeleton.n_joints, dtype=bool)
    for j, parent in enumerate(skeleton.parents[1:], 1):    # parents come first
        carried[j] = carried[parent] and parent not in skeleton.foot_hip_ids
    legs = {s: [skeleton.joint_id(f"{s}_{j}") for j in ("knee", "ankle")] for s in hips}
    pos[:, [knee for knee, _ in legs.values()]] = 0.0   # added in each pass
    fixed = (pos * w[:, None]).sum(axis=1) - w[carried].sum() * plan
    root = plan
    while True:
        off = fixed + (w[carried].sum() - 1.0) * root
        for side, (knee, ankle) in legs.items():
            off = off + w[knee] * two_bone_ik(root + hips[side], ankles[side],
                                              *skeleton.bone_lengths[[knee, ankle]])
        new = plan + (off[0] - off)
        if np.abs(new - root).max() <= _ROOT_TOL:
            return new
        root = new


def _build_vertical(script, skeleton, hips):
    """stand / hop / jump: still stance, optional crouch-push-flight-land COM arc."""
    p = _script_params(script, dict(
        root_height=0.82, flight_time=0.0, push_time=0.5, land_time=0.5,
        lead_pad=0.3, tuck=0.25))
    fps = script.fps
    if abs(COM_KNOT_DT * fps - round(COM_KNOT_DT * fps)) > 1e-9:
        raise ValueError(f"fps {fps} does not align with the {COM_KNOT_DT} s node grid")
    n_seg = _grid_count(script.duration, "duration")
    T = round(script.duration * fps)

    nodes = np.zeros(n_seg + 1)
    lift = np.zeros(T)
    expected = np.ones((T, 4), dtype=bool)
    if p["flight_time"] > 0:
        i0 = _grid_count(p["lead_pad"], "lead_pad")   # the push's first node
        n_push = _grid_count(p["push_time"], "push_time")
        n_fl = _grid_count(p["flight_time"], "flight_time")
        n_land = _grid_count(p["land_time"], "land_time")
        if i0 + n_push + n_fl + n_land > n_seg - 2:
            raise ValueError(
                "script phases leave less than 0.2 s of still tail: "
                f"{(i0 + n_push + n_fl + n_land) * COM_KNOT_DT} s of "
                f"{script.duration} s used")
        # design_stance_accel keeps stance accelerations >= -g: no pulling force
        v1 = 0.5 * GRAVITY * p["flight_time"]
        nodes[i0:i0 + n_push + 1] = design_stance_accel(
            n_push, COM_KNOT_DT, 0.0, -GRAVITY, v_start=0.0, dv=v1, dz=0.0)
        nodes[i0 + n_push:i0 + n_push + n_fl + 1] = -GRAVITY
        nodes[i0 + n_push + n_fl:i0 + n_push + n_fl + n_land + 1] = design_stance_accel(
            n_land, COM_KNOT_DT, -GRAVITY, 0.0, v_start=-v1, dv=v1, dz=0.0)
        f1 = round((p["lead_pad"] + p["push_time"]) * fps)
        f2 = f1 + round(p["flight_time"] * fps)
        inner = np.arange(f1 + 1, f2)
        lift[inner] = p["tuck"] * swing_lift((inner - f1) / (f2 - f1))
        # the heuristic's backward displacement test marks the touchdown frame
        # as moving, so the expected flight run ends at f2 inclusive
        expected[f1 + 1:f2 + 1] = False

    times = np.arange(T) / fps
    z, _, _ = sample_pwl_accel(nodes, COM_KNOT_DT, times, v0=0.0, z0=p["root_height"])
    ankles = {side: np.column_stack([np.broadcast_to(hip[:2], (T, 2)), ANKLE_DROP + lift])
              for side, hip in hips.items()}
    angles = arms_down_angles(skeleton, T)
    plan = np.column_stack([np.zeros((T, 2)), z])
    return _root_under_com_plan(skeleton, hips, plan, angles, ankles), angles, ankles, expected


def _build_walk(script, skeleton, hips):
    """Steady-state gait along +x with a 60% duty cycle."""
    p = _script_params(script, dict(
        cycle_time=1.0, stride=0.55, root_height=0.83, bob=0.015, sway=0.04,
        step_lift=0.05, arm_swing=0.35, duty=0.6))
    fps = script.fps
    C = 2 * round(p["cycle_time"] * fps / 2)
    if C < 12:
        raise ValueError(f"cycle_time {p['cycle_time']} too short at {fps} fps")
    n_st = round(p["duty"] * C)
    n_sw = C - n_st
    T = round(script.duration * fps)
    S = p["stride"]
    speed = S * fps / C

    frames = np.arange(T)
    root_pos = np.empty((T, 3))
    root_pos[:, 0] = speed * frames / fps - 0.25 * S
    root_pos[:, 1] = p["sway"] * np.sin(2.0 * np.pi * frames / C - 0.1 * np.pi)
    root_pos[:, 2] = p["root_height"] - p["bob"] * np.cos(4.0 * np.pi * frames / C)

    def ankle_path(side, offset, anchor_shift):
        g = frames + offset
        k = g // C
        c = g % C
        x = (k - anchor_shift) * S
        zl = np.full(T, ANKLE_DROP)
        swing = c >= n_st
        tau = (c[swing] - n_st) / n_sw
        x = x.astype(float)
        x[swing] += S * swing_shift(tau)
        zl[swing] += p["step_lift"] * swing_lift(tau)
        return np.column_stack([x, np.full(T, hips[side][1]), zl])

    ankles = {"left": ankle_path("left", 0, 0.0),
              "right": ankle_path("right", C // 2, 0.5)}

    angles = arms_down_angles(skeleton, T)
    swing_arm = p["arm_swing"] * np.sin(2.0 * np.pi * frames / C - 1.1 * np.pi)
    ls = skeleton.joint_id("left_shoulder")
    rs = skeleton.joint_id("right_shoulder")
    angles[:, ls, 1] = swing_arm
    angles[:, rs, 1] = -swing_arm
    angles[:, skeleton.joint_id("left_elbow"), 2] = -0.25
    angles[:, skeleton.joint_id("right_elbow"), 2] = 0.25
    return root_pos, angles, ankles, None


def _build_dance(script, skeleton, hips):
    """Box-step pattern: slow weight shifts, one foot moving at a time."""
    p = _script_params(script, dict(
        step_len=0.15, side=0.12, root_height=0.82, bob=0.012, step_lift=0.06,
        swing_time=0.27, pause_time=0.6))
    fps = script.fps
    n_sw = max(4, round(p["swing_time"] * fps))
    n_p = max(4, round(p["pause_time"] * fps))
    move = n_sw + n_p
    T = round(script.duration * fps)

    base_l, base_r = hips["left"][:2], hips["right"][:2]
    fwd_l = base_l + [p["step_len"], p["side"]]
    fwd_r = base_r + [p["step_len"], -p["side"]]
    # box step: one foot moves per quarter cycle, the other stands still
    moves = [("left", base_l, fwd_l), ("right", base_r, fwd_r),
             ("left", fwd_l, base_l), ("right", fwd_r, base_r)]
    still_pos = [base_r, fwd_l, fwd_r, base_l]

    def support_anchor(xy):
        # root target while balancing on one foot: over the sole, biased inward
        return np.array([xy[0] + 0.04, 0.7 * xy[1]])

    anchors = [support_anchor(q) for q in still_pos]

    foot_xy = {"left": np.empty((T, 2)), "right": np.empty((T, 2))}
    foot_lift = {"left": np.zeros(T), "right": np.zeros(T)}
    root_xy = np.empty((T, 2))

    for f in range(T):
        m = (f // move) % 4
        c = f % move
        swing_foot, start, end = moves[m]
        other = "right" if swing_foot == "left" else "left"
        if c < n_sw:
            tau = c / n_sw
            foot_xy[swing_foot][f] = start + (end - start) * swing_shift(tau)
            foot_lift[swing_foot][f] = p["step_lift"] * swing_lift(tau)
            root_xy[f] = anchors[m]
        else:
            foot_xy[swing_foot][f] = end
            # pause: ease the weight toward the next move's support foot
            tau = (c - n_sw) / n_p
            root_xy[f] = anchors[m] + (anchors[(m + 1) % 4] - anchors[m]) * swing_shift(tau)
        foot_xy[other][f] = still_pos[m]

    root_pos = np.empty((T, 3))
    root_pos[:, :2] = root_xy
    dips = foot_lift["left"] + foot_lift["right"]
    root_pos[:, 2] = p["root_height"] - p["bob"] * dips / max(p["step_lift"], 1e-9)
    # long steps would straighten a leg past its reach: lower the root there,
    # easing in and out over a swing time (no change where both legs reach)
    need = np.zeros(T)
    for side, hip in hips.items():
        leg = [skeleton.joint_id(f"{side}_{j}") for j in ("knee", "ankle")]
        reach = MAX_LEG_EXTENSION * skeleton.bone_lengths[leg].sum()
        flat = np.linalg.norm(foot_xy[side] - root_xy - hip[:2], axis=1)
        height = np.sqrt(np.maximum(reach ** 2 - flat ** 2, 0.0))
        need = np.maximum(need, root_pos[:, 2] - ANKLE_DROP - foot_lift[side] - height)
    k = np.arange(-n_sw, n_sw + 1)
    window = np.pad(need, n_sw)[np.arange(T)[:, None] + k + n_sw]
    root_pos[:, 2] -= (window * np.cos(0.5 * np.pi * k / (n_sw + 1)) ** 2).max(axis=1)

    ankles = {side: np.column_stack([foot_xy[side], ANKLE_DROP + foot_lift[side]])
              for side in ("left", "right")}
    return root_pos, arms_down_angles(skeleton, T), ankles, None


_BUILDERS = {
    "stand": _build_vertical,
    "hop": _build_vertical,
    "jump": _build_vertical,
    "walk": _build_walk,
    "dance": _build_dance,
}


def _camera_pose(script, target, rng):
    yaw = script.camera_yaw
    if yaw is None:
        yaw = rng.uniform(0.0, 2.0 * np.pi)
    cam = target + script.camera_distance * np.array([np.cos(yaw), np.sin(yaw), 0.0])
    cam[2] = script.camera_height
    fwd = target - cam
    fwd = fwd / np.linalg.norm(fwd)
    up = np.array([0.0, 0.0, 1.0])
    x = np.cross(fwd, up)
    x = x / np.linalg.norm(x)
    y = np.cross(fwd, x)
    R = np.stack([x, y, fwd])
    return R, -R @ cam


def generate(script, seed=0):
    """Build one clip on the default skeleton. Deterministic in (script, seed)."""
    skel = default_skeleton()
    rng = np.random.default_rng(seed)

    rest = skel.rest_positions()   # root at the origin: the hips' root offsets
    hips = {side: rest[skel.joint_id(f"{side}_hip")] for side in ("left", "right")}
    root_pos, angles, ankles, expected = _BUILDERS[script.kind](script, skel, hips)
    _pose_legs(skel, hips, root_pos, angles, ankles)
    motion_world = JointAngleMotion(skel, script.fps, root_pos, angles)
    floor_world = FloorPlane(np.array([0.0, 0.0, 1.0]), np.zeros(3))

    target = root_pos.mean(axis=0)
    R, t = _camera_pose(script, target, rng)
    motion = transform_motion(motion_world, R, t)
    floor = floor_world.transformed(R, t)

    contacts = heuristic_label(motion, floor)
    if expected is not None and not np.array_equal(contacts.labels, expected):
        bad = int(np.argmax(np.any(contacts.labels != expected, axis=1)))
        raise RuntimeError(
            f"script '{script.name}': heuristic labels diverge from the designed "
            f"schedule at frame {bad}; adjust tuck/flight_time")

    joints3d = forward_kinematics(motion)
    if joints3d[..., 2].min() < 0.5:
        raise ValueError(
            f"subject too close to the camera (min depth {joints3d[..., 2].min():.2f} m)")
    seq0 = PoseSequence(skel.joint_names, script.fps,
                        np.zeros((len(root_pos), skel.n_joints, 2)),
                        np.zeros((len(root_pos), skel.n_joints)), joints3d)
    joints2d = project_perspective(joints3d, seq0.focal, seq0.principal_point)

    T, J = joints2d.shape[:2]
    conf = np.clip(1.0 - np.abs(rng.normal(0.0, 0.06, (T, J))), 0.35, 1.0)
    noisy2d = joints2d.copy()
    noisy3d = joints3d.copy()
    if script.pixel_noise > 0:
        noisy2d += rng.normal(0.0, script.pixel_noise, noisy2d.shape)
    if script.depth_noise > 0:
        noisy3d += rng.normal(0.0, script.depth_noise, noisy3d.shape)
    spine_ids = [skel.joint_id(n) for n in SPINE_JOINTS]
    if script.conf_drop > 0:
        drop = rng.random((T, J)) < script.conf_drop
        drop[:, spine_ids] = False
        n_drop = int(drop.sum())
        conf[drop] = rng.uniform(0.05, 0.25, n_drop)
        noisy2d[drop] += rng.normal(0.0, 25.0, (n_drop, 2))
        noisy3d[drop] += rng.normal(0.0, 0.12, (n_drop, 3))
    # the spine carries no 2D detection; its confidence marks the 3D estimate
    conf[:, spine_ids] = 0.8

    pose = PoseSequence(skel.joint_names, script.fps, noisy2d, conf, noisy3d)
    return GeneratedClip(script, seed, motion, pose, contacts, floor)
