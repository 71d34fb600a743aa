"""Benchmark workloads: seeded clips, one timed pass, output checks, quality.

noisy_walk     the kinematic half of cli.optimize_sequence (kinfit with a
               fitted floor and the stored contact labels, then the motion,
               floor and contact saves) on plausibility-suite walk_00.
clean_hop      cli.optimize_sequence on exact-suite hop_a, with the GT floor
               and the stored contact labels.
exact_physics  physopt.solve_reduced, both stages, on the ground-truth (GT)
               targets and GT contacts of exact-suite stand_a, hop_a, jump_a.
               The convergence oracle; too slow and too seed-sensitive for
               BENCHMARK.json, run by hand (see README.md).

Each workload has fixed iteration budgets. Both kinfit LM stages run at
most KINFIT_ITERS iterations. At the program's default of 30 the contact
stage stops on its own tolerance after 5 to 30 iterations, depending on the
clip's noise and camera view, which moved kinfit on hop_a between 9.5 and
20 s. The seed reaches the program only as the clip synth.generate_suite
builds from it: its noise, confidences and camera yaw.
"""
from __future__ import annotations

import json
import re
import shutil
import traceback
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from physmocap import cli, metrics
from physmocap.contact.sequence import save_contacts
from physmocap.core import io as core_io
from physmocap.core.kinematics import compute_com_inertia
from physmocap.core.skeleton import default_skeleton
from physmocap.kinfit import solve as kinfit_solve
from physmocap.physopt import solve as physopt_solve
from physmocap.physopt.problem import targets_from_kinematic
from physmocap.synth import dataset
from speed import SpeedMeter

WORKLOADS = ("noisy_walk", "clean_hop", "exact_physics")
EXACT_CLIPS = ("stand_a", "hop_a", "jump_a")
KINFIT_ITERS = 8
PHYSICS_BUDGET = {"noisy_walk": None, "clean_hop": 1, "exact_physics": 300}
QUICK_BUDGET = 1
VIOLATION_GROUPS = ("dynamics_linear", "dynamics_angular", "leg_reach",
                    "foot_length", "stance_on_floor", "above_floor",
                    "force_cone")
SVD_WARNING = "Singular Jacobian"
CLIPPED_WARNING = re.compile(r"(\d+) frames had foot targets beyond leg reach")


class OutputError(ValueError):
    """A clip's outputs failed the benchmark's check."""


@dataclass
class Case:
    name: str
    clip: object            # synth GeneratedClip
    targets: object = None  # ReducedTargets, exact_physics only
    floor: object = None    # known floor, clean_hop only


def build_cases(workload, seed):
    """Generate the workload's clips from the seed, and their GT targets."""
    exact = {s.name: s for s in dataset.exact_suite()}
    if workload == "exact_physics":
        scripts = [exact[n] for n in EXACT_CLIPS]
    elif workload == "noisy_walk":
        walk = next(s for s in dataset.plausibility_suite() if s.name == "walk_00")
        scripts = [walk]
    elif workload == "clean_hop":
        scripts = [exact["hop_a"]]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    cases = []
    for script, clip in zip(scripts, dataset.generate_suite(scripts, seed=seed)):
        case = Case(clip.name, clip)
        if workload == "exact_physics":
            states = compute_com_inertia(clip.motion)
            case.targets = targets_from_kinematic(clip.motion, states, clip.floor)
        elif workload == "clean_hop":
            case.floor = clip.floor
        cases.append(case)
    return cases


@contextmanager
def _pipeline_hooks(sink):
    """Run cli.optimize_sequence with the kinfit budget, keeping what its
    physics solve returns. optimize_sequence exposes neither."""
    solve, kinfit = cli.solve_reduced, cli.run_kinematic_init

    def capture(*args, **kwargs):
        out = solve(*args, **kwargs)
        sink.append(out)
        return out

    cli.solve_reduced = capture
    cli.run_kinematic_init = partial(kinfit, max_iters=KINFIT_ITERS)
    try:
        yield
    finally:
        cli.solve_reduced, cli.run_kinematic_init = solve, kinfit


def run_clip(case, workload, budget, work_dir):
    """Run one clip; time the program call only, then check and score it.

    Returns a row with the call's time (wall_s, and ref_s at the reference
    speed, see speed.py), warning counts, and either the quality numbers
    or the error that failed the clip.
    """
    out_dir = Path(work_dir) / case.name
    captured = []
    error = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with SpeedMeter() as meter:
            try:
                if workload == "exact_physics":
                    captured.append(physopt_solve.solve_reduced(
                        case.targets, case.clip.contacts, max_iters=budget))
                elif workload == "noisy_walk":
                    captured.append(_kinematic_half(case, out_dir))
                else:
                    with _pipeline_hooks(captured):
                        cli.optimize_sequence(
                            case.clip.pose, case.clip.contacts, out_dir,
                            floor=case.floor, max_iters=budget)
            except Exception:   # a failed clip is counted, not fatal
                error = traceback.format_exc(limit=-3)
    messages = [str(w.message) for w in caught]
    row = {"clip": case.name, "wall_s": meter.wall_s, "ref_s": meter.ref_s,
           "probe_s": meter.probe_s,
           "svd_fallbacks": sum(SVD_WARNING in m for m in messages),
           "clipped_frames": sum(int(m.group(1)) for m in
                                 map(CLIPPED_WARNING.search, messages) if m)}
    if error is None:
        try:
            row.update(_check_and_score(case, workload, captured[-1], out_dir))
        except (OSError, ValueError) as exc:   # OutputError, SchemaError
            error = f"{type(exc).__name__}: {exc}"
    shutil.rmtree(out_dir, ignore_errors=True)
    row["error"] = error
    return row


def _kinematic_half(case, out_dir):
    """The steps of cli.optimize_sequence before targets_from_kinematic,
    with the kinfit budget. Keep in step with that function."""
    out_dir.mkdir(parents=True, exist_ok=True)
    motion, floor, contacts, states, report = kinfit_solve.run_kinematic_init(
        case.clip.pose, default_skeleton(), case.clip.contacts,
        max_iters=KINFIT_ITERS)
    core_io.save_motion(motion, out_dir / "kinematic.motion.json")
    core_io.save_floor(floor, out_dir / "floor.json")
    save_contacts(contacts, out_dir / "contacts.used.json")
    return states, {name: iters for name, _, iters, _ in report.stages}


def _finite(name, arr, n_frames):
    arr = np.asarray(arr, dtype=float)
    if arr.shape[0] != n_frames:
        raise OutputError(f"{name} has {arr.shape[0]} frames, input has {n_frames}")
    if not np.all(np.isfinite(arr)):
        raise OutputError(f"{name} is not finite")
    return arr


def _com_rmse_mm(com, gt_com):
    return 1000.0 * float(np.sqrt(np.mean(np.sum((com - gt_com) ** 2, axis=1))))


def _motion_quality(case, path, n_frames, forces=None):
    """Load a saved motion back and score it as `physmocap eval` does."""
    motion = core_io.load_motion(path)
    if motion.n_frames != n_frames:
        raise OutputError(f"{path.name} has {motion.n_frames} frames, "
                          f"input has {n_frames}")
    _finite(path.name, motion.joint_angles, n_frames)
    clip = case.clip
    rep = metrics.plausibility_report(motion, clip.floor, clip.contacts,
                                      forces=forces, gt_motion=clip.motion)
    return {"ballistic_grf_pct": rep.ballistic_grf,
            "body_mpjpe_mm": rep.body_mpjpe, "feet_mpjpe_mm": rep.feet_mpjpe,
            "skate_pct": rep.skate, "floating_pct": rep.floating}


def _check_and_score(case, workload, result, out_dir):
    """Output check, then the quality numbers of one clip."""
    clip = case.clip
    n_frames = clip.pose.joints3d.shape[0]
    gt_com = compute_com_inertia(clip.motion).r
    if workload == "noisy_walk":
        states, kinfit_iters = result
        com = _finite("kinematic COM", states.r, n_frames)
        row = _motion_quality(case, out_dir / "kinematic.motion.json", n_frames)
        row["com_rmse_mm"] = _com_rmse_mm(com, gt_com)
        row["kinfit_iters"] = kinfit_iters
        return row

    traj, report, problem = result
    violations = report.stages[-1].violations
    missing = [g for g in VIOLATION_GROUPS if g not in violations]
    if missing:
        raise OutputError(f"physics report lacks violation groups {missing}")
    if not all(np.isfinite(v) for v in violations.values()):
        raise OutputError("physics report has a non-finite violation")

    times = np.arange(n_frames) / clip.motion.fps
    sample = traj.sample(times)
    com = _finite("physics COM", sample["r"], n_frames)
    _finite("physics feet", sample["feet"], n_frames)
    row = {"converged": report.converged,
           "max_violation": report.max_violation,
           "violations": dict(violations),
           "stages": [s.name for s in report.stages],
           "n_vars": problem.layout.n_vars, "n_rows": problem.n_rows,
           "com_rmse_mm": _com_rmse_mm(com, gt_com)}

    if workload == "exact_physics":
        forces = _finite("physics forces", metrics.implied_grf(traj), n_frames)
        row["ballistic_grf_pct"] = metrics.grf_metrics(
            forces, clip.contacts, case.targets.mass)[2]
        return row

    forces = _finite("forces.npy", np.load(out_dir / "forces.npy"), n_frames)
    with open(out_dir / "report.json") as fh:
        row["kinfit_iters"] = {s["name"]: s["iters"]
                               for s in json.load(fh)["kinematic_stages"]}
    row.update(_motion_quality(case, out_dir / "physics.motion.json", n_frames,
                               forces))
    return row


QUALITY_MEAN = ("com_rmse_mm", "ballistic_grf_pct", "body_mpjpe_mm",
                "feet_mpjpe_mm", "skate_pct", "floating_pct")


def summarize(rows):
    """Per-workload quality from clip rows; None where no clip applies."""
    ok = [r for r in rows if r["error"] is None]
    physics = [r for r in ok if "converged" in r]
    out = {"failed_frac": (len(rows) - len(ok)) / len(rows),
           "converged_frac": (sum(r["converged"] for r in physics) / len(rows)
                              if physics else None),
           "max_violation": max((r["max_violation"] for r in physics),
                                default=None)}
    for key in QUALITY_MEAN:
        vals = [r[key] for r in ok if r.get(key) is not None]
        out[key] = float(np.mean(vals)) if vals else None
    return out
