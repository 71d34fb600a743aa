"""Standard script collections and dataset serialization."""
from __future__ import annotations

from pathlib import Path

import numpy as np

from ..contact.sequence import save_contacts
from ..core import io as core_io
from .generate import generate
from .scripts import MotionScript

_NOISY = dict(pixel_noise=4.0, depth_noise=0.015, conf_drop=0.04)


def exact_suite():
    """Noise-free vertical scripts built to satisfy the physics constraints exactly."""
    scripts = [
        MotionScript("stand_a", "stand", duration=2.0),
        MotionScript("stand_b", "stand", duration=2.4, params=dict(root_height=0.84)),
    ]
    hops = [(0.5, 0.5), (0.6, 0.5), (0.5, 0.6), (0.6, 0.6)]
    for i, (push, land) in enumerate(hops):
        scripts.append(MotionScript(
            f"hop_{chr(ord('a') + i)}", "hop", duration=2.0,
            params=dict(flight_time=0.3, push_time=push, land_time=land, tuck=0.25)))
    jumps = [(0.5, 0.5), (0.6, 0.5), (0.5, 0.6), (0.7, 0.6)]
    for i, (push, land) in enumerate(jumps):
        scripts.append(MotionScript(
            f"jump_{chr(ord('a') + i)}", "jump", duration=2.4,
            params=dict(flight_time=0.4, push_time=push, land_time=land, tuck=0.35)))
    return scripts


def plausibility_suite():
    """Noisy walking-dominant scripts for the end-to-end metric checks."""
    scripts = []
    walks = [
        dict(cycle_time=1.0, stride=0.55), dict(cycle_time=0.9, stride=0.50),
        dict(cycle_time=1.1, stride=0.60), dict(cycle_time=1.0, stride=0.45),
        dict(cycle_time=0.95, stride=0.52), dict(cycle_time=1.05, stride=0.58),
        dict(cycle_time=1.0, stride=0.55, sway=0.03), dict(cycle_time=0.9, stride=0.45),
        dict(cycle_time=1.1, stride=0.55), dict(cycle_time=1.0, stride=0.50, bob=0.02),
        dict(cycle_time=0.85, stride=0.48), dict(cycle_time=1.15, stride=0.58),
        dict(cycle_time=1.0, stride=0.60), dict(cycle_time=0.95, stride=0.55),
    ]
    for i, params in enumerate(walks):
        scripts.append(MotionScript(f"walk_{i:02d}", "walk", duration=3.0,
                                    params=params, **_NOISY))
    for i in range(8):
        scripts.append(MotionScript(
            f"dance_{i:02d}", "dance", duration=3.6,
            params=dict(step_len=0.12 + 0.01 * i, side=0.10 + 0.005 * i), **_NOISY))
    for i in range(4):
        scripts.append(MotionScript(
            f"stand_{i:02d}", "stand", duration=2.0,
            params=dict(root_height=0.80 + 0.01 * i), **_NOISY))
    scripts.append(MotionScript(
        "hop_n0", "hop", duration=2.0,
        params=dict(flight_time=0.3, tuck=0.25), **_NOISY))
    scripts.append(MotionScript(
        "jump_n0", "jump", duration=2.4,
        params=dict(flight_time=0.4, push_time=0.6, tuck=0.35), **_NOISY))
    return scripts


def classifier_suite():
    """Training corpus for the contact classifier: varied motions, all noisy."""
    scripts = []
    rng = np.random.default_rng(4212)
    for i in range(16):
        scripts.append(MotionScript(
            f"cls_walk_{i:02d}", "walk", duration=3.0,
            params=dict(cycle_time=float(rng.uniform(0.85, 1.15)),
                        stride=float(rng.uniform(0.45, 0.60)),
                        step_lift=float(rng.uniform(0.04, 0.07))),
            **_NOISY))
    for i in range(10):
        scripts.append(MotionScript(
            f"cls_dance_{i:02d}", "dance", duration=3.6,
            params=dict(step_len=float(rng.uniform(0.10, 0.18)),
                        side=float(rng.uniform(0.08, 0.13)),
                        pause_time=float(rng.uniform(0.5, 0.7))),
            **_NOISY))
    for i in range(6):
        flight = 0.3 if i % 2 == 0 else 0.4
        scripts.append(MotionScript(
            f"cls_hop_{i:02d}", "hop", duration=2.0 if flight == 0.3 else 2.4,
            params=dict(flight_time=flight, tuck=0.25 if flight == 0.3 else 0.35,
                        push_time=0.5 if flight == 0.3 else 0.6),
            **_NOISY))
    for i in range(4):
        scripts.append(MotionScript(
            f"cls_stand_{i:02d}", "stand", duration=2.0,
            params=dict(root_height=float(rng.uniform(0.80, 0.85))),
            **_NOISY))
    return scripts


def generate_suite(scripts, seed=0):
    """Generate one clip per script; clip seeds derive from the base seed."""
    return [generate(s, seed=seed + 101 * i)
            for i, s in enumerate(scripts)]


def write_dataset(clips, out_dir):
    """Write per-clip files plus a manifest; returns the manifest path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    for clip in clips:
        stem = clip.name
        core_io.save_pose_sequence(clip.pose, out / f"{stem}.pose.json")
        core_io.save_motion(clip.motion, out / f"{stem}.motion.json")
        core_io.save_floor(clip.floor, out / f"{stem}.floor.json")
        save_contacts(clip.contacts, out / f"{stem}.contacts.json")
        entries.append(dict(
            name=stem, seed=clip.seed, script=clip.script.to_json(),
            pose=f"{stem}.pose.json", motion=f"{stem}.motion.json",
            floor=f"{stem}.floor.json", contacts=f"{stem}.contacts.json",
        ))
    manifest = out / "manifest.json"
    core_io.write_json(manifest, dict(kind="physmocap_dataset", format_version=1,
                                      clips=entries))
    return manifest
