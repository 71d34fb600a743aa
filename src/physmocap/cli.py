"""Pipeline command line: generate data, train and apply the contact
classifier, run the optimization end to end, and aggregate reports.

Every command writes a provenance record (argument hash, seed, library
versions) next to its outputs, exits 0 on success, and on failure emits a
machine-readable error record on stderr with a nonzero exit code. Batch
runs isolate per-sequence failures and report a convergence rate.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import time
import traceback
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .contact.heuristic import velocity_baseline_2d, velocity_baseline_3d
from .contact.predict import load_classifier, predict_contacts, save_classifier
from .contact.sequence import load_contacts, save_contacts
from .contact.train import build_windows, train_classifier
from .core import io as core_io
from .core.kinematics import GRAVITY
from .core.skeleton import default_skeleton
from .fullbody import upgrade_fullbody
from .kinfit.solve import run_kinematic_init
from .metrics import plausibility_report, positions_report
from .physopt.problem import targets_from_kinematic
from .physopt.solve import solve_reduced
from .synth import dataset as synth_dataset
from .synth.scripts import MotionScript

MAX_ITERS = 1500   # physics-stage iterations of optimize and batch (--max-iters)


def _versions():
    import scipy
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "physmocap": __version__}


def _provenance(args, seed=None):
    payload = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    blob = json.dumps(payload, sort_keys=True, default=str).encode()
    return {"command": args.command, "args": {k: str(v) for k, v in payload.items()},
            "config_hash": hashlib.sha256(blob).hexdigest()[:16],
            "seed": seed, "versions": _versions(),
            "written_at": time.strftime("%Y-%m-%dT%H:%M:%S")}


def _write_provenance(out_dir, args, seed=None):
    core_io.write_json(Path(out_dir) / "provenance.json",
                       _provenance(args, seed))


# -- generate ---------------------------------------------------------------

SUITES = {"exact": synth_dataset.exact_suite,
          "plausibility": synth_dataset.plausibility_suite,
          "classifier": synth_dataset.classifier_suite}


def cmd_generate(args):
    if args.scripts:
        with open(args.scripts) as fh:
            scripts = [MotionScript.from_json(p) for p in json.load(fh)]
    else:
        scripts = SUITES[args.suite]()
    clips = synth_dataset.generate_suite(scripts, seed=args.seed)
    manifest = synth_dataset.write_dataset(clips, args.out)
    _write_provenance(args.out, args, seed=args.seed)
    print(f"wrote {len(clips)} clips to {manifest}")
    return 0


# -- train ------------------------------------------------------------------

def _manifest_clips(manifest_path):
    root = Path(manifest_path).parent
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    for entry in manifest["clips"]:
        yield entry, root


def cmd_train(args):
    pairs = []
    for entry, root in _manifest_clips(args.dataset):
        seq = core_io.load_pose_sequence(root / entry["pose"])
        contacts = load_contacts(root / entry["contacts"])
        pairs.append((seq, contacts, entry["name"]))
    dataset = build_windows(pairs)
    classifier, history = train_classifier(dataset, seed=args.seed,
                                           max_epochs=args.epochs,
                                           verbose=args.verbose)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_classifier(classifier, out)
    core_io.write_json(out.with_suffix(".provenance.json"),
                       _provenance(args, seed=args.seed)
                       | {"best_epoch": history["best_epoch"],
                          "val_loss": history["val_loss"][history["best_epoch"]]})
    print(f"saved classifier to {out} (best epoch {history['best_epoch']})")
    return 0


# -- label ------------------------------------------------------------------

def cmd_label(args):
    seq = core_io.load_pose_sequence(args.pose)
    if args.model:
        contacts = predict_contacts(load_classifier(args.model), seq)
    elif args.baseline == "2d":
        contacts = velocity_baseline_2d(seq)
    else:
        contacts = velocity_baseline_3d(seq)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_contacts(contacts, out)
    core_io.write_json(out.with_suffix(".provenance.json"), _provenance(args))
    print(f"wrote contact labels to {out}")
    return 0


# -- optimize ---------------------------------------------------------------

def _grf_trace(out_dir, traj, motion, mass):
    times = np.arange(motion.n_frames) / motion.fps
    out = traj.sample(times)
    forces = out["forces"]                       # T x 4 x 3
    total = forces.sum(axis=1)
    np.save(Path(out_dir) / "forces.npy", total)
    pct_bw = np.linalg.norm(total, axis=1) / (mass * GRAVITY) * 100.0
    np.savetxt(Path(out_dir) / "grf_trace.csv",
               np.column_stack([times, total, pct_bw, np.linalg.norm(forces, axis=2), out["r"]]),
               fmt=["%.4f"] * 4 + ["%.3f"] + ["%.4f"] * 4 + ["%.5f"] * 3, delimiter=",",
               header="t,fx,fy,fz,percent_bw,f_left_toe,f_left_heel,f_right_toe,"
                      "f_right_heel,com_x,com_y,com_z", comments="", newline="\r\n")


def optimize_sequence(seq, contacts, out_dir, max_iters, floor=None):
    """Kinematic init, reduced physics solve, full-body upgrade. Writes the
    sequence directory and returns the report payload."""
    if (contacts.n_frames, contacts.fps) != (seq.n_frames, seq.fps):
        raise ValueError(f"contact labels have {contacts.n_frames} frames at "
                         f"{contacts.fps:g} fps, the pose {seq.n_frames} at {seq.fps:g}")
    if not contacts.labels.any():
        raise ValueError("contact labels have no contact frame")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    motion, floor, contacts, states, kin_report = run_kinematic_init(
        seq, default_skeleton(), contacts, floor=floor)
    core_io.save_motion(motion, out_dir / "kinematic.motion.json")
    core_io.save_floor(floor, out_dir / "floor.json")
    save_contacts(contacts, out_dir / "contacts.used.json")

    targets = targets_from_kinematic(motion, states, floor)
    traj, phys_report, _ = solve_reduced(targets, contacts, max_iters=max_iters)
    t_up = time.perf_counter()
    final = upgrade_fullbody(motion, traj)
    upgrade_time = time.perf_counter() - t_up
    core_io.save_motion(final, out_dir / "physics.motion.json")
    _grf_trace(out_dir, traj, final, targets.mass)

    payload = {
        "converged": phys_report.converged,
        "max_violation": phys_report.max_violation,
        "objective_terms": phys_report.objective_terms,
        "kinematic_cost_terms": kin_report.cost_breakdown,
        "stages": [{"name": s.name, "objective": s.objective,
                    "max_violation": s.max_violation, "iters": s.n_iters,
                    "status": s.status, "stop": s.stop,
                    "wall_time": s.wall_time, "violations": s.violations}
                   for s in phys_report.stages],
        "kinematic_stages": [{"name": n, "cost": c, "iters": i, "time": t,
                              **kin_report.stops.get(n, {})}
                             for n, c, i, t in kin_report.stages],
        "upgrade_time": upgrade_time,
        "wall_time": time.perf_counter() - t0,
    }
    core_io.write_json(out_dir / "report.json", payload)
    return payload


def cmd_optimize(args):
    seq = core_io.load_pose_sequence(args.pose)
    contacts = load_contacts(args.contacts)
    floor = core_io.load_floor(args.floor) if args.floor else None
    payload = optimize_sequence(seq, contacts, args.out, floor=floor,
                                max_iters=args.max_iters)
    _write_provenance(args.out, args)
    state = "converged" if payload["converged"] else "did not converge"
    print(f"{state}: max violation {payload['max_violation']:.2e}, "
          f"{payload['wall_time']:.0f}s")
    return 0


# -- batch ------------------------------------------------------------------

def _batch_contacts(gt_contacts, args, seq):
    if args.contacts_from == "files":
        return gt_contacts
    if args.contacts_from == "classifier":
        return predict_contacts(load_classifier(args.model), seq)
    return velocity_baseline_3d(seq)


def _run_batch_entry(entry, root, args):
    seq = core_io.load_pose_sequence(root / entry["pose"])
    gt_floor = core_io.load_floor(root / entry["floor"])
    gt_contacts = load_contacts(root / entry["contacts"])
    contacts = _batch_contacts(gt_contacts, args, seq)
    seq_dir = Path(args.out) / entry["name"]
    payload = optimize_sequence(seq, contacts, seq_dir, max_iters=args.max_iters,
                                floor=gt_floor if args.gt_floor else None)
    gt_motion = core_io.load_motion(root / entry["motion"])
    _write_eval(seq_dir, seq, gt_motion, gt_floor, gt_contacts,
                payload["converged"])
    return payload["converged"]


def _write_eval(seq_dir, seq, gt_motion, gt_floor, gt_contacts, converged):
    """Score the GT (the floor every method is measured against), input,
    kinematic and physics motions of one sequence directory. The physics row
    also records whether its solve converged, and beside the GRF of its force
    variables the motion_* GRF that the output motion's own COM implies."""
    seq_dir = Path(seq_dir)
    skeleton = gt_motion.skeleton
    methods = {"input": positions_report(
        seq.joints3d, skeleton, seq.fps, gt_floor, gt_contacts,
        gt_motion=gt_motion).as_dict()}
    kin = core_io.load_motion(seq_dir / "kinematic.motion.json")
    for name, motion in (("gt", gt_motion), ("kinematic", kin)):
        methods[name] = plausibility_report(
            motion, gt_floor, gt_contacts, gt_motion=gt_motion).as_dict()
    phys = core_io.load_motion(seq_dir / "physics.motion.json")
    forces = np.load(seq_dir / "forces.npy")
    implied = plausibility_report(phys, gt_floor, gt_contacts).as_dict()
    methods["physics"] = plausibility_report(
        phys, gt_floor, gt_contacts, forces=forces,
        gt_motion=gt_motion).as_dict() | {"converged": float(converged)} | {
            f"motion_{k}": implied[k] for k in ("mean_grf", "max_grf", "ballistic_grf")}
    core_io.write_json(seq_dir / "eval.json",
                       {"name": seq_dir.name, "methods": methods})


def _error_record(exc):
    """Machine-readable failure: exception type, message, traceback tail."""
    return {"error": {"type": type(exc).__name__, "message": str(exc)},
            "trace": traceback.format_exc().splitlines()[-3:]}


def _run_batch_pair(pair, args):
    """(name, converged) of one manifest entry; None when it failed, with
    the failure written to the sequence's error.json."""
    entry, root = pair
    try:
        return entry["name"], bool(_run_batch_entry(entry, root, args))
    except Exception as exc:   # isolate failures, summarize at the end
        seq_dir = Path(args.out) / entry["name"]
        seq_dir.mkdir(parents=True, exist_ok=True)
        core_io.write_json(seq_dir / "error.json", _error_record(exc))
        return entry["name"], None


def cmd_batch(args):
    entries = list(_manifest_clips(args.manifest))
    run_one = partial(_run_batch_pair, args=args)
    if args.workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            results = dict(pool.map(run_one, entries))
    else:
        results = dict(map(run_one, entries))

    n = len(results)
    converged = sum(1 for v in results.values() if v)
    failed = [k for k, v in results.items() if v is None]
    summary = {"n_sequences": n, "n_converged": converged,
               "convergence_rate": converged / n if n else 0.0,
               "failed": failed, "results": results}
    core_io.write_json(Path(args.out) / "batch.json", summary)
    _write_provenance(args.out, args)
    print(f"converged {converged}/{n} "
          f"({100.0 * summary['convergence_rate']:.1f}%)")
    return 0


# -- eval / report ----------------------------------------------------------

def cmd_eval(args):
    pred = core_io.load_motion(args.pred)
    gt = core_io.load_motion(args.gt)
    floor = core_io.load_floor(args.floor)
    contacts = load_contacts(args.contacts)
    forces = np.load(args.forces) if args.forces else None
    report = plausibility_report(pred, floor, contacts, forces=forces,
                                 gt_motion=gt)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    core_io.write_json(out, report.as_dict())
    core_io.write_json(out.with_suffix(".provenance.json"), _provenance(args))
    print(f"wrote {out}")
    return 0


def cmd_report(args):
    rows = []
    for eval_path in sorted(Path(args.dir).glob("*/eval.json")):
        with open(eval_path) as fh:
            rows.append(json.load(fh))
    if not rows:
        print("no eval.json files found", file=sys.stderr)
        return 1

    methods = sorted({m for row in rows for m in row["methods"]})
    # every key of every method, in the order of first appearance
    keys = list(dict.fromkeys(key for row in rows
                              for scores in row["methods"].values()
                              for key in scores))
    table = {}
    for method in methods:
        agg = {}
        for key in keys:
            vals = [row["methods"][method][key] for row in rows
                    if isinstance(row["methods"][method].get(key), float)]
            agg[key] = float(np.mean(vals)) if vals else "n/a"
        table[method] = agg

    batch_path = Path(args.dir) / "batch.json"
    summary = {"n_sequences": len(rows), "methods": table}
    if batch_path.exists():
        with open(batch_path) as fh:
            summary["convergence_rate"] = json.load(fh)["convergence_rate"]
    out = Path(args.out) if args.out else Path(args.dir) / "summary.json"
    core_io.write_json(out, summary)
    with open(out.with_suffix(".csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["method"] + keys)
        for method in methods:
            w.writerow([method] + [table[method][k] for k in keys])
    print(f"wrote {out}")
    return 0


# -- entry ------------------------------------------------------------------

def build_parser():
    ap = argparse.ArgumentParser(
        prog="physmocap",
        description="physically plausible motion from noisy pose estimates")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a synthetic dataset")
    g.add_argument("--suite", choices=sorted(SUITES), default="plausibility")
    g.add_argument("--scripts", help="JSON list of motion scripts instead")
    g.add_argument("--out", required=True)
    g.add_argument("--seed", type=int, default=0)
    g.set_defaults(func=cmd_generate)

    t = sub.add_parser("train", help="train the contact classifier")
    t.add_argument("--dataset", required=True, help="dataset manifest path")
    t.add_argument("--out", required=True, help="classifier file")
    t.add_argument("--epochs", type=int, default=60)
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--verbose", action="store_true")
    t.set_defaults(func=cmd_train)

    l = sub.add_parser("label", help="predict contact labels for a pose file")
    l.add_argument("--pose", required=True)
    l.add_argument("--model", help="trained classifier file")
    l.add_argument("--baseline", choices=("2d", "3d"),
                   help="velocity heuristic instead of the classifier")
    l.add_argument("--out", required=True)
    l.set_defaults(func=cmd_label)

    o = sub.add_parser("optimize", help="run the full pipeline on one sequence")
    o.add_argument("--pose", required=True)
    o.add_argument("--contacts", required=True)
    o.add_argument("--floor", help="known ground plane (skips floor fitting)")
    o.add_argument("--out", required=True)
    o.add_argument("--max-iters", type=int, default=MAX_ITERS)
    o.set_defaults(func=cmd_optimize)

    b = sub.add_parser("batch", help="optimize every sequence in a dataset")
    b.add_argument("--manifest", required=True)
    b.add_argument("--out", required=True)
    b.add_argument("--contacts-from",
                   choices=("files", "classifier", "baseline3d"),
                   default="files")
    b.add_argument("--model", help="classifier file for --contacts-from classifier")
    b.add_argument("--gt-floor", action="store_true",
                   help="use each clip's stored floor instead of fitting")
    b.add_argument("--max-iters", type=int, default=MAX_ITERS)
    b.add_argument("--workers", type=int, default=1,
                   help="worker processes; below 2 runs in-process")
    b.set_defaults(func=cmd_batch)

    e = sub.add_parser("eval", help="plausibility report for one motion")
    e.add_argument("--pred", required=True)
    e.add_argument("--gt", required=True)
    e.add_argument("--floor", required=True)
    e.add_argument("--contacts", required=True)
    e.add_argument("--forces", help="per-frame force file from optimize")
    e.add_argument("--out", required=True)
    e.set_defaults(func=cmd_eval)

    r = sub.add_parser("report", help="aggregate per-sequence evals")
    r.add_argument("--dir", required=True)
    r.add_argument("--out")
    r.set_defaults(func=cmd_report)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.command == "label" and bool(args.model) == bool(args.baseline):
        print(json.dumps({"error": {"type": "UsageError",
                                    "message": "need one of --model and --baseline"}}),
              file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except Exception as exc:
        print(json.dumps(_error_record(exc)), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
