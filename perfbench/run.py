"""Seeded benchmark of the physmocap pipeline, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload noisy_walk --seed 0 --seconds 35 --trace 0

It imports the program from ./src, then does the set-up: it times the
import in fresh processes (load.py) and builds the workload's clip from the
seed, SETUP_REPEATS times each. Then it runs passes over the clip until
--seconds have passed, at least one. Every clip's outputs are checked.
Times are taken with speed.SpeedMeter, which corrects them for the shared
machine's changing speed; the raw times are printed and recorded beside.
--trace 0 reports the end-to-end metrics; --trace 1 adds one traced pass and
the fixed-point microtimings and reports the per-layer metrics. The metrics
printed on the last line are the ones BENCHMARK.json names; the full record
(run conditions, every metric, per-clip rows, stage spans) is written to
.perfbench/results/. --quick runs one clip at a one-iteration physics budget,
for the self-test.
"""
import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

from load import SRC, import_program
from speed import SpeedMeter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
IMPORT_TIMEOUT_S = 120


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--quick", action="store_true",
                    help="one clip, one physics iteration (self-test)")
    return ap.parse_args(argv)


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    return ref_file.read_text().strip() if ref_file.is_file() else None


def _src_sha256():
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.suffix in (".py", ".json") and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def conditions(args, budget):
    import numpy
    import scipy
    import speed
    import workloads
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version")}
    except (TypeError, KeyError):
        blas = None
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "quick": args.quick,
            "physics_max_iters": budget,
            "kinfit_max_iters": workloads.KINFIT_ITERS,
            "speed_probe": {"interval_s": speed.INTERVAL_S,
                            "ref_probe_s": speed.REF_PROBE_S},
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "git_commit": _git_commit(), "src_sha256": _src_sha256()}


def pass_time(rows, key="ref_s"):
    return sum(r[key] for r in rows)


def end_to_end(setup, passes, rows):
    from workloads import summarize
    q = summarize(rows)
    return {
        "setup_s": (setup["ref_s"], "s"),
        "wall_s": (median(pass_time(p) for p in passes), "s"),
        "setup_raw_s": (setup["wall_s"], "s"),
        "wall_raw_s": (median(pass_time(p, "wall_s") for p in passes), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "failed_frac": (q["failed_frac"], "fraction"),
        "converged_frac": (q["converged_frac"], "fraction"),
        "max_violation": (q["max_violation"], "1"),
        "com_rmse_mm": (q["com_rmse_mm"], "mm"),
        "ballistic_grf_pct": (q["ballistic_grf_pct"], "%BW"),
        "body_mpjpe_mm": (q["body_mpjpe_mm"], "mm"),
        "feet_mpjpe_mm": (q["feet_mpjpe_mm"], "mm"),
        "skate_pct": (q["skate_pct"], "%"),
        "floating_pct": (q["floating_pct"], "%"),
    }


def traced_pass(cases, workload, budget, work_dir):
    """One pass with every layer wrapped; rows carry per-clip layer cover."""
    from spans import Tracer, traced
    from workloads import run_clip
    tracer = Tracer()
    rows = []
    with traced(tracer):
        for case in cases:
            before = tracer.snapshot()
            row = run_clip(case, workload, budget, work_dir)
            after = tracer.snapshot()
            cover = {g: after.get(g, [0, 0.0])[1] - before.get(g, [0, 0.0])[1]
                     for g in ("kinfit", "physopt", "fullbody", "io")}
            # spans include the speed probe's ticks
            cover["remainder"] = (row["wall_s"] + row["probe_s"]
                                  - sum(cover.values()))
            row["layer_s"] = cover
            rows.append(row)
    return tracer, rows


def per_layer(tracer, rows, untraced_wall, micro):
    from workloads import VIOLATION_GROUPS, summarize
    t = tracer
    q = summarize(rows)
    ok = [r for r in rows if r["error"] is None]

    def kept(group, key, **match):
        return sum(s.get(key, 0) for s in t.spans if s["group"] == group
                   and all(s.get(k) == v for k, v in match.items()))

    traced_wall = pass_time(rows)
    m = {
        "core.fk_jacobian_calls": (t.calls("core.fk_jacobian"), "count"),
        "core.fk_jacobian_s": (t.seconds("core.fk_jacobian"), "s"),
        "core.ik_frame_calls": (t.calls("core.ik_frame"), "count"),
        "core.ik_frame_s": (t.seconds("core.ik_frame"), "s"),
        "kinfit.init_s": (t.seconds("kinfit.init"), "s"),
        "kinfit.pose_s": (kept("kinfit.lm", "wall_s", stage="pose"), "s"),
        "kinfit.pose_iters": (kept("kinfit.lm", "iters", stage="pose"), "count"),
        "kinfit.contact_s": (kept("kinfit.lm", "wall_s", stage="contact"), "s"),
        "kinfit.contact_iters": (kept("kinfit.lm", "iters", stage="contact"),
                                 "count"),
        "kinfit.floor_s": (t.seconds("kinfit.floor"), "s"),
        "kinfit.jacobian_calls": (t.calls("kinfit.jacobian"), "count"),
        "kinfit.jacobian_s": (t.seconds("kinfit.jacobian"), "s"),
        "kinfit.residual_calls": (t.calls("kinfit.residual"), "count"),
        "kinfit.residual_s": (t.seconds("kinfit.residual"), "s"),
        "kinfit.splu_calls": (t.calls("kinfit.splu"), "count"),
        "kinfit.splu_s": (t.seconds("kinfit.splu"), "s"),
        # solve_stage outside the Jacobian and residual calls
        "kinfit.lm_self_s": (t.self_seconds("kinfit.lm")
                             + t.seconds("kinfit.splu"), "s"),
        "physopt.n_vars": (sum(r.get("n_vars", 0) for r in ok), "count"),
        "physopt.n_rows": (sum(r.get("n_rows", 0) for r in ok), "count"),
        "physopt.fit_s": (t.seconds("physopt.fit"), "s"),
        "physopt.dynamics_s": (kept("physopt.stage", "wall_s", stage="dynamics"),
                               "s"),
        "physopt.dynamics_iters": (kept("physopt.stage", "iters",
                                        stage="dynamics"), "count"),
        "physopt.durations_s": (kept("physopt.stage", "wall_s",
                                     stage="durations"), "s"),
        "physopt.durations_iters": (kept("physopt.stage", "iters",
                                         stage="durations"), "count"),
        "physopt.durations_accepted": (sum("durations" in r.get("stages", ())
                                           for r in ok), "count"),
        "physopt.constraint_calls": (t.calls("physopt.constraint"), "count"),
        "physopt.constraint_s": (t.seconds("physopt.constraint"), "s"),
        "physopt.objective_calls": (t.calls("physopt.objective"), "count"),
        "physopt.objective_s": (t.seconds("physopt.objective"), "s"),
        "physopt.solver_self_s": (t.self_seconds("physopt.stage"), "s"),
        "physopt.svd_fallbacks": (sum(r["svd_fallbacks"] for r in rows),
                                  "count"),
        "physopt.converged_frac": (q["converged_frac"] or 0.0, "fraction"),
        "fullbody.upgrade_s": (t.seconds("fullbody"), "s"),
        "fullbody.clipped_frames": (sum(r["clipped_frames"] for r in rows),
                                    "count"),
        "io.write_s": (t.seconds("io"), "s"),
        "trace.overhead_pct": (100.0 * (traced_wall / untraced_wall - 1.0), "%"),
        "trace.remainder_s": (sum(r["layer_s"]["remainder"] for r in rows), "s"),
    }
    # output quality of the pass, for reading beside the layer times
    for key, unit in (("com_rmse_mm", "mm"), ("body_mpjpe_mm", "mm"),
                      ("feet_mpjpe_mm", "mm"), ("skate_pct", "%"),
                      ("floating_pct", "%")):
        m[f"quality.{key}"] = (q[key], unit)
    # 0 where no physics ran, like the times
    m["physopt.max_violation"] = (q["max_violation"] or 0.0, "1")
    for g in VIOLATION_GROUPS:
        m[f"physopt.violation.{g}"] = (
            max((r["violations"][g] for r in ok if "violations" in r),
                default=0.0), "1")
    m.update({k: (v, "ms") for k, v in micro.items()})
    return m


def _fmt(value):
    if value is None:
        return "n/a"
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_report(e2e, layers, rows):
    for title, table in (("end to end", e2e), ("per layer", layers)):
        if table:
            print(f"-- {title}")
            for name, (value, unit) in table.items():
                print(f"  {name:32s} {_fmt(value):>14s} {unit}")
    print("-- clips (last pass)")
    for r in rows:
        keys = ("wall_s", "ref_s", "kinfit_iters", "converged", "max_violation",
                "com_rmse_mm", "ballistic_grf_pct", "body_mpjpe_mm",
                "feet_mpjpe_mm", "skate_pct", "floating_pct", "svd_fallbacks",
                "clipped_frames")
        cells = " ".join(f"{k}={_fmt(r.get(k))}" for k in keys)
        print(f"  {r['clip']}: {cells}" + (f" error={r['error']}" if r["error"]
                                           else ""))


def timed_imports(repeats):
    """Time the program's import in fresh processes (load.py)."""
    rows = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, str(HERE / "load.py")],
                              capture_output=True, text=True, check=True,
                              timeout=IMPORT_TIMEOUT_S)
        rows.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return rows


def set_up(workload, seed, repeats):
    """Import and clip-build times, SETUP_REPEATS each; the clips."""
    import workloads
    imports = timed_imports(repeats)
    builds = []
    for _ in range(repeats):
        with SpeedMeter() as meter:
            cases = workloads.build_cases(workload, seed)
        builds.append({"wall_s": meter.wall_s, "ref_s": meter.ref_s})
    setup = {key: median(r[key] for r in imports) + median(r[key] for r in builds)
             for key in ("wall_s", "ref_s")}
    return cases, {**setup, "imports": imports, "builds": builds}


def main(argv=None):
    args = parse_args(argv)
    import_program()
    import micro
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"expected one of {workloads.WORKLOADS}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    budget = (workloads.QUICK_BUDGET if args.quick
              else workloads.PHYSICS_BUDGET[args.workload])

    cases, setup = set_up(args.workload, args.seed,
                          1 if args.quick else SETUP_REPEATS)
    if args.quick:
        cases = cases[:1]

    out_root = ROOT / ".perfbench"
    work_dir = out_root / "work" / f"{args.workload}-{os.getpid()}"
    passes = []
    deadline = perf_counter() + args.seconds
    try:
        while not passes or perf_counter() < deadline:
            passes.append([workloads.run_clip(c, args.workload, budget, work_dir)
                           for c in cases])
        all_rows = [r for p in passes for r in p]
        e2e = end_to_end(setup, passes, all_rows)
        layers, spans, last = {}, [], passes[-1]
        if args.trace:
            untraced = median(pass_time(p) for p in passes)
            tracer, last = traced_pass(cases, args.workload, budget, work_dir)
            all_rows += last
            timings = micro.microtimings(args.seed)
            layers = per_layer(tracer, last, untraced, timings)
            spans = tracer.spans
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    failed = sum(r["error"] is not None for r in all_rows)
    record = {"conditions": conditions(args, budget),
              "setup": setup,
              "passes": [{"wall_s": pass_time(p, "wall_s"),
                          "ref_s": pass_time(p)} for p in passes],
              "end_to_end": {k: {"value": v, "unit": u}
                             for k, (v, u) in e2e.items()},
              "per_layer": {k: {"value": v, "unit": u}
                            for k, (v, u) in layers.items()},
              "clips": last, "spans": spans,
              "attempted": len(all_rows), "failed": failed}
    results = out_root / "results"
    results.mkdir(parents=True, exist_ok=True)
    out = results / (f"{args.workload}-seed{args.seed}-trace{args.trace}"
                     f"{'-quick' if args.quick else ''}.json")
    out.write_text(json.dumps(record, indent=1, default=str) + "\n")

    print_report(e2e if not args.trace else {}, layers, last)
    print(f"record: {out.relative_to(ROOT)}")
    # a workload BENCHMARK.json names must give every metric it names
    listed = any(w["name"] == args.workload for w in spec["workloads"])
    table = layers if args.trace else e2e
    emitted = {}
    for metric in wanted:
        value, unit = table.get(metric["name"], (None, None))
        if value is None and listed:
            raise SystemExit(f"error: metric {metric['name']} is n/a on "
                             f"{args.workload}")
        if value is not None:
            emitted[metric["name"]] = {"value": float(value), "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": len(all_rows),
                      "failed": failed, "metrics": emitted}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
