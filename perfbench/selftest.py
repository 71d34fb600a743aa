"""Fast self-test of the benchmark.

Run from the repository root:

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it runs run.py once with --trace 0 and
once with --trace 1, each with --quick (one clip, one physics iteration),
and checks that the last line is the result object with every metric
BENCHMARK.json names, in its unit, and no failed clip. It runs the
by-hand exact_physics workload once the same way (its metrics are not all
defined, so only the result's form and the output check count). It copies
BENCHMARK.json and the benchmark's directories into a scratch directory
with no program source and checks that run.py exits nonzero there without
printing a result. Exits 1 on the first problem.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 600


def run(cwd, workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "0", "--seconds", "0", "--trace", str(trace), "--quick"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=TIMEOUT_S)


def check_result(spec, workload, trace, listed=True):
    proc = run(ROOT, workload, trace)
    if proc.returncode != 0:
        return f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"result keys {sorted(result)}"
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        return f"outputs failed the check: {result}"
    if not listed:
        return None
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != wanted:
        missing = sorted(set(wanted) - set(got))
        extra = sorted(set(got) - set(wanted))
        units = sorted(k for k in set(got) & set(wanted) if got[k] != wanted[k])
        return f"missing {missing}, extra {extra}, wrong unit {units}"
    return None


def check_bare(spec):
    """No program source: run.py must fail without printing a result."""
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, spec["workloads"][0]["name"], 0)
        if proc.returncode == 0 or "metrics" in proc.stdout:
            return f"exit {proc.returncode}, stdout {proc.stdout[-300:]!r}"
        return None
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    checks = [(f"{w['name']} --trace {t}",
               lambda w=w["name"], t=t: check_result(spec, w, t))
              for w in spec["workloads"] for t in (0, 1)]
    checks.append(("exact_physics --trace 0",
                   lambda: check_result(spec, "exact_physics", 0, listed=False)))
    checks.append(("no program source", lambda: check_bare(spec)))
    for name, check in checks:
        problem = check()
        print(f"{name}: {'ok' if problem is None else 'FAIL ' + problem}",
              flush=True)
        if problem is not None:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
