"""Import the program from this checkout's src/, and time that import.

run.py imports the program through import_program(). Run as a script,

    python3 perfbench/load.py

it imports the program and the benchmark's modules once, in this fresh
process, with the speed meter on (see speed.py), and prints the import's
time as JSON. run.py runs it several times as part of the set-up.
"""
import json
import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
# One BLAS thread. Default-threaded OpenBLAS runs the physics iterations
# about 2.6x slower on two cores and varies with load; see README.md.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def import_program():
    """Import physmocap from this checkout's src/, and nothing else."""
    if not (SRC / "physmocap" / "__init__.py").is_file():
        raise SystemExit(f"error: no program source at {SRC}")
    for var in BLAS_THREAD_VARS:   # before numpy loads
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import physmocap
    if Path(physmocap.__file__).resolve().parent != SRC / "physmocap":
        raise SystemExit(f"error: physmocap imported from {physmocap.__file__}")


if __name__ == "__main__":
    from speed import SpeedMeter
    with SpeedMeter() as meter:
        import_program()
        import micro      # noqa: F401  the layers the benchmark calls
        import workloads  # noqa: F401
    print(json.dumps({"wall_s": meter.wall_s, "ref_s": meter.ref_s}))
