"""The benchmark's tracer hooks name live program functions, and its
output check names the violation groups that the program reports.

perfbench/spans.py wraps program functions by module or class attribute
name, and perfbench/workloads.py fails a run whose physics report lacks a
group of VIOLATION_GROUPS. A change in src/ that they do not follow would
otherwise show only when the benchmark runs.
"""
import importlib
import sys
from pathlib import Path

import pytest

from physmocap.core.kinematics import compute_com_inertia
from physmocap.physopt.problem import ReducedProblem, targets_from_kinematic
from physmocap.physopt.solve import initial_guess
from physmocap.physopt.trajectory import TrajectoryLayout
from physmocap.synth import dataset
from physmocap.synth.generate import generate

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("spans")


def test_tracer_targets_resolve(spans):
    for group, owner, attr, _ in spans._targets():
        assert callable(vars(owner).get(attr)), (group, owner, attr)


def test_traced_restores_every_hook(spans):
    targets = spans._targets()
    originals = {(group, attr): vars(owner)[attr]
                 for group, owner, attr, _ in targets}
    # every loaded physmocap module that holds a traced function by name
    holders = [(m, attr, fn) for (_, attr), fn in originals.items()
               for name, m in list(sys.modules.items())
               if m is not None and name.split(".")[0] == "physmocap"
               and vars(m).get(attr) is fn]
    with spans.traced(spans.Tracer()):
        for group, owner, attr, _ in targets:
            assert vars(owner)[attr] is not originals[group, attr], (group, attr)
    for group, owner, attr, _ in targets:
        assert vars(owner)[attr] is originals[group, attr], (group, attr)
    for module, attr, fn in holders:
        assert vars(module)[attr] is fn, (module.__name__, attr)


def test_violation_groups_are_the_benchmarks(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    groups = importlib.import_module("workloads").VIOLATION_GROUPS
    clip = generate(next(s for s in dataset.exact_suite() if s.name == "stand_a"), seed=0)
    targets = targets_from_kinematic(clip.motion, compute_com_inertia(clip.motion),
                                     clip.floor)
    problem = ReducedProblem(TrajectoryLayout(clip.contacts), targets)
    assert sorted(problem.violation_by_group(initial_guess(problem))) == sorted(groups)


@pytest.mark.parametrize("workload", ["noisy_walk", "clean_hop", "exact_physics"])
def test_benchmark_clips_pass_their_output_check(workload, monkeypatch, tmp_path):
    """Each workload's seed-0 clips run through perfbench's own run_clip and
    pass its output check, at the workload's physics budget (the quick one
    for the exact_physics oracle), so a program change that breaks what the
    benchmark reads fails here rather than in a benchmark run."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    budget = (workloads.QUICK_BUDGET if workload == "exact_physics"
              else workloads.PHYSICS_BUDGET[workload])
    for case in workloads.build_cases(workload, seed=0):
        row = workloads.run_clip(case, workload, budget, tmp_path)
        assert row["error"] is None, (case.name, row["error"])
