"""The benchmark's tracer hooks name live program functions.

perfbench/spans.py wraps program functions by module or class attribute
name. A rename in src/ that it does not follow would otherwise show only
when the benchmark runs.
"""
import importlib
import sys
from pathlib import Path

import pytest

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
