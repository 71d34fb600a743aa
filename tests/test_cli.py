import argparse
import importlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from physmocap import cli
from physmocap.contact.heuristic import velocity_baseline_3d
from physmocap.contact.sequence import ContactSequence, load_contacts
from physmocap.core import io as core_io
from physmocap.synth import dataset as synth_dataset
from physmocap.synth.generate import generate

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _tiny_dataset(tmp_path, names=("stand_t",)):
    scripts = [dict(name=name, kind="stand", duration=1.2, fps=30.0,
                    params=dict(), pixel_noise=2.0, depth_noise=0.01,
                    conf_drop=0.0) for name in names]
    scripts_file = tmp_path / "scripts.json"
    scripts_file.write_text(json.dumps(scripts))
    out = tmp_path / "data"
    rc = cli.main(["generate", "--scripts", str(scripts_file),
                   "--out", str(out), "--seed", "5"])
    assert rc == 0
    entry = json.loads((out / "manifest.json").read_text())["clips"][0]
    return out, entry


def test_generate_writes_manifest_and_provenance(tmp_path):
    out, entry = _tiny_dataset(tmp_path)
    assert (out / entry["pose"]).exists()
    assert (out / entry["motion"]).exists()
    prov = json.loads((out / "provenance.json").read_text())
    assert prov["command"] == "generate"
    assert set(prov["versions"]) >= {"numpy", "scipy", "physmocap"}
    assert len(prov["config_hash"]) == 16


def test_train_then_label_with_the_classifier(tmp_path):
    """train writes a classifier and its provenance; label --model reads it."""
    out, entry = _tiny_dataset(tmp_path, names=("stand_t", "stand_u"))
    model = tmp_path / "clf" / "classifier.npz"
    rc = cli.main(["train", "--dataset", str(out / "manifest.json"),
                   "--out", str(model), "--epochs", "1"])
    assert rc == 0
    prov = json.loads(model.with_suffix(".provenance.json").read_text())
    assert prov["command"] == "train" and prov["best_epoch"] == 0
    labels_file = tmp_path / "labels.json"
    rc = cli.main(["label", "--pose", str(out / entry["pose"]),
                   "--model", str(model), "--out", str(labels_file)])
    assert rc == 0
    seq = core_io.load_pose_sequence(out / entry["pose"])
    assert load_contacts(labels_file).labels.shape == (seq.n_frames, 4)


def test_label_baseline_roundtrip(tmp_path):
    out, entry = _tiny_dataset(tmp_path)
    labels_file = tmp_path / "labels.json"
    rc = cli.main(["label", "--pose", str(out / entry["pose"]),
                   "--baseline", "3d", "--out", str(labels_file)])
    assert rc == 0
    payload = json.loads(labels_file.read_text())
    assert np.array(payload["labels"]).shape[1] == 4


def test_eval_of_ground_truth_is_zero_error(tmp_path):
    out, entry = _tiny_dataset(tmp_path)
    report_file = tmp_path / "report.json"
    rc = cli.main(["eval",
                   "--pred", str(out / entry["motion"]),
                   "--gt", str(out / entry["motion"]),
                   "--floor", str(out / entry["floor"]),
                   "--contacts", str(out / entry["contacts"]),
                   "--out", str(report_file)])
    assert rc == 0
    report = json.loads(report_file.read_text())
    assert report["feet_mpjpe"] == 0.0
    assert report["body_mpjpe"] == 0.0
    assert report["body_align1_mpjpe"] == 0.0
    assert 95.0 < report["mean_grf"] < 105.0


def test_report_aggregates_eval_files(tmp_path):
    batch = tmp_path / "batch"
    for name, grf in (("a", 100.0), ("b", 104.0)):
        d = batch / name
        d.mkdir(parents=True)
        (d / "eval.json").write_text(json.dumps({
            "name": name,
            "methods": {"physics": {"mean_grf": grf, "ballistic_grf": "n/a"}}}))
    rc = cli.main(["report", "--dir", str(batch)])
    assert rc == 0
    summary = json.loads((batch / "summary.json").read_text())
    assert summary["methods"]["physics"]["mean_grf"] == 102.0
    assert summary["methods"]["physics"]["ballistic_grf"] == "n/a"
    assert (batch / "summary.csv").exists()
    # idempotent
    assert cli.main(["report", "--dir", str(batch)]) == 0


def test_cli_failure_emits_json_error(tmp_path, capsys):
    rc = cli.main(["eval", "--pred", "missing.json", "--gt", "missing.json",
                   "--floor", "missing.json", "--contacts", "missing.json",
                   "--out", str(tmp_path / "r.json")])
    assert rc == 1
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert "error" in record and record["error"]["type"]



@pytest.mark.parametrize("field, value", [
    ("fps", float("nan")), ("duration", float("inf")), ("camera_distance", 0.0),
    ("pixel_noise", -3.0), ("depth_noise", float("nan")), ("conf_drop", 1.5),
    ("camera_height", float("-inf")), ("camera_yaw", float("nan")),
    pytest.param("fps", "30", id="fps-string"),
    pytest.param("duration", None, id="duration-null"),
    pytest.param("fps", True, id="fps-true"),
    pytest.param("params", [1], id="params-list"),
    pytest.param("params", "x", id="params-string"),
    pytest.param("params", {"root_height": "0.84"}, id="param-string"),
    pytest.param("params", {"root_height": float("nan")}, id="param-nan"),
    pytest.param("name", "../escaped", id="name-parent"),
    pytest.param("name", "sub/clip", id="name-subdir"),
    pytest.param("name", "..", id="name-dotdot"),
    pytest.param("name", "", id="name-empty")])
def test_generate_rejects_out_of_range_scripts(tmp_path, capsys, field, value):
    """json reads NaN and Infinity, and any type: a script value of the wrong
    type or outside its field's range fails the command, with an error naming
    the field (or the param key), before any clip is written inside or
    outside --out."""
    script = dict(name="stand_t", kind="stand", duration=1.2)
    script[field] = value
    scripts_file = tmp_path / "scripts.json"
    scripts_file.write_text(json.dumps([script]))
    out = tmp_path / "data"
    assert cli.main(["generate", "--scripts", str(scripts_file), "--out", str(out)]) == 1
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
    assert error["type"] == "ValueError"
    named = f"param {next(iter(value))!r}" if isinstance(value, dict) else field
    assert f"{named} must be" in error["message"]
    assert [p.name for p in tmp_path.iterdir()] == ["scripts.json"]

def test_label_requires_model_or_baseline(tmp_path, capsys):
    """label takes exactly one of --model and --baseline."""
    for given in ([], ["--model", "m", "--baseline", "3d"]):
        rc = cli.main(["label", "--pose", "x", "--out", "y", *given])
        assert rc == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"]["type"] == "UsageError"


def test_batch_contacts_baseline3d_uses_the_loaded_pose(tmp_path):
    out, entry = _tiny_dataset(tmp_path)
    seq = core_io.load_pose_sequence(out / entry["pose"])
    args = argparse.Namespace(contacts_from="baseline3d")
    contacts = cli._batch_contacts(load_contacts(out / entry["contacts"]), args, seq)
    assert np.array_equal(contacts.labels, velocity_baseline_3d(seq).labels)


@pytest.mark.parametrize("workers", ["1", "2"])
def test_batch_with_workers_isolates_failures(tmp_path, workers):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"clips": [
        {"name": name, "pose": f"{name}.pose.json",
         "contacts": f"{name}.contacts.json"} for name in ("a", "b")]}))
    out = tmp_path / "batch"
    rc = cli.main(["batch", "--manifest", str(manifest), "--out", str(out),
                   "--workers", workers])
    assert rc == 0
    summary = json.loads((out / "batch.json").read_text())
    assert sorted(summary["failed"]) == ["a", "b"]
    for name in ("a", "b"):
        record = json.loads((out / name / "error.json").read_text())
        assert record["error"]["type"] == "FileNotFoundError"
        assert isinstance(record["trace"], list) and record["trace"]


def test_eval_and_report_flag_unconverged_physics(tmp_path):
    out, entry = _tiny_dataset(tmp_path)
    gt_motion = core_io.load_motion(out / entry["motion"])
    batch = tmp_path / "batch"
    seq_dir = batch / "stand_t"
    seq_dir.mkdir(parents=True)
    for name in ("kinematic", "physics"):
        core_io.save_motion(gt_motion, seq_dir / f"{name}.motion.json")
    np.save(seq_dir / "forces.npy", np.zeros((gt_motion.n_frames, 3)))
    cli._write_eval(seq_dir, core_io.load_pose_sequence(out / entry["pose"]),
                    gt_motion, core_io.load_floor(out / entry["floor"]),
                    load_contacts(out / entry["contacts"]), converged=False)
    methods = json.loads((seq_dir / "eval.json").read_text())["methods"]
    assert methods["physics"]["converged"] == 0.0
    # both motions are the same file, so the physics motion's own COM
    # implies the kinematic row's GRF
    for key in ("mean_grf", "max_grf", "ballistic_grf"):
        assert methods["physics"][f"motion_{key}"] == methods["kinematic"][key]
    assert methods["physics"]["mean_grf"] == 0.0
    assert "converged" not in methods["input"]
    assert isinstance(methods["input"]["body_mpjpe"], float)
    # the GT scored against itself, and the kinematic file is the GT motion
    for key in ("feet_mpjpe", "body_mpjpe", "body_align1_mpjpe"):
        assert methods["gt"][key] == 0.0
    for key in ("mean_grf", "max_grf", "ballistic_grf"):
        assert methods["gt"][key] == methods["kinematic"][key]

    assert cli.main(["report", "--dir", str(batch)]) == 0
    table = json.loads((batch / "summary.json").read_text())["methods"]
    assert table["physics"]["converged"] == 0.0
    assert table["input"]["converged"] == "n/a"
    header = (batch / "summary.csv").read_text().splitlines()[0].split(",")
    assert "converged" in header


def test_optimize_writes_report_and_outputs(tmp_path, monkeypatch):
    """optimize end to end on an exact-suite hop with its GT floor; its
    report names every violation group that the benchmark checks."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    groups = importlib.import_module("workloads").VIOLATION_GROUPS
    hop = next(s for s in synth_dataset.exact_suite() if s.name == "hop_a")
    scripts_file = tmp_path / "scripts.json"
    scripts_file.write_text(json.dumps([hop.to_json()]))
    data = tmp_path / "data"
    assert cli.main(["generate", "--scripts", str(scripts_file),
                     "--out", str(data), "--seed", "0"]) == 0
    entry = json.loads((data / "manifest.json").read_text())["clips"][0]
    out = tmp_path / "run"
    rc = cli.main(["optimize", "--pose", str(data / entry["pose"]),
                   "--contacts", str(data / entry["contacts"]),
                   "--floor", str(data / entry["floor"]),
                   "--out", str(out), "--max-iters", "2"])
    assert rc == 0

    def reject(name):
        raise ValueError(f"{name} is not valid JSON")

    report = json.loads((out / "report.json").read_text(), parse_constant=reject)
    assert [s["name"] for s in report["stages"]] == ["fit", "dynamics"]
    for stage in report["stages"]:
        assert sorted(stage["violations"]) == sorted(groups)
        assert stage["max_violation"] == max(stage["violations"].values())
    # trust-constr's stop reason, named from its status: here the iteration cap
    fit, dynamics = report["stages"]
    assert fit["stop"] == "" and dynamics["status"] == 0
    assert dynamics["stop"] == "max_iters"
    init = report["kinematic_stages"][0]
    assert init["name"] == "init" and init["cost"] is None
    contact = report["kinematic_stages"][1]
    assert contact["name"] == "contact"
    assert contact["stop"] in ("ftol", "gtol", "max_iters", "no_descent")
    assert contact["factorizations"] >= contact["iters"]
    assert set(report["kinematic_cost_terms"]) == {
        "projection", "data3d", "velocity", "root_velocity", "acceleration",
        "root_acceleration", "contact_still", "floor_height", "angle_smooth"}
    for name in ("physics.motion.json", "forces.npy", "grf_trace.csv"):
        assert (out / name).exists()


@pytest.fixture(scope="module")
def hop_a():
    return generate(next(s for s in synth_dataset.exact_suite() if s.name == "hop_a"),
                    seed=0)


@pytest.mark.parametrize("change, message", [
    (lambda c: ContactSequence(c.fps, c.labels[:40]), "40 frames"),
    (lambda c: ContactSequence(2 * c.fps, c.labels), "at 60 fps"),
    (lambda c: ContactSequence(c.fps, np.concatenate([c.labels, c.labels[:20]])),
     "80 frames"),
    (lambda c: ContactSequence(c.fps, np.zeros_like(c.labels)), "no contact frame"),
])
def test_optimize_rejects_labels_that_do_not_fit_the_pose(hop_a, change, message,
                                                          tmp_path):
    """Labels of another length or frame rate than the pose, or without a
    contact frame, are refused before any stage runs."""
    with pytest.raises(ValueError, match=message):
        cli.optimize_sequence(hop_a.pose, change(hop_a.contacts), tmp_path,
                              max_iters=1, floor=hop_a.floor)
    assert not any(tmp_path.iterdir())


def test_kinematic_run_does_not_load_scipy_optimize():
    """Only a physics stage needs scipy.optimize and scipy.sparse.linalg,
    slow and large imports: the CLI module and a kinematic run must load
    neither. A fresh interpreter, because pytest's own process has already
    imported them."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = f"""
import sys
sys.path.insert(0, {str(src)!r})
from physmocap import cli
from physmocap.synth.generate import generate
clip = generate(cli.MotionScript(name="w", kind="walk", duration=0.5), seed=3)
cli.run_kinematic_init(clip.pose, cli.default_skeleton(), clip.contacts, max_iters=1)
heavy = ("scipy.optimize", "scipy.sparse.linalg")
print(sorted(m for m in sys.modules if m.startswith(heavy)))
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
