import json

import numpy as np

from physmocap import cli


def _tiny_dataset(tmp_path):
    scripts = [dict(name="stand_t", kind="stand", duration=1.2, fps=30.0,
                    params=dict(), pixel_noise=2.0, depth_noise=0.01,
                    conf_drop=0.0)]
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


def test_label_requires_model_or_baseline(tmp_path, capsys):
    rc = cli.main(["label", "--pose", "x", "--out", "y"])
    assert rc == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"]["type"] == "UsageError"


def test_batch_with_workers_isolates_failures(tmp_path):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"clips": [
        {"name": name, "pose": f"{name}.pose.json",
         "contacts": f"{name}.contacts.json"} for name in ("a", "b")]}))
    out = tmp_path / "batch"
    rc = cli.main(["batch", "--manifest", str(manifest), "--out", str(out),
                   "--workers", "2"])
    assert rc == 0
    summary = json.loads((out / "batch.json").read_text())
    assert sorted(summary["failed"]) == ["a", "b"]
    for name in ("a", "b"):
        record = json.loads((out / name / "error.json").read_text())
        assert record["error"]["type"] == "FileNotFoundError"
        assert isinstance(record["trace"], list) and record["trace"]
