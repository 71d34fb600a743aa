from __future__ import annotations

import json

import numpy as np

from physmocap.contact.sequence import ContactSequence, load_contacts, save_contacts
from physmocap.core.io import FORMAT_VERSION, write_json


def _random_contacts(rng, T=40):
    return ContactSequence(fps=30.0, labels=rng.random((T, 4)) < 0.6)


def test_phases_alternate_and_reconstruct(rng):
    contacts = _random_contacts(rng)
    for f in range(4):
        runs = contacts.phases(f)
        kinds = [k for k, _ in runs]
        for a, b in zip(kinds, kinds[1:]):
            assert a != b
        lengths = [n for _, n in runs]
        rebuilt = np.repeat([kind == "contact" for kind in kinds], lengths)
        assert np.array_equal(rebuilt, contacts.labels[:, f])


def test_phase_durations_sum_to_clip_duration(rng):
    contacts = _random_contacts(rng, T=97)
    for f in range(4):
        total = sum(n / contacts.fps for _, n in contacts.phases(f))
        assert abs(total - contacts.duration) < 1e-9


def test_round_trip(tmp_path, rng):
    contacts = _random_contacts(rng)
    path = tmp_path / "contacts.json"
    save_contacts(contacts, path)
    back = load_contacts(path)
    assert np.array_equal(back.labels, contacts.labels)
    assert back.fps == contacts.fps


def test_saved_file_holds_fps_and_labels_only(tmp_path, rng):
    path = tmp_path / "contacts.json"
    save_contacts(_random_contacts(rng), path)
    assert set(json.loads(path.read_text())) == {"format_version", "kind", "fps", "labels"}


def test_legacy_phases_and_joint_names_are_ignored(tmp_path, rng):
    """Older files also held each foot joint's phases and the joint names,
    both derived from the labels; the labels alone are read."""
    contacts = _random_contacts(rng, T=10)
    path = tmp_path / "contacts.json"
    wrong = [["flight" if contacts.labels[0, 0] else "contact", 10]]
    write_json(path, {"format_version": FORMAT_VERSION, "kind": "contact_sequence",
                      "fps": contacts.fps, "joint_names": ["left_toe"],
                      "labels": contacts.labels.astype(int).tolist(),
                      "phases": {"left_toe": wrong}})
    back = load_contacts(path)
    assert np.array_equal(back.labels, contacts.labels)
    assert back.fps == contacts.fps


def test_single_frame_sequence():
    c = ContactSequence(fps=30.0, labels=np.array([[True, False, True, True]]))
    assert c.phases(0) == [("contact", 1)]
    assert c.phases(1) == [("flight", 1)]
    empty = ContactSequence(fps=30.0, labels=np.zeros((0, 4), dtype=bool))
    assert empty.phases(0) == []
