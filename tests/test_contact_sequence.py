from __future__ import annotations

import numpy as np
import pytest

from physmocap.contact.sequence import (
    ContactSequence,
    labels_from_phases,
    load_contacts,
    save_contacts,
)
from physmocap.core.io import SchemaError, write_json


def _random_contacts(rng, T=40):
    return ContactSequence(fps=30.0, labels=rng.random((T, 4)) < 0.6)


def test_phases_alternate_and_reconstruct(rng):
    contacts = _random_contacts(rng)
    for f in range(4):
        runs = contacts.phases(f)
        kinds = [k for k, _ in runs]
        for a, b in zip(kinds, kinds[1:]):
            assert a != b
        rebuilt = labels_from_phases(runs, contacts.fps)
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


def test_inconsistent_phases_rejected(tmp_path, rng):
    contacts = _random_contacts(rng, T=10)
    path = tmp_path / "contacts.json"
    save_contacts(contacts, path)
    import json
    raw = json.loads(path.read_text())
    raw["phases"]["left_toe"] = [["contact", 10]]
    if np.all(contacts.labels[:, 0]):
        raw["phases"]["left_toe"] = [["flight", 10]]
    write_json(path, raw)
    with pytest.raises(SchemaError, match="left_toe"):
        load_contacts(path)


def test_single_frame_sequence():
    c = ContactSequence(fps=30.0, labels=np.array([[True, False, True, True]]))
    assert c.phases(0) == [("contact", 1)]
    assert c.phases(1) == [("flight", 1)]
