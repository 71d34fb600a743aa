from __future__ import annotations

import json

import numpy as np
import pytest

from physmocap.contact import mlp
from physmocap.contact.features import FEATURE_DIM, window_labels
from physmocap.contact.predict import (
    load_classifier,
    predict_contacts,
    save_classifier,
    vote_labels,
)
from physmocap.contact.sequence import ContactSequence
from physmocap.core.skeleton import JOINT_NAMES
from physmocap.core.types import PoseSequence


def test_vote_labels_interior_majority():
    T = 9
    preds = np.zeros((T, 5, 4), dtype=bool)
    # every window predicts frame 4 as contact for joint 0
    for k in range(5):
        preds[4 - (k - 2), k, 0] = True
    out = vote_labels(preds, T)
    assert out[4, 0]
    assert not out[4, 1]


def test_vote_labels_majority_beats_minority():
    T = 7
    preds = np.zeros((T, 5, 4), dtype=bool)
    # frame 3 gets 5 votes for joint 1; make 2 positive, 3 negative -> flight
    contributors = [(3 - (k - 2), k) for k in range(5)]
    for (t, k) in contributors[:2]:
        preds[t, k, 1] = True
    assert not vote_labels(preds, T)[3, 1]
    # 3 of 5 positive -> contact
    for (t, k) in contributors[:3]:
        preds[t, k, 1] = True
    assert vote_labels(preds, T)[3, 1]


def test_vote_labels_tie_is_contact():
    # frame 1 receives 4 votes (targets 0..3); a 2-2 split must give contact
    T = 5
    preds = np.zeros((T, 5, 4), dtype=bool)
    contributors = [(1 - (k - 2), k) for k in range(5)]
    valid = [(t, k) for t, k in contributors if 0 <= t < T]
    assert len(valid) == 4
    for (t, k) in valid[:2]:
        preds[t, k, 2] = True
    assert vote_labels(preds, T)[1, 2]


def test_vote_of_training_targets_gives_labels_back(rng):
    # window_labels lays out the targets, vote_labels reads the predictions:
    # both must place slot k of target t at the same frame, edges included
    T = 10
    c = ContactSequence(fps=30.0, labels=rng.random((T, 4)) < 0.5)
    y, _ = window_labels(c, np.arange(T))
    assert np.array_equal(vote_labels(y.reshape(T, 5, 4) > 0.5, T), c.labels)


def _assert_same_state(a, b):
    for key in mlp.PARAMS:
        assert len(getattr(a, key)) == len(getattr(b, key)), key
        for x, y in zip(getattr(a, key), getattr(b, key)):
            assert x.dtype == y.dtype and np.array_equal(x, y), key


def test_checkpoint_round_trip_bit_exact(tmp_path):
    state = mlp.init_mlp(sizes=(12, 16, 10, 6, 5, 8), seed=9)
    path = tmp_path / "clf.npz"
    save_classifier(state, path)
    back = load_classifier(path)
    _assert_same_state(state, back)
    X = np.random.default_rng(1).normal(0, 1, (3, 12))
    la, _ = mlp.mlp_forward(state, X)
    lb, _ = mlp.mlp_forward(back, X)
    assert np.array_equal(la, lb)


def test_checkpoint_with_older_meta_loads(tmp_path, rng):
    """Checkpoints that also store the layer sizes, the seed and the dropout
    settings load to the same arrays and labels."""
    state = mlp.init_mlp((FEATURE_DIM, 16, 10, 6, 5, 20), seed=4)
    path = tmp_path / "clf.npz"
    save_classifier(state, path)
    arrays = dict(np.load(path))
    meta = json.loads(bytes(arrays["meta"]).decode())
    meta |= {"layer_sizes": [FEATURE_DIM, 16, 10, 6, 5, 20], "seed": 4,
             "dropout_p": 0.3, "dropout_layer": 1}
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    older = tmp_path / "older.npz"
    np.savez(older, **arrays)
    back = load_classifier(older)
    _assert_same_state(state, back)
    T, J = 12, len(JOINT_NAMES)
    seq = PoseSequence(joint_names=JOINT_NAMES, fps=30.0,
                       joints2d=rng.normal(0, 50, (T, J, 2)), conf=np.ones((T, J)),
                       joints3d=rng.normal(0, 0.3, (T, J, 3)))
    assert np.array_equal(predict_contacts(back, seq).labels,
                          predict_contacts(state, seq).labels)


def test_checkpoint_with_other_feature_constants_rejected(tmp_path):
    state = mlp.init_mlp(sizes=(12, 16, 10, 6, 5, 8), seed=9)
    path = tmp_path / "clf.npz"
    save_classifier(state, path)
    arrays = dict(np.load(path))
    meta = json.loads(bytes(arrays["meta"]).decode())
    meta["feature_scale"] = 0.004
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    np.savez(path, **arrays)
    with pytest.raises(ValueError, match="feature_scale"):
        load_classifier(path)
