from __future__ import annotations

import numpy as np

from physmocap.contact import features as feat
from physmocap.contact.sequence import ContactSequence
from physmocap.core.skeleton import JOINT_NAMES, LOWER_BODY_JOINT_NAMES
from physmocap.core.types import PoseSequence


def _seq(rng, T=20):
    J = len(JOINT_NAMES)
    return PoseSequence(joint_names=JOINT_NAMES, fps=30.0,
                        joints2d=rng.normal(960, 150, (T, J, 2)),
                        conf=rng.uniform(0.2, 1.0, (T, J)),
                        joints3d=rng.normal(0, 1, (T, J, 3)))


def test_feature_vector_shape_and_layout(rng):
    seq = _seq(rng)
    x = feat.make_features_batch(seq, [10])[0]
    assert x.shape == (351,)
    # check one entry by hand: window frame 0 (=frame 6), joint 0 (pelvis), x channel
    root = seq.joints2d[10, seq.joint_id("pelvis")]
    pelvis6 = seq.joints2d[6, seq.joint_id("pelvis")]
    assert np.isclose(x[0], (pelvis6[0] - root[0]) * 0.005)
    assert np.isclose(x[1], (pelvis6[1] - root[1]) * 0.005)
    assert np.isclose(x[2], seq.conf[6, seq.joint_id("pelvis")])
    # second joint of the same frame starts at index 3
    j1 = seq.joint_id(LOWER_BODY_JOINT_NAMES[1])
    assert np.isclose(x[3], (seq.joints2d[6, j1, 0] - root[0]) * 0.005)


def test_edge_frames_replicate(rng):
    seq = _seq(rng, T=12)
    x0 = feat.make_features_batch(seq, [0])[0]
    # frames -4..0 all clamp to frame 0, so the first five window frames agree
    per_frame = x0.reshape(9, 13, 3)
    for k in range(1, 5):
        assert np.array_equal(per_frame[k], per_frame[0])


def test_translation_invariance_of_positions(rng):
    seq = _seq(rng)
    shifted = PoseSequence(joint_names=seq.joint_names, fps=seq.fps,
                           joints2d=seq.joints2d + np.array([123.0, -45.0]),
                           conf=seq.conf, joints3d=seq.joints3d)
    a = feat.make_features_batch(seq, np.arange(seq.n_frames))
    b = feat.make_features_batch(shifted, np.arange(seq.n_frames))
    assert np.allclose(a, b, atol=1e-9)


def test_window_labels_mask_at_edges(rng):
    labels = rng.random((10, 4)) < 0.5
    contacts = ContactSequence(fps=30.0, labels=labels)
    y, m = (a[0] for a in feat.window_labels(contacts, [0]))
    m = m.reshape(5, 4)
    y = y.reshape(5, 4)
    assert not m[:2].any()      # frames -2, -1 do not exist
    assert m[2:].all()
    assert np.array_equal(y[2], labels[0].astype(float))
    y5, m5 = (a[0] for a in feat.window_labels(contacts, [5]))
    assert m5.all()
    assert np.array_equal(y5.reshape(5, 4)[0], labels[3].astype(float))


def test_position_feature_mask_counts():
    mask = feat.position_feature_mask()
    assert mask.shape == (351,)
    assert int(mask.sum()) == 9 * 13 * 2
