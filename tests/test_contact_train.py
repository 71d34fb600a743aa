"""Tests for the classifier training loop."""
import numpy as np
import pytest

from physmocap.contact.predict import predict_contacts
from physmocap.contact.train import build_windows, train_classifier
from physmocap.synth.generate import generate
from physmocap.synth.scripts import MotionScript

NOISY = dict(pixel_noise=4.0, depth_noise=0.015, conf_drop=0.04)


@pytest.fixture(scope="module")
def clips():
    scripts = [MotionScript("walk", "walk", duration=1.0, **NOISY),
               MotionScript("dance", "dance", duration=1.0, **NOISY),
               MotionScript("stand", "stand", duration=1.0, **NOISY)]
    return [generate(s, seed=i) for i, s in enumerate(scripts)]


@pytest.fixture(scope="module")
def dataset(clips):
    return build_windows([(c.pose, c.contacts, c.name) for c in clips])


def _train(dataset):
    return train_classifier(dataset, seed=3, max_epochs=2)


def test_training_is_bit_reproducible_from_seed(dataset):
    (a, _), (b, _) = _train(dataset), _train(dataset)
    for key in ("W", "b", "gamma", "beta", "run_mean", "run_var"):
        for x, y in zip(getattr(a, key), getattr(b, key)):
            assert np.array_equal(x, y)


def test_training_history_and_prediction_shapes(dataset, clips):
    clf, history = _train(dataset)
    n = len(history["train_loss"])
    assert n == len(history["val_loss"]) == 2
    assert 0 <= history["best_epoch"] < n
    assert history["val_loss"][history["best_epoch"]] <= min(history["val_loss"]) + 1e-6
    for clip in clips:
        labels = predict_contacts(clf, clip.pose).labels
        assert labels.shape == (clip.pose.n_frames, 4)
