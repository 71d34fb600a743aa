"""Trained classifier wrapper: inference with window voting, checkpoint I/O."""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import features as feat
from .mlp import MlpState, mlp_forward
from .sequence import ContactSequence


@dataclass(frozen=True, eq=False)
class ContactClassifier:
    """Frozen trained network plus the feature configuration it was trained with."""
    state: MlpState
    feature_scale: float = 0.005
    seed: int = 0
    window: int = feat.WINDOW
    pred_window: int = feat.PRED_WINDOW


def predict_window_probs(classifier, seq):
    """Per-target-frame contact probabilities, T x 5 x 4 (window frame, joint)."""
    X = feat.make_features_batch(seq, np.arange(seq.n_frames),
                                 classifier.feature_scale)
    logits, _ = mlp_forward(classifier.state, X, training=False)
    probs = 1.0 / (1.0 + np.exp(-logits))
    return probs.reshape(seq.n_frames, classifier.pred_window, 4)


def vote_labels(window_preds, n_frames):
    """Majority vote of overlapping window predictions; ties count as contact.

    window_preds: T x 5 x 4 booleans, slot k of target t predicts frame t+k-2.
    """
    half = window_preds.shape[1] // 2
    pos = np.zeros((n_frames, 4), dtype=int)
    total = np.zeros((n_frames, 4), dtype=int)
    for k in range(window_preds.shape[1]):
        t = np.arange(n_frames) + k - half
        ok = (t >= 0) & (t < n_frames)
        pos[t[ok]] += window_preds[ok, k].astype(int)
        total[t[ok]] += 1
    return 2 * pos >= total


def predict_contacts(classifier, seq):
    """Contact labels for every frame of a pose sequence."""
    probs = predict_window_probs(classifier, seq)
    labels = vote_labels(probs > 0.5, seq.n_frames)
    return ContactSequence(fps=seq.fps, labels=labels)


def save_classifier(classifier, path):
    state = classifier.state
    meta = {
        "format_version": 1,
        "kind": "contact_classifier",
        "layer_sizes": list(state.sizes),
        "dropout_p": state.dropout_p,
        "dropout_layer": state.dropout_layer,
        "feature_scale": classifier.feature_scale,
        "seed": classifier.seed,
        "window": classifier.window,
        "pred_window": classifier.pred_window,
    }
    arrays = {"meta": np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)}
    for i, (w, b) in enumerate(zip(state.W, state.b)):
        arrays[f"W{i}"] = w
        arrays[f"b{i}"] = b
    for i in range(len(state.gamma)):
        arrays[f"gamma{i}"] = state.gamma[i]
        arrays[f"beta{i}"] = state.beta[i]
        arrays[f"run_mean{i}"] = state.run_mean[i]
        arrays[f"run_var{i}"] = state.run_var[i]
    np.savez(path, **arrays)


def load_classifier(path):
    data = np.load(path)
    meta = json.loads(bytes(data["meta"]).decode())
    if meta.get("kind") != "contact_classifier" or meta.get("format_version") != 1:
        raise ValueError(f"{path}: not a contact classifier checkpoint")
    sizes = tuple(meta["layer_sizes"])
    n_layers = len(sizes) - 1
    state = MlpState(
        sizes=sizes,
        W=[data[f"W{i}"] for i in range(n_layers)],
        b=[data[f"b{i}"] for i in range(n_layers)],
        gamma=[data[f"gamma{i}"] for i in range(n_layers - 1)],
        beta=[data[f"beta{i}"] for i in range(n_layers - 1)],
        run_mean=[data[f"run_mean{i}"] for i in range(n_layers - 1)],
        run_var=[data[f"run_var{i}"] for i in range(n_layers - 1)],
        dropout_p=meta["dropout_p"],
        dropout_layer=meta["dropout_layer"],
    )
    return ContactClassifier(state=state, feature_scale=meta["feature_scale"],
                             seed=meta["seed"], window=meta["window"],
                             pred_window=meta["pred_window"])
