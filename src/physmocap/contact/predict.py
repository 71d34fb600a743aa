"""The trained classifier, an MlpState: window-voting inference, checkpoint I/O."""
from __future__ import annotations

import json

import numpy as np

from . import features as feat
from .mlp import PARAMS, MlpState, mlp_forward
from .sequence import ContactSequence

# feature constants a checkpoint records; loading rejects any other values
_FEATURE_META = {"feature_scale": feat.FEATURE_SCALE, "window": feat.WINDOW,
                 "pred_window": feat.PRED_WINDOW}


def predict_window_probs(state, seq):
    """Per-target-frame contact probabilities, T x 5 x 4 (window frame, joint)."""
    X = feat.make_features_batch(seq, np.arange(seq.n_frames))
    logits, _ = mlp_forward(state, X)
    probs = 1.0 / (1.0 + np.exp(-logits))
    return probs.reshape(seq.n_frames, feat.PRED_WINDOW, 4)


def vote_labels(window_preds, n_frames):
    """Majority vote of overlapping window predictions; ties count as contact.

    window_preds: T x 5 x 4 booleans, target t's output window by the window
    rule (features.py). Each frame gets a vote from every slot that holds it.
    """
    frames, inside = feat.window_frames(np.arange(n_frames),
                                        window_preds.shape[1], n_frames)
    pos = np.zeros((n_frames, window_preds.shape[2]), dtype=int)
    np.add.at(pos, frames[inside], window_preds[inside])
    total = np.bincount(frames[inside], minlength=n_frames)
    return 2 * pos >= total[:, None]


def predict_contacts(state, seq):
    """Contact labels for every frame of a pose sequence, from a trained MlpState."""
    probs = predict_window_probs(state, seq)
    labels = vote_labels(probs > 0.5, seq.n_frames)
    return ContactSequence(fps=seq.fps, labels=labels)


def save_classifier(state, path):
    """Write a trained MlpState's arrays (W0, b0, gamma0, ...) and the feature
    constants it needs to an .npz. The arrays fix the layer sizes; the seed
    is in the provenance file that train writes beside the checkpoint."""
    meta = {"format_version": 1, "kind": "contact_classifier", **_FEATURE_META}
    arrays = {"meta": np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)}
    arrays |= {f"{key}{i}": a for key in PARAMS
               for i, a in enumerate(getattr(state, key))}
    np.savez(path, **arrays)


def load_classifier(path):
    """Read a save_classifier checkpoint into an MlpState. Older checkpoints
    also store the layer sizes, the seed and the dropout settings, which
    inference does not read."""
    data = np.load(path)
    meta = json.loads(bytes(data["meta"]).decode())
    if meta.get("kind") != "contact_classifier" or meta.get("format_version") != 1:
        raise ValueError(f"{path}: not a contact classifier checkpoint")
    for key, value in _FEATURE_META.items():
        if meta.get(key) != value:
            raise ValueError(f"{path}: {key} is {meta.get(key)!r}; this program's "
                             f"features need {value!r}")
    n_layers = sum(1 for name in data.files if name.startswith("W"))
    # W and b per layer, the batch-norm arrays (PARAMS[2:]) per hidden layer
    return MlpState(**{
        key: [data[f"{key}{i}"] for i in range(n_layers - (key in PARAMS[2:]))]
        for key in PARAMS})
