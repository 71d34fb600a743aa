"""Classifier training: window dataset assembly, motion-level splits, the
training loop with early stopping."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import features as feat
from .mlp import (
    AdamState,
    LAYER_SIZES,
    adam_step,
    bce_loss,
    init_mlp,
    mlp_forward,
    mlp_loss_and_grads,
    update_running_stats,
)
from .predict import ContactClassifier


@dataclass(frozen=True)
class TrainingConfig:
    learning_rate: float = 1e-4
    weight_decay: float = 1e-4
    noise_sigma: float = 0.005
    batch_size: int = 64
    patience: int = 10
    max_epochs: int = 200
    seed: int = 0
    feature_scale: float = 0.005
    hidden_sizes: tuple = LAYER_SIZES


@dataclass
class WindowDataset:
    """Flattened training windows. group[i] names the source motion so splits
    never mix windows of one motion across train/val/test."""
    X: np.ndarray        # N x 351
    Y: np.ndarray        # N x 20
    mask: np.ndarray     # N x 20 bool
    group: np.ndarray    # N, str


def build_windows(pairs, feature_scale=0.005):
    """pairs: iterable of (PoseSequence, ContactSequence, motion_name)."""
    X, Y, M, G = [], [], [], []
    for seq, contacts, name in pairs:
        if seq.n_frames != contacts.n_frames:
            raise ValueError(
                f"{name}: pose has {seq.n_frames} frames, contacts "
                f"{contacts.n_frames}")
        targets = np.arange(seq.n_frames)
        X.append(feat.make_features_batch(seq, targets, feature_scale))
        for t in targets:
            y, m = feat.window_labels(contacts, t)
            Y.append(y)
            M.append(m)
        G.extend([name] * seq.n_frames)
    return WindowDataset(X=np.concatenate(X), Y=np.array(Y),
                         mask=np.array(M), group=np.array(G))


def split_motions(names, seed, fractions=(0.8, 0.1, 0.1)):
    """Deterministic 80/10/10 split of unique motion names."""
    unique = sorted(set(names))
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(unique))
    n = len(unique)
    n_test = max(1, int(round(fractions[2] * n))) if n >= 3 else 0
    n_val = max(1, int(round(fractions[1] * n))) if n >= 2 else 0
    split = {}
    for rank, idx in enumerate(order):
        if rank < n_test:
            split[unique[idx]] = "test"
        elif rank < n_test + n_val:
            split[unique[idx]] = "val"
        else:
            split[unique[idx]] = "train"
    return split


def _subset(ds, names):
    sel = np.isin(ds.group, list(names))
    return WindowDataset(ds.X[sel], ds.Y[sel], ds.mask[sel], ds.group[sel])


def _eval_loss(state, X, Y, mask, batch=1024):
    total, count = 0.0, 0
    for s in range(0, len(X), batch):
        logits, _ = mlp_forward(state, X[s:s + batch], training=False)
        m = mask[s:s + batch]
        loss, _ = bce_loss(logits, Y[s:s + batch], m)
        n = int(m.sum())
        total += loss * n
        count += n
    return total / max(1, count)


def train_classifier(dataset, config, split=None, verbose=False):
    """Train on a WindowDataset. Returns (ContactClassifier, history dict).

    The split assigns motion names to train/val/test; windows of test motions
    are never touched here. Gaussian noise (config.noise_sigma) is added to the
    normalized position features of each training batch.
    """
    if split is None:
        split = split_motions(dataset.group, config.seed)
    train_ds = _subset(dataset, [n for n, s in split.items() if s == "train"])
    val_ds = _subset(dataset, [n for n, s in split.items() if s == "val"])
    if len(train_ds.X) == 0 or len(val_ds.X) == 0:
        raise ValueError("empty train or val split; need at least 2 motions")

    sizes = (feat.FEATURE_DIM,) + tuple(config.hidden_sizes[1:])
    state = init_mlp(sizes=sizes, seed=config.seed)
    opt = AdamState()
    rng = np.random.default_rng(config.seed + 1)
    pos_mask = feat.position_feature_mask()

    best = {"val": np.inf, "epoch": -1, "params": None}
    history = {"train_loss": [], "val_loss": []}
    n = len(train_ds.X)
    stale = 0
    for epoch in range(config.max_epochs):
        order = rng.permutation(n)
        epoch_loss, seen = 0.0, 0
        for s in range(0, n, config.batch_size):
            idx = order[s:s + config.batch_size]
            X = train_ds.X[idx].copy()
            X[:, pos_mask] += rng.normal(0.0, config.noise_sigma,
                                         (len(idx), int(pos_mask.sum())))
            drop = rng.random((len(idx), state.sizes[state.dropout_layer + 1]))
            drop = drop >= state.dropout_p
            loss, grads, cache = mlp_loss_and_grads(
                state, X, train_ds.Y[idx], train_ds.mask[idx], dropout_mask=drop)
            update_running_stats(state, cache)
            adam_step(state, grads, opt, config.learning_rate,
                      config.weight_decay)
            epoch_loss += loss * len(idx)
            seen += len(idx)
        val_loss = _eval_loss(state, val_ds.X, val_ds.Y, val_ds.mask)
        history["train_loss"].append(epoch_loss / seen)
        history["val_loss"].append(val_loss)
        if verbose:
            print(f"epoch {epoch:3d}  train {epoch_loss / seen:.4f}  val {val_loss:.4f}")
        if val_loss < best["val"] - 1e-6:
            best.update(val=val_loss, epoch=epoch, params=_snapshot(state))
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                break
    if best["params"] is not None:
        _restore(state, best["params"])
    history["best_epoch"] = best["epoch"]
    history["best_val_loss"] = best["val"]
    clf = ContactClassifier(state=state, feature_scale=config.feature_scale,
                            seed=config.seed)
    return clf, history


def _snapshot(state):
    return {
        "W": [w.copy() for w in state.W],
        "b": [b.copy() for b in state.b],
        "gamma": [g.copy() for g in state.gamma],
        "beta": [b.copy() for b in state.beta],
        "run_mean": [m.copy() for m in state.run_mean],
        "run_var": [v.copy() for v in state.run_var],
    }


def _restore(state, snap):
    state.W = [w.copy() for w in snap["W"]]
    state.b = [b.copy() for b in snap["b"]]
    state.gamma = [g.copy() for g in snap["gamma"]]
    state.beta = [b.copy() for b in snap["beta"]]
    state.run_mean = [m.copy() for m in snap["run_mean"]]
    state.run_var = [v.copy() for v in snap["run_var"]]
