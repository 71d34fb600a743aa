"""Classifier training: window dataset assembly, motion-level splits, the
training loop with early stopping."""
from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from . import features as feat
from .mlp import (
    DROPOUT_LAYER,
    DROPOUT_P,
    HIDDEN_SIZES,
    AdamState,
    adam_step,
    bce_loss,
    init_mlp,
    mlp_forward,
    mlp_loss_and_grads,
    update_running_stats,
)

LEARNING_RATE = 1e-4
WEIGHT_DECAY = 1e-4
NOISE_SIGMA = 0.005   # std of the noise added to normalized position features
BATCH_SIZE = 64
PATIENCE = 10         # epochs without a validation gain before stopping
VAL_FRACTION = 0.1    # shares of the motions split_motions sets aside
TEST_FRACTION = 0.1
EVAL_BATCH = 1024     # windows per forward pass of the validation loss


@dataclass
class WindowDataset:
    """Flattened training windows. group[i] names the source motion so splits
    never mix windows of one motion across train/val/test."""
    X: np.ndarray        # N x 351
    Y: np.ndarray        # N x 20
    mask: np.ndarray     # N x 20 bool
    group: np.ndarray    # N, str


def build_windows(pairs):
    """pairs: iterable of (PoseSequence, ContactSequence, motion_name)."""
    X, Y, M, G = [], [], [], []
    for seq, contacts, name in pairs:
        if seq.n_frames != contacts.n_frames:
            raise ValueError(
                f"{name}: pose has {seq.n_frames} frames, contacts "
                f"{contacts.n_frames}")
        targets = np.arange(seq.n_frames)
        X.append(feat.make_features_batch(seq, targets))
        y, m = feat.window_labels(contacts, targets)
        Y.append(y)
        M.append(m)
        G.extend([name] * seq.n_frames)
    return WindowDataset(X=np.concatenate(X), Y=np.concatenate(Y),
                         mask=np.concatenate(M), group=np.array(G))


def split_motions(names, seed):
    """Deterministic 80/10/10 split of unique motion names."""
    unique = sorted(set(names))
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(unique))
    n = len(unique)
    n_test = max(1, int(round(TEST_FRACTION * n))) if n >= 3 else 0
    n_val = max(1, int(round(VAL_FRACTION * n))) if n >= 2 else 0
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


def _eval_loss(state, X, Y, mask):
    total, count = 0.0, 0
    for s in range(0, len(X), EVAL_BATCH):
        logits, _ = mlp_forward(state, X[s:s + EVAL_BATCH])
        m = mask[s:s + EVAL_BATCH]
        loss, _ = bce_loss(logits, Y[s:s + EVAL_BATCH], m)
        n = int(m.sum())
        total += loss * n
        count += n
    return total / max(1, count)


def train_classifier(dataset, seed, max_epochs, verbose=False):
    """Train on a WindowDataset. Returns the best validation epoch's MlpState
    and a history dict: per-epoch train_loss and val_loss, and best_epoch.

    split_motions(seed) assigns motion names to train/val/test; windows of test
    motions are never touched here. The seed also draws the initial weights,
    batch order, noise and dropout. Gaussian noise (NOISE_SIGMA) is added to
    the normalized position features of each training batch. Training stops
    after max_epochs, or after PATIENCE epochs without a validation gain.
    """
    split = split_motions(dataset.group, seed)
    train_ds = _subset(dataset, [n for n, s in split.items() if s == "train"])
    val_ds = _subset(dataset, [n for n, s in split.items() if s == "val"])
    if len(train_ds.X) == 0 or len(val_ds.X) == 0:
        raise ValueError("empty train or val split; need at least 2 motions")

    state = init_mlp((feat.FEATURE_DIM, *HIDDEN_SIZES, 4 * feat.PRED_WINDOW), seed)
    opt = AdamState()
    rng = np.random.default_rng(seed + 1)
    pos_mask = feat.position_feature_mask()

    best, best_val, best_epoch = state, np.inf, -1
    history = {"train_loss": [], "val_loss": []}
    n = len(train_ds.X)
    stale = 0
    for epoch in range(max_epochs):
        order = rng.permutation(n)
        epoch_loss, seen = 0.0, 0
        for s in range(0, n, BATCH_SIZE):
            idx = order[s:s + BATCH_SIZE]
            X = train_ds.X[idx].copy()
            X[:, pos_mask] += rng.normal(0.0, NOISE_SIGMA,
                                         (len(idx), int(pos_mask.sum())))
            drop = rng.random((len(idx), len(state.b[DROPOUT_LAYER]))) >= DROPOUT_P
            loss, grads, cache = mlp_loss_and_grads(
                state, X, train_ds.Y[idx], train_ds.mask[idx], dropout_mask=drop)
            update_running_stats(state, cache)
            adam_step(state, grads, opt, LEARNING_RATE, WEIGHT_DECAY)
            epoch_loss += loss * len(idx)
            seen += len(idx)
        val_loss = _eval_loss(state, val_ds.X, val_ds.Y, val_ds.mask)
        history["train_loss"].append(epoch_loss / seen)
        history["val_loss"].append(val_loss)
        if verbose:
            print(f"epoch {epoch:3d}  train {epoch_loss / seen:.4f}  val {val_loss:.4f}")
        if val_loss < best_val - 1e-6:
            best, best_val, best_epoch = copy.deepcopy(state), val_loss, epoch
            stale = 0
        else:
            stale += 1
            if stale >= PATIENCE:
                break
    history["best_epoch"] = best_epoch
    return best, history
