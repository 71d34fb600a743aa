"""Small fully connected network, written directly in numpy.

Architecture: linear layers with batch norm and ReLU on all but the last,
dropout on the activations feeding the third linear layer. Trained with
binary cross entropy on logits and Adam. Keeping this in numpy makes training
bit-reproducible from a seed and lets the gradient be checked against finite
differences without an autodiff layer in between.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

HIDDEN_SIZES = (1024, 512, 128, 32)
BN_EPS = 1e-5
BN_MOMENTUM = 0.1   # weight of the batch statistics in the running ones
ADAM_BETA1 = 0.9     # Adam's moment decay rates and denominator guard
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
DROPOUT_P = 0.3      # share of activations dropped while training
DROPOUT_LAYER = 1    # dropout after this hidden layer's ReLU


# MlpState's parameter lists, as checkpoints name them (key + layer index);
# the last four exist for the hidden layers only
PARAMS = ("W", "b", "gamma", "beta", "run_mean", "run_var")


@dataclass
class MlpState:
    """The trained classifier: parameters and batch-norm running statistics."""
    W: list            # per layer, (out, in)
    b: list            # per layer, (out,)
    gamma: list        # per hidden layer
    beta: list
    run_mean: list
    run_var: list


def init_mlp(sizes, seed):
    rng = np.random.default_rng(seed)
    W, b, gamma, beta, run_mean, run_var = [], [], [], [], [], []
    for i in range(len(sizes) - 1):
        fan_in, fan_out = sizes[i], sizes[i + 1]
        W.append(rng.normal(0.0, np.sqrt(2.0 / fan_in), (fan_out, fan_in)))
        b.append(np.zeros(fan_out))
        if i < len(sizes) - 2:
            gamma.append(np.ones(fan_out))
            beta.append(np.zeros(fan_out))
            run_mean.append(np.zeros(fan_out))
            run_var.append(np.ones(fan_out))
    return MlpState(W, b, gamma, beta, run_mean, run_var)


def mlp_forward(state, X, dropout_mask=None):
    """Forward pass. Returns (logits, cache); cache is None in eval mode.

    Given a dropout_mask (bool, shape of the dropped activations), the pass
    is in training mode: batch statistics are used for the norm layers and
    the mask is applied with inverted scaling. Running stats are NOT
    updated here; see update_running_stats.
    """
    training = dropout_mask is not None
    h = np.asarray(X, dtype=float)
    if h.ndim == 1:
        h = h[None]
    n_hidden = len(state.gamma)
    cache = {"inputs": [], "xhat": [], "mean": [], "var": [], "y": [],
             "dropout_mask": dropout_mask}
    for i in range(len(state.W)):
        cache["inputs"].append(h)
        z = h @ state.W[i].T + state.b[i]
        if i < n_hidden:
            if training:
                mu = z.mean(axis=0)
                var = z.var(axis=0)
            else:
                mu = state.run_mean[i]
                var = state.run_var[i]
            xhat = (z - mu) / np.sqrt(var + BN_EPS)
            y = state.gamma[i] * xhat + state.beta[i]
            h = np.maximum(y, 0.0)
            if training and i == DROPOUT_LAYER:
                h = h * dropout_mask / (1.0 - DROPOUT_P)
            cache["xhat"].append(xhat)
            cache["mean"].append(mu)
            cache["var"].append(var)
            cache["y"].append(y)
        else:
            logits = z
    if not training:
        return logits, None
    return logits, cache


def update_running_stats(state, cache):
    m = BN_MOMENTUM
    for i in range(len(state.gamma)):
        state.run_mean[i] = (1 - m) * state.run_mean[i] + m * cache["mean"][i]
        state.run_var[i] = (1 - m) * state.run_var[i] + m * cache["var"][i]


def bce_loss(logits, targets, mask):
    """Stable binary cross entropy on logits, averaged over unmasked entries.

    Returns (loss, dloss/dlogits).
    """
    z = logits
    y = np.asarray(targets, dtype=float)
    loss_el = np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))
    grad = 1.0 / (1.0 + np.exp(-z)) - y
    mask = np.asarray(mask, dtype=bool)
    n = max(1, int(mask.sum()))
    return float(loss_el[mask].sum() / n), np.where(mask, grad, 0.0) / n


def mlp_backward(state, cache, dlogits):
    """Gradients of the scalar loss w.r.t. all parameters (training-mode graph)."""
    n_layers, n_hidden = len(state.W), len(state.gamma)
    grads = {"W": [None] * n_layers, "b": [None] * n_layers,
             "gamma": [None] * n_hidden, "beta": [None] * n_hidden}
    g = dlogits
    for i in reversed(range(n_layers)):
        if i < n_hidden:
            if i == DROPOUT_LAYER:
                g = g * cache["dropout_mask"] / (1.0 - DROPOUT_P)
            g = g * (cache["y"][i] > 0.0)
            xhat = cache["xhat"][i]
            grads["gamma"][i] = (g * xhat).sum(axis=0)
            grads["beta"][i] = g.sum(axis=0)
            # batch-norm backward with batch statistics
            gz = g * state.gamma[i]
            inv_std = 1.0 / np.sqrt(cache["var"][i] + BN_EPS)
            g = inv_std * (gz - gz.mean(axis=0)
                           - xhat * (gz * xhat).mean(axis=0))
        h_in = cache["inputs"][i]
        grads["W"][i] = g.T @ h_in
        grads["b"][i] = g.sum(axis=0)
        if i > 0:
            g = g @ state.W[i]
    return grads


def mlp_loss_and_grads(state, X, y, mask, dropout_mask):
    """One training-mode forward/backward. Pure given its inputs."""
    logits, cache = mlp_forward(state, X, dropout_mask)
    loss, dlogits = bce_loss(logits, y, mask)
    grads = mlp_backward(state, cache, dlogits)
    return loss, grads, cache


@dataclass
class AdamState:
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    t: int = 0


def adam_step(state, grads, opt, lr, weight_decay=0.0):
    """In-place Adam update. L2 weight decay applies to linear weights only."""
    opt.t += 1
    t = opt.t
    for key in ("W", "b", "gamma", "beta"):
        params = getattr(state, key)
        for i, g in enumerate(grads[key]):
            if key == "W" and weight_decay:
                g = g + weight_decay * params[i]
            slot = (key, i)
            m = opt.m.get(slot, 0.0)
            v = opt.v.get(slot, 0.0)
            m = ADAM_BETA1 * m + (1 - ADAM_BETA1) * g
            v = ADAM_BETA2 * v + (1 - ADAM_BETA2) * g * g
            opt.m[slot] = m
            opt.v[slot] = v
            mhat = m / (1 - ADAM_BETA1 ** t)
            vhat = v / (1 - ADAM_BETA2 ** t)
            params[i] = params[i] - lr * mhat / (np.sqrt(vhat) + ADAM_EPS)
