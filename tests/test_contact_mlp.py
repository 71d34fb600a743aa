from __future__ import annotations

import numpy as np

from physmocap.contact import mlp


def _tiny_state(seed=3):
    # same layer structure as the real net, much smaller
    return mlp.init_mlp(sizes=(12, 16, 10, 6, 5, 8), seed=seed)


def _loss_of(state, X, y, mask, drop):
    loss, _, _ = mlp.mlp_loss_and_grads(state, X, y, mask, dropout_mask=drop)
    return loss


def test_bce_gradient_matches_finite_differences_every_layer():
    rng = np.random.default_rng(11)
    state = _tiny_state()
    X = rng.normal(0, 1, (7, 12))
    y = (rng.random((7, 8)) < 0.5).astype(float)
    mask = rng.random((7, 8)) < 0.9
    drop = rng.random((7, len(state.b[mlp.DROPOUT_LAYER]))) >= mlp.DROPOUT_P

    _, grads, _ = mlp.mlp_loss_and_grads(state, X, y, mask, dropout_mask=drop)
    h = 1e-6
    for key in ("W", "b", "gamma", "beta"):
        params = getattr(state, key)
        for i, g in enumerate(grads[key]):
            if g is None:
                continue
            flat = params[i].reshape(-1)
            gflat = g.reshape(-1)
            idx = rng.choice(flat.size, size=min(12, flat.size), replace=False)
            for k in idx:
                orig = flat[k]
                flat[k] = orig + h
                lp = _loss_of(state, X, y, mask, drop)
                flat[k] = orig - h
                lm = _loss_of(state, X, y, mask, drop)
                flat[k] = orig
                fd = (lp - lm) / (2 * h)
                if max(abs(fd), abs(gflat[k])) < 1e-7:
                    continue   # both numerically zero (bias feeding batch norm)
                denom = max(abs(fd), abs(gflat[k]))
                assert abs(fd - gflat[k]) / denom < 1e-4, (key, i, k)


def test_bce_loss_matches_direct_formula():
    rng = np.random.default_rng(12)
    z = rng.normal(0, 2, (5, 6))
    y = (rng.random((5, 6)) < 0.5).astype(float)
    loss, _ = mlp.bce_loss(z, y, np.ones(y.shape, dtype=bool))
    p = 1 / (1 + np.exp(-z))
    ref = -(y * np.log(p) + (1 - y) * np.log(1 - p)).mean()
    assert np.isclose(loss, ref, atol=1e-10)


def test_masked_loss_ignores_masked_entries():
    rng = np.random.default_rng(13)
    z = rng.normal(0, 1, (4, 6))
    y = (rng.random((4, 6)) < 0.5).astype(float)
    mask = np.zeros((4, 6), dtype=bool)
    mask[:, :3] = True
    loss_m, grad_m = mlp.bce_loss(z, y, mask)
    loss_sub, _ = mlp.bce_loss(z[:, :3], y[:, :3], mask[:, :3])
    assert np.isclose(loss_m, loss_sub, atol=1e-12)
    assert np.all(grad_m[:, 3:] == 0)


def test_eval_mode_is_deterministic_and_batch_independent():
    state = _tiny_state()
    rng = np.random.default_rng(14)
    X = rng.normal(0, 1, (6, 12))
    full, _ = mlp.mlp_forward(state, X)
    rows = np.vstack([mlp.mlp_forward(state, X[i])[0]
                      for i in range(6)])
    assert np.allclose(full, rows, atol=1e-12)


def test_adam_reduces_loss_on_tiny_problem():
    state = _tiny_state(seed=5)
    rng = np.random.default_rng(15)
    X = rng.normal(0, 1, (32, 12))
    y = (X[:, :8] > 0).astype(float)
    opt = mlp.AdamState()
    first = None
    for it in range(500):
        drop = rng.random((32, len(state.b[mlp.DROPOUT_LAYER]))) >= mlp.DROPOUT_P
        loss, grads, cache = mlp.mlp_loss_and_grads(
            state, X, y, np.ones(y.shape, dtype=bool), drop)
        mlp.update_running_stats(state, cache)
        mlp.adam_step(state, grads, opt, lr=3e-3)
        if first is None:
            first = loss
    assert loss < 0.6 * first


def test_init_is_reproducible():
    sizes = (351, *mlp.HIDDEN_SIZES, 20)
    a = mlp.init_mlp(sizes, seed=42)
    b = mlp.init_mlp(sizes, seed=42)
    for wa, wb in zip(a.W, b.W):
        assert np.array_equal(wa, wb)
