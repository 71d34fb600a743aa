from __future__ import annotations

import numpy as np

from physmocap.core import rotation as rot


def _rx(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[1, 0, 0], [0, c, -s], [0, s, c]])


def _ry(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, 0, s], [0, 1, 0], [-s, 0, c]])


def _rz(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]])


def test_euler_to_matrix_matches_explicit_product():
    rng = np.random.default_rng(0)
    for _ in range(50):
        a = rng.uniform(-np.pi, np.pi, 3)
        R = rot.euler_to_matrix(a)
        R_ref = _rz(a[2]) @ _ry(a[1]) @ _rx(a[0])
        assert np.allclose(R, R_ref, atol=1e-14)


def test_matrix_round_trip():
    rng = np.random.default_rng(1)
    for _ in range(100):
        a = np.array([rng.uniform(-np.pi, np.pi),
                      rng.uniform(-1.4, 1.4),
                      rng.uniform(-np.pi, np.pi)])
        back = rot.matrix_to_euler(rot.euler_to_matrix(a))
        assert np.allclose(back, a, atol=1e-10)


def test_matrix_round_trip_near_gimbal_reconstructs_rotation():
    # at ay ~ +-pi/2 the angles are not unique but the matrix must survive
    for ay in (np.pi / 2, -np.pi / 2, np.pi / 2 - 1e-9):
        a = np.array([0.3, ay, -1.1])
        R = rot.euler_to_matrix(a)
        R2 = rot.euler_to_matrix(rot.matrix_to_euler(R))
        assert np.allclose(R, R2, atol=1e-6)


def test_matrix_grad_finite_difference():
    rng = np.random.default_rng(2)
    h = 1e-6
    for _ in range(20):
        a = rng.uniform(-1.3, 1.3, 3)
        G = rot.euler_to_matrix_grad(a)
        for k in range(3):
            ap, am = a.copy(), a.copy()
            ap[k] += h
            am[k] -= h
            fd = (rot.euler_to_matrix(ap) - rot.euler_to_matrix(am)) / (2 * h)
            assert np.allclose(G[..., k], fd, atol=1e-8)


def test_rotation_axes_grad_and_hess_finite_difference():
    rng = np.random.default_rng(3)
    h = 1e-6
    for _ in range(20):
        a = rng.uniform(-1.3, 1.3, 3)
        G = rot.euler_rotation_axes_grad(a)
        H = rot.euler_rotation_axes_hess(a)
        for k in range(3):
            ap, am = a.copy(), a.copy()
            ap[k] += h
            am[k] -= h
            fd = (rot.euler_rotation_axes(ap) - rot.euler_rotation_axes(am)) / (2 * h)
            assert np.allclose(G[..., k], fd, atol=1e-8)
            fd_g = (rot.euler_rotation_axes_grad(ap) - rot.euler_rotation_axes_grad(am)) / (2 * h)
            assert np.allclose(H[..., k], fd_g, atol=1e-7)


def test_angular_velocity_matches_rotation_derivative():
    # omega from the rate map must satisfy dR/dt = skew(omega) @ R
    rng = np.random.default_rng(4)
    a0 = rng.uniform(-1.0, 1.0, 3)
    da = rng.uniform(-1.0, 1.0, 3)
    h = 1e-7
    omega = rot.euler_rotation_axes(a0) @ da
    R0 = rot.euler_to_matrix(a0)
    Rdot = (rot.euler_to_matrix(a0 + h * da) - rot.euler_to_matrix(a0 - h * da)) / (2 * h)
    assert np.allclose(Rdot, rot.skew(omega) @ R0, atol=1e-6)


def test_wrap_angle_range():
    vals = np.array([0.0, np.pi, -np.pi, 3 * np.pi / 2, -3 * np.pi / 2, 7.0, -7.0])
    w = rot.wrap_angle(vals)
    assert np.all(w > -np.pi - 1e-12)
    assert np.all(w <= np.pi + 1e-12)
    # wrapped values represent the same angle
    assert np.allclose(np.cos(w), np.cos(vals), atol=1e-12)
    assert np.allclose(np.sin(w), np.sin(vals), atol=1e-12)
    assert rot.wrap_angle(-np.pi) == np.pi
