"""Robust floor-plane estimation from contact-labeled foot joints."""
from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..contact.sequence import ContactSequence
from ..core.types import FloorPlane

HUBER_DELTA = 0.01   # meters; inliers lie within 3*max(delta, robust scale)
MAX_ITERS = 100      # reweighting passes of the plane fit
TOL = 1e-12          # stop once the plane moves less than this


def _plane_from_weighted(points, w):
    centroid = (w[:, None] * points).sum(axis=0) / w.sum()
    d = points - centroid
    cov = (w[:, None] * d).T @ d
    eigval, eigvec = np.linalg.eigh(cov)
    return eigvec[:, 0], centroid


def fit_floor(foot_points, reference_points):
    """Huber-robust orthogonal plane fit.

    foot_points: N x 3 positions believed to lie on the floor. The normal is
    oriented so reference_points (e.g. all body joints) sit mostly above.
    Returns (FloorPlane, inlier_mask). The mask flags residuals r within
    3 * max(HUBER_DELTA, 1.4826 * median |r|): three of the residuals' robust
    standard deviations (Huber's scale from the median absolute residual),
    and never less than 3 * HUBER_DELTA, so noisy feet stay inliers.
    """
    pts = np.asarray(foot_points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3 or len(pts) < 3:
        raise ValueError(f"need at least 3 floor points, got shape {pts.shape}")
    w = np.ones(len(pts))
    normal, centroid = _plane_from_weighted(pts, w)
    for _ in range(MAX_ITERS):
        r = (pts - centroid) @ normal
        absr = np.abs(r)
        w_new = np.where(absr <= HUBER_DELTA, 1.0,
                         HUBER_DELTA / np.maximum(absr, 1e-12))
        normal_new, centroid_new = _plane_from_weighted(pts, w_new)
        if normal_new @ normal < 0:
            normal_new = -normal_new
        shift = np.linalg.norm(normal_new - normal) + abs(
            (centroid_new - centroid) @ normal_new)
        normal, centroid, w = normal_new, centroid_new, w_new
        if shift < TOL:
            break
    ref = np.asarray(reference_points, dtype=float).reshape(-1, 3)
    if np.median((ref - centroid) @ normal) < 0:
        normal = -normal
    absr = np.abs((pts - centroid) @ normal)
    inliers = absr <= 3.0 * max(HUBER_DELTA, 1.4826 * float(np.median(absr)))
    return FloorPlane(normal, centroid), inliers


def fit_floor_from_motion(positions, contacts, skeleton):
    """Fit the floor to the contact-labeled foot joints of any T x J x 3
    joint position array (the pipeline passes its 3D estimate).

    Feet that fit_floor rejects as outliers are treated as label mistakes
    and cleared in the returned ContactSequence. It keeps its old name,
    from the FK positions it once took, because perfbench's tracer hooks it.
    """
    labels = contacts.labels
    feet = skeleton.foot_joint_ids
    t_idx, k_idx = np.nonzero(labels)
    if len(t_idx) < 3:
        raise ValueError(f"only {len(t_idx)} contact samples; cannot fit a floor")
    pts = positions[t_idx, np.asarray(feet)[k_idx]]
    floor, inliers = fit_floor(pts, reference_points=positions)
    new_labels = labels.copy()
    bad = ~inliers
    new_labels[t_idx[bad], k_idx[bad]] = False
    return floor, replace(contacts, labels=new_labels)
