"""Variable layout and sample matrices of the reduced-body trajectory.

The decision vector holds, in order: COM position knots, COM orientation
knots, per-foot-joint phase variables (stance position constants, stance
force splines, flight position splines), and per-foot-joint phase durations.
COM tracks are Hermite splines with one segment per 0.1 s on a fixed grid;
foot tracks are phase-structured, so their segment durations scale with the
phase duration variables.

A flight spline's boundary knots are tied to the neighboring stance
constants with zero velocity (the foot leaves the floor from rest and lands
to rest), which keeps every foot trajectory C1 across phase switches; the
tie is structural: the boundary knot simply reads the stance variable.

With the durations fixed, every sampled value is a constant sparse matrix
applied to x (``Samples``). The durations enter the phase-structured tracks
by the chain rule: a sample at time t in segment k of phase j (n segments,
durations d) sits at u = t - sum_{m<j} d_m - k d_j / n in a segment of
length delta = d_j / n, so

    d value / d d_m = -S' x                          (m < j)
    d value / d d_j = -(k / n) S' x + (1 / n) S_d x

with S' the Hermite weights of the next derivative order and S_d the
weights' partial in delta at fixed u.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .spline import hermite_delta_weights, hermite_weights, locate, segment_count

COM_KNOT_DT = 0.1


@dataclass
class Phase:
    contact: bool
    first_frame: int
    n_frames: int
    start0: float       # initial start time: the durations before it, summed
    duration0: float
    n_segs: int
    const_col: int = -1
    force_col: int = -1
    pos_cols: np.ndarray = field(default=None)
    vel_cols: np.ndarray = field(default=None)


@dataclass
class Samples:
    """Track samples: values S @ x (3 rows per sample) and their Jacobian.

    S, S_next and S_delta share one sparsity pattern and hold the Hermite
    weights of the sample's order, of the next order, and their partial in
    the segment duration. Duration entry e moves sample dur_sample[e] with
    its column dur_col[e] at the rate du[e] * (S_next x) + ddelta[e] *
    (S_delta x) of that sample.
    """
    shape: tuple
    S: sparse.csr_matrix
    S_next: sparse.csr_matrix
    S_delta: sparse.csr_matrix
    dur_sample: np.ndarray
    dur_col: np.ndarray
    du: np.ndarray
    ddelta: np.ndarray

    def values(self, x):
        return (self.S @ x).reshape(self.shape)

    def jacobian(self, x):
        if not len(self.dur_col):
            return self.S
        g = (self.S_next @ x).reshape(-1, 3)[self.dur_sample]
        h = (self.S_delta @ x).reshape(-1, 3)[self.dur_sample]
        vals = self.du[:, None] * g + self.ddelta[:, None] * h
        rows = 3 * self.dur_sample[:, None] + np.arange(3)
        cols = np.broadcast_to(self.dur_col[:, None], rows.shape)
        dur = sparse.csr_matrix((vals.ravel(), (rows.ravel(), cols.ravel())),
                                shape=self.S.shape)
        return self.S + dur


class _SampleBuilder:
    """Collects per-sample knot columns and weights, then builds Samples."""

    def __init__(self, n_samples, n_vars, shape):
        self.n_vars, self.shape = n_vars, shape
        self.cols = np.full((n_samples, 4), -1)
        self.weights = np.zeros((3, n_samples, 4))   # order, next, delta
        self.dur = []                                # (samples, col, du, ddelta)

    def put(self, s, cols, weights):
        self.cols[s] = cols
        for out, w in zip(self.weights, weights):
            out[s] = w

    def put_dur(self, s, col, du, ddelta):
        s = np.asarray(s)
        self.dur.append((s, np.full(s.shape, col), np.broadcast_to(du, s.shape),
                         np.broadcast_to(ddelta, s.shape)))

    def build(self):
        # entries in row order (sample, axis, knot), so the CSR arrays
        # are written directly
        n = len(self.cols)
        s, a, slot = np.nonzero(np.broadcast_to(
            (self.cols >= 0)[:, None, :], (n, 3, 4)))
        indptr = np.concatenate(
            [[0], np.cumsum(np.bincount(3 * s + a, minlength=3 * n))])
        indices = self.cols[s, slot] + a
        S, S_next, S_delta = (
            sparse.csr_matrix((w[s, slot], indices, indptr),
                              shape=(3 * n, self.n_vars))
            for w in self.weights)
        dur = [np.concatenate(part) for part in zip(*self.dur)] if self.dur \
            else [np.zeros(0, dtype=int)] * 4
        return Samples(self.shape, S, S_next, S_delta, *dur)


class TrajectoryLayout:
    def __init__(self, contacts):
        self.fps = contacts.fps
        self.total = contacts.duration
        self.n_com = max(1, int(round(self.total / COM_KNOT_DT)))
        self.com_delta = self.total / self.n_com

        col = 0
        self.com_base = (0, 6 * (self.n_com + 1))
        col = 12 * (self.n_com + 1)

        self.joint_phases = []
        for i in range(4):
            phases = []
            first, start = 0, 0.0
            for kind, n in contacts.phases(i):
                dur = n / self.fps
                ph = Phase(kind == "contact", first, n, start, dur,
                           segment_count(dur))
                if ph.contact:
                    ph.const_col = col
                    col += 3
                    ph.force_col = col
                    col += 6 * (ph.n_segs + 1)
                phases.append(ph)
                first, start = first + n, start + dur
            self.joint_phases.append(phases)

        # flight knots: boundaries read the neighbor stance constant, zero
        # velocity; interiors are free
        for phases in self.joint_phases:
            for j, ph in enumerate(phases):
                if ph.contact:
                    continue
                n = ph.n_segs
                pos = np.empty(n + 1, dtype=int)
                vel = np.empty(n + 1, dtype=int)
                for m in range(n + 1):
                    tied_prev = (m == 0 and j > 0)
                    tied_next = (m == n and j + 1 < len(phases))
                    if tied_prev:
                        pos[m], vel[m] = phases[j - 1].const_col, -1
                    elif tied_next:
                        pos[m], vel[m] = phases[j + 1].const_col, -1
                    else:
                        pos[m], vel[m] = col, col + 3
                        col += 6
                ph.pos_cols, ph.vel_cols = pos, vel

        self.dur_base = col
        self.dur_cols = []
        for phases in self.joint_phases:
            self.dur_cols.append(np.arange(col, col + len(phases)))
            col += len(phases)
        self.n_vars = col

    # -- accessors --------------------------------------------------------

    def durations0(self):
        d = np.zeros(self.n_vars - self.dur_base)
        for phases, cols in zip(self.joint_phases, self.dur_cols):
            d[cols - self.dur_base] = [ph.duration0 for ph in phases]
        return d

    def durations(self, x, i):
        return x[self.dur_cols[i]]

    def com_knot_cols(self, which, k):
        """(pos_col, vel_col) of COM knot k; which is 0 for r, 1 for theta."""
        base = self.com_base[which] + 6 * k
        return base, base + 3

    def phase_of(self, durations, i, times):
        """Phase index of foot joint i at each time, and the time into it.

        durations is the duration part of x (x[dur_base:]).
        """
        durs = durations[self.dur_cols[i] - self.dur_base]
        ends = np.cumsum(durs)
        j = np.minimum(np.searchsorted(ends, times, side="right"), len(durs) - 1)
        return j, times - (ends[j] - durs[j])

    @staticmethod
    def _spline_cols(ph, k):
        """Knot columns (x0, v0, x1, v1) of segments k of a phase spline:
        the force spline of a stance phase, the foot spline of a flight."""
        if ph.contact:
            b = ph.force_col + 6 * k
            return np.stack([b, b + 3, b + 6, b + 9], axis=-1)
        return np.stack([ph.pos_cols[k], ph.vel_cols[k],
                         ph.pos_cols[k + 1], ph.vel_cols[k + 1]], axis=-1)

    # -- sampling ---------------------------------------------------------

    def sampler(self, durations, track, times, order=0):
        """Samples of one track at the given times and derivative order.

        track is "r" or "theta" (values T x 3), or "feet" or "forces"
        (T x 4 x 3, one sample per time and foot joint). durations is the
        duration part of x; the matrices depend on nothing else.
        """
        times = np.asarray(times, dtype=float)
        T = len(times)
        if track in ("r", "theta"):
            out = _SampleBuilder(T, self.n_vars, (T, 3))
            k, u = locate(times, self.com_delta, self.n_com)
            p0 = self.com_base[track == "theta"] + 6 * k
            out.put(slice(None), np.stack([p0, p0 + 3, p0 + 6, p0 + 9], axis=-1),
                    [hermite_weights(u, self.com_delta, order)])
            return out.build()
        if track not in ("feet", "forces"):
            raise ValueError(f"unknown track {track!r}")

        out = _SampleBuilder(4 * T, self.n_vars, (T, 4, 3))
        for i, phases in enumerate(self.joint_phases):
            j_of, local = self.phase_of(durations, i, times)
            dcols = self.dur_cols[i]
            for j, ph in enumerate(phases):
                at = np.flatnonzero(j_of == j)
                s = 4 * at + i
                if ph.contact != (track == "forces"):
                    # stance foot: a constant; flight force: zero
                    if track == "feet" and order == 0:
                        out.put(s, [ph.const_col, -1, -1, -1], [[1.0, 0, 0, 0]])
                    continue
                n = ph.n_segs
                delta = durations[dcols[j] - self.dur_base] / n
                k, u = locate(local[at], delta, n)
                out.put(s, self._spline_cols(ph, k),
                        [hermite_weights(u, delta, order),
                         hermite_weights(u, delta, order + 1),
                         hermite_delta_weights(u, delta, order)])
                for m in range(j):
                    out.put_dur(s, dcols[m], -1.0, 0.0)
                out.put_dur(s, dcols[j], -k / n, 1.0 / n)
        return out.build()

    def force_knot_sampler(self, durations):
        """Contact forces at every force-spline knot and segment midpoint.

        Per stance phase (joints, then phases, in order): its n + 1 knots,
        then its n segment midpoints. These samples ride with their phase,
        so only the phase's own duration enters, and only at the midpoints.
        """
        stance = [(i, j, ph) for i, phases in enumerate(self.joint_phases)
                  for j, ph in enumerate(phases) if ph.contact]
        N = sum(2 * ph.n_segs + 1 for _, _, ph in stance)
        out = _SampleBuilder(N, self.n_vars, (N, 3))
        at = 0
        for i, j, ph in stance:
            n = ph.n_segs
            knots = at + np.arange(n + 1)
            out.put(knots, np.stack([ph.force_col + 6 * np.arange(n + 1),
                                     *np.full((3, n + 1), -1)], axis=-1),
                    [[1.0, 0, 0, 0]])
            mids = at + n + 1 + np.arange(n)
            delta = durations[self.dur_cols[i][j] - self.dur_base] / n
            u = np.full(n, 0.5 * delta)
            out.put(mids, self._spline_cols(ph, np.arange(n)),
                    [hermite_weights(u, delta), hermite_weights(u, delta, 1),
                     hermite_delta_weights(u, delta)])
            out.put_dur(mids, self.dur_cols[i][j], 0.5 / n, 1.0 / n)
            at += 2 * n + 1
        return out.build()

    def sample(self, x, times):
        def at(track, order=0):
            return self.sampler(x[self.dur_base:], track, times, order).values(x)
        return {"r": at("r"), "theta": at("theta"), "r_ddot": at("r", 2),
                "feet": at("feet"), "forces": at("forces")}


@dataclass
class CentroidalTrajectory:
    """A solved reduced-body trajectory: spline layout plus variable vector."""
    layout: TrajectoryLayout
    x: np.ndarray

    def sample(self, times):
        return self.layout.sample(self.x, times)

    def durations(self, joint):
        return self.layout.durations(self.x, joint)

    @property
    def total(self):
        return self.layout.total
