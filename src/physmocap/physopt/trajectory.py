"""Variable layout and sample matrices of the reduced-body trajectory.

The decision vector holds, in order: COM position knots, COM orientation
knots, and per-foot-joint phase variables (stance position constants,
stance force splines, flight position splines). COM tracks are Hermite
splines with one segment per 0.1 s on a fixed grid; foot tracks are
phase-structured, each phase split into equal segments. The phase durations
are those of the contact labels and are constants of the layout.

A flight spline's boundary knots are tied to the neighboring stance
constants with zero velocity (the foot leaves the floor from rest and lands
to rest), which keeps every foot trajectory C1 across phase switches; the
tie is structural: the boundary knot simply reads the stance variable.

Every sampled value is therefore a constant sparse matrix applied to x
(``Samples``), which is also its Jacobian.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .spline import hermite_weights, locate, segment_count

COM_KNOT_DT = 0.1


@dataclass
class Phase:
    contact: bool
    first_frame: int
    n_frames: int
    start0: float       # start time: the durations before it, summed
    duration0: float
    n_segs: int
    const_col: int = -1
    force_col: int = -1
    pos_cols: np.ndarray = field(default=None)
    vel_cols: np.ndarray = field(default=None)


@dataclass
class Samples:
    """Track samples: values S @ x, 3 rows per sample, reshaped to shape."""
    shape: tuple
    S: sparse.csr_matrix

    def values(self, x):
        return (self.S @ x).reshape(self.shape)


class _SampleBuilder:
    """Collects per-sample knot columns and weights, then builds Samples."""

    def __init__(self, n_samples, n_vars, shape):
        self.n_vars, self.shape = n_vars, shape
        self.cols = np.full((n_samples, 4), -1)
        self.weights = np.zeros((n_samples, 4))

    def put(self, s, cols, weights):
        self.cols[s] = cols
        self.weights[s] = weights

    def build(self):
        # entries in row order (sample, axis, knot), so the CSR arrays
        # are written directly
        n = len(self.cols)
        s, a, slot = np.nonzero(np.broadcast_to(
            (self.cols >= 0)[:, None, :], (n, 3, 4)))
        indptr = np.concatenate(
            [[0], np.cumsum(np.bincount(3 * s + a, minlength=3 * n))])
        indices = self.cols[s, slot] + a
        S = sparse.csr_matrix((self.weights[s, slot], indices, indptr),
                              shape=(3 * n, self.n_vars))
        return Samples(self.shape, S)


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

        self.n_vars = col
        # Where the duration columns once began: perfbench's microtimings
        # still mask x[dur_base:], an empty slice. ROADMAP item 4's
        # benchmark change removes the mask, and then this name.
        self.dur_base = col

    # -- accessors --------------------------------------------------------

    def com_knot_cols(self, which, k):
        """(pos_col, vel_col) of COM knot k; which is 0 for r, 1 for theta."""
        base = self.com_base[which] + 6 * k
        return base, base + 3

    def phase_of(self, i, times):
        """Phase index of foot joint i at each time, and the time into it."""
        durs = np.array([ph.duration0 for ph in self.joint_phases[i]])
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

    def sampler(self, track, times, order=0):
        """Samples of one track at the given times and derivative order.

        track is "r" or "theta" (values T x 3), or "feet" or "forces"
        (T x 4 x 3, one sample per time and foot joint).
        """
        times = np.asarray(times, dtype=float)
        T = len(times)
        if track in ("r", "theta"):
            out = _SampleBuilder(T, self.n_vars, (T, 3))
            k, u = locate(times, self.com_delta, self.n_com)
            p0 = self.com_base[track == "theta"] + 6 * k
            out.put(slice(None), np.stack([p0, p0 + 3, p0 + 6, p0 + 9], axis=-1),
                    hermite_weights(u, self.com_delta, order))
            return out.build()
        if track not in ("feet", "forces"):
            raise ValueError(f"unknown track {track!r}")

        out = _SampleBuilder(4 * T, self.n_vars, (T, 4, 3))
        for i, phases in enumerate(self.joint_phases):
            j_of, local = self.phase_of(i, times)
            for j, ph in enumerate(phases):
                at = np.flatnonzero(j_of == j)
                s = 4 * at + i
                if ph.contact != (track == "forces"):
                    # stance foot: a constant; flight force: zero
                    if track == "feet" and order == 0:
                        out.put(s, [ph.const_col, -1, -1, -1], [1.0, 0, 0, 0])
                    continue
                delta = ph.duration0 / ph.n_segs
                k, u = locate(local[at], delta, ph.n_segs)
                out.put(s, self._spline_cols(ph, k), hermite_weights(u, delta, order))
        return out.build()

    def force_knot_sampler(self):
        """Contact forces at every force-spline knot and segment midpoint.

        Per stance phase (joints, then phases, in order): its n + 1 knots,
        then its n segment midpoints.
        """
        stance = [ph for phases in self.joint_phases for ph in phases if ph.contact]
        N = sum(2 * ph.n_segs + 1 for ph in stance)
        out = _SampleBuilder(N, self.n_vars, (N, 3))
        at = 0
        for ph in stance:
            n = ph.n_segs
            knots = at + np.arange(n + 1)
            out.put(knots, np.stack([ph.force_col + 6 * np.arange(n + 1),
                                     *np.full((3, n + 1), -1)], axis=-1),
                    [1.0, 0, 0, 0])
            delta = ph.duration0 / n
            out.put(at + n + 1 + np.arange(n), self._spline_cols(ph, np.arange(n)),
                    hermite_weights(np.full(n, 0.5 * delta), delta))
            at += 2 * n + 1
        return out.build()

    def sample(self, x, times):
        return {track: self.sampler(track, times).values(x)
                for track in ("r", "theta", "feet", "forces")}


@dataclass
class CentroidalTrajectory:
    """A solved reduced-body trajectory: spline layout plus variable vector."""
    layout: TrajectoryLayout
    x: np.ndarray

    def sample(self, times):
        return self.layout.sample(self.x, times)
