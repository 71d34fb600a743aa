"""Variable layout and sample matrices of the reduced-body trajectory.

The decision vector holds, in order: COM position knots, COM orientation
knots, and per-foot-joint phase variables (stance position constants,
stance force splines, flight position splines). COM tracks are Hermite
splines with one segment per 0.1 s on a fixed grid; foot tracks are
phase-structured, each phase split into equal segments. The phases are
those of the contact labels and are constants of the layout.

The layout is the one home of the phase bookkeeping: callers read its
``stance`` phases, ``in_contact`` flags, free ``flight_knots`` and held
``bound_vel_cols``, and never walk ``joint_phases`` themselves.

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
    start: float        # first_frame / fps
    duration: float     # n_frames / fps
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


def _samples(cols, weights, shape, n_vars):
    """Samples whose sample s is weights[s] @ x at the knot columns cols[s]
    (n x 4; -1 marks an unused slot), on each of the 3 axes."""
    # entries in row order (sample, axis, knot), so the CSR arrays are
    # written directly
    n = len(cols)
    s, a, slot = np.nonzero(np.broadcast_to((cols >= 0)[:, None, :], (n, 3, 4)))
    indptr = np.concatenate(
        [[0], np.cumsum(np.bincount(3 * s + a, minlength=3 * n))])
    S = sparse.csr_matrix((weights[s, slot], cols[s, slot] + a, indptr),
                          shape=(3 * n, n_vars))
    return Samples(shape, S)


class TrajectoryLayout:
    def __init__(self, contacts):
        self.fps = contacts.fps
        self.total = contacts.duration
        self.n_com = max(1, int(round(self.total / COM_KNOT_DT)))
        self.com_delta = self.total / self.n_com

        self.com_base = (0, 6 * (self.n_com + 1))
        col = 12 * (self.n_com + 1)
        # velocity columns of the first and last COM knots (r, then theta):
        # ReducedProblem's x_fixed holds the targets' boundary velocities
        # there, and its stage map leaves them out of z
        self.bound_vel_cols = (
            np.array([self.com_knot_cols(which, k)[1] for which in (0, 1)
                      for k in (0, self.n_com)])[:, None] + np.arange(3)).ravel()

        self.joint_phases = []
        for i in range(4):
            phases = []
            first = 0
            for kind, n in contacts.phases(i):
                dur = n / self.fps
                ph = Phase(kind == "contact", first, n, first / self.fps, dur,
                           segment_count(dur))
                if ph.contact:   # the constant, then the force knots
                    ph.const_col, ph.force_col = col, col + 3
                    col += 3 + 6 * (ph.n_segs + 1)
                phases.append(ph)
                first += n
            self.joint_phases.append(phases)
        # (foot joint, phase) of every stance phase, joints then phases in order
        self.stance = [(i, ph) for i, phases in enumerate(self.joint_phases)
                       for ph in phases if ph.contact]

        # flight knots: boundaries read the neighbor stance constant, zero
        # velocity; interiors are free
        free_knots = []     # (foot joint, position column, time)
        for i, phases in enumerate(self.joint_phases):
            for j, ph in enumerate(phases):
                if ph.contact:
                    continue
                n = ph.n_segs
                ph.pos_cols = np.empty(n + 1, dtype=int)
                ph.vel_cols = np.full(n + 1, -1)
                for m in range(n + 1):
                    if m == 0 and j > 0:
                        ph.pos_cols[m] = phases[j - 1].const_col
                    elif m == n and j + 1 < len(phases):
                        ph.pos_cols[m] = phases[j + 1].const_col
                    else:
                        ph.pos_cols[m], ph.vel_cols[m] = col, col + 3
                        free_knots.append((i, col, ph.start + m * (ph.duration / n)))
                        col += 6
        free_knots = np.array(free_knots).reshape(-1, 3)
        self.flight_knots = (*free_knots[:, :2].T.astype(int), free_knots[:, 2])

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
        """Phase index of foot joint i at each time, and the time into it.
        Phase bounds come from frame counts, so each frame time falls in its
        label's phase, and a time within rounding of a bound is put on it: at
        a flight phase's start its spline reads its tied stance constant alone."""
        phases = self.joint_phases[i]
        bounds = np.array([ph.first_frame for ph in phases]
                          + [phases[-1].first_frame + phases[-1].n_frames]) / self.fps
        near = np.abs(times[:, None] - bounds) < 1e-9
        times = np.where(near.any(axis=1), bounds[near.argmax(axis=1)], times)
        j = np.minimum(np.searchsorted(bounds[1:], times, side="right"), len(phases) - 1)
        return j, times - bounds[j]

    def in_contact(self, times):
        """T x 4 flags: whether each foot joint is in a stance phase at each time."""
        flags = [np.array([ph.contact for ph in phases])[self.phase_of(i, times)[0]]
                 for i, phases in enumerate(self.joint_phases)]
        return np.stack(flags, axis=1)

    @staticmethod
    def _spline_cols(ph, k):
        """Knot columns (x0, v0, x1, v1) of segments k of a phase spline:
        the force spline of a stance phase, the foot spline of a flight."""
        if ph.contact:
            return ph.force_col + 6 * np.asarray(k)[..., None] + np.arange(0, 12, 3)
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
            k, u = locate(times, self.com_delta, self.n_com)
            p0 = self.com_base[track == "theta"] + 6 * k
            return _samples(p0[:, None] + np.arange(0, 12, 3),
                            hermite_weights(u, self.com_delta, order),
                            (T, 3), self.n_vars)
        if track not in ("feet", "forces"):
            raise ValueError(f"unknown track {track!r}")

        cols = np.full((T, 4, 4), -1)
        weights = np.zeros((T, 4, 4))
        for i, phases in enumerate(self.joint_phases):
            j_of, local = self.phase_of(i, times)
            for j, ph in enumerate(phases):
                at = j_of == j
                if ph.contact != (track == "forces"):
                    # stance foot: a constant; flight force: zero
                    if track == "feet" and order == 0:
                        cols[at, i, 0] = ph.const_col
                        weights[at, i, 0] = 1.0
                    continue
                delta = ph.duration / ph.n_segs
                k, u = locate(local[at], delta, ph.n_segs)
                cols[at, i] = self._spline_cols(ph, k)
                weights[at, i] = hermite_weights(u, delta, order)
        return _samples(cols.reshape(-1, 4), weights.reshape(-1, 4),
                        (T, 4, 3), self.n_vars)

    def force_knot_sampler(self):
        """Contact forces at every force-spline knot and segment midpoint.

        Per stance phase, in the order of stance: its n + 1 knots, then its
        n segment midpoints.
        """
        cols, weights = [np.zeros((0, 4), dtype=int)], [np.zeros((0, 4))]
        for _, ph in self.stance:
            n = ph.n_segs
            knots = np.full((n + 1, 4), -1)
            knots[:, 0] = ph.force_col + 6 * np.arange(n + 1)
            delta = ph.duration / n
            cols += [knots, self._spline_cols(ph, np.arange(n))]
            weights += [np.eye(1, 4).repeat(n + 1, axis=0),
                        hermite_weights(np.full(n, 0.5 * delta), delta)]
        cols = np.concatenate(cols)
        return _samples(cols, np.concatenate(weights), (len(cols), 3), self.n_vars)

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
