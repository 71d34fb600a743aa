"""Per-frame foot contact labels and their phase representation."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import io as core_io
from ..core.skeleton import CONTACT_JOINT_NAMES


@dataclass(frozen=True, eq=False)
class ContactSequence:
    """Contact labels for the four foot joints (left toe, left heel, right toe,
    right heel), one row per frame. True means in contact."""
    fps: float
    labels: np.ndarray   # T x 4 bool

    def __post_init__(self):
        labels = np.asarray(self.labels)
        if labels.ndim != 2 or labels.shape[1] != 4:
            raise ValueError(f"labels shape {labels.shape}, expected (T, 4)")
        object.__setattr__(self, "labels", labels.astype(bool))
        if self.fps <= 0:
            raise ValueError(f"fps must be positive, got {self.fps}")

    @property
    def n_frames(self):
        return self.labels.shape[0]

    @property
    def duration(self):
        return self.n_frames / self.fps

    def phases(self, foot):
        """Alternating (kind, n_frames) runs for one foot joint, in frame order.

        kind is "contact" or "flight", and n_frames a Python int; a 0-frame
        clip has no runs. Durations in seconds are n_frames / fps; summing them
        reproduces the clip duration exactly up to float addition.
        """
        col = self.labels[:, foot]
        starts = np.flatnonzero(np.diff(col, prepend=~col[:1]))
        lengths = np.diff(starts, append=len(col))
        return [("contact" if col[s] else "flight", int(n))
                for s, n in zip(starts, lengths)]


def labels_from_phases(phase_runs, fps):
    """Rebuild the per-frame label column from (kind, n_frames) runs."""
    cols = []
    for kind, n in phase_runs:
        if kind not in ("contact", "flight"):
            raise ValueError(f"unknown phase kind {kind!r}")
        cols.append(np.full(int(n), kind == "contact"))
    return np.concatenate(cols) if cols else np.zeros(0, dtype=bool)


def save_contacts(contacts, path):
    payload = {
        "format_version": core_io.FORMAT_VERSION,
        "kind": "contact_sequence",
        "fps": contacts.fps,
        "joint_names": list(CONTACT_JOINT_NAMES),
        "labels": contacts.labels.astype(int).tolist(),
        "phases": {
            CONTACT_JOINT_NAMES[f]: [[kind, n] for kind, n in contacts.phases(f)]
            for f in range(4)
        },
    }
    core_io.write_json(path, payload)


def load_contacts(path):
    raw = core_io.read_json(path, "contact_sequence")
    labels = core_io.numbers(raw, "labels").astype(int).astype(bool)
    out = ContactSequence(fps=float(core_io.numbers(raw, "fps", ())), labels=labels)
    phases = core_io.need(raw, "phases")
    for f, name in enumerate(CONTACT_JOINT_NAMES):
        runs = [(kind, int(n)) for kind, n in core_io.need(phases, name, "phases")]
        rebuilt = labels_from_phases(runs, out.fps)
        if not np.array_equal(rebuilt, labels[:, f]):
            raise core_io.SchemaError(
                f"phases.{name} does not reconstruct the label column")
    return out
