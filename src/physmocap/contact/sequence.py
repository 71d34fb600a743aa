"""Per-frame foot contact labels and their phase representation."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import io as core_io


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
        if not np.isfinite(self.fps) or self.fps <= 0:
            raise ValueError(f"fps must be finite and positive, got {self.fps}")

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


def save_contacts(contacts, path):
    core_io.write_json(path, {
        "format_version": core_io.FORMAT_VERSION, "kind": "contact_sequence",
        "fps": contacts.fps, "labels": contacts.labels.astype(int).tolist()})


def load_contacts(path):
    raw = core_io.read_json(path, "contact_sequence")
    return ContactSequence(fps=float(core_io.numbers(raw, "fps", ())),
                           labels=core_io.numbers(raw, "labels").astype(int).astype(bool))
