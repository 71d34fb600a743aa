"""Synthetic motion generator: scripted clips with ground truth."""
from .dataset import (classifier_suite, exact_suite, generate_suite,
                      plausibility_suite, write_dataset)
from .generate import GeneratedClip, generate
from .scripts import MotionScript

__all__ = [
    "MotionScript", "GeneratedClip", "generate",
    "exact_suite", "plausibility_suite", "classifier_suite",
    "generate_suite", "write_dataset",
]
