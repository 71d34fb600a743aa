from .sequence import ContactSequence, load_contacts, save_contacts
from .heuristic import (
    heuristic_label,
    label_accuracy,
    tune_baseline_threshold,
    velocity_baseline_2d,
    velocity_baseline_3d,
)
from .features import make_features, make_features_batch
from .train import TrainingConfig, WindowDataset, build_windows, split_motions, train_classifier
from .predict import (
    ContactClassifier,
    load_classifier,
    predict_contacts,
    save_classifier,
)
