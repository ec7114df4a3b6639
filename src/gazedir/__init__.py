"""Eye-gaze-direction classification pipeline.

Eye patches are cut from annotated face images (geometric ROI or eye-corner
landmarks), two small CNNs are trained independently for the left and right
eye, and their class probabilities are fused by averaging.
"""

from .dataset import EacClass, Sample, ThreeClass
from .nn import Model, build_gaze_net, load_model, save_model, train_epoch
from .fusion import evaluate, fuse_scores, predict_class
from .preprocess import Box, EyeLandmarks

__version__ = "0.1.0"

__all__ = [
    "Box",
    "EacClass",
    "EyeLandmarks",
    "Model",
    "Sample",
    "ThreeClass",
    "build_gaze_net",
    "evaluate",
    "fuse_scores",
    "load_model",
    "predict_class",
    "save_model",
    "train_epoch",
    "__version__",
]
