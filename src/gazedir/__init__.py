"""Eye-gaze-direction classification pipeline.

Eye patches are cut from annotated face images (geometric ROI or eye-corner
landmarks), two small CNNs are trained independently for the left and right
eye, and their class probabilities are fused by averaging.
"""
