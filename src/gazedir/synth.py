"""Synthetic face corpus: a desk-scale stand-in for a real gaze dataset.

Each image is a noisy grayscale canvas with two schematic eyes (bright sclera
ellipse, dark iris disc). The iris sits at one of seven canonical offsets,
one per gaze class, with both eyes gazing the same way. Face boxes and
eye-corner landmarks are exact, so both crop paths work on the output.
"""

from __future__ import annotations

import os

import numpy as np

from .dataset import EacClass, Sample, write_manifest
from .preprocess import Box, EyeLandmarks, write_pgm

CANVAS = 120
FACE = Box(10, 10, 100, 100)

# eye geometry inside the face (pixel coordinates on the canvas)
LEFT_EYE_CENTER = (38, 45)   # matches the geometric-ROI box centers
RIGHT_EYE_CENTER = (82, 45)
EYE_HALF_W = 11
EYE_HALF_H = 6
IRIS_RADIUS = 4

# iris center offset (dx, dy) from the eye center, per class; dy grows downward
IRIS_OFFSETS: dict[EacClass, tuple[int, int]] = {
    EacClass.VD: (0, 0),    # defocused: centered
    EacClass.VR: (-5, -3),  # up-left
    EacClass.VC: (5, -3),   # up-right
    EacClass.AR: (-6, 0),   # left
    EacClass.AC: (6, 0),    # right
    EacClass.ID: (-5, 3),   # down-left
    EacClass.K:  (5, 3),    # down-right
}


def render_face(rng: np.random.Generator, eac: EacClass) -> np.ndarray:
    """One 120x120 uint8 face image for the given gaze class."""
    base = rng.uniform(120, 180)
    img = np.full((CANVAS, CANVAS), base, dtype=np.float64)
    img[FACE.y : FACE.y + FACE.h, FACE.x : FACE.x + FACE.w] += 12.0

    xs = np.arange(CANVAS)[None, :]
    ys = np.arange(CANVAS)[:, None]
    dx, dy = IRIS_OFFSETS[eac]
    jx = int(rng.integers(-1, 2))
    jy = int(rng.integers(-1, 2))
    for cx, cy in (LEFT_EYE_CENTER, RIGHT_EYE_CENTER):
        ellipse = ((xs - cx) / EYE_HALF_W) ** 2 + ((ys - cy) / EYE_HALF_H) ** 2 <= 1.0
        img[ellipse] = 232.0
        ix, iy = cx + dx + jx, cy + dy + jy
        iris = ((xs - ix) ** 2 + (ys - iy) ** 2 <= IRIS_RADIUS**2) & ellipse
        img[iris] = 35.0

    img += rng.normal(0.0, 6.0, size=img.shape)
    return np.clip(np.floor(img + 0.5), 0, 255).astype(np.uint8)


def canonical_landmarks() -> EyeLandmarks:
    (lx, ly), (rx, ry) = LEFT_EYE_CENTER, RIGHT_EYE_CENTER
    return EyeLandmarks(
        left_outer=(float(lx - EYE_HALF_W), float(ly)),
        left_inner=(float(lx + EYE_HALF_W), float(ly)),
        right_inner=(float(rx - EYE_HALF_W), float(ry)),
        right_outer=(float(rx + EYE_HALF_W), float(ry)),
    )


def generate_corpus(out_dir, n_per_class: int, seed: int) -> tuple[str, list[Sample]]:
    """Writes n_per_class PGM images per gaze class plus manifest.csv.

    Subject ids repeat across classes (subject k has one image of each class),
    mirroring a subjects-by-classes collection. Returns (manifest path, samples).
    """
    if n_per_class < 1:
        raise ValueError("n_per_class must be >= 1")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng(seed)
    landmarks = canonical_landmarks()
    samples = []
    for eac in EacClass:
        for k in range(n_per_class):
            name = f"{eac.name.lower()}_{k:03d}.pgm"
            write_pgm(os.path.join(out_dir, name), render_face(rng, eac))
            samples.append(
                Sample(name, FACE, eac, landmarks, subject_id=f"s{k:03d}")
            )
    manifest_path = os.path.join(out_dir, "manifest.csv")
    write_manifest(manifest_path, samples)
    return manifest_path, samples
