"""Annotation manifest ingestion, train/test splitting, and label mapping.

A manifest is a CSV binding each image to its face box, optional eye-corner
landmarks, gaze class, and optional subject id. Rows become Samples; Samples
become per-eye patches via the preprocess chain.
"""

from __future__ import annotations

import csv
import enum
import os
from dataclasses import dataclass

import numpy as np

from . import preprocess
from .preprocess import Box, EyeLandmarks


class EacClass(enum.IntEnum):
    """The seven gaze-direction classes, in fixed reporting order."""

    VD = 0
    VR = 1
    VC = 2
    AR = 3
    AC = 4
    ID = 5
    K = 6


class ThreeClass(enum.IntEnum):
    LEFT = 0
    CENTER = 1
    RIGHT = 2


# 7 -> 3 class mapping; None drops the class in 3-class mode. The lateral
# auditory cues map to left/right and the defocused class to center; the
# mapping is configuration, not ground truth.
DEFAULT_THREE_CLASS_MAP: dict[EacClass, ThreeClass | None] = {
    EacClass.VD: ThreeClass.CENTER,
    EacClass.VR: None,
    EacClass.VC: None,
    EacClass.AR: ThreeClass.LEFT,
    EacClass.AC: ThreeClass.RIGHT,
    EacClass.ID: None,
    EacClass.K: None,
}

MANIFEST_COLUMNS = [
    "image_path", "eac",
    "face_x", "face_y", "face_w", "face_h",
    "lo_x", "lo_y", "li_x", "li_y", "ri_x", "ri_y", "ro_x", "ro_y",
    "subject_id",
]


class ManifestError(ValueError):
    """Malformed manifest content; carries the offending line numbers."""


@dataclass
class Sample:
    image_path: str
    face: Box
    eac: EacClass
    landmarks: EyeLandmarks | None = None
    subject_id: str | None = None


@dataclass
class SplitPair:
    train: list[Sample]
    test: list[Sample]


@dataclass
class EyePatch:
    """One extracted eye patch: float32 pixels on the 0..255 scale."""

    pixels: np.ndarray
    label: int
    split: str = "train"


def load_manifest(path) -> list[Sample]:
    """Parses the manifest CSV; '#' comment lines are skipped.

    All malformed rows are collected and reported together, by line number.
    """
    samples: list[Sample] = []
    bad: list[str] = []
    with open(path, "r", encoding="utf-8-sig", newline="") as f:
        reader = csv.reader(f)
        header = None
        for row in reader:
            if not row or row[0].lstrip().startswith("#"):
                continue
            if header is None:
                header = [c.strip() for c in row]
                if header != MANIFEST_COLUMNS:
                    raise ManifestError(
                        f"{path}: bad header; expected {','.join(MANIFEST_COLUMNS)}"
                    )
                continue
            try:
                samples.append(_parse_row(row))
            except ValueError as exc:
                bad.append(f"line {reader.line_num}: {exc}")
    if header is None:
        raise ManifestError(f"{path}: missing header row")
    if bad:
        raise ManifestError(f"{path}: rejected rows: " + "; ".join(bad))
    return samples


def _parse_row(row: list[str]) -> Sample:
    if len(row) != len(MANIFEST_COLUMNS):
        raise ValueError(f"expected {len(MANIFEST_COLUMNS)} fields, got {len(row)}")
    fields = [c.strip() for c in row]
    token = fields[1].upper()
    if token not in EacClass.__members__:
        raise ValueError(f"unknown eac label {fields[1]!r}")
    eac = EacClass[token]
    try:
        face = Box(*(int(v) for v in fields[2:6]))
    except ValueError:
        raise ValueError(f"bad face box {fields[2:6]}")
    if face.w <= 0 or face.h <= 0:
        raise ValueError(f"non-positive face extents {fields[2:6]}")
    lm_fields = fields[6:14]
    if all(v == "" for v in lm_fields):
        landmarks = None
    elif all(v != "" for v in lm_fields):
        try:
            vals = [float(v) for v in lm_fields]
        except ValueError:
            raise ValueError(f"bad landmark coordinates {lm_fields}")
        landmarks = EyeLandmarks(
            left_outer=(vals[0], vals[1]),
            left_inner=(vals[2], vals[3]),
            right_inner=(vals[4], vals[5]),
            right_outer=(vals[6], vals[7]),
        )
    else:
        raise ValueError("landmark columns must be all present or all empty")
    subject = fields[14] or None
    return Sample(fields[0], face, eac, landmarks, subject)


def write_manifest(path, samples: list[Sample]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(MANIFEST_COLUMNS)
        for s in samples:
            lm = [""] * 8
            if s.landmarks is not None:
                pts = (
                    s.landmarks.left_outer, s.landmarks.left_inner,
                    s.landmarks.right_inner, s.landmarks.right_outer,
                )
                lm = [repr(v) for pt in pts for v in pt]
            writer.writerow(
                [s.image_path, s.eac.name,
                 s.face.x, s.face.y, s.face.w, s.face.h,
                 *lm, s.subject_id or ""]
            )


def split_50_50(samples: list, seed: int) -> SplitPair:
    """Seeded shuffle then halve; train takes the extra sample on odd counts."""
    n = len(samples)
    if n < 2:
        raise ValueError("need at least 2 samples to split")
    order = np.random.default_rng(seed).permutation(n)
    n_train = (n + 1) // 2
    return SplitPair(
        train=[samples[i] for i in order[:n_train]],
        test=[samples[i] for i in order[n_train:]],
    )


def split_subject_disjoint(samples: list[Sample], seed: int) -> SplitPair:
    """Stricter split: whole subjects go to one side. Sizes are best-effort 50/50."""
    if any(s.subject_id is None for s in samples):
        raise ValueError("subject-disjoint split needs subject_id on every sample")
    subjects = sorted({s.subject_id for s in samples})
    if len(subjects) < 2:
        raise ValueError("need at least 2 subjects for a subject-disjoint split")
    order = np.random.default_rng(seed).permutation(len(subjects))
    target = len(samples) / 2
    train_subjects: set = set()
    count = 0
    for i in order:
        if count >= target:
            break
        train_subjects.add(subjects[i])
        count += sum(1 for s in samples if s.subject_id == subjects[i])
    train = [s for s in samples if s.subject_id in train_subjects]
    test = [s for s in samples if s.subject_id not in train_subjects]
    return SplitPair(train=train, test=test)


def to_three_class(
    sample: Sample, mapping: dict[EacClass, ThreeClass | None] | None = None
) -> ThreeClass | None:
    """Maps the 7-class label into {left, center, right}; None when excluded."""
    mapping = DEFAULT_THREE_CLASS_MAP if mapping is None else mapping
    missing = [c.name for c in EacClass if c not in mapping]
    if missing:
        raise ValueError(f"3-class mapping missing entries for: {', '.join(missing)}")
    return mapping[sample.eac]


def default_patch_hw(mode: str) -> tuple[int, int]:
    if mode == "roi":
        return preprocess.ROI_PATCH_HW
    if mode == "ert":
        return preprocess.ERT_PATCH_HW
    raise ValueError(f"unknown path mode {mode!r}")


def extract_patch(
    gray: np.ndarray,
    sample: Sample,
    side: str,
    mode: str,
    patch_hw: tuple[int, int],
) -> np.ndarray:
    """Crop one eye (ROI geometry or landmark corners) and resize to patch_hw."""
    if mode == "roi":
        left_box, right_box = preprocess.geometric_eye_rois(sample.face)
        box = left_box if side == "left" else right_box
    else:
        if sample.landmarks is None:
            raise ValueError(
                f"{sample.image_path}: ert mode needs eye-corner landmarks"
            )
        lm = sample.landmarks
        if side == "left":
            box = preprocess.landmark_eye_crop(lm.left_inner, lm.left_outer)
        else:
            box = preprocess.landmark_eye_crop(lm.right_inner, lm.right_outer)
    sub = preprocess.crop(gray, box)
    return preprocess.resize_bilinear(sub, out_w=patch_hw[1], out_h=patch_hw[0])


def make_eye_patches(
    samples: list[Sample],
    side: str,
    mode: str,
    patch_hw: tuple[int, int] | None = None,
    image_root: str = "",
    split: str = "train",
    labels=None,
) -> list[EyePatch]:
    """Extracts one patch per sample for the chosen eye, tagged with its split.

    labels defaults to each sample's 7-class index; pass explicit labels for
    3-class runs.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    if mode not in ("roi", "ert"):
        raise ValueError(f"mode must be 'roi' or 'ert', got {mode!r}")
    hw = default_patch_hw(mode) if patch_hw is None else patch_hw
    out = []
    for i, sample in enumerate(samples):
        img = preprocess.read_pnm(os.path.join(image_root, sample.image_path))
        gray = preprocess.to_grayscale(img)
        pixels = extract_patch(gray, sample, side, mode, hw)
        label = int(sample.eac) if labels is None else int(labels[i])
        out.append(EyePatch(pixels=pixels, label=label, split=split))
    return out


def patches_to_tensors(patches: list[EyePatch]) -> list[tuple[np.ndarray, int]]:
    return [(preprocess.normalize(p.pixels), p.label) for p in patches]

