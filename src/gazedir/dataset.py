"""Annotation manifest ingestion, train/test splitting, and label mapping.

A manifest is a CSV binding each image to its face box, optional eye-corner
landmarks, gaze class, and optional subject id. Rows become Samples; Samples
become per-eye patches via the preprocess chain.
"""

from __future__ import annotations

import csv
import enum
import math
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
    face = parse_face(fields[2:6])
    lm_fields = fields[6:14]
    if all(v == "" for v in lm_fields):
        landmarks = None
    elif all(v != "" for v in lm_fields):
        landmarks = parse_landmarks(lm_fields)
    else:
        raise ValueError("landmark columns must be all present or all empty")
    subject = fields[14] or None
    return Sample(fields[0], face, eac, landmarks, subject)


def parse_face(tokens: list[str]) -> Box:
    """Face box from the integer tokens x, y, w, h: positive extents, |values| < 2**31."""
    if len(tokens) != 4:
        raise ValueError(f"face box needs 4 values x,y,w,h, got {len(tokens)}")
    try:
        v = [int(t) for t in tokens]
    except ValueError:
        raise ValueError(f"bad face box {tokens}") from None
    if v[2] <= 0 or v[3] <= 0:
        raise ValueError(f"non-positive face extents {tokens}")
    if max(map(abs, v)) >= 2**31:
        raise ValueError(f"face box values beyond 32 bits {tokens}")
    return Box(*v)


def parse_landmarks(tokens: list[str]) -> EyeLandmarks:
    """Eye corners from the eight finite tokens lo_x,lo_y,li_x,li_y,ri_x,ri_y,ro_x,ro_y."""
    if len(tokens) != 8:
        raise ValueError(f"landmarks need 8 values, got {len(tokens)}")
    try:
        v = [float(t) for t in tokens]
    except ValueError:
        raise ValueError(f"bad landmark coordinates {tokens}") from None
    if not all(math.isfinite(c) for c in v):
        raise ValueError(f"non-finite landmark coordinates {tokens}")
    return EyeLandmarks(
        left_outer=(v[0], v[1]), left_inner=(v[2], v[3]),
        right_inner=(v[4], v[5]), right_outer=(v[6], v[7]),
    )


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


SIDES = ("left", "right")


def eye_boxes(sample: Sample, mode: str, eye: str = "both") -> tuple:
    """(image-left, image-right) eye boxes: ROI geometry cut from the face box
    in roi mode, framed by the eye-corner landmarks in ert mode. An eye that
    `eye` does not select gets None; its box is not computed."""
    wanted = [eye in (side, "both") for side in SIDES]
    if mode == "roi":
        boxes = preprocess.geometric_eye_rois(sample.face)
        return tuple(box if w else None for box, w in zip(boxes, wanted))
    lm = sample.landmarks
    if lm is None:
        raise ValueError("ert mode needs eye-corner landmarks")
    corners = ((lm.left_inner, lm.left_outer), (lm.right_inner, lm.right_outer))
    return tuple(
        preprocess.landmark_eye_crop(*c) if w else None for c, w in zip(corners, wanted)
    )


def eye_pair(
    gray: np.ndarray, sample: Sample, mode: str, patch_hw: tuple[int, int], eye: str = "both"
) -> tuple:
    """(left, right) patches of one decoded image, cropped and resized to
    patch_hw; an eye that `eye` does not select is None and is not cropped."""
    h, w = patch_hw
    return tuple(
        None if box is None else preprocess.resize_bilinear(preprocess.crop(gray, box), w, h)
        for box in eye_boxes(sample, mode, eye)
    )


def extract_patch(
    gray: np.ndarray, sample: Sample, side: str, mode: str, patch_hw: tuple[int, int]
) -> np.ndarray:
    """Crop one eye and resize to patch_hw; the other eye is not cropped."""
    return eye_pair(gray, sample, mode, patch_hw, eye=side)[SIDES.index(side)]


def make_eye_pairs(
    samples: list[Sample], mode: str, patch_hw: tuple[int, int] | None = None,
    image_root: str = "", split: str = "train", labels=None, eye: str = "both",
) -> tuple[list[EyePatch], list[EyePatch]]:
    """Decodes each image once into (left, right) patch lists tagged with their
    split; the list of an eye that `eye` does not select stays empty.

    labels defaults to each sample's 7-class index; pass explicit labels for
    3-class runs.
    """
    if mode not in ("roi", "ert"):
        raise ValueError(f"mode must be 'roi' or 'ert', got {mode!r}")
    hw = default_patch_hw(mode) if patch_hw is None else patch_hw
    out: tuple[list[EyePatch], list[EyePatch]] = ([], [])
    for i, sample in enumerate(samples):
        img = preprocess.read_pnm(os.path.join(image_root, sample.image_path))
        gray = preprocess.to_grayscale(img)
        label = int(sample.eac) if labels is None else int(labels[i])
        try:
            pair = eye_pair(gray, sample, mode, hw, eye)
        except ValueError as exc:
            raise ValueError(f"{sample.image_path}: {exc}") from None
        for patches, pixels in zip(out, pair):
            if pixels is not None:
                patches.append(EyePatch(pixels, label, split))
    return out


def make_eye_patches(
    samples: list[Sample], side: str, mode: str, patch_hw: tuple[int, int] | None = None,
    image_root: str = "", split: str = "train", labels=None,
) -> list[EyePatch]:
    """One eye's patches: `make_eye_pairs` cropping only that eye."""
    if side not in SIDES:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    pairs = make_eye_pairs(samples, mode, patch_hw, image_root, split, labels, eye=side)
    return pairs[SIDES.index(side)]


def patches_to_tensors(patches: list[EyePatch]) -> list[tuple[np.ndarray, int]]:
    return [(preprocess.normalize(p.pixels), p.label) for p in patches]

