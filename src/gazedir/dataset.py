"""Annotation manifest ingestion, train/test splitting, and the run-choice tables.

A manifest is a CSV binding each image to its face box, optional eye-corner
landmarks, gaze class, and optional subject id. Rows become Samples; Samples
become one EyePatches per eye, an (N, h, w) array at the mode's patch size
with a label vector: read_frame crops each image's eye boxes from a band of
the rows they span, and grey_resize greys and resizes a run of CROP_CHUNK
images' crops in one stack per crop shape, so a colour frame is never greyed
whole. The 7 -> 3 class mapping is run configuration, in `config` (RunConfig.map3).
"""

from __future__ import annotations

import collections
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
class EyePatches:
    """One eye's patches of a run: pixels an (N, h, w) stack on the 0..255
    scale (float32 from make_eye_pairs), labels the (N,) int class vector."""

    pixels: np.ndarray
    labels: np.ndarray
    split: str = "train"

    def __len__(self) -> int:
        return len(self.pixels)


def load_manifest(path) -> list[Sample]:
    """Parses the manifest CSV; '#' comment lines are skipped.

    All malformed rows are collected and reported together, by line number.
    """
    samples: list[Sample] = []
    bad: list[str] = []
    with open(path, "r", encoding="utf-8-sig", newline="") as f:
        reader = csv.reader(f)
        header = None
        try:
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
        except csv.Error as exc:  # e.g. a field above the csv module's size limit
            raise ManifestError(f"{path}: line {reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:  # decoded in blocks, so no line number
            raise ManifestError(f"{path}: {exc}") from None
    if header is None:
        raise ManifestError(f"{path}: missing header row")
    if bad:
        raise ManifestError(f"{path}: rejected rows: " + "; ".join(bad))
    return samples


def _parse_row(row: list[str]) -> Sample:
    if len(row) != len(MANIFEST_COLUMNS):
        raise ValueError(f"expected {len(MANIFEST_COLUMNS)} fields, got {len(row)}")
    fields = [c.strip() for c in row]
    if not fields[0]:
        raise ValueError("empty image_path")
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
    """Writes manifest rows; ValueError, before any write, if a text field won't read back."""
    for s in samples:  # the csv writer leaves a lone "\r" unquoted
        if s.image_path[:1] in ("", "#") or any(
                t != t.strip() or "\r" in t or len(t) > csv.field_size_limit()
                or t.encode("utf-8", "surrogatepass") != t.encode("utf-8", "replace")  # surrogates
                for t in (s.image_path, s.subject_id or "")):
            raise ValueError(f"sample {s.image_path!r} (subject {s.subject_id!r}) won't read back")
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
    sizes = collections.Counter(s.subject_id for s in samples)
    subjects = sorted(sizes)
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
        count += sizes[subjects[i]]
    train = [s for s in samples if s.subject_id in train_subjects]
    test = [s for s in samples if s.subject_id not in train_subjects]
    return SplitPair(train=train, test=test)


# run choices: crop path (mode) -> patch (rows, cols), eyes, class sets by size
PATCH_HW = {"roi": (42, 50), "ert": (15, 25)}
# samples whose crops make_eye_pairs greys and resizes together: one stack per
# crop shape per run, and memory grows by a run's crops, not by frames
CROP_CHUNK = 32
SIDES = ("left", "right")
EYES = (*SIDES, "both")
CLASS_SETS = {3: ThreeClass, 7: EacClass}


def default_patch_hw(mode: str) -> tuple[int, int]:
    """The crop path's fixed patch size; ValueError for an unknown mode."""
    if mode not in PATCH_HW:
        raise ValueError(f"mode must be {' or '.join(PATCH_HW)}, got {mode!r}")
    return PATCH_HW[mode]


def class_names(n_classes: int) -> list[str]:
    """The class set of that size, in reporting order; ValueError for another size."""
    if n_classes not in CLASS_SETS:
        raise ValueError(f"classes must be {' or '.join(map(str, CLASS_SETS))}, got {n_classes}")
    return [c.name for c in CLASS_SETS[n_classes]]


def eye_selection(eye: str) -> tuple[bool, bool]:
    """Which of (left, right) `eye` selects; ValueError outside EYES."""
    if eye not in EYES:
        raise ValueError(f"eye must be {'|'.join(EYES)}, got {eye!r}")
    return eye != "right", eye != "left"


def eye_boxes(sample: Sample, mode: str, eye: str) -> tuple:
    """(image-left, image-right) eye boxes: ROI geometry cut from the face box
    in roi mode, framed by the eye-corner landmarks in ert mode. An eye that
    `eye` does not select gets None; its box is not computed."""
    wanted = eye_selection(eye)
    default_patch_hw(mode)  # rejects an unknown mode
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


def _crop_eyes(img, sample: Sample, boxes: tuple, top: int = 0, height: int | None = None) -> tuple:
    """The crops of img under the (left, right) boxes, None for a None box;
    img may be a band, as preprocess.crop takes it. Errors name the image."""
    try:
        return tuple(None if box is None else preprocess.crop(img, box, top, height)
                     for box in boxes)
    except ValueError as exc:
        raise ValueError(f"{sample.image_path}: {exc}") from None


def grey_resize(crops, patch_hw: tuple[int, int]) -> np.ndarray:
    """float32 (len(crops), h, w) patches of the crops, in order: one
    to_grayscale call (colour crops are 3-D, never grouped with grey ones) and
    one resize_bilinear call per crop shape. Both work image by image, so this
    equals greying the whole frame first and resizing each crop alone."""
    h, w = patch_hw
    groups = collections.defaultdict(list)
    for i, c in enumerate(crops):
        groups[c.shape].append(i)
    out = np.empty((len(crops), h, w), np.float32)
    for rows in groups.values():
        stack = np.stack([crops[i] for i in rows])
        if stack.ndim == 4:
            stack = preprocess.to_grayscale(stack)
        out[rows] = preprocess.resize_bilinear(stack, w, h)
    return out


def extract_patch(
    img: np.ndarray, sample: Sample, side: str, mode: str, patch_hw: tuple[int, int]
) -> np.ndarray:
    """One eye's patch of a whole image: its eye_boxes box alone, cropped and grey_resized."""
    crop = _crop_eyes(img, sample, eye_boxes(sample, mode, side))[SIDES.index(side)]
    return grey_resize([crop], patch_hw)[0]


def read_frame(sample: Sample, mode: str, image_root: str = "", eye: str = "both") -> tuple:
    """The sample's (left, right) eye crops, None for an eye `eye` does not
    select: its eye_boxes, computed once, cut from read_pnm's band of the rows
    they span. When the boxes are bad, a zero-row read checks the image first,
    so a bad image is still reported before them. Errors name the image."""
    path = os.path.join(image_root, sample.image_path)
    try:
        boxes = eye_boxes(sample, mode, eye)
    except ValueError as exc:
        preprocess.read_pnm(path, (0, 0))
        raise ValueError(f"{sample.image_path}: {exc}") from None
    selected = [box for box in boxes if box is not None]
    rows = min(box.y for box in selected), max(box.y + box.h for box in selected)
    band, top, height = preprocess.read_pnm(path, rows)
    return _crop_eyes(band, sample, boxes, top, height)


def make_eye_pairs(
    samples: list[Sample], mode: str, image_root: str = "", split: str = "train",
    labels=None, eye: str = "both",
) -> tuple:
    """(left, right) EyePatches of the samples at the mode's patch size,
    tagged with their split, one row per sample; each image is decoded once.
    An eye that `eye` does not select is None. Only the rows the selected eye
    boxes span are read from the file, and only the crops are kept: runs of
    CROP_CHUNK samples go through read_frame, then one grey_resize per run,
    equal to read_frame and grey_resize per sample.
    Errors name the image; the first bad sample in order is the one reported.

    labels defaults to each sample's 7-class index; pass explicit labels for
    3-class runs.
    """
    hw = default_patch_hw(mode)
    ys = np.array([int(s.eac) if labels is None else int(labels[i])
                   for i, s in enumerate(samples)], dtype=int)
    wanted = eye_selection(eye)
    out = [np.empty((len(samples), *hw), np.float32) for w in wanted if w]
    for start in range(0, len(samples), CROP_CHUNK):
        run = samples[start : start + CROP_CHUNK]
        # each sample's selected eyes, in (left, right) order
        crops = [c for s in run for c in read_frame(s, mode, image_root, eye) if c is not None]
        patches = grey_resize(crops, hw).reshape(len(run), len(out), *hw)
        for k, pixels in enumerate(out):
            pixels[start : start + len(run)] = patches[:, k]
    eyes = iter(EyePatches(pixels, ys, split) for pixels in out)
    return tuple(next(eyes) if w else None for w in wanted)


def make_eye_patches(
    samples: list[Sample], side: str, mode: str,
    image_root: str = "", split: str = "train", labels=None,
) -> EyePatches:
    """One eye's patches: `make_eye_pairs` cropping only that eye."""
    if side not in SIDES:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    pairs = make_eye_pairs(samples, mode, image_root, split, labels, eye=side)
    return pairs[SIDES.index(side)]


def patches_to_tensors(patches: EyePatches) -> list[tuple[np.ndarray, int]]:
    """(tensor, label) per patch, each tensor a (1, H, W) view of the
    normalized stack, byte-identical to preprocess.normalize of that patch."""
    return list(zip(preprocess.normalize_stack(patches.pixels), patches.labels.tolist()))
