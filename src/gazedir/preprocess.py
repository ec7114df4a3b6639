"""Annotated face image -> fixed-size single-channel eye patches.

Two crop paths: a geometric ROI cut from the face bounding box, and a
landmark crop framed by the eye-corner points. Includes the minimal raster
codec (binary PGM/PPM) the pipeline ingests.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

# eye ROI as fractions of the face box: x offsets for the image-left and
# image-right eye, shared y offset, and the box extents
ROI_FRACTIONS = (0.12, 0.56, 0.22, 0.32, 0.26)

# landmark crop extents as multiples of the eye-corner distance (w, h)
LANDMARK_MARGINS = (1.5, 0.9)


@dataclass(frozen=True)
class Box:
    """Axis-aligned pixel rectangle: top-left corner plus extents."""

    x: int
    y: int
    w: int
    h: int


@dataclass(frozen=True)
class EyeLandmarks:
    """Eye-corner points (x, y); left/right refer to the image's sides."""

    left_outer: tuple[float, float]
    left_inner: tuple[float, float]
    right_inner: tuple[float, float]
    right_outer: tuple[float, float]


def _round_px(v: float) -> int:
    """Round to nearest pixel, halves away from the origin-side."""
    if not math.isfinite(v):
        raise ValueError(f"non-finite pixel coordinate {v}")
    return int(math.floor(v + 0.5))


# --------------------------------------------------------------------------
# PGM / PPM codec (binary P5 / P6, 8-bit)
# --------------------------------------------------------------------------

_HEADER_READ = 256  # read buffer size; a default one (4-8 KiB) reads 2-4 VGA rows more


def _next_token(f) -> bytes:
    """The next header token of stream f. Skips whitespace and '#' comments
    that run to end of line, then consumes the one whitespace byte after the
    token, so after maxval f sits at the first raster byte."""
    ch = f.read(1)
    while ch.isspace() or ch == b"#":
        if ch == b"#":  # runs to the line end; b"" (EOF) is also `in` b"\n\r"
            while ch not in b"\n\r":
                ch = f.read(1)
        ch = f.read(1)
    token = bytearray()  # appends in place, so a long token costs linear time
    while ch and not ch.isspace():
        token += ch
        ch = f.read(1)
    if not token:
        raise ValueError("truncated PNM header")
    return bytes(token)


def read_pnm(path, rows=None) -> np.ndarray:
    """Reads binary PGM (P5) or PPM (P6); returns uint8 (H,W) or (H,W,3).

    Samples of a file with maxval < 255 are rescaled to 0..255 as
    floor(v * 255 / maxval + 0.5). A malformed file raises ValueError naming it.
    The file is read through a _HEADER_READ-byte buffer, and the raster with
    one readinto straight into the returned array. With rows=(y0, y1), only
    rows y0..y1-1 (clamped to the image) are read and the other rows of the
    full-shape result stay zero. A file with maxval < 255 is read whole, so
    every sample is still checked against maxval, and so is a pipe, which
    cannot seek.
    """
    with open(path, "rb", buffering=_HEADER_READ) as f:
        try:
            return _read_pnm(f, rows)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def _read_pnm(f, rows) -> np.ndarray:
    magic, width, height, maxval = _parse_header(f)
    row_bytes = width * (1 if magic == b"P5" else 3)
    seekable = f.seekable()  # a pipe has no size to check and is read through
    if seekable and os.fstat(f.fileno()).st_size - f.tell() < height * row_bytes:
        raise ValueError("raster truncated")
    img = np.zeros((height, width) if magic == b"P5" else (height, width, 3), np.uint8)
    if rows is None or maxval != 255 or not seekable:
        rows = (0, height)
    y0, y1 = (min(max(y, 0), height) for y in rows)
    view = memoryview(img).cast("B")[y0 * row_bytes : y1 * row_bytes]
    if y0:
        f.seek(y0 * row_bytes, os.SEEK_CUR)
    if f.readinto(view) < len(view):  # reads on to EOF, so the file shrank
        raise ValueError("raster truncated")
    if maxval != 255:
        if img.max() > maxval:
            raise ValueError(f"sample above maxval {maxval}")
        # floor(v * 255 / maxval + 0.5) in exact integer arithmetic
        img = ((img.astype(np.uint32) * 510 + maxval) // (2 * maxval)).astype(np.uint8)
    return img


def _parse_header(f) -> tuple[bytes, int, int, int]:
    """(magic, width, height, maxval) of a P5/P6 header read from stream f."""
    magic = _next_token(f)
    if magic not in (b"P5", b"P6"):
        raise ValueError(f"unsupported raster format {magic!r}")
    fields = []
    for _ in range(3):
        tok = _next_token(f)
        if not tok.isdigit():  # ASCII decimal only; int() also takes b"+5" and b"1_0"
            raise ValueError(f"PNM header field {tok!r} is not a decimal integer")
        fields.append(int(tok))
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise ValueError(f"bad dimensions {width}x{height}")
    if not 0 < maxval <= 255:
        raise ValueError(f"only 8-bit rasters supported (maxval {maxval})")
    return magic, width, height, maxval


def write_pgm(path, img: np.ndarray) -> None:
    if img.ndim != 2:
        raise ValueError("PGM output needs a single-channel image")
    _write_pnm(path, b"P5", img)


def write_ppm(path, img: np.ndarray) -> None:
    if img.ndim != 3 or img.shape[2] != 3:
        raise ValueError("PPM output needs an interleaved 3-channel image")
    _write_pnm(path, b"P6", img)


def _write_pnm(path, magic: bytes, img: np.ndarray) -> None:
    """Writes an 8-bit binary PNM; refuses an image read_pnm would not read back."""
    if img.dtype != np.uint8 or img.size == 0:
        raise ValueError(f"PNM output needs a non-empty uint8 image, got {img.dtype} {img.shape}")
    with open(path, "wb") as f:
        f.write(b"%s\n%d %d\n255\n" % (magic, img.shape[1], img.shape[0]))
        f.write(img.tobytes())


# --------------------------------------------------------------------------
# pixel operations
# --------------------------------------------------------------------------

def to_grayscale(img: np.ndarray) -> np.ndarray:
    """Rec.601 luma (0.299, 0.587, 0.114); 1-channel input passes through."""
    if img.ndim == 2:
        return img
    if img.ndim == 3 and img.shape[2] == 3:
        luma = (
            0.299 * img[..., 0].astype(np.float64)
            + 0.587 * img[..., 1]
            + 0.114 * img[..., 2]
        )
        return np.floor(luma + 0.5).astype(np.uint8)
    raise ValueError(f"unsupported channel layout for shape {img.shape}")


def bilinear_sample(src: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Bilinear taps of a 2-D image at coordinates the caller has clamped to
    [0, w-1] x [0, h-1]; xs and ys broadcast to the output shape. Returns
    float64.
    """
    h, w = src.shape
    src = src.astype(np.float64, copy=False)
    x0 = np.floor(xs).astype(int)
    y0 = np.floor(ys).astype(int)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = xs - x0
    fy = ys - y0
    v00 = src[y0, x0]
    v10 = src[y1, x0]
    # lerp form keeps constant inputs exactly constant
    top = v00 + (src[y0, x1] - v00) * fx
    bottom = v10 + (src[y1, x1] - v10) * fx
    return top + (bottom - top) * fy


def resize_bilinear(img: np.ndarray, out_w: int, out_h: int) -> np.ndarray:
    """Bilinear resample with half-pixel-center sampling and edge clamping.

    Output pixel (i, j) samples the source at
    ((j+0.5)*w/out_w - 0.5, (i+0.5)*h/out_h - 0.5). Returns float32.
    """
    if out_w < 1 or out_h < 1:
        raise ValueError(f"empty resize target {out_w}x{out_h}")
    if img.ndim != 2:
        raise ValueError(f"resize_bilinear expects a single-channel image, got shape {img.shape}")
    h, w = img.shape
    xs = np.clip((np.arange(out_w) + 0.5) * (w / out_w) - 0.5, 0, w - 1)
    ys = np.clip((np.arange(out_h) + 0.5) * (h / out_h) - 0.5, 0, h - 1)
    return bilinear_sample(img, xs[None, :], ys[:, None]).astype(np.float32)


def geometric_eye_rois(face: Box) -> tuple[Box, Box]:
    """Eye boxes cut from the face box at the fixed ROI_FRACTIONS.

    Returns (image-left eye, image-right eye). Affine in the face box, so the
    result is translation- and scale-equivariant.
    """
    if face.w <= 0 or face.h <= 0:
        raise ValueError(f"degenerate face box {face}")
    left_fx, right_fx, top_f, w_f, h_f = ROI_FRACTIONS
    w = _round_px(w_f * face.w)
    h = _round_px(h_f * face.h)
    y = _round_px(face.y + top_f * face.h)
    left = Box(_round_px(face.x + left_fx * face.w), y, w, h)
    right = Box(_round_px(face.x + right_fx * face.w), y, w, h)
    return left, right


def landmark_eye_crop(inner: tuple[float, float], outer: tuple[float, float]) -> Box:
    """Axis-aligned box around the eye-corner midpoint, sized by corner
    distance times LANDMARK_MARGINS."""
    dx, dy = outer[0] - inner[0], outer[1] - inner[1]
    d = math.hypot(dx, dy)
    if d == 0:
        raise ValueError("coincident eye corners")
    w_factor, h_factor = LANDMARK_MARGINS
    cx = (inner[0] + outer[0]) / 2
    cy = (inner[1] + outer[1]) / 2
    return Box(
        _round_px(cx - w_factor * d / 2),
        _round_px(cy - h_factor * d / 2),
        _round_px(w_factor * d),
        _round_px(h_factor * d),
    )


def crop(img: np.ndarray, box: Box) -> np.ndarray:
    """Sub-image under the box clamped to image bounds; an empty box or an empty
    overlap is an error."""
    if box.w <= 0 or box.h <= 0:
        raise ValueError(f"empty crop box {box}")
    h, w = img.shape[:2]
    x0, y0 = max(box.x, 0), max(box.y, 0)
    x1, y1 = min(box.x + box.w, w), min(box.y + box.h, h)
    if x1 <= x0 or y1 <= y0:
        raise ValueError(f"crop box {box} lies outside the {w}x{h} image")
    return img[y0:y1, x0:x1].copy()


def normalize(img: np.ndarray) -> np.ndarray:
    """8-bit-scale patch -> float32 tensor (1, H, W) with values in [-0.5, 0.5]."""
    if img.ndim != 2:
        raise ValueError("normalize expects a single-channel image")
    t = img.astype(np.float32) / np.float32(255) - np.float32(0.5)
    return t[None, :, :]
