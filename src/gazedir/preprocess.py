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
    """The next header token of stream f. Skips whitespace, then consumes the
    token and the one whitespace byte after it, so after maxval f sits at the
    first raster byte. As in Netpbm's pm_getc, a '#' anywhere, even inside a
    token, starts a comment that reads as the line end closing it."""
    token = bytearray()  # appends in place, so a long token costs linear time
    while True:
        ch = f.read(1)
        if ch == b"#":  # reads as its line end; b"" (EOF) is also `in` b"\n\r"
            while ch not in b"\n\r":
                ch = f.read(1)
        if ch and not ch.isspace():
            token += ch
        elif token or not ch:
            break
    if not token:
        raise ValueError("truncated PNM header")
    return bytes(token)


def read_pnm(path, rows=None) -> np.ndarray | tuple[np.ndarray, int, int]:
    """Reads binary PGM (P5) or PPM (P6); returns uint8 (H,W) or (H,W,3).

    Samples of a file with maxval < 255 are rescaled to 0..255 as
    floor(v * 255 / maxval + 0.5). A malformed file raises ValueError naming it.
    The file is read through a _HEADER_READ-byte buffer, and the raster with
    one readinto straight into the returned array. With rows=(y0, y1) it
    returns (band, top, height): band holds only rows top..top+len(band)-1 of
    the image, which are y0..y1-1 clamped to it (possibly none), and height is
    the image's row count. Only the band is read and allocated, except that a
    file with maxval < 255 is read whole, so every sample is still checked
    against maxval, and so is a pipe, which cannot seek.
    """
    with open(path, "rb", buffering=_HEADER_READ) as f:
        try:
            return _read_pnm(f, rows)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def _read_pnm(f, rows) -> np.ndarray | tuple[np.ndarray, int, int]:
    magic, width, height, maxval = _parse_header(f)
    pixel = (width,) if magic == b"P5" else (width, 3)
    row_bytes = math.prod(pixel)
    seekable = f.seekable()  # a pipe has no size to check and is read through
    if seekable and os.fstat(f.fileno()).st_size - f.tell() < height * row_bytes:
        raise ValueError("raster truncated")
    top, bottom = (0, height) if rows is None else (min(max(y, 0), height) for y in rows)
    bottom = max(bottom, top)
    first, last = (top, bottom) if maxval == 255 and seekable else (0, height)
    img = np.empty((last - first, *pixel), np.uint8)
    if first:
        f.seek(first * row_bytes, os.SEEK_CUR)
    if f.readinto(img) < img.nbytes:  # reads on to EOF, so the file shrank
        raise ValueError("raster truncated")
    if maxval != 255 and img.max() > maxval:
        raise ValueError(f"sample above maxval {maxval}")
    img = img[top - first : bottom - first]
    if maxval != 255:
        # floor(v * 255 / maxval + 0.5) in exact integer arithmetic
        img = ((img.astype(np.uint32) * 510 + maxval) // (2 * maxval)).astype(np.uint8)
    return img if rows is None else (img, top, height)


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
    """Rec.601 luma (0.299, 0.587, 0.114) of an (n, h, w, 3) stack of colour
    images: uint8 (n, h, w). A 2-D image is single-channel and passes through.
    Colour is told by ndim, never by a last axis of 3, so an (n, h, 3) stack is
    not greyed as one colour image; it is refused."""
    if img.ndim == 2:
        return img
    if img.ndim == 4 and img.shape[3] == 3:
        luma = (
            0.299 * img[..., 0].astype(np.float64)
            + 0.587 * img[..., 1]
            + 0.114 * img[..., 2]
        )
        return np.floor(luma + 0.5).astype(np.uint8)
    raise ValueError(f"unsupported channel layout for shape {img.shape}")


def bilinear_sample(src: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Bilinear taps of a 2-D image, or of a stack (..., h, w) of them, at
    coordinates the caller has clamped to [0, w-1] x [0, h-1]; xs and ys
    broadcast to the output shape (out_h, out_w). Returns float64
    (..., out_h, out_w). Each tap is one np.take of flat y*w + x indices along
    the last axis of a (..., h*w) view, so a stack costs one gather per tap
    (a broadcast fancy index is slower on a 2-stack than two 2-D calls).
    """
    h, w = src.shape[-2:]
    flat = src.astype(np.float64, copy=False).reshape(*src.shape[:-2], h * w)
    x0 = np.floor(xs).astype(int)
    y0 = np.floor(ys).astype(int)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = xs - x0
    fy = ys - y0
    row0, row1 = y0 * w, y1 * w
    v00 = np.take(flat, row0 + x0, axis=-1)
    v10 = np.take(flat, row1 + x0, axis=-1)
    # lerp form keeps constant inputs exactly constant
    top = v00 + (np.take(flat, row0 + x1, axis=-1) - v00) * fx
    bottom = v10 + (np.take(flat, row1 + x1, axis=-1) - v10) * fx
    return top + (bottom - top) * fy


def resize_grid(size: int, out_size: int, start: int = 0, count: int | None = None) -> np.ndarray:
    """Source coordinates, clamped to [0, size-1], of output pixels start ..
    start+count-1 (default: all out_size) of a half-pixel-centre resize of
    size pixels to out_size: (i+0.5)*size/out_size - 0.5."""
    count = out_size if count is None else count
    # np.minimum(np.maximum(...)) is np.clip's result at a fraction of its call cost
    grid = (np.arange(start, start + count) + 0.5) * (size / out_size) - 0.5
    return np.minimum(np.maximum(grid, 0), size - 1)


def resize_bilinear(stack: np.ndarray, out_w: int, out_h: int) -> np.ndarray:
    """Bilinear resample of each image of an (n, h, w) single-channel stack,
    with half-pixel-center sampling and edge clamping.

    Output pixel (i, j) samples its source at
    ((j+0.5)*w/out_w - 0.5, (i+0.5)*h/out_h - 0.5). Returns float32
    (n, out_h, out_w), byte-identical to resizing the images one at a time.
    """
    if out_w < 1 or out_h < 1:
        raise ValueError(f"empty resize target {out_w}x{out_h}")
    if stack.ndim != 3:
        raise ValueError(f"resize_bilinear expects a single-channel image, got shape {stack.shape}")
    h, w = stack.shape[1:]
    xs, ys = resize_grid(w, out_w), resize_grid(h, out_h)
    return bilinear_sample(stack, xs[None, :], ys[:, None]).astype(np.float32)


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


def crop(img: np.ndarray, box: Box, top: int = 0, height: int | None = None) -> np.ndarray:
    """Sub-image under the box clamped to image bounds; an empty box or an empty
    overlap is an error. img may be a band of rows top.. of an image `height`
    rows tall, as read_pnm reads over rows (default: img is the whole image);
    the box is clamped to, and errors name, the whole image, and the band must
    hold the rows the clamped box spans."""
    if box.w <= 0 or box.h <= 0:
        raise ValueError(f"empty crop box {box}")
    w = img.shape[1]
    h = len(img) if height is None else height
    x0, y0 = max(box.x, 0), max(box.y, 0)
    x1, y1 = min(box.x + box.w, w), min(box.y + box.h, h)
    if x1 <= x0 or y1 <= y0:
        raise ValueError(f"crop box {box} lies outside the {w}x{h} image")
    if y0 < top or y1 > top + len(img):
        raise ValueError(f"crop box {box} spans rows outside the band {top}:{top + len(img)}")
    return img[y0 - top : y1 - top, x0:x1].copy()


def normalize(img: np.ndarray) -> np.ndarray:
    """8-bit-scale patch -> float32 tensor (1, H, W) with values in [-0.5, 0.5]."""
    return normalize_stack(img[None])[0]


def normalize_stack(stack: np.ndarray) -> np.ndarray:
    """normalize over an (N, H, W) stack: the network input, float32 (N, 1, H, W)."""
    if stack.ndim != 3:
        raise ValueError("normalize expects a single-channel image")
    return (stack.astype(np.float32) / np.float32(255) - np.float32(0.5))[:, None]
