"""Training-set expansion: rotations, Gaussian blur, and rescaling.

All transforms preserve image dimensions and labels, and at their identity
parameters return finite uint8 or float32 pixels unchanged (-0.0 may read
+0.0). They run on extracted eye patches, never on the test split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import preprocess
from .dataset import EyePatch


@dataclass(frozen=True)
class AugmentPolicy:
    rotation_degrees: tuple[float, ...] = (5.0, -5.0, 10.0, -10.0)
    blur_sigmas: tuple[float, ...] = (0.5, 1.0)
    scale_factors: tuple[float, ...] = (0.9, 1.1)

    def __post_init__(self):
        values = (*self.rotation_degrees, *self.blur_sigmas, *self.scale_factors)
        if not all(math.isfinite(v) for v in values):
            raise ValueError("augmentation parameters must be finite")
        if any(s < 0 for s in self.blur_sigmas):
            raise ValueError("blur sigmas must be >= 0")
        if any(f <= 0 for f in self.scale_factors):
            raise ValueError("scale factors must be > 0")


def _restore_dtype(out: np.ndarray, like: np.ndarray) -> np.ndarray:
    if like.dtype == np.uint8:
        return np.clip(np.floor(out + 0.5), 0, 255).astype(np.uint8)
    return out.astype(like.dtype)


def rotate(img: np.ndarray, degrees: float) -> np.ndarray:
    """Rotation about the image center, inverse-mapped with bilinear sampling.

    Sampling coordinates are clamped to the image, so out-of-source pixels
    replicate the nearest edge. Output dimensions match the input.
    """
    if img.ndim != 2:
        raise ValueError("rotate expects a single-channel image")
    h, w = img.shape
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    rad = math.radians(degrees)
    cos_t, sin_t = math.cos(rad), math.sin(rad)
    u = np.arange(w) - cx
    v = (np.arange(h) - cy)[:, None]
    xs = np.clip(cx + u * cos_t - v * sin_t, 0, w - 1)
    ys = np.clip(cy + u * sin_t + v * cos_t, 0, h - 1)
    return _restore_dtype(preprocess.bilinear_sample(img, xs, ys), img)


def gaussian_blur(img: np.ndarray, sigma: float) -> np.ndarray:
    """Separable Gaussian with radius ceil(3*sigma) and edge replication."""
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    if img.ndim != 2:
        raise ValueError("gaussian_blur expects a single-channel image")
    if sigma < 1e-6:
        return img.copy()
    radius = math.ceil(3 * sigma)
    taps = np.exp(-np.arange(-radius, radius + 1) ** 2 / (2 * sigma * sigma))
    taps /= taps.sum()
    out = img.astype(np.float64, copy=False)
    for axis in (1, 0):
        pad = [(0, 0), (0, 0)]
        pad[axis] = (radius, radius)
        padded = np.pad(out, pad, mode="edge")
        acc = np.zeros_like(out)
        for k, tap in enumerate(taps):
            if axis == 1:
                acc += tap * padded[:, k : k + img.shape[1]]
            else:
                acc += tap * padded[k : k + img.shape[0], :]
        out = acc
    return _restore_dtype(out, img)


def rescale(img: np.ndarray, factor: float) -> np.ndarray:
    """Scale jitter that keeps the native patch size.

    factor < 1 crops the central factor-fraction and resizes it back up;
    factor >= 1 samples the central h x w of the image resized up by factor,
    so memory stays h x w for any factor.
    """
    if factor <= 0:
        raise ValueError("scale factor must be > 0")
    if img.ndim != 2:
        raise ValueError("rescale expects a single-channel image")
    h, w = img.shape
    if factor < 1:
        ch = int(math.floor(h * factor + 0.5))
        cw = int(math.floor(w * factor + 0.5))
        if ch < 1 or cw < 1:
            raise ValueError(f"scale factor {factor} degenerates a {h}x{w} image")
        y0, x0 = (h - ch) // 2, (w - cw) // 2
        region = img[y0 : y0 + ch, x0 : x0 + cw]
        out = preprocess.resize_bilinear(region, out_w=w, out_h=h)
    else:
        rh = max(int(math.floor(h * factor + 0.5)), h)
        rw = max(int(math.floor(w * factor + 0.5)), w)
        y0, x0 = (rh - h) // 2, (rw - w) // 2
        # resize_bilinear's grid for rh x rw, restricted to the centre
        xs = np.clip((np.arange(x0, x0 + w) + 0.5) * (w / rw) - 0.5, 0, w - 1)
        ys = np.clip((np.arange(y0, y0 + h) + 0.5) * (h / rh) - 0.5, 0, h - 1)
        # float32, as resize_bilinear returns, before the dtype is restored
        out = preprocess.bilinear_sample(img, xs[None, :], ys[:, None]).astype(np.float32)
    return _restore_dtype(out, img)


def expand(patches: list[EyePatch], policy: AugmentPolicy) -> list[EyePatch]:
    """Originals plus one variant per listed parameter, labels preserved.

    Output count is n * (1 + |rotations| + |sigmas| + |scales|). The grid is
    applied in a fixed order, so the result is deterministic.
    """
    for p in patches:
        if p.split == "test":
            raise ValueError("augmentation must not be applied to the test split")
    out: list[EyePatch] = []
    for p in patches:
        out.append(p)
        for deg in policy.rotation_degrees:
            out.append(EyePatch(rotate(p.pixels, deg), p.label, p.split))
        for sigma in policy.blur_sigmas:
            out.append(EyePatch(gaussian_blur(p.pixels, sigma), p.label, p.split))
        for f in policy.scale_factors:
            out.append(EyePatch(rescale(p.pixels, f), p.label, p.split))
    return out
