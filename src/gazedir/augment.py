"""Training-set expansion: rotations, Gaussian blur, and rescaling.

Each transform maps an (N, h, w) stack of single-channel patches to a float32
stack of the same shape, patch by patch: every step is elementwise or a
gather, so a stack's result is byte-identical to transforming its patches one
at a time. At their identity parameters they return finite float32 pixels
unchanged (-0.0 may read +0.0). expand runs them on one eye's float32
EyePatches, never on the test split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import preprocess
from .dataset import EyePatches

# patches per stack in expand: 32 measured fastest for both patch sizes, and
# keeps the kernels' temporaries small
AUGMENT_CHUNK = 32


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


def rotate(stack: np.ndarray, degrees: float) -> np.ndarray:
    """Rotation of each patch about its center, inverse-mapped with bilinear
    sampling. Sampling coordinates are clamped to the patch, so out-of-source
    pixels replicate the nearest edge.
    """
    if stack.ndim != 3:
        raise ValueError("rotate expects a single-channel image")
    h, w = stack.shape[1:]
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    rad = math.radians(degrees)
    cos_t, sin_t = math.cos(rad), math.sin(rad)
    u = np.arange(w) - cx
    v = (np.arange(h) - cy)[:, None]
    xs = np.clip(cx + u * cos_t - v * sin_t, 0, w - 1)
    ys = np.clip(cy + u * sin_t + v * cos_t, 0, h - 1)
    return preprocess.bilinear_sample(stack, xs, ys).astype(np.float32)


def gaussian_blur(stack: np.ndarray, sigma: float) -> np.ndarray:
    """Separable Gaussian per patch, radius ceil(3*sigma), edge replication."""
    if stack.ndim != 3:
        raise ValueError("gaussian_blur expects a single-channel image")
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    if sigma < 1e-6:
        return stack.astype(np.float32)
    radius = math.ceil(3 * sigma)
    taps = np.exp(-np.arange(-radius, radius + 1) ** 2 / (2 * sigma * sigma))
    taps /= taps.sum()
    out = stack.astype(np.float64, copy=False)
    for axis in (2, 1):
        out = _correlate_edge(out, taps, axis)
    return out.astype(np.float32)


def _correlate_edge(x: np.ndarray, taps: np.ndarray, axis: int) -> np.ndarray:
    """x correlated with taps along axis, edge-replicated, summed tap by tap in
    order. A tap whose window lies wholly in an edge margin reads that edge
    alone, so the pad is at most the axis length for any radius."""
    radius, n = len(taps) // 2, x.shape[axis]
    margin = min(radius, n)
    lead = (slice(None),) * axis
    pad = [(0, 0)] * x.ndim
    pad[axis] = (margin, margin)
    padded = np.pad(x, pad, mode="edge")
    first, last = x[lead + (slice(0, 1),)], x[lead + (slice(n - 1, n),)]
    acc = np.zeros_like(x)
    for k, tap in enumerate(taps):
        start = k - radius + margin  # the window's start in padded
        if start < 0:
            acc += tap * first
        elif start > 2 * margin:
            acc += tap * last
        else:
            acc += tap * padded[lead + (slice(start, start + n),)]
    return acc


def rescale(stack: np.ndarray, factor: float) -> np.ndarray:
    """Scale jitter that keeps the native patch size, on one half-pixel
    resize grid either way.

    factor < 1 crops each patch's central factor-fraction and resizes it back
    up; factor >= 1 samples the central h x w of the patch resized up by
    factor, so memory stays h x w per patch for any factor.
    """
    if stack.ndim != 3:
        raise ValueError("rescale expects a single-channel image")
    if factor <= 0:
        raise ValueError("scale factor must be > 0")
    h, w = stack.shape[1:]
    src = stack
    if factor < 1:  # the central ch x cw, resized to h x w
        ch = int(math.floor(h * factor + 0.5))
        cw = int(math.floor(w * factor + 0.5))
        if ch < 1 or cw < 1:
            raise ValueError(f"scale factor {factor} degenerates a {h}x{w} image")
        y0, x0 = (h - ch) // 2, (w - cw) // 2
        src = stack[:, y0 : y0 + ch, x0 : x0 + cw]
        xs, ys = preprocess.resize_grid(cw, w), preprocess.resize_grid(ch, h)
    else:  # the central h x w of the rh x rw resize
        rh = max(int(math.floor(h * factor + 0.5)), h)
        rw = max(int(math.floor(w * factor + 0.5)), w)
        xs = preprocess.resize_grid(w, rw, (rw - w) // 2, w)
        ys = preprocess.resize_grid(h, rh, (rh - h) // 2, h)
    return preprocess.bilinear_sample(src, xs[None, :], ys[:, None]).astype(np.float32)


def expand(patches: EyePatches, policy: AugmentPolicy) -> EyePatches:
    """Originals plus one variant per listed parameter, float32, labels preserved.

    Output count is n * (1 + |rotations| + |sigmas| + |scales|), in input
    order, each original followed by its rotations, blurs and scales. The
    pixels are transformed in stacks of AUGMENT_CHUNK, each parameter once
    per stack.
    """
    if patches.split == "test":
        raise ValueError("augmentation must not be applied to the test split")
    kernels = [
        *((rotate, deg) for deg in policy.rotation_degrees),
        *((gaussian_blur, sigma) for sigma in policy.blur_sigmas),
        *((rescale, f) for f in policy.scale_factors),
    ]
    pixels = patches.pixels
    out = np.empty((len(pixels), 1 + len(kernels), *pixels.shape[1:]), np.float32)
    for start in range(0, len(pixels), AUGMENT_CHUNK):
        stack = pixels[start : start + AUGMENT_CHUNK]
        np.stack([stack, *(kernel(stack, param) for kernel, param in kernels)], axis=1,
                 out=out[start : start + len(stack)])
    return EyePatches(out.reshape(-1, *pixels.shape[1:]),
                      np.repeat(patches.labels, 1 + len(kernels)), patches.split)
