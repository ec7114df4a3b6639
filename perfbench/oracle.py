"""Independent float64 reference of the three-stage gaze net.

The reference shares no code with `gazedir.nn`: convolution is a sum of
shifted copies rather than an unfold + GEMM, and pooling is a reshape-max.
It reads only the public `weights`/`bias` attributes of the model's layers,
in order: three same-padded conv stages (each followed by ReLU and a 2x2 max
pool that drops a trailing odd row/column), a dense layer, and a softmax.
"""

from __future__ import annotations

import numpy as np

# float32 kernels against a float64 reference: probabilities agree to well
# under 1e-5 (measured max ~1e-7); a top-2 gap below TIE_GAP in the
# reference lets the argmax go either way
PROB_ATOL = 1e-5
TIE_GAP = 1e-5


def _conv_same(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    c, h, wd = x.shape
    kh, kw = w.shape[2], w.shape[3]
    padded = np.pad(x, ((0, 0), (kh // 2, kh // 2), (kw // 2, kw // 2)))
    out = np.zeros((w.shape[0], h, wd))
    for u in range(kh):
        for v in range(kw):
            out += np.tensordot(w[:, :, u, v], padded[:, u : u + h, v : v + wd], axes=(1, 0))
    return out + b[:, None, None]


def _pool2(x: np.ndarray) -> np.ndarray:
    c, h, w = x.shape
    ho, wo = h // 2, w // 2
    return x[:, : 2 * ho, : 2 * wo].reshape(c, ho, 2, wo, 2).max(axis=(2, 4))


def reference_probs(model, x: np.ndarray) -> np.ndarray:
    """Class probabilities of `model` for one (1, H, W) input, in float64."""
    params = [
        (np.asarray(layer.weights, np.float64), np.asarray(layer.bias, np.float64))
        for layer in model.layers
        if hasattr(layer, "weights")
    ]
    if len(params) != 4 or [w.ndim for w, _ in params] != [4, 4, 4, 2]:
        raise ValueError("reference expects three conv stages and one dense layer")
    h = np.asarray(x, np.float64)
    for w, b in params[:3]:
        h = _pool2(np.maximum(_conv_same(h, w, b), 0.0))
    w, b = params[3]
    logits = w @ h.reshape(-1) + b
    e = np.exp(logits - logits.max())
    return e / e.sum()


def reference_fused(model_left, model_right, x_left, x_right) -> np.ndarray:
    return (reference_probs(model_left, x_left) + reference_probs(model_right, x_right)) / 2


def score_miss(got, ref) -> str | None:
    """Why `got` disagrees with the reference probabilities, or None.

    Probabilities must match within PROB_ATOL and the argmax must match,
    unless the reference's top two classes are within TIE_GAP.
    """
    got = np.asarray(got, np.float64)
    ref = np.asarray(ref, np.float64)
    if got.shape != ref.shape:
        return f"shape {got.shape} != reference {ref.shape}"
    if not np.all(np.isfinite(got)):
        return "non-finite score"
    err = float(np.max(np.abs(got - ref)))
    if err > PROB_ATOL:
        return f"max |p - p_ref| = {err:.3g} > {PROB_ATOL:g}"
    top2 = np.sort(ref)[-2:]
    if int(np.argmax(got)) != int(np.argmax(ref)) and top2[1] - top2[0] > TIE_GAP:
        return f"argmax {int(np.argmax(got))} != reference {int(np.argmax(ref))}"
    return None
