"""Minimal CNN stack for gaze classification.

Forward/backward implementations of every layer (conv, ReLU, 2x2 max pool,
dense, softmax cross-entropy), plain SGD, a three-stage network builder,
finite-difference gradient checking, and a binary model format.

Tensors are C-order (row-major) numpy arrays: float32 in production,
float64 in gradient-check mode. Every layer runs on stacked minibatches
(B, C, H, W); a single sample is a batch of one. Layer shapes are checked
once, when a Model is built. `Model.forward_batch` is the one inference
pass, and each of its rows is byte-identical to a forward of that sample
alone, so scores do not depend on how samples are stacked.

`Model.batch_loss_and_backward` runs the conv stack in two batch lanes, one
per core when BLAS runs one thread (`blas_threads`; `cli.main` pins it), and
the head and every batch sum once, so training bytes do not depend on it.
Training caches live for one `train_epoch`, and a conv backward that forms
the input gradient unfolds the upstream into its forward's spent unfold.
"""

from __future__ import annotations

import ctypes
import math
import os
import struct
import threading
from dataclasses import dataclass

import numpy as np

NUM_FILTERS = 24
KERNEL_SIZES = (7, 5, 3)

MODEL_MAGIC = b"GDN1"
MODEL_FORMAT_VERSION = 1

# --------------------------------------------------------------------------
# batched kernels
# --------------------------------------------------------------------------

def _conv_cols(x4: np.ndarray, kh: int, kw: int, buf: np.ndarray | None = None) -> np.ndarray:
    """Zero-pad for same-size output and unfold: (B,C,H,W) -> (B, C*kh*kw, H*W).

    One copy from a (B, C, kh, kw, H, W) window view of the padded input;
    the layout makes the final reshape a view. The view is one ndarray over
    the padded buffer with explicit strides: sliding_window_view builds the
    same view but spends ~19 us (numpy 2.4) checking its arguments per
    call, against ~2 us here, and a B=1 forward makes three calls. A
    matching scratch buffer is reused when supplied: at B=32 this saves ~9%
    of a 42x50 training step, as conv2's 40 MB unfold lies above glibc's
    32 MiB mmap-threshold ceiling and would be mapped afresh each batch. At
    15x25 it measured no gain.
    """
    b, c, h, w = x4.shape
    ph, pw = kh // 2, kw // 2
    padded = np.zeros((b, c, h + 2 * ph, w + 2 * pw), dtype=x4.dtype)
    padded[:, :, ph : ph + h, pw : pw + w] = x4
    shape = (b, c, kh, kw, h, w)
    if buf is None or buf.size != b * c * kh * kw * h * w or buf.dtype != x4.dtype:
        buf = np.empty(shape, dtype=x4.dtype)
    cols = buf.reshape(shape)
    sb, sc, sh, sw = padded.strides
    windows = np.ndarray(shape, x4.dtype, buffer=padded, strides=(sb, sc, sh, sw, sh, sw))
    np.copyto(cols, windows)
    return cols.reshape(b, c * kh * kw, h * w)


def _conv_fwd(cols: np.ndarray, weights: np.ndarray, bias: np.ndarray | None, hw) -> np.ndarray:
    """The unfolded correlation plus bias, added in place (None adds none)."""
    b = cols.shape[0]
    out_ch = weights.shape[0]
    out = weights.reshape(out_ch, -1)[None] @ cols
    if bias is not None:
        out += bias[None, :, None]
    return out.reshape(b, out_ch, *hw)


def _softmax(logits2: np.ndarray):
    """Row-wise softmax: (max-shifted logits, row sums of their exp, probabilities)."""
    shifted = logits2 - logits2.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    total = exp.sum(axis=1)
    return shifted, total, exp / total[:, None]


def softmax_ce(logits2: np.ndarray, labels: np.ndarray):
    """Stable softmax + cross-entropy over a batch of logit rows.

    Returns (summed loss, per-row probabilities, gradient w.r.t. the logits).
    Each row is shifted by its max before exponentiation, and the loss is a
    shifted log-sum-exp, so magnitudes ~1e3 stay finite. Labels must lie in
    [0, n_classes).
    """
    b, n = logits2.shape
    labels = np.asarray(labels)
    if labels.size and (labels.min() < 0 or labels.max() >= n):
        raise ValueError(f"labels must lie in [0, {n}), got {labels.min()}..{labels.max()}")
    shifted, total, probs = _softmax(logits2)
    rows = np.arange(b)
    loss = float(np.sum(np.log(total) - shifted[rows, labels]))
    grad = probs.copy()
    grad[rows, labels] -= 1
    return loss, probs, grad


def sgd_step(params: list[np.ndarray], grads: list[np.ndarray], lr: float) -> list[np.ndarray]:
    """In-place p <- p - lr*g over all parameter tensors. Plain SGD."""
    if lr <= 0:
        raise ValueError(f"learning rate must be positive, got {lr}")
    if len(params) != len(grads):
        raise ValueError("params and grads must pair up")
    for p, g in zip(params, grads):
        if p.shape != g.shape:
            raise ValueError(f"param/grad shape mismatch: {p.shape} vs {g.shape}")
        p -= lr * g
    return params


# --------------------------------------------------------------------------
# layers with parameters and caches (batched: inputs are (B,C,H,W))
#
# output_shape(shape) maps one sample's input shape to its output shape and
# rejects inputs the layer cannot take; Model runs it once over the layer
# list. backward(upstream) needs the caches of a forward(x, cache=True)
# over the same batch, and raises ValueError when they are missing or stale.
# A conv backward that forms the input gradient consumes its forward's
# unfold. The fields a class names in _caches live for one train_epoch.
# --------------------------------------------------------------------------

def _check_upstream(layer, upstream: np.ndarray, input_shape: tuple | None) -> None:
    """input_shape is the batch shape the layer's cached forward took, or None."""
    if input_shape is None:
        raise ValueError(f"{layer.kind}.backward: no forward was cached (forward(x, cache=True))")
    expected = input_shape[:1] + layer.output_shape(input_shape[1:])
    if upstream.shape != expected:
        raise ValueError(
            f"{layer.kind}.backward: upstream shape {upstream.shape} does not match the "
            f"cached forward output {expected} (stale cache)"
        )


def _drop_caches(layer) -> None:
    for name in layer._caches:
        setattr(layer, name, None)


class _Params:
    """Base of the layers with a weights tensor and a bias vector."""

    n_params = 2  # tensors in params(), in constructor order

    def __init__(self, weights: np.ndarray, bias: np.ndarray):
        self.weights = weights
        self.bias = bias
        self.grad_weights = np.zeros_like(weights)
        self.grad_bias = np.zeros_like(bias)
        _drop_caches(self)

    def params(self):
        return [self.weights, self.bias]

    def grads(self):
        return [self.grad_weights, self.grad_bias]


class _NoParams:
    """Base of the layers without parameters."""

    n_params = 0
    _caches = ()

    def __init__(self):
        _drop_caches(self)

    def params(self):
        return []

    def grads(self):
        return []


class Conv2D(_Params):
    """Same-padded stride-1 cross-correlation; weights are (O, C, kh, kw)."""

    kind = "Conv2D"
    _caches = ("_cols", "_input_shape")

    def __init__(self, weights: np.ndarray, bias: np.ndarray):
        if weights.ndim != 4:
            raise ValueError(f"conv weights must be (O,C,kh,kw), got shape {weights.shape}")
        kh, kw = weights.shape[2], weights.shape[3]
        if kh % 2 == 0 or kw % 2 == 0:
            raise ValueError(f"kernel dims must be odd positive, got {kh}x{kw}")
        if bias.shape != (weights.shape[0],):
            raise ValueError("bias length must equal the number of output channels")
        super().__init__(weights, bias)

    def output_shape(self, shape: tuple) -> tuple:
        if len(shape) != 3 or shape[0] != self.weights.shape[1]:
            raise ValueError(
                f"channel mismatch: conv input {shape} is not (C,H,W) with "
                f"C={self.weights.shape[1]} as the weights expect"
            )
        return (self.weights.shape[0], *shape[1:])

    def forward(self, x, cache=False):
        kh, kw = self.weights.shape[2], self.weights.shape[3]
        if cache:
            # training path (single-writer): reuse the unfold scratch buffer
            self._cols = _conv_cols(x, kh, kw, buf=self._cols)
            self._input_shape = x.shape
            cols = self._cols
        else:
            cols = _conv_cols(x, kh, kw)
        return _conv_fwd(cols, self.weights, self.bias, x.shape[2:])

    def backward(self, upstream, need_input_grad=True, products=None):
        """Returns the input grad, or None when need_input_grad is False.

        Each sample's weight-grad product cols @ upstream^T goes to
        `products`, a (B, C*kh*kw, O) array when given: the batch sums are
        then left to `accumulate`. Without it they are added here."""
        cached = self._input_shape
        _check_upstream(self, upstream, cached)
        b, out_ch, h, w = upstream.shape
        deferred = products is not None
        up_mat = upstream.reshape(b, out_ch, h * w)
        products = np.matmul(self._cols, up_mat.transpose(0, 2, 1), out=products)
        if not deferred:
            self.accumulate(upstream, products)
        if not need_input_grad:
            return None
        # input gradient == same-padded correlation of upstream with kernels
        # flipped in both spatial dims and with in/out channels swapped
        flipped = np.ascontiguousarray(self.weights[:, :, ::-1, ::-1].transpose(1, 0, 2, 3))
        self._input_shape = None  # the products are formed: the forward's unfold is spent
        cols = _conv_cols(upstream, *flipped.shape[2:], buf=self._cols)
        return _conv_fwd(cols, flipped, None, (h, w)).reshape(cached)

    def accumulate(self, upstream, products) -> None:
        """Adds the batch sums of a backward to the parameter grads, in batch order."""
        self.grad_bias += upstream.sum(axis=(0, 2, 3))
        self.grad_weights += products.sum(axis=0).T.reshape(self.weights.shape)


class ReLU(_NoParams):
    kind = "ReLU"
    _caches = ("_mask",)

    def output_shape(self, shape: tuple) -> tuple:
        return shape

    def forward(self, x, cache=False):
        if cache:
            self._mask = x > 0
        return np.maximum(x, 0)

    def backward(self, upstream):
        """Masked pass-through; the subgradient at exactly 0 is 0."""
        _check_upstream(self, upstream, None if self._mask is None else self._mask.shape)
        return upstream * self._mask


class MaxPool2(_NoParams):
    """Non-overlapping 2x2 max pool; a trailing odd row/column is dropped.

    Within a window the first maximum in row-major order wins, and backward
    routes each upstream value to that position only. Routing for a window
    holding NaN is unspecified.
    """

    kind = "MaxPool2"
    _caches = ("_winner", "_input_shape")

    def output_shape(self, shape: tuple) -> tuple:
        if len(shape) != 3 or shape[1] < 2 or shape[2] < 2:
            raise ValueError(f"maxpool2 needs a (C,H,W) input with H, W >= 2, got {shape}")
        return (shape[0], shape[1] // 2, shape[2] // 2)

    def forward(self, x, cache=False):
        ho, wo = x.shape[2] // 2, x.shape[3] // 2
        # window positions 0..3 in row-major order, as strided views
        q0, q1, q2, q3 = (x[:, :, u : 2 * ho : 2, v : 2 * wo : 2] for u in (0, 1) for v in (0, 1))
        top, bottom = np.maximum(q0, q1), np.maximum(q2, q3)
        if cache:
            # position of the first maximum, as a u8 code 0..3
            self._winner = np.where(
                top >= bottom, (q0 < top).view(np.uint8), 2 + (q2 < bottom).view(np.uint8)
            )
            self._input_shape = x.shape
        return np.maximum(top, bottom)

    def backward(self, upstream):
        _check_upstream(self, upstream, self._input_shape)
        b, c, ho, wo = upstream.shape
        grad = np.zeros(self._input_shape, dtype=upstream.dtype)
        u, v = self._winner >> 1, self._winner & 1
        bi = np.arange(b)[:, None, None, None]
        ci = np.arange(c)[None, :, None, None]
        ri = 2 * np.arange(ho)[None, None, :, None] + u
        cj = 2 * np.arange(wo)[None, None, None, :] + v
        grad[bi, ci, ri, cj] = upstream
        return grad


class Dense(_Params):
    """Fully connected layer; flattens each sample to 1-D (row-major)."""

    kind = "Dense"
    _caches = ("_input_shape", "_flat")

    def __init__(self, weights: np.ndarray, bias: np.ndarray):
        if weights.ndim != 2 or bias.shape != (weights.shape[0],):
            raise ValueError(
                f"dense weights must be (out, in) with one bias per output, got "
                f"weights {weights.shape} and bias {bias.shape}"
            )
        super().__init__(weights, bias)

    def output_shape(self, shape: tuple) -> tuple:
        if math.prod(shape) != self.weights.shape[1]:
            raise ValueError(
                f"dense dimension mismatch: input {shape} flattens to "
                f"{math.prod(shape)}, weights expect {self.weights.shape[1]}"
            )
        return (self.weights.shape[0],)

    def forward(self, x, cache=False):
        flat = x.reshape(x.shape[0], -1)
        if not cache:
            # per-row products keep a row's bytes independent of B; training keeps its one GEMM
            return (flat[:, None, :] @ self.weights.T)[:, 0] + self.bias
        self._input_shape = x.shape
        self._flat = flat
        return flat @ self.weights.T + self.bias

    def backward(self, upstream):
        _check_upstream(self, upstream, self._input_shape)
        self.grad_weights += upstream.T @ self._flat
        self.grad_bias += upstream.sum(axis=0)
        return (upstream @ self.weights).reshape(self._input_shape)


class SoftmaxCE(_NoParams):
    """Terminal layer: softmax at inference, softmax+CE loss in training."""

    kind = "SoftmaxCE"

    def output_shape(self, shape: tuple) -> tuple:
        if len(shape) != 1:
            raise ValueError(f"softmax expects a vector of logits, got {shape}")
        return shape

    def forward(self, logits, cache=False):
        return _softmax(logits)[2]


# a layer class's index here is its u8 tag in the model file
_LAYER_CLASSES = (Conv2D, ReLU, MaxPool2, Dense, SoftmaxCE)


# --------------------------------------------------------------------------
# model
# --------------------------------------------------------------------------

class Model:
    """Ordered layer list over a fixed (1, H, W) input producing class probs.

    Construction walks input_shape through the layers, so every model that
    exists has consistent channels, pool sizes and dense fan-in, and ends in
    n_classes probabilities.
    """

    def __init__(self, input_shape: tuple[int, int, int], n_classes: int, layers: list):
        if len(layers) == 0 or layers[-1].kind != "SoftmaxCE":
            raise ValueError("model must end in a SoftmaxCE layer")
        shapes = [tuple(input_shape)]  # per-sample input of each layer, then the output
        for layer in layers:
            shapes.append(layer.output_shape(shapes[-1]))
        if shapes[-1] != (n_classes,):
            raise ValueError(f"model produces {shapes[-1]} scores, not the {n_classes} classes")
        self.input_shape = shapes[0]
        self.n_classes = n_classes
        self.layers = layers
        self._shapes = shapes
        # the conv stack runs in lanes; the head from the first Dense on runs whole
        self._head = next((i for i, l in enumerate(layers) if l.kind == "Dense"), len(layers) - 1)
        self._lane1 = None  # lane 1's clones of the stack, built by its first two-lane step

    @property
    def dtype(self):
        return self.parameters()[0].dtype

    def _check_batch(self, x4: np.ndarray) -> None:
        if x4.shape[1:] != self.input_shape:
            raise ValueError(
                f"sample shape {x4.shape[1:]} does not match model input {self.input_shape}"
            )

    def forward_batch(self, x4: np.ndarray) -> np.ndarray:
        """Class probabilities (B, n_classes) for a stack (B, 1, H, W).

        The one inference pass: pure (no caches written; safe to share
        across threads), and each row is byte-identical to the forward of
        that sample alone, whatever B is. Non-finite scores in any row raise
        FloatingPointError, so they can never be read as a class.
        """
        self._check_batch(x4)
        h = x4.astype(self.dtype, copy=False)
        # a garbled model overflows; the check below reports it once, not per op
        with np.errstate(over="ignore", invalid="ignore"):
            for layer in self.layers:
                h = layer.forward(h)
        if not np.all(np.isfinite(h)):
            raise FloatingPointError("non-finite values in model output")
        return h

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Class probabilities (n_classes,) for one (1, H, W) sample: a
        forward_batch of one, which also checks the shape."""
        return self.forward_batch(x[None])[0]

    def batch_loss_and_backward(self, x4: np.ndarray, labels: np.ndarray) -> float:
        """Training pass over a stacked batch; accumulates summed parameter
        grads and returns the summed loss.

        The conv stack (the layers before the first Dense) runs in two lanes,
        the batch's two contiguous halves: lane 0 on the model's own layers
        in the calling thread, lane 1 on clones sharing their parameter
        arrays, on the worker thread (`_lane_worker`) or else after lane 0.
        Each layer's caches are single-writer: only its lane's thread writes
        them. Lanes write into rows of full-batch arrays, and the head (Dense,
        softmax_ce) and every sum over the batch (the loss, each conv's bias
        and weight grads) run once, in the calling thread, on the whole batch
        in batch order; so the bytes are those of a one-lane pass.
        """
        self._check_batch(x4)
        x = x4.astype(self.dtype, copy=False)
        b, cut = x.shape[0], self._head
        half = (b + 1) // 2
        lanes = [(self.layers[:cut], slice(0, half))]
        if cut and half < b:
            if self._lane1 is None:
                self._lane1 = [type(layer)(*layer.params()) for layer in self.layers[:cut]]
            lanes.append((self._lane1, slice(half, b)))
        worker = _lane_worker() if len(lanes) == 2 else None
        err = np.geterr()  # errstate is per thread; the worker takes the caller's
        h = np.empty((b, *self._shapes[cut]), dtype=x.dtype)
        _in_lanes(worker, _forward_lane, [(layers, x[s], h[s], err) for layers, s in lanes])
        for layer in self.layers[cut:-1]:
            h = layer.forward(h, cache=True)
        loss, _, grad = softmax_ce(h, labels)
        for layer in reversed(self.layers[cut:-1]):
            grad = layer.backward(grad)
        convs = [i for i in range(cut) if self.layers[i].kind == "Conv2D"]
        ups = {i: np.empty((b, *self._shapes[i + 1]), dtype=x.dtype) for i in convs}
        products = {i: np.empty((b, self.layers[i].weights[0].size, len(self.layers[i].weights)),
                                dtype=x.dtype) for i in convs}
        _in_lanes(worker, _backward_lane, [
            (layers, grad[s], {i: u[s] for i, u in ups.items()},
             {i: p[s] for i, p in products.items()}, err)
            for layers, s in lanes
        ])
        for i in convs:
            self.layers[i].accumulate(ups[i], products[i])
        return loss

    def parameters(self) -> list[np.ndarray]:
        return [p for layer in self.layers for p in layer.params()]

    def gradients(self) -> list[np.ndarray]:
        return [g for layer in self.layers for g in layer.grads()]

    def zero_grads(self) -> None:
        for g in self.gradients():
            g.fill(0)

    def astype(self, dtype) -> "Model":
        """Copy of the model with parameters cast (float64 for gradient checks)."""
        layers = [type(layer)(*(p.astype(dtype) for p in layer.params()))
                  for layer in self.layers]
        return Model(self.input_shape, self.n_classes, layers)


def _forward_lane(layers, x, out, err) -> None:
    """One lane's cached forward through the conv stack, into its rows of out."""
    with np.errstate(**err):
        for layer in layers:
            x = layer.forward(x, cache=True)
        out[...] = x


def _backward_lane(layers, grad, ups, products, err) -> None:
    """One lane's backward through the conv stack. Conv i's upstream grad
    and per-sample weight-grad products go to the lane's rows of ups[i] and
    products[i]; their sums over the batch are the caller's."""
    with np.errstate(**err):
        for i in reversed(range(len(layers))):
            layer = layers[i]
            if layer.kind == "Conv2D":
                ups[i][...] = grad
                # nothing consumes the gradient w.r.t. the raw input
                grad = layer.backward(grad, need_input_grad=i > 0, products=products[i])
            else:
                grad = layer.backward(grad)


def _in_lanes(worker, fn, jobs) -> None:
    """fn(*job) for each lane's job: lane 1 on the worker while lane 0 runs
    here, or, without a worker, one after the other."""
    pending = worker.submit(fn, *jobs[1]) if worker is not None else None
    try:
        for job in jobs[:1] if pending else jobs:
            fn(*job)
    finally:
        if pending:
            pending.result()  # waits for lane 1, also when lane 0 raised, and re-raises


_worker = None  # lane 1's thread pool of one, started by the first step that uses it
_worker_lock = threading.Lock()  # so that two training threads start one worker


def _lane_worker():
    """The one worker thread, or None when the lanes run in turn: lanes run
    in parallel only with two CPUs and one BLAS thread, as two lanes with
    two BLAS threads each oversubscribe the cores (ert B=32 steps on 2 vCPU:
    15 ms with one BLAS thread and the worker, 20-25 ms with two BLAS
    threads, with the worker or without)."""
    global _worker
    if blas_threads() != 1 or len(os.sched_getaffinity(0)) < 2:
        return None
    with _worker_lock:
        if _worker is None:
            # imported here, not at module import: inference never loads it
            from concurrent.futures import ThreadPoolExecutor
            _worker = ThreadPoolExecutor(max_workers=1, thread_name_prefix="gazedir-lane")
    return _worker


def build_gaze_net(input_h: int, input_w: int, n_classes: int, seed: int = 0) -> Model:
    """Three conv/ReLU/pool stages (24 filters of 7x7, 5x5, 3x3) into a dense
    classifier head, in float32 (`Model.astype` gives a float64 copy).

    Same-padded convolutions keep spatial dims; each pool halves them, so the
    input must be at least 8x8. Weights are uniform +-sqrt(6/fan_in), biases 0.
    """
    if input_h < 8 or input_w < 8:
        raise ValueError(
            f"input {input_h}x{input_w} too small: three pool stages need >= 8x8"
        )
    if n_classes < 2:
        raise ValueError("need at least 2 classes")
    rng = np.random.default_rng(seed)
    layers: list = []
    channels, h, w = 1, input_h, input_w
    for k in KERNEL_SIZES:
        fan_in = channels * k * k
        limit = math.sqrt(6.0 / fan_in)
        weights = rng.uniform(-limit, limit, size=(NUM_FILTERS, channels, k, k))
        layers += [
            Conv2D(weights.astype(np.float32), np.zeros(NUM_FILTERS, dtype=np.float32)),
            ReLU(),
            MaxPool2(),
        ]
        channels, h, w = NUM_FILTERS, h // 2, w // 2
    features = channels * h * w
    limit = math.sqrt(6.0 / features)
    dense_w = rng.uniform(-limit, limit, size=(n_classes, features))
    layers += [
        Dense(dense_w.astype(np.float32), np.zeros(n_classes, dtype=np.float32)),
        SoftmaxCE(),
    ]
    return Model((1, input_h, input_w), n_classes, layers)


def train_epoch(
    model: Model,
    samples: list[np.ndarray] | np.ndarray,
    labels,
    lr: float,
    batch_size: int,
    rng_seed: int,
) -> float:
    """One epoch of minibatch SGD: seeded shuffle, mean-of-batch gradients.

    samples: (C, H, W) tensors, a list or an (N, C, H, W) array. lr=0 runs
    the epoch without updates (pure evaluation of the mean loss).
    """
    n = len(samples)
    if n == 0:
        raise ValueError("cannot train on an empty dataset")
    if lr < 0:
        raise ValueError("learning rate must be >= 0")
    if batch_size < 1:
        raise ValueError("batch size must be >= 1")
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise ValueError("labels must pair with samples")
    if labels.min() < 0 or labels.max() >= model.n_classes:
        raise ValueError("label out of range")
    order = np.random.default_rng(rng_seed).permutation(n)
    total = 0.0
    # a diverging run overflows inside the kernels; the non-finite mean loss
    # below reports it once, instead of a numpy warning per overflowing op
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, n, batch_size):
                batch = order[start : start + batch_size]
                x4 = np.stack([samples[i] for i in batch])
                model.zero_grads()
                total += model.batch_loss_and_backward(x4, labels[batch])
                inv = 1.0 / len(batch)
                for g in model.gradients():
                    g *= inv
                if lr > 0:
                    sgd_step(model.parameters(), model.gradients(), lr)
    finally:  # between epochs a model holds only its parameters and grads
        for layer in model.layers + (model._lane1 or []):
            _drop_caches(layer)
    mean_loss = total / n
    if not math.isfinite(mean_loss):
        raise FloatingPointError("training loss diverged (non-finite)")
    return mean_loss


# --------------------------------------------------------------------------
# BLAS thread count
# --------------------------------------------------------------------------

# (get, set) thread-count symbols: numpy's bundled OpenBLAS, then a system one
_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)
_openblas_found: list = []  # the one lookup's result, once made


def _openblas():
    """(get, set) thread-count calls of the OpenBLAS this process has mapped,
    found once in /proc/self/maps; None without one (MKL, Accelerate,
    non-Linux)."""
    if not _openblas_found:
        try:
            with open("/proc/self/maps", encoding="utf-8", errors="replace") as f:
                paths = {line.split(None, 5)[5].rstrip("\n") for line in f
                         if "openblas" in line.rsplit("/", 1)[-1].lower()}
        except OSError:
            paths = set()
        libs = []
        for path in sorted(paths):
            try:
                libs.append(ctypes.CDLL(path))
            except OSError:  # unmapped since, or not loadable
                pass
        calls = next(((getattr(lib, get), getattr(lib, set_)) for lib in libs
                      for get, set_ in _OPENBLAS_SYMBOLS
                      if hasattr(lib, get) and hasattr(lib, set_)), None)
        if calls is not None:  # int get(void); void set(int)
            calls[0].argtypes, calls[0].restype = [], ctypes.c_int
            calls[1].argtypes, calls[1].restype = [ctypes.c_int], None
        _openblas_found.append(calls)
    return _openblas_found[0]


def blas_threads() -> int | None:
    """The number of threads numpy's OpenBLAS runs; None when unknown."""
    calls = _openblas()
    return None if calls is None else calls[0]()


def pin_blas_threads() -> None:
    """Pins numpy's OpenBLAS to one thread, process-wide; a no-op without one."""
    calls = _openblas()
    if calls is not None:
        calls[1](1)


# --------------------------------------------------------------------------
# gradient checking
# --------------------------------------------------------------------------

@dataclass
class GradCheckReport:
    per_param: dict[str, float]  # parameter name -> max relative error
    max_rel_error: float
    passed: bool


def grad_check(model: Model, x: np.ndarray, true_class: int, h: float = 1e-5) -> GradCheckReport:
    """Central-difference check of every parameter against backprop.

    Relative error per element is |a - n| / max(|a|, |n|, 1e-12); the report
    carries the max per parameter tensor and overall, and passes below 1e-4.
    """
    if model.dtype != np.float64:
        raise ValueError("gradient check requires a double-precision model")
    if not 1e-7 <= h <= 1e-4:
        raise ValueError("step h must lie in [1e-7, 1e-4]")
    labels = np.array([true_class])
    model.zero_grads()
    model.batch_loss_and_backward(x[None], labels)

    # activations entering each layer; a perturbation in layer i only
    # changes the suffix, so the finite differences rerun layers i..end
    acts = [x.astype(np.float64, copy=False)[None]]
    for layer in model.layers[:-1]:
        acts.append(layer.forward(acts[-1]))

    def loss_from(layer_index: int) -> float:
        out = acts[layer_index]
        for layer in model.layers[layer_index:-1]:
            out = layer.forward(out)
        return softmax_ce(out, labels)[0]

    per_param: dict[str, float] = {}
    worst = 0.0
    for i, layer in enumerate(model.layers):
        for param, grad, suffix in zip(layer.params(), layer.grads(), ("weights", "bias")):
            flat = param.reshape(-1)
            numeric = np.empty_like(flat)
            for j in range(flat.shape[0]):
                orig = flat[j]
                flat[j] = orig + h
                loss_plus = loss_from(i)
                flat[j] = orig - h
                loss_minus = loss_from(i)
                flat[j] = orig
                numeric[j] = (loss_plus - loss_minus) / (2 * h)
            a = grad.reshape(-1)
            denom = np.maximum(np.maximum(np.abs(a), np.abs(numeric)), 1e-12)
            err = float(np.max(np.abs(a - numeric) / denom))
            per_param[f"layer{i}.{layer.kind}.{suffix}"] = err
            worst = max(worst, err)
    return GradCheckReport(per_param, worst, worst < 1e-4)


# --------------------------------------------------------------------------
# model file I/O
# --------------------------------------------------------------------------

def save_model(model: Model, path) -> None:
    """Binary model file: magic GDN1, version, layer kinds + f32 parameters."""
    chunks = [MODEL_MAGIC, struct.pack("<II", MODEL_FORMAT_VERSION, len(model.layers))]
    for layer in model.layers:
        chunks.append(struct.pack("<B", _LAYER_CLASSES.index(type(layer))))
        for param in layer.params():
            chunks.append(struct.pack("<I", param.ndim))
            chunks.append(struct.pack(f"<{param.ndim}I", *param.shape))
            chunks.append(np.ascontiguousarray(param, dtype="<f4").tobytes())
    chunks.append(
        struct.pack("<III", model.n_classes, model.input_shape[1], model.input_shape[2])
    )
    with open(path, "wb") as f:
        f.write(b"".join(chunks))


def load_model(path) -> Model:
    """Reads a model file. A truncated, garbled or inconsistent file raises
    ValueError naming the path."""
    with open(path, "rb") as f:
        buf = f.read()
    try:
        return _parse_model(buf)
    except struct.error as exc:
        raise ValueError(f"{path}: truncated model file ({exc})") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _parse_model(buf: bytes) -> Model:
    if buf[:4] != MODEL_MAGIC:
        raise ValueError("not a model file (bad magic)")
    version, n_layers = struct.unpack_from("<II", buf, 4)
    if version != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {version}")
    pos = 12
    layers: list = []
    for _ in range(n_layers):
        (tag,) = struct.unpack_from("<B", buf, pos)
        pos += 1
        if tag >= len(_LAYER_CLASSES):
            raise ValueError(f"unknown layer tag {tag}")
        cls = _LAYER_CLASSES[tag]
        params = []
        for _ in range(cls.n_params):
            (rank,) = struct.unpack_from("<I", buf, pos)
            pos += 4
            dims = struct.unpack_from(f"<{rank}I", buf, pos)
            pos += 4 * rank
            count = math.prod(dims)
            if pos + 4 * count > len(buf):
                raise ValueError(f"truncated model file: {dims} tensor overruns the data")
            arr = np.frombuffer(buf, dtype="<f4", count=count, offset=pos)
            pos += 4 * count
            params.append(arr.reshape(dims).copy())
        layers.append(cls(*params))
    n_classes, input_h, input_w = struct.unpack_from("<III", buf, pos)
    pos += 12
    if pos != len(buf):
        raise ValueError("trailing bytes in model file")
    return Model((1, input_h, input_w), n_classes, layers)
