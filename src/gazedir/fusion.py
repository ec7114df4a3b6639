"""Score fusion, classification metrics, and the inference latency benchmark."""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass

import numpy as np

from . import dataset, preprocess


def fuse_scores(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Elementwise mean of the two per-eye probabilities, one vector or a
    stack of rows each."""
    left = np.asarray(left)
    right = np.asarray(right)
    if left.shape != right.shape:
        raise ValueError(f"score length mismatch: {left.shape} vs {right.shape}")
    return (left + right) / 2


def predict_class(score: np.ndarray) -> int:
    """Argmax label of one score vector; ties go to the lowest index."""
    score = np.asarray(score)
    if score.ndim != 1:
        raise ValueError(f"predict_class takes one score vector, got shape {score.shape}")
    if score.size == 0:
        raise ValueError("empty score vector")
    return int(np.argmax(score))


class ConfusionMatrix:
    """C x C counts, rows = true class, columns = predicted."""

    def __init__(self, n_classes: int):
        self.n_classes = n_classes
        self.counts = np.zeros((n_classes, n_classes), dtype=np.int64)

    def add(self, true_class: int, predicted: int) -> None:
        self.counts[true_class, predicted] += 1

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def accuracy(self) -> float:
        if self.total == 0:
            raise ValueError("empty confusion matrix")
        return float(np.trace(self.counts)) / self.total

    @property
    def per_class_accuracy(self) -> np.ndarray:
        """Diagonal over row sums; NaN for classes absent from the test set."""
        row_sums = self.counts.sum(axis=1)
        with np.errstate(invalid="ignore"):
            return np.where(
                row_sums > 0, np.diag(self.counts) / np.maximum(row_sums, 1), np.nan
            )


@dataclass
class EvalResult:
    accuracy: float
    per_class_accuracy: np.ndarray
    confusion: ConfusionMatrix


# eye pairs per stacked forward in evaluate: stacks of 8 to 32 ran a 15x25
# eval 5-9% faster than 4, but raised its peak RSS by 2 to 7 MiB
EVAL_CHUNK = 4


def score_pair(model_left, model_right, x_left, x_right) -> np.ndarray:
    """Scores B eye pairs as (B, n_classes); each eye is a (B, 1, H, W) array,
    as predict passes it, or B (1, H, W) views of its normalized stack, as
    evaluate's triples hold them, stacked here. The fused mean of both
    networks' softmax, or one network's softmax when the other model is None
    (its input is not read). Each row is byte-identical to scoring that pair
    alone."""
    scores = [model.forward_batch(np.stack(x)) for model, x
              in ((model_left, x_left), (model_right, x_right)) if model is not None]
    return fuse_scores(*scores) if len(scores) == 2 else scores[0]


def evaluate(model_left, model_right, samples) -> EvalResult:
    """Deterministic metrics over (left_tensor, right_tensor, label) triples,
    scored by score_pair in stacks of EVAL_CHUNK: fused, or by the one model
    that is not None. Labels must lie in [0, n_classes); a non-finite score
    raises before any pair of its stack is counted."""
    n_classes = [model.n_classes for model in (model_left, model_right) if model is not None]
    if not n_classes:
        raise ValueError("evaluate needs a left or a right model")
    if len(set(n_classes)) > 1:
        raise ValueError(f"class-count mismatch between models: {n_classes[0]} vs {n_classes[1]}")
    cm = ConfusionMatrix(n_classes[0])
    samples = list(samples)
    for i, (_, _, label) in enumerate(samples):
        if not 0 <= int(label) < cm.n_classes:
            raise ValueError(f"sample {i}: label {label} outside [0, {cm.n_classes})")
    for start in range(0, len(samples), EVAL_CHUNK):
        lefts, rights, labels = zip(*samples[start : start + EVAL_CHUNK])
        try:
            scores = score_pair(model_left, model_right, lefts, rights)
        except FloatingPointError as exc:
            raise FloatingPointError(
                f"samples {start}..{start + len(labels) - 1}: {exc}"
            ) from None
        for label, score in zip(labels, scores):
            cm.add(int(label), predict_class(score))
    return EvalResult(cm.accuracy, cm.per_class_accuracy, cm)


# --------------------------------------------------------------------------
# latency benchmark
# --------------------------------------------------------------------------

BENCH_STAGES = ("decode", "crop_resize", "normalize", "forward_left", "forward_right", "fuse")


def _run_stages(model_left, model_right, sample, mode, patch_hw, image_root) -> list[float]:
    """One sample through decode (read_frame: the eye crops from the rows
    their boxes span) / crop_resize (grey_resize; make_eye_pairs' two calls)
    / normalize / two forwards / fuse; the perf_counter stamps around them."""
    t0 = time.perf_counter()
    crops = dataset.read_frame(sample, mode, image_root)
    t1 = time.perf_counter()
    patches = dataset.grey_resize(crops, patch_hw)
    t2 = time.perf_counter()
    x_l, x_r = preprocess.normalize_stack(patches)
    t3 = time.perf_counter()
    score_l = model_left.forward(x_l)
    t4 = time.perf_counter()
    score_r = model_right.forward(x_r)
    t5 = time.perf_counter()
    predict_class(fuse_scores(score_l, score_r))
    t6 = time.perf_counter()
    return [t0, t1, t2, t3, t4, t5, t6]


def bench_latency(model_left, model_right, samples, warmup: int, mode: str, image_root="") -> dict:
    """Wall-clock per-stage timings in ms over all samples, after warmup iterations.

    Samples are read from image_root and cropped at the mode's patch size, as
    make_eye_pairs does. Python runs one thread; BLAS runs at its own thread
    setting. One timing per sample; warmup passes cycle over them untimed. Returns
    {"stages": {name: stats}, "end_to_end": stats, "fps", "n_frames", "warmup"}
    with stats {"mean_ms", "p50_ms", "p95_ms"}.
    """
    if len(samples) == 0:
        raise ValueError("need at least one frame to benchmark")
    if warmup < 0:
        raise ValueError(f"warmup must be >= 0, got {warmup}")
    hw = dataset.default_patch_hw(mode)
    for i in range(warmup):
        _run_stages(model_left, model_right, samples[i % len(samples)], mode, hw, image_root)
    stamps = np.array([_run_stages(model_left, model_right, s, mode, hw, image_root)
                       for s in samples])

    def stats(ms: np.ndarray) -> dict:
        p50, p95 = np.percentile(ms, (50, 95))
        return {"mean_ms": float(ms.mean()), "p50_ms": float(p50), "p95_ms": float(p95)}

    stage_ms = np.diff(stamps, axis=1).T * 1000.0
    end_to_end = stats((stamps[:, -1] - stamps[:, 0]) * 1000.0)
    return {
        "stages": {name: stats(ms) for name, ms in zip(BENCH_STAGES, stage_ms)},
        "end_to_end": end_to_end,
        "fps": 1000.0 / end_to_end["mean_ms"],
        "n_frames": len(samples),
        "warmup": warmup,
    }


# --------------------------------------------------------------------------
# report files
# --------------------------------------------------------------------------

def round_sig(x):
    """Measured floats in reports carry 6 significant digits (the config echo
    keeps full precision, so it reproduces the run); NaN becomes None. A dict
    is rounded value by value; ints pass through."""
    if isinstance(x, dict):
        return {k: round_sig(v) for k, v in x.items()}
    if isinstance(x, int):
        return x
    if math.isnan(x):
        return None
    return float(f"{x:.6g}")


def dump_json(payload: dict, path) -> None:
    """Deterministic report JSON with sorted keys; floats are written as given."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def emit_report(result: EvalResult, class_names, meta: dict, out_dir) -> list[str]:
    """Writes confusion.csv and metrics.json; byte-deterministic for fixed inputs."""
    os.makedirs(out_dir, exist_ok=True)
    names = list(class_names)
    if len(names) != result.confusion.n_classes:
        raise ValueError("class name count must match the confusion matrix")

    csv_path = os.path.join(out_dir, "confusion.csv")
    lines = ["," + ",".join(names)]
    for i, name in enumerate(names):
        lines.append(name + "," + ",".join(str(int(c)) for c in result.confusion.counts[i]))
    with open(csv_path, "w", encoding="utf-8", newline="") as f:
        f.write("\n".join(lines) + "\n")

    metrics = {
        "accuracy": round_sig(result.accuracy),
        "per_class_accuracy": {
            name: round_sig(float(acc)) for name, acc in zip(names, result.per_class_accuracy)
        },
        "n_test": result.confusion.total,
        **meta,
    }
    json_path = os.path.join(out_dir, "metrics.json")
    dump_json(metrics, json_path)
    return [csv_path, json_path]
