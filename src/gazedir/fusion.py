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
    """Elementwise mean of the two per-eye probability vectors."""
    left = np.asarray(left)
    right = np.asarray(right)
    if left.shape != right.shape:
        raise ValueError(f"score length mismatch: {left.shape} vs {right.shape}")
    return (left + right) / 2


def predict_class(score: np.ndarray) -> int:
    """Argmax label; ties go to the lowest index."""
    score = np.asarray(score)
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


def score_pair(model_left, model_right, x_left, x_right, eye: str = "both") -> np.ndarray:
    """Scores one eye pair: one network's softmax for eye "left" or "right",
    the fused mean of both for "both"; an unused eye's tensor may be None."""
    if eye == "left":
        return model_left.forward(x_left)
    if eye == "right":
        return model_right.forward(x_right)
    return fuse_scores(model_left.forward(x_left), model_right.forward(x_right))


def evaluate(model_left, model_right, samples, eye: str = "both") -> EvalResult:
    """Deterministic metrics over (left_tensor, right_tensor, label) triples.

    eye selects fused scoring ("both") or a single network ("left"/"right").
    """
    if eye not in ("left", "right", "both"):
        raise ValueError(f"eye must be left|right|both, got {eye!r}")
    for side, model in zip(dataset.SIDES, (model_left, model_right)):
        if eye in (side, "both") and model is None:
            raise ValueError(f"{side} model required")
    if eye == "both" and model_left.n_classes != model_right.n_classes:
        raise ValueError(
            f"class-count mismatch between models: "
            f"{model_left.n_classes} vs {model_right.n_classes}"
        )
    n_classes = (model_right if eye == "right" else model_left).n_classes
    cm = ConfusionMatrix(n_classes)
    for xl, xr, label in samples:
        cm.add(int(label), predict_class(score_pair(model_left, model_right, xl, xr, eye)))
    return EvalResult(cm.accuracy, cm.per_class_accuracy, cm)


# --------------------------------------------------------------------------
# latency benchmark
# --------------------------------------------------------------------------

BENCH_STAGES = ("crop_resize", "normalize", "forward_left", "forward_right", "fuse")


@dataclass
class StageStats:
    mean_ms: float
    p50_ms: float
    p95_ms: float


@dataclass
class LatencyReport:
    stages: dict[str, StageStats]
    end_to_end: StageStats
    fps: float
    n_frames: int
    warmup: int

    def as_dict(self) -> dict:
        def stats(s: StageStats) -> dict:
            return {k: round_sig(v) for k, v in vars(s).items()}

        return {
            "stages": {name: stats(s) for name, s in self.stages.items()},
            "end_to_end": stats(self.end_to_end),
            "fps": round_sig(self.fps),
            "n_frames": self.n_frames,
            "warmup": self.warmup,
        }


def _run_stages(model_left, model_right, frame, mode, patch_hw, timings):
    """One frame through crop+resize / normalize / two forwards / fuse."""
    gray, face, landmarks = frame
    sample = dataset.Sample("<frame>", face, dataset.EacClass.VD, landmarks)

    t0 = time.perf_counter()
    patches = dataset.eye_pair(gray, sample, mode, patch_hw)
    t1 = time.perf_counter()
    x_l, x_r = (preprocess.normalize(p) for p in patches)
    t2 = time.perf_counter()
    score_l = model_left.forward(x_l)
    t3 = time.perf_counter()
    score_r = model_right.forward(x_r)
    t4 = time.perf_counter()
    fused = fuse_scores(score_l, score_r)
    predict_class(fused)
    t5 = time.perf_counter()

    if timings is not None:
        for name, dt in zip(BENCH_STAGES, (t1 - t0, t2 - t1, t3 - t2, t4 - t3, t5 - t4)):
            timings[name].append(dt * 1000.0)
        timings["end_to_end"].append((t5 - t0) * 1000.0)


def bench_latency(
    model_left,
    model_right,
    frames,
    warmup: int,
    mode: str = "roi",
    patch_hw: tuple[int, int] | None = None,
) -> LatencyReport:
    """Wall-clock per-stage timings over all frames, after warmup iterations.

    Strictly single-threaded. Every supplied frame contributes exactly one
    timing; warmup passes cycle over the same frames untimed.
    """
    if len(frames) == 0:
        raise ValueError("need at least one frame to benchmark")
    hw = dataset.default_patch_hw(mode) if patch_hw is None else patch_hw
    for i in range(warmup):
        _run_stages(model_left, model_right, frames[i % len(frames)], mode, hw, None)
    timings: dict[str, list[float]] = {name: [] for name in (*BENCH_STAGES, "end_to_end")}
    for frame in frames:
        _run_stages(model_left, model_right, frame, mode, hw, timings)

    def stats(values: list[float]) -> StageStats:
        arr = np.asarray(values)
        return StageStats(
            mean_ms=float(arr.mean()),
            p50_ms=float(np.percentile(arr, 50)),
            p95_ms=float(np.percentile(arr, 95)),
        )

    stages = {name: stats(timings[name]) for name in BENCH_STAGES}
    end_to_end = stats(timings["end_to_end"])
    return LatencyReport(
        stages=stages,
        end_to_end=end_to_end,
        fps=1000.0 / end_to_end.mean_ms,
        n_frames=len(frames),
        warmup=warmup,
    )


# --------------------------------------------------------------------------
# report files
# --------------------------------------------------------------------------

def round_sig(x: float, digits: int = 6):
    """Measured floats in reports carry 6 significant digits (the config echo
    keeps full precision, so it reproduces the run); NaN becomes None."""
    if math.isnan(x):
        return None
    return float(f"{x:.{digits}g}")


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
