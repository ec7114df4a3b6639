"""Command-line pipeline: synth | train | eval | predict | bench.

Exit codes: 0 success, 1 validation/config error (including a malformed
model file, non-finite scores and diverged training), 2 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import fields

import numpy as np

from . import augment, dataset, fusion, nn, preprocess, synth
from .config import ConfigError, RunConfig, load_config
from .dataset import EacClass, ThreeClass

MODEL_LEFT = "model_left.gdn"
MODEL_RIGHT = "model_right.gdn"


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # map usage errors onto exit code 1
        raise ConfigError(message)


def class_names(n_classes: int) -> list[str]:
    if n_classes == 7:
        return [c.name for c in EacClass]
    return [c.name for c in ThreeClass]


def _label(cfg: RunConfig, sample: dataset.Sample) -> int | None:
    """The sample's run label; None when 3-class mode drops its class."""
    if cfg.classes == 7:
        return int(sample.eac)
    mapped = dataset.to_three_class(sample, cfg.map3)
    return None if mapped is None else int(mapped)


def _split(cfg: RunConfig) -> dataset.SplitPair:
    """Manifest rows that carry a run label, split into train and test."""
    if cfg.manifest is None:
        raise ConfigError("no manifest configured (set [data] manifest or --manifest)")
    samples = [s for s in dataset.load_manifest(cfg.manifest) if _label(cfg, s) is not None]
    if not samples:
        raise ConfigError("dataset empty after label filtering")
    split = dataset.split_subject_disjoint if cfg.subject_split else dataset.split_50_50
    return split(samples, cfg.seed)


def _eye_pairs(cfg: RunConfig, samples: list[dataset.Sample], split: str):
    """(left, right) patch lists of the samples; each image is decoded once."""
    labels = [_label(cfg, s) for s in samples]
    return dataset.make_eye_pairs(
        samples, cfg.mode, cfg.patch_hw, cfg.resolved_image_root(), split, labels
    )


def _report_meta(cfg: RunConfig, **extra) -> dict:
    meta = {
        "mode": cfg.mode,
        "classes": cfg.classes,
        "seed": cfg.seed,
        "config": cfg.as_dict(),
        "config_hash": cfg.config_hash(),
    }
    meta.update(extra)
    return meta


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------

def cmd_synth(args) -> int:
    manifest, samples = synth.generate_corpus(args.out, args.n_per_class, args.seed)
    print(f"wrote {len(samples)} images and {manifest}")
    return 0


def cmd_train(args) -> int:
    cfg = _config_from(args)
    train = _split(cfg).train
    if not train:
        raise ConfigError("training split is empty")
    h, w = cfg.patch_hw
    os.makedirs(cfg.model_dir, exist_ok=True)

    losses: list[list[float]] = []  # per side, per epoch
    for seed_offset, (side, filename, patches) in enumerate(zip(
        dataset.SIDES, (MODEL_LEFT, MODEL_RIGHT), _eye_pairs(cfg, train, "train")
    )):
        tensors = dataset.patches_to_tensors(augment.expand(patches, cfg.policy))
        xs = [t for t, _ in tensors]
        ys = [y for _, y in tensors]
        model = nn.build_gaze_net(h, w, cfg.classes, seed=cfg.seed + seed_offset)
        side_losses = []
        for epoch in range(cfg.epochs):
            loss = nn.train_epoch(
                model, xs, ys, cfg.lr, cfg.batch_size,
                rng_seed=cfg.seed * 1_000_003 + epoch,
            )
            side_losses.append(loss)
            print(f"[{side}] epoch {epoch + 1}/{cfg.epochs} mean loss {loss:.6f}")
        losses.append(side_losses)
        nn.save_model(model, os.path.join(cfg.model_dir, filename))

    log_path = os.path.join(cfg.model_dir, "train_log.csv")
    with open(log_path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(["epoch", "mean_loss_L", "mean_loss_R"])
        for epoch, (left, right) in enumerate(zip(*losses), 1):
            writer.writerow([epoch, repr(left), repr(right)])
    print(f"models and {log_path} written to {cfg.model_dir}")
    return 0


def _load_models(cfg: RunConfig, model_dir: str, eye: str):
    """(left, right) models; an eye that `eye` does not select is None."""
    models = tuple(
        nn.load_model(os.path.join(model_dir, filename)) if eye in (side, "both") else None
        for side, filename in zip(dataset.SIDES, (MODEL_LEFT, MODEL_RIGHT))
    )
    for model in filter(None, models):
        if model.n_classes != cfg.classes:
            raise ConfigError(
                f"model has {model.n_classes} classes but config asks for "
                f"{cfg.classes}; retrain or fix --classes"
            )
        if model.input_shape != (1, *cfg.patch_hw):
            raise ConfigError(
                f"model input {model.input_shape} does not match configured "
                f"patch {(1, *cfg.patch_hw)}"
            )
    return models


def cmd_eval(args) -> int:
    cfg = _config_from(args)
    eye = args.eye
    model_left, model_right = _load_models(cfg, cfg.model_dir, eye)
    test = _split(cfg).test
    if not test:
        raise ConfigError("test split is empty")
    triples = [
        (preprocess.normalize(pl.pixels), preprocess.normalize(pr.pixels), pl.label)
        for pl, pr in zip(*_eye_pairs(cfg, test, "test"))
    ]
    result = fusion.evaluate(model_left, model_right, triples, eye=eye)
    names = class_names(cfg.classes)
    paths = fusion.emit_report(result, names, _report_meta(cfg, eye=eye), cfg.report_dir)
    print(f"eye={eye} accuracy {result.accuracy:.4f} over {len(triples)} samples")
    for name, acc in zip(names, result.per_class_accuracy):
        shown = "n/a" if np.isnan(acc) else f"{acc:.4f}"
        print(f"  {name}: {shown}")
    print("wrote " + ", ".join(paths))
    return 0


def cmd_predict(args) -> int:
    cfg = _config_from(args)
    eye = args.eye
    if cfg.mode == "ert" and args.landmarks is None:
        raise ConfigError(
            "ert mode needs --landmarks lo_x,lo_y,li_x,li_y,ri_x,ri_y,ro_x,ro_y"
        )
    face = dataset.parse_face(args.face.split(","))
    landmarks = dataset.parse_landmarks(args.landmarks.split(",")) if args.landmarks else None
    sample = dataset.Sample(args.image, face, EacClass.VD, landmarks)
    gray = preprocess.to_grayscale(preprocess.read_pnm(args.image))
    model_left, model_right = _load_models(cfg, cfg.model_dir, eye)
    patches = dataset.eye_pair(gray, sample, cfg.mode, cfg.patch_hw, eye)
    xs = [None if p is None else preprocess.normalize(p) for p in patches]
    score = fusion.score_pair(model_left, model_right, *xs, eye)
    label = fusion.predict_class(score)
    out = {
        "class": class_names(cfg.classes)[label],
        "scores": [fusion.round_sig(float(s)) for s in score],
    }
    print(json.dumps(out, sort_keys=True))
    return 0


def cmd_bench(args) -> int:
    cfg = _config_from(args)
    h, w = cfg.patch_hw
    if args.model_dir is not None:
        model_left, model_right = _load_models(cfg, args.model_dir, "both")
    else:
        model_left = nn.build_gaze_net(h, w, cfg.classes, seed=cfg.seed)
        model_right = nn.build_gaze_net(h, w, cfg.classes, seed=cfg.seed + 1)
    rng = np.random.default_rng(cfg.seed)
    landmarks = synth.canonical_landmarks()
    frames = []
    for i in range(args.frames):
        eac = EacClass(i % 7)
        frames.append((synth.render_face(rng, eac), synth.FACE, landmarks))
    report = fusion.bench_latency(
        model_left, model_right, frames, args.warmup, mode=cfg.mode, patch_hw=(h, w)
    )
    print(f"{report.n_frames} frames after {report.warmup} warmup, patch {h}x{w}")
    print(f"{'stage':<14}{'mean ms':>10}{'p50 ms':>10}{'p95 ms':>10}")
    for name in fusion.BENCH_STAGES:
        s = report.stages[name]
        print(f"{name:<14}{s.mean_ms:>10.3f}{s.p50_ms:>10.3f}{s.p95_ms:>10.3f}")
    e = report.end_to_end
    print(f"{'end_to_end':<14}{e.mean_ms:>10.3f}{e.p50_ms:>10.3f}{e.p95_ms:>10.3f}")
    print(f"fps {report.fps:.1f}")
    os.makedirs(cfg.report_dir, exist_ok=True)
    bench_path = os.path.join(cfg.report_dir, "bench.json")
    fusion.dump_json({**report.as_dict(), **_report_meta(cfg)}, bench_path)
    print(f"wrote {bench_path}")
    return 0


# --------------------------------------------------------------------------
# argument parsing
# --------------------------------------------------------------------------

def _add_common(p: _Parser, eye: bool = False) -> None:
    p.add_argument("--config", help="INI config file")
    p.add_argument("--seed", type=int)
    p.add_argument("--mode", choices=("roi", "ert"))
    p.add_argument("--classes", type=int, choices=(3, 7))
    p.add_argument("--manifest")
    p.add_argument("--image-root")
    p.add_argument("--model-dir")
    p.add_argument("--report-dir")
    if eye:
        p.add_argument("--eye", choices=("left", "right", "both"), default="both")


def _config_from(args) -> RunConfig:
    # argparse dests equal the RunConfig field names; absent flags read None
    overrides = {f.name: getattr(args, f.name, None) for f in fields(RunConfig)}
    return load_config(getattr(args, "config", None), overrides)


def build_parser() -> _Parser:
    parser = _Parser(prog="gazedir", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic annotated corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--n-per-class", type=int, default=30)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train the left/right eye networks")
    _add_common(p)
    p.add_argument("--lr", type=float)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--epochs", type=int)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate trained models on the test split")
    _add_common(p, eye=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="classify one annotated image")
    _add_common(p, eye=True)
    p.add_argument("--image", required=True)
    p.add_argument("--face", required=True, help="face box as x,y,w,h")
    p.add_argument("--landmarks", help="8 comma-separated eye-corner coords")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("bench", help="per-stage inference latency benchmark")
    _add_common(p)
    p.add_argument("--frames", type=int, default=100)
    p.add_argument("--warmup", type=int, default=10)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ConfigError, ValueError, FloatingPointError) as exc:
        # FloatingPointError: non-finite scores or a diverged training loss
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
