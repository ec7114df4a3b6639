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
from .dataset import EacClass

MODEL_LEFT = "model_left.gdn"
MODEL_RIGHT = "model_right.gdn"


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # map usage errors onto exit code 1
        raise ConfigError(message)


def _label(cfg: RunConfig, sample: dataset.Sample) -> int | None:
    """The sample's run label; None when 3-class mode drops its class."""
    if cfg.classes == 7:
        return int(sample.eac)
    mapped = cfg.map3[sample.eac]  # RunConfig.validate checks map3 is complete
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


def _test_split(cfg: RunConfig) -> list[dataset.Sample]:
    test = _split(cfg).test
    if not test:
        raise ConfigError("test split is empty")
    return test


def _eye_pairs(cfg: RunConfig, samples: list[dataset.Sample], split: str, eye: str = "both"):
    """(left, right) EyePatches of the samples; each image is decoded once."""
    labels = [_label(cfg, s) for s in samples]
    return dataset.make_eye_pairs(
        samples, cfg.mode, cfg.resolved_image_root(), split, labels, eye
    )


def _triples(pairs) -> list[tuple]:
    """(left, right, label) per sample, each eye a (1, H, W) view of its
    normalized stack; an eye left uncropped is None."""
    labels = next(p.labels for p in pairs if p is not None).tolist()
    eyes = [[None] * len(labels) if p is None else preprocess.normalize_stack(p.pixels)
            for p in pairs]
    return list(zip(*eyes, labels))


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
    train = _split(cfg).train  # never empty: both splits give train at least one sample
    h, w = cfg.patch_hw

    # both sides train before anything is written, so a failed run leaves
    # the previous model pair and log as they were, and makes no model_dir
    models, losses = [], []  # per side; losses per epoch
    pairs = _eye_pairs(cfg, train, "train")
    for seed_offset, (side, patches) in enumerate(zip(dataset.SIDES, pairs)):
        patches = augment.expand(patches, cfg.policy)
        xs = preprocess.normalize_stack(patches.pixels)
        model = nn.build_gaze_net(h, w, cfg.classes, seed=cfg.seed + seed_offset)
        side_losses = []
        for epoch in range(cfg.epochs):
            loss = nn.train_epoch(
                model, xs, patches.labels, cfg.lr, cfg.batch_size,
                rng_seed=cfg.seed * 1_000_003 + epoch,
            )
            side_losses.append(loss)
            print(f"[{side}] epoch {epoch + 1}/{cfg.epochs} mean loss {loss:.6f}")
        models.append(model)
        losses.append(side_losses)
    os.makedirs(cfg.model_dir, exist_ok=True)
    for model, filename in zip(models, (MODEL_LEFT, MODEL_RIGHT)):
        nn.save_model(model, os.path.join(cfg.model_dir, filename))

    log_path = os.path.join(cfg.model_dir, "train_log.csv")
    with open(log_path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(["epoch", "mean_loss_L", "mean_loss_R"])
        for epoch, (left, right) in enumerate(zip(*losses), 1):
            writer.writerow([epoch, repr(left), repr(right)])
    print(f"models and {log_path} written to {cfg.model_dir}")
    return 0


def _load_models(cfg: RunConfig, eye: str):
    """(left, right) models; an eye that `eye` does not select is None."""
    models = tuple(
        nn.load_model(os.path.join(cfg.model_dir, filename)) if wanted else None
        for wanted, filename in zip(dataset.eye_selection(eye), (MODEL_LEFT, MODEL_RIGHT))
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
    model_left, model_right = _load_models(cfg, eye)
    test = _test_split(cfg)
    triples = _triples(_eye_pairs(cfg, test, "test", eye))
    result = fusion.evaluate(model_left, model_right, triples)
    names = dataset.class_names(cfg.classes)
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
    pairs = dataset.make_eye_pairs([sample], cfg.mode, split="test", eye=eye)
    model_left, model_right = _load_models(cfg, eye)
    x_left, x_right = (None if p is None else preprocess.normalize_stack(p.pixels) for p in pairs)
    score = fusion.score_pair(model_left, model_right, x_left, x_right)[0]
    label = fusion.predict_class(score)
    out = {
        "class": dataset.class_names(cfg.classes)[label],
        "scores": [fusion.round_sig(float(s)) for s in score],
    }
    print(json.dumps(out, sort_keys=True))
    return 0


def cmd_bench(args) -> int:
    cfg = _config_from(args)
    model_left, model_right = _load_models(cfg, "both")
    test = _test_split(cfg)
    samples = [test[i % len(test)] for i in range(args.frames)]
    report = fusion.bench_latency(
        model_left, model_right, samples, args.warmup, cfg.mode, cfg.resolved_image_root()
    )
    h, w = cfg.patch_hw
    print(f"{report['n_frames']} frames after {report['warmup']} warmup, patch {h}x{w}")
    print(f"{'stage':<14}{'mean ms':>10}{'p50 ms':>10}{'p95 ms':>10}")
    for name, s in (*report["stages"].items(), ("end_to_end", report["end_to_end"])):
        print(f"{name:<14}{s['mean_ms']:>10.3f}{s['p50_ms']:>10.3f}{s['p95_ms']:>10.3f}")
    print(f"fps {report['fps']:.1f}")
    os.makedirs(cfg.report_dir, exist_ok=True)
    bench_path = os.path.join(cfg.report_dir, "bench.json")
    fusion.dump_json({**fusion.round_sig(report), **_report_meta(cfg)}, bench_path)
    print(f"wrote {bench_path}")
    return 0


# --------------------------------------------------------------------------
# argument parsing
# --------------------------------------------------------------------------

def _add_fields(p: _Parser, *names: str) -> None:
    """Flags that set RunConfig fields; each reads its value through the
    field's INI token parser, so `--manifest ""` is unset as in a file."""
    parsers = {f.name: f.metadata["parse"] for f in fields(RunConfig) if f.metadata}
    choices = {"mode": tuple(dataset.PATCH_HW), "classes": tuple(dataset.CLASS_SETS)}
    for name in names:
        p.add_argument("--" + name.replace("_", "-"), type=parsers[name], choices=choices.get(name))


def _add_common(p: _Parser, eye: bool = False, split: bool = True) -> None:
    p.add_argument("--config", help="INI config file")
    split_fields = ("seed", "manifest", "image_root", "report_dir") if split else ()
    _add_fields(p, "mode", "classes", "model_dir", *split_fields)
    if eye:
        p.add_argument("--eye", choices=dataset.EYES, default="both")


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
    _add_fields(p, "lr", "batch_size", "epochs")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate trained models on the test split")
    _add_common(p, eye=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="classify one annotated image")
    _add_common(p, eye=True, split=False)
    p.add_argument("--image", required=True)
    p.add_argument("--face", required=True, help="face box as x,y,w,h")
    p.add_argument("--landmarks", help="8 comma-separated eye-corner coords")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("bench", help="per-stage latency of scoring test-split images")
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
    except MemoryError as exc:  # e.g. a config value that sizes an array beyond memory
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
