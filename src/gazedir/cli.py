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


def _labeled_samples(cfg: RunConfig) -> list[tuple[dataset.Sample, int]]:
    """Manifest rows paired with run labels; 3-class mode drops excluded rows."""
    if cfg.manifest is None:
        raise ConfigError("no manifest configured (set [data] manifest or --manifest)")
    samples = dataset.load_manifest(cfg.manifest)
    if cfg.classes == 7:
        records = [(s, int(s.eac)) for s in samples]
    else:
        records = []
        for s in samples:
            mapped = dataset.to_three_class(s, cfg.map3)
            if mapped is not None:
                records.append((s, int(mapped)))
    if not records:
        raise ConfigError("dataset empty after label filtering")
    return records


def _split_records(cfg: RunConfig, records):
    if cfg.subject_split:
        samples = [r[0] for r in records]
        pair = dataset.split_subject_disjoint(samples, cfg.seed)
        label_of = {id(r[0]): r[1] for r in records}
        train = [(s, label_of[id(s)]) for s in pair.train]
        test = [(s, label_of[id(s)]) for s in pair.test]
        return train, test
    pair = dataset.split_50_50(records, cfg.seed)
    return pair.train, pair.test


def _eye_tensors(cfg: RunConfig, records, side: str, split: str, expand: bool):
    patches = dataset.make_eye_patches(
        [r[0] for r in records],
        side,
        cfg.mode,
        patch_hw=cfg.patch_hw,
        image_root=cfg.resolved_image_root(),
        split=split,
        labels=[r[1] for r in records],
    )
    if expand:
        patches = augment.expand(patches, cfg.policy)
    return dataset.patches_to_tensors(patches)


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
    train_records, _ = _split_records(cfg, _labeled_samples(cfg))
    if not train_records:
        raise ConfigError("training split is empty")
    h, w = cfg.patch_hw
    os.makedirs(cfg.model_dir, exist_ok=True)

    losses: dict[str, list[float]] = {}
    for side, seed_offset, filename in (
        ("left", 0, MODEL_LEFT),
        ("right", 1, MODEL_RIGHT),
    ):
        tensors = _eye_tensors(cfg, train_records, side, "train", expand=True)
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
        losses[side] = side_losses
        nn.save_model(model, os.path.join(cfg.model_dir, filename))

    log_path = os.path.join(cfg.model_dir, "train_log.csv")
    with open(log_path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(["epoch", "mean_loss_L", "mean_loss_R"])
        for epoch in range(cfg.epochs):
            writer.writerow(
                [epoch + 1, repr(losses["left"][epoch]), repr(losses["right"][epoch])]
            )
    print(f"models and {log_path} written to {cfg.model_dir}")
    return 0


def _load_models(cfg: RunConfig, model_dir: str, eye: str):
    model_left = model_right = None
    if eye in ("left", "both"):
        model_left = nn.load_model(os.path.join(model_dir, MODEL_LEFT))
    if eye in ("right", "both"):
        model_right = nn.load_model(os.path.join(model_dir, MODEL_RIGHT))
    for model in (model_left, model_right):
        if model is None:
            continue
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
    return model_left, model_right


def cmd_eval(args) -> int:
    cfg = _config_from(args)
    eye = args.eye
    model_left, model_right = _load_models(cfg, cfg.model_dir, eye)
    _, test_records = _split_records(cfg, _labeled_samples(cfg))
    if not test_records:
        raise ConfigError("test split is empty")
    left = _eye_tensors(cfg, test_records, "left", "test", expand=False)
    right = _eye_tensors(cfg, test_records, "right", "test", expand=False)
    triples = [(xl, xr, yl) for (xl, yl), (xr, _) in zip(left, right)]
    result = fusion.evaluate(model_left, model_right, triples, eye=eye)
    names = class_names(cfg.classes)
    paths = fusion.emit_report(result, names, _report_meta(cfg, eye=eye), cfg.report_dir)
    print(f"eye={eye} accuracy {result.accuracy:.4f} over {len(triples)} samples")
    for name, acc in zip(names, result.per_class_accuracy):
        shown = "n/a" if np.isnan(acc) else f"{acc:.4f}"
        print(f"  {name}: {shown}")
    print("wrote " + ", ".join(paths))
    return 0


def _parse_face(text: str) -> preprocess.Box:
    parts = text.split(",")
    if len(parts) != 4:
        raise ConfigError("--face expects x,y,w,h")
    x, y, w, h = (int(p) for p in parts)
    if w <= 0 or h <= 0:
        raise ConfigError("face box extents must be positive")
    return preprocess.Box(x, y, w, h)


def _parse_landmarks(text: str) -> preprocess.EyeLandmarks:
    parts = text.split(",")
    if len(parts) != 8:
        raise ConfigError(
            "--landmarks expects lo_x,lo_y,li_x,li_y,ri_x,ri_y,ro_x,ro_y"
        )
    v = [float(p) for p in parts]
    return preprocess.EyeLandmarks(
        left_outer=(v[0], v[1]), left_inner=(v[2], v[3]),
        right_inner=(v[4], v[5]), right_outer=(v[6], v[7]),
    )


def cmd_predict(args) -> int:
    cfg = _config_from(args)
    eye = args.eye
    if cfg.mode == "ert" and args.landmarks is None:
        raise ConfigError(
            "ert mode needs --landmarks lo_x,lo_y,li_x,li_y,ri_x,ri_y,ro_x,ro_y"
        )
    face = _parse_face(args.face)
    landmarks = _parse_landmarks(args.landmarks) if args.landmarks else None
    sample = dataset.Sample(args.image, face, EacClass.VD, landmarks)
    gray = preprocess.to_grayscale(preprocess.read_pnm(args.image))
    model_left, model_right = _load_models(cfg, cfg.model_dir, eye)

    def score_for(side, model):
        patch = dataset.extract_patch(gray, sample, side, cfg.mode, cfg.patch_hw)
        return model.forward(preprocess.normalize(patch))

    if eye == "left":
        score = score_for("left", model_left)
    elif eye == "right":
        score = score_for("right", model_right)
    else:
        score = fusion.fuse_scores(
            score_for("left", model_left), score_for("right", model_right)
        )
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
