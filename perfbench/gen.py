"""Seeded input generator for the benchmark workloads.

Every file a workload reads is made here, from `--seed` alone: face frames
from `synth.render_face`, manifests from `dataset.write_manifest`, and model
files from `nn.build_gaze_net` + `nn.save_model`. The same seed gives
byte-identical files; the measured process receives only these files.

    python3 perfbench/gen.py --workload predict_roi --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import types

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

WORKLOADS = ("predict_roi", "eval_ert_vga", "train_ert")

MANIFEST = "manifest.csv"
MODEL_LEFT = "model_left.gdn"
MODEL_RIGHT = "model_right.gdn"

# Sizes. predict_roi cycles its frames, so their number only sets how many
# distinct frames the oracle can sample. eval_ert_vga holds out 128 images:
# one batch at B=128, four at B=32, the largest sizes of the B in {1, 8, 32,
# 128} sweep that ROADMAP item 5 (batch-first inference) plans. train_ert
# uses the corpus of `gazedir synth` at its default --n-per-class 30.
PREDICT_FRAMES = 48      # 120x120 P5 frames, cycled by the closed loop
VGA_TEST = 128           # held-out 640x480 P6 frames scored per pass
VGA_IMAGES = 2 * VGA_TEST
VGA_W, VGA_H = 640, 480
TRAIN_PER_CLASS = 30     # 210 synth faces; the training half (105) is augmented x9
N_CLASSES = 7


def import_gazedir(root: str = ROOT):
    """Imports the package from `<root>/src` and nowhere else.

    A copy installed elsewhere must not stand in for the checkout under test,
    so a module that resolves outside `<root>/src` is an error.
    """
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import gazedir
    from gazedir import augment, dataset, fusion, nn, preprocess, synth

    where = os.path.realpath(gazedir.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise ImportError(f"gazedir resolved to {where}, outside {src}")
    return types.SimpleNamespace(
        augment=augment, dataset=dataset, fusion=fusion,
        nn=nn, preprocess=preprocess, synth=synth,
    )


def _save_pair(gz, out_dir: str, hw: tuple[int, int], rng) -> None:
    nn = gz.nn
    for filename in (MODEL_LEFT, MODEL_RIGHT):
        model = nn.build_gaze_net(*hw, N_CLASSES, seed=int(rng.integers(2**31)))
        nn.save_model(model, os.path.join(out_dir, filename))


def _gen_predict_roi(gz, out_dir: str, rng) -> None:
    dataset, preprocess, synth = gz.dataset, gz.preprocess, gz.synth
    landmarks = synth.canonical_landmarks()
    samples = []
    for i in range(PREDICT_FRAMES):
        eac = dataset.EacClass(int(rng.integers(N_CLASSES)))
        name = f"frame_{i:03d}.pgm"
        preprocess.write_pgm(os.path.join(out_dir, name), synth.render_face(rng, eac))
        samples.append(dataset.Sample(name, synth.FACE, eac, landmarks, f"s{i:03d}"))
    dataset.write_manifest(os.path.join(out_dir, MANIFEST), samples)
    _save_pair(gz, out_dir, dataset.default_patch_hw("roi"), rng)


def place_face(face, canvas, ox: int, oy: int, face_box, landmarks):
    """Pastes a grayscale face into an RGB canvas at (ox, oy).

    Returns the face box and eye-corner landmarks translated with it.
    """
    h, w = face.shape
    canvas[oy : oy + h, ox : ox + w] = face[:, :, None]
    box = dataclasses.replace(face_box, x=face_box.x + ox, y=face_box.y + oy)
    moved = dataclasses.replace(landmarks, **{
        f.name: (getattr(landmarks, f.name)[0] + ox, getattr(landmarks, f.name)[1] + oy)
        for f in dataclasses.fields(landmarks)
    })
    return box, moved


def _gen_eval_ert_vga(gz, out_dir: str, rng) -> None:
    dataset, preprocess, synth = gz.dataset, gz.preprocess, gz.synth
    landmarks = synth.canonical_landmarks()
    samples = []
    for i in range(VGA_IMAGES):
        eac = dataset.EacClass(i % N_CLASSES)
        face = synth.render_face(rng, eac)
        canvas = rng.integers(0, 256, size=(VGA_H, VGA_W, 3), dtype=np.uint8)
        ox = int(rng.integers(0, VGA_W - face.shape[1] + 1))
        oy = int(rng.integers(0, VGA_H - face.shape[0] + 1))
        box, moved = place_face(face, canvas, ox, oy, synth.FACE, landmarks)
        name = f"vga_{i:03d}.ppm"
        preprocess.write_ppm(os.path.join(out_dir, name), canvas)
        samples.append(dataset.Sample(name, box, eac, moved, f"s{i:03d}"))
    dataset.write_manifest(os.path.join(out_dir, MANIFEST), samples)
    _save_pair(gz, out_dir, dataset.default_patch_hw("ert"), rng)


def _gen_train_ert(gz, out_dir: str, rng) -> None:
    gz.synth.generate_corpus(out_dir, TRAIN_PER_CLASS, seed=int(rng.integers(2**31)))


def generate(gz, workload: str, seed: int, out_dir: str) -> None:
    """Writes the input files of one workload into out_dir."""
    makers = {
        "predict_roi": _gen_predict_roi,
        "eval_ert_vga": _gen_eval_ert_vga,
        "train_ert": _gen_train_ert,
    }
    os.makedirs(out_dir, exist_ok=True)
    makers[workload](gz, out_dir, np.random.default_rng(seed))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    generate(import_gazedir(), args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
