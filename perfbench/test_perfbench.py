"""Self-tests of the benchmark's own parts.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import hashlib
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import gen  # noqa: E402
import oracle  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402

GZ = gen.import_gazedir()


def _digests(directory) -> dict[str, str]:
    return {
        name: hashlib.sha256((directory / name).read_bytes()).hexdigest()
        for name in sorted(os.listdir(directory))
    }


@pytest.fixture
def small_inputs(monkeypatch):
    """Fewer files per workload; the generator's logic is unchanged."""
    monkeypatch.setattr(gen, "PREDICT_FRAMES", 6)
    monkeypatch.setattr(gen, "VGA_IMAGES", 6)
    monkeypatch.setattr(gen, "TRAIN_PER_CLASS", 2)


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_a_function_of_the_seed(tmp_path, workload, small_inputs):
    gen.generate(GZ, workload, 7, str(tmp_path / "a"))
    gen.generate(GZ, workload, 7, str(tmp_path / "b"))
    gen.generate(GZ, workload, 8, str(tmp_path / "c"))
    a, b, c = (_digests(tmp_path / d) for d in "abc")
    assert a == b
    assert a.keys() == c.keys()
    # every raster and model changes with the seed; the train manifest lists
    # the same names, classes and boxes for any seed
    assert all(a[name] != c[name] for name in a if not name.endswith(".csv"))


def test_vga_frames_carry_the_face_and_its_annotations(tmp_path, small_inputs):
    gen.generate(GZ, "eval_ert_vga", 3, str(tmp_path))
    dataset, preprocess, synth = GZ.dataset, GZ.preprocess, GZ.synth
    samples = dataset.load_manifest(str(tmp_path / gen.MANIFEST))
    assert len(samples) == gen.VGA_IMAGES
    for s in samples[:3]:
        img = preprocess.read_pnm(str(tmp_path / s.image_path))
        assert img.shape == (gen.VGA_H, gen.VGA_W, 3)
        ox, oy = s.face.x - synth.FACE.x, s.face.y - synth.FACE.y
        face = img[oy : oy + synth.CANVAS, ox : ox + synth.CANVAS]
        assert np.array_equal(face[..., 0], face[..., 2])
        lo = synth.canonical_landmarks().left_outer
        assert s.landmarks.left_outer == (lo[0] + ox, lo[1] + oy)


def _model_and_input(seed=0):
    model = GZ.nn.build_gaze_net(15, 25, 7, seed=seed)
    x = np.random.default_rng(seed).uniform(-0.5, 0.5, (1, 15, 25)).astype(np.float32)
    return model, x


def test_reference_matches_the_program():
    model, x = _model_and_input()
    assert oracle.score_miss(model.forward(x), oracle.reference_probs(model, x)) is None


def test_oracle_flags_a_perturbed_score_vector():
    model, x = _model_and_input(1)
    ref = oracle.reference_probs(model, x)
    bumped = ref.copy()
    bumped[3] += 1e-3
    assert "max |p - p_ref|" in oracle.score_miss(bumped, ref)
    swapped = ref.copy()
    top = int(np.argmax(ref))
    other = (top + 1) % ref.size
    swapped[[top, other]] = swapped[[other, top]]
    assert oracle.score_miss(swapped, ref) is not None
    assert oracle.score_miss(np.full_like(ref, np.nan), ref) == "non-finite score"


def test_oracle_forgives_an_argmax_flip_only_at_a_near_tie():
    tie = np.array([0.2, 0.4, 0.4 + 5e-6])
    assert oracle.score_miss(np.array([0.2, 0.4 + 3e-6, 0.4 + 2e-6]), tie) is None
    clear = np.array([0.2, 0.4, 0.4 + 1.2e-5])
    why = oracle.score_miss(np.array([0.2, 0.4 + 7e-6, 0.4 + 6e-6]), clear)
    assert why.startswith("argmax")


def test_self_time_on_a_hand_built_span_tree():
    # root [0,100] has children [10,30] and [20,50] (overlapping: union 40)
    # and [60,70]; [10,30] has a child [12,18]
    t0 = [0, 10, 20, 60, 12]
    t1 = [100, 30, 50, 70, 18]
    parent = [-1, 0, 0, 0, 1]
    assert self_times(t0, t1, parent) == [100 - 40 - 10, 20 - 6, 30, 10, 6]


def test_self_time_clips_children_to_the_parent():
    assert self_times([0, -5, 8], [10, 3, 20], [-1, 0, 0]) == [10 - 3 - 2, 8, 12]


def test_tracer_records_nesting_and_restores_originals():
    class Mod:
        @staticmethod
        def inner(x):
            return x + 1

        @staticmethod
        def outer(x):
            return Mod.inner(x) * 2

    originals = (Mod.outer, Mod.inner)
    tr = Tracer()
    tr.patch(Mod, "outer", "m.outer")
    tr.patch(Mod, "inner", "m.inner")
    tr.current_op = 4
    assert Mod.outer(1) == 4
    tr.restore()
    assert (Mod.outer, Mod.inner) == originals
    assert [tr.names[n] for n in tr.name] == ["m.outer", "m.inner"]
    assert tr.parent == [-1, 0] and tr.op == [4, 4]
    assert tr.t0[0] <= tr.t0[1] <= tr.t1[1] <= tr.t1[0]


def test_layer_wrappers_name_train_and_inference_calls():
    model, x = _model_and_input()
    tr = Tracer()
    tr.instrument_model(model)
    model.forward(x)
    model.batch_loss_and_backward(np.stack([x, x]), np.array([0, 1]))
    tr.restore()
    names = [tr.names[n] for n in tr.name]
    assert names[:2] == ["nn.forward", "nn.fwd.conv1"]
    assert "nn.train_fwd.pool3" in names and "nn.bwd.conv1" in names
    assert "forward" not in vars(model.layers[0])
    conv1 = names.index("nn.fwd.conv1")
    assert tr.note[conv1] == (1, 2 * 24 * 15 * 25 * 1 * 7 * 7)
