"""What the benchmark relies on. Its tracer wraps program functions by module
and name, so a rename or removal under src/ must fail here, not only when the
benchmark runs; and its per-side calls must measure the CLI's pixels."""

import collections
import importlib.util
import os

import pytest

import gazedir
from gazedir import augment, dataset, fusion, nn, preprocess, synth  # noqa: F401  (loads the submodules)

TRACER_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_module_functions_resolve():
    tracer = load_tracer()
    originals = {}
    for key, attr in tracer.MODULE_FUNCTIONS:
        fn = getattr(getattr(gazedir, key), attr)
        assert callable(fn), f"{key}.{attr}"
        originals[key, attr] = fn
    t = tracer.Tracer()
    t.instrument_modules(gazedir)
    t.restore()
    for (key, attr), fn in originals.items():
        assert getattr(getattr(gazedir, key), attr) is fn


def counting(fn, calls, name):
    def wrapper(*args):
        calls[name] += 1
        return fn(*args)
    return wrapper


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    _, samples = synth.generate_corpus(out, 1, seed=3)
    return str(out), samples


@pytest.mark.parametrize("mode", ["roi", "ert"])
@pytest.mark.parametrize("side", dataset.SIDES)
def test_per_side_calls_match_the_pair_path(corpus, monkeypatch, mode, side):
    """The benchmark's per-side calls measure the pixels the CLI uses, and
    decode and crop no more than that side needs."""
    root, samples = corpus
    k = dataset.SIDES.index(side)
    pairs = dataset.make_eye_pairs(samples, mode, image_root=root)
    calls = collections.Counter()
    for name in ("read_pnm", "crop"):
        monkeypatch.setattr(preprocess, name, counting(getattr(preprocess, name), calls, name))
    patches = dataset.make_eye_patches(samples, side, mode, image_root=root)
    assert calls == {"read_pnm": len(samples), "crop": len(samples)}
    monkeypatch.undo()
    assert [p.pixels.tobytes() for p in patches] == [p.pixels.tobytes() for p in pairs[k]]
    assert [p.label for p in patches] == [p.label for p in pairs[k]]

    hw = dataset.default_patch_hw(mode)
    for sample in samples:
        gray = preprocess.to_grayscale(preprocess.read_pnm(os.path.join(root, sample.image_path)))
        one = dataset.extract_patch(gray, sample, side, mode, hw)
        assert one.tobytes() == dataset.eye_pair(gray, sample, mode, hw)[k].tobytes()
