"""What the benchmark relies on. Its tracer wraps program functions by module
and name, so a rename or removal under src/ must fail here, not only when the
benchmark runs; and its per-side calls must measure the CLI's pixels."""

import collections
import importlib.util
import json
import os

import numpy as np
import pytest

import gazedir
from gazedir import augment, cli, dataset, fusion, nn, preprocess, synth  # noqa: F401  (loads the submodules)

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
TRACER_PATH = os.path.join(ROOT, "perfbench", "tracer.py")


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


def test_declared_layer_metrics_record_calls():
    """Every per-layer nn.fwd/train_fwd/bwd metric the benchmark declares
    names a layer of the gaze net and sees a call: a fused or bypassed
    layer would otherwise read 0 calls and 0 ms without failing."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        declared = [d["name"] for d in json.load(f)["per_layer"]]
    prefixes = ("nn.fwd.", "nn.train_fwd.", "nn.bwd.")
    spans = {name.rsplit(".", 1)[0] for name in declared if name.startswith(prefixes)}
    assert spans

    tracer = load_tracer()
    model = nn.build_gaze_net(15, 25, 7)
    assert {s.split(".")[2] for s in spans} <= set(tracer.layer_names(model))
    t = tracer.Tracer()
    t.instrument_model(model)
    rng = np.random.default_rng(0)
    model.forward(rng.normal(size=(1, 15, 25)))
    model.batch_loss_and_backward(rng.normal(size=(4, 1, 15, 25)), np.arange(4))
    t.restore()
    calls = collections.Counter(t.names[n] for n in t.name)
    assert not any(t.failed)
    assert {s for s in spans if calls[s] == 0} == set()


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
    assert patches.pixels.tobytes() == pairs[k].pixels.tobytes()
    assert patches.labels.tolist() == pairs[k].labels.tolist()

    hw = dataset.default_patch_hw(mode)
    for sample, pixels in zip(samples, pairs[k].pixels):
        gray = preprocess.to_grayscale(preprocess.read_pnm(os.path.join(root, sample.image_path)))
        one = dataset.extract_patch(gray, sample, side, mode, hw)
        assert one.tobytes() == pixels.tobytes()


def test_augmentation_runs_stacked_kernels(monkeypatch):
    """expand calls each stacked kernel, by the public name the benchmark's
    tracer wraps, once per stack of AUGMENT_CHUNK patches and policy
    parameter, so a return to one call per patch fails here, not only as a
    slower benchmark set-up."""
    rng = np.random.default_rng(0)
    patches = dataset.EyePatches(rng.uniform(0, 255, (65, 15, 25)).astype(np.float32),
                                 np.arange(65) % 7)
    policy = augment.AugmentPolicy()
    stacks = collections.defaultdict(list)  # stack sizes per kernel and parameter
    for name in ("rotate", "gaussian_blur", "rescale"):
        def spy(stack, param, fn=getattr(augment, name), name=name):
            stacks[name, param].append(len(stack))
            return fn(stack, param)
        monkeypatch.setattr(augment, name, spy)
    assert len(augment.expand(patches, policy)) == 65 * 9
    keys = [*(("rotate", d) for d in policy.rotation_degrees),
            *(("gaussian_blur", s) for s in policy.blur_sigmas),
            *(("rescale", f) for f in policy.scale_factors)]
    # ceil(65 / AUGMENT_CHUNK) = 3 calls per parameter
    assert dict(stacks) == {key: [32, 32, 1] for key in keys}


def test_train_ert_setup_chain_yields_the_cli_training_tensors(corpus, tmp_path, monkeypatch):
    """The benchmark's train_ert set-up (make_eye_patches -> expand ->
    patches_to_tensors per side) builds, byte for byte, the tensors and
    labels `gazedir train` passes to nn.train_epoch."""
    root, samples = corpus
    seed = 4
    seen = []  # (tensor bytes, labels) per side

    def capture(model, xs, ys, *args, **kwargs):
        seen.append(([x.tobytes() for x in xs], list(ys)))
        return 1.0
    monkeypatch.setattr(nn, "train_epoch", capture)
    assert cli.main([
        "train", "--manifest", os.path.join(root, "manifest.csv"), "--mode", "ert",
        "--model-dir", str(tmp_path), "--epochs", "1", "--seed", str(seed),
    ]) == 0
    assert len(seen) == 2
    train = dataset.split_50_50(samples, seed).train
    for k, side in enumerate(dataset.SIDES):
        patches = dataset.make_eye_patches(train, side, "ert", image_root=root)
        tensors = dataset.patches_to_tensors(augment.expand(patches, augment.AugmentPolicy()))
        assert all(x.shape == (1, 15, 25) and x.dtype == np.float32 for x, _ in tensors)
        assert seen[k] == ([x.tobytes() for x, _ in tensors], [y for _, y in tensors])


with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    BENCH_WORKLOADS = [w["name"] for w in json.load(_f)["workloads"]]


@pytest.mark.parametrize("name", BENCH_WORKLOADS)
def test_workload_calls_run(tmp_path, monkeypatch, name):
    """Each workload's set-up, four operations and check run against the
    program at small input sizes, so a signature change under src/ that the
    benchmark's calls no longer fit fails here too."""
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    gen = importlib.import_module("gen")
    workloads = importlib.import_module("workloads")
    monkeypatch.setattr(gen, "PREDICT_FRAMES", 6)
    monkeypatch.setattr(gen, "VGA_IMAGES", 6)
    monkeypatch.setattr(gen, "TRAIN_PER_CLASS", 2)
    gz = gen.import_gazedir(ROOT)
    gen.generate(gz, name, 5, str(tmp_path))
    wl = workloads.WORKLOADS[name](gz, str(tmp_path), 5)
    wl.setup()
    assert [wl.op(i) for i in range(4)] == [True] * 4
    assert wl.check() == (set(), [])


@pytest.mark.parametrize("name", BENCH_WORKLOADS)
def test_traced_workload_records_the_calls_it_runs(tmp_path, monkeypatch, name):
    """A traced run (the benchmark's --trace 1) at test_workload_calls_run's
    sizes: no wrapped call fails, the train_ert set-up's transforms are
    recorded under the names the tracer wraps, and augment.expand's per-call
    notes add up to the patches it expanded, so a transform that expand
    calls by another name, or an EyePatches length that is not its patch
    count, fails here and not only in a traced benchmark run. On the colour
    VGA frames luma runs on stacks of crops, fewer calls than decodes."""
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    gen = importlib.import_module("gen")
    workloads = importlib.import_module("workloads")
    monkeypatch.setattr(gen, "PREDICT_FRAMES", 6)
    monkeypatch.setattr(gen, "VGA_IMAGES", 6)
    monkeypatch.setattr(gen, "TRAIN_PER_CLASS", 2)
    gz = gen.import_gazedir(ROOT)
    gen.generate(gz, name, 5, str(tmp_path))
    wl = workloads.WORKLOADS[name](gz, str(tmp_path), 5)
    plain, traced, tr = workloads.traced_run(wl, gz, 0.4)
    metrics, _ = workloads.layer_metrics(
        tr, len(traced["lat_ms"]),
        np.percentile(plain["lat_ms"], 50), np.percentile(traced["lat_ms"], 50),
    )
    assert plain["failed"] == traced["failed"] == set()
    assert metrics["trace.failed_calls"] == 0

    expanded = 0  # patches the train_ert set-up hands to expand, one eye at a time
    if name == "train_ert":
        samples = dataset.load_manifest(os.path.join(str(tmp_path), gen.MANIFEST))
        expanded = len(dataset.SIDES) * len(dataset.split_50_50(samples, 5).train)
        for kernel in ("rotate", "gaussian_blur", "rescale"):
            assert metrics[f"augment.{kernel}.calls"] > 0, kernel
    if name == "eval_ert_vga":  # colour crops are greyed in stacks, not one call per decode
        assert metrics["preprocess.to_grayscale.calls"] < metrics["preprocess.read_pnm.calls"]
    notes = [note for nid, note in zip(tr.name, tr.note) if tr.names[nid] == "augment.expand"]
    assert sum(notes) == expanded
