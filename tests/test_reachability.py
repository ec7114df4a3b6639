"""Every function and method in src/gazedir runs on a user's or the
benchmark's path. Code that only tests reach is folded away, so this test
runs, under sys.setprofile, every CLI command and the benchmark's three
workloads, and fails on any function none of them entered that is not on
the named allowlist below."""

import importlib
import inspect
import os
import sys

import gazedir
from gazedir import augment, cli, config, dataset, fusion, nn, preprocess, synth

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
MODULES = (augment, cli, config, dataset, fusion, nn, preprocess, synth)

# functions no command and no workload runs, each with its reason
UNREACHED = {
    "grad_check": "the finite-difference oracle of the kernels, run by the gradient tests",
    "grad_check.<locals>.loss_from": "grad_check's loss of one perturbed forward",
    "Model.astype": "casts a net to float64 for the gradient oracle",
    "EyePatches.__len__": "read only by the benchmark tracer's augment.expand note",
}


def defined_functions() -> dict[tuple[str, int], str]:
    """qualname of every function and method in the package's source, nested
    ones included, keyed by (source file, first line)."""
    out = {}
    for module in MODULES + (gazedir,):
        path = module.__file__
        with open(path, encoding="utf-8") as f:
            stack = [compile(f.read(), path, "exec")]
        while stack:
            code = stack.pop()
            stack.extend(c for c in code.co_consts if inspect.iscode(c))
            # class bodies and the module run at import; <lambda> and
            # <genexpr> belong to the function that holds them
            if code.co_flags & inspect.CO_NEWLOCALS and not code.co_name.startswith("<"):
                out[os.path.realpath(path), code.co_firstlineno] = code.co_qualname
    return out


class Entered:
    """Code objects entered while active, through sys.setprofile."""

    def __init__(self):
        self.codes = set()

    def _profile(self, frame, event, arg):
        if event == "call":
            self.codes.add(frame.f_code)

    def __enter__(self):
        self.previous = sys.getprofile()
        sys.setprofile(self._profile)
        return self

    def __exit__(self, *exc):
        sys.setprofile(self.previous)

    def keys(self) -> set[tuple[str, int]]:
        return {(os.path.realpath(c.co_filename), c.co_firstlineno) for c in self.codes}


def run_commands(tmp, entered: Entered) -> None:
    """synth; train roi from flags and ert from a --config file with every
    section; eval and predict for every --eye in both modes; bench; and one
    usage error."""
    data = tmp / "data"
    with entered:
        assert cli.main(["synth", "--out", str(data), "--n-per-class", "2", "--seed", "0"]) == 0
    manifest = str(data / "manifest.csv")
    ini = tmp / "ert.ini"
    ini.write_text(
        f"[data]\nmanifest = {manifest}\nmode = ert\nclasses = 7\nsubject_split = true\n"
        f"[train]\nepochs = 1\nseed = 1\nmodel_dir = {tmp / 'ert'}\n"
        f"report_dir = {tmp / 'ert_reports'}\n"
        "[augment]\nrotations = 5\nsigmas = 0.5\nscales = 0.9,1.1\n"
        "[map3]\nvd = center\nar = left\nac = right\n"
        "vr = excluded\nvc = excluded\nid = excluded\nk = excluded\n"
    )
    roi = ["--manifest", manifest, "--mode", "roi", "--model-dir", str(tmp / "roi"),
           "--report-dir", str(tmp / "roi_reports")]
    sample = dataset.load_manifest(manifest)[0]
    face = sample.face
    lm = sample.landmarks
    landmarks = ",".join(str(v) for pt in (lm.left_outer, lm.left_inner, lm.right_inner,
                                           lm.right_outer) for v in pt)
    image = ["--image", str(data / sample.image_path),
             "--face", f"{face.x},{face.y},{face.w},{face.h}"]
    with entered:
        assert cli.main(["train", *roi, "--epochs", "1"]) == 0
        assert cli.main(["train", "--config", str(ini)]) == 0
        for eye in dataset.EYES:
            assert cli.main(["eval", *roi, "--eye", eye]) == 0
            assert cli.main(["eval", "--config", str(ini), "--eye", eye]) == 0
            assert cli.main(["predict", *image, "--mode", "roi", "--model-dir", str(tmp / "roi"),
                             "--eye", eye]) == 0
            assert cli.main(["predict", *image, "--landmarks", landmarks,
                             "--config", str(ini), "--eye", eye]) == 0
        assert cli.main(["bench", *roi, "--frames", "2", "--warmup", "1"]) == 0
        assert cli.main(["eval", "--eye", "up"]) == 1  # _Parser.error


def run_workloads(tmp, monkeypatch, entered: Entered) -> None:
    """Each benchmark workload's input generation, set-up, four operations
    and check, at test_workload_calls_run's sizes."""
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    gen = importlib.import_module("gen")
    workloads = importlib.import_module("workloads")
    monkeypatch.setattr(gen, "PREDICT_FRAMES", 6)
    monkeypatch.setattr(gen, "VGA_IMAGES", 6)
    monkeypatch.setattr(gen, "TRAIN_PER_CLASS", 2)
    gz = gen.import_gazedir(ROOT)
    for name in gen.WORKLOADS:
        inputs = tmp / name
        with entered:
            gen.generate(gz, name, 5, str(inputs))
            wl = workloads.WORKLOADS[name](gz, str(inputs), 5)
            wl.setup()
            assert [wl.op(i) for i in range(4)] == [True] * 4
            assert wl.check() == (set(), [])


def import_fresh(entered: Entered) -> None:
    """Imports the package anew, as a process does, so that functions that
    run at import (a field declaration's helper, say) are entered; the
    modules every other test holds are put back."""
    held = {k: m for k, m in sys.modules.items() if k.split(".")[0] == "gazedir"}
    for k in held:
        del sys.modules[k]
    try:
        with entered:
            for module in MODULES:
                importlib.import_module(module.__name__)
    finally:
        for k in [k for k in sys.modules if k.split(".")[0] == "gazedir"]:
            del sys.modules[k]
        sys.modules.update(held)


def test_every_function_is_entered_by_a_command_or_a_workload(tmp_path, monkeypatch, capsys):
    entered = Entered()
    import_fresh(entered)
    run_commands(tmp_path, entered)
    run_workloads(tmp_path, monkeypatch, entered)
    capsys.readouterr()
    keys = entered.keys()
    unreached = {name for key, name in defined_functions().items() if key not in keys}
    assert sorted(unreached - set(UNREACHED)) == [], "entered by no command or workload"
    assert sorted(set(UNREACHED) - unreached) == [], "allowlisted, but entered or gone"

