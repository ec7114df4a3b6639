"""The exit-code contract under mutated inputs: whatever a few changed bytes
do to a manifest, an image, a model file or a config file, a command exits
0, 1 or 2, a failure prints exactly one `error:` or `i/o error:` line, and
no exception escapes cli.main."""

import contextlib
import io
import shutil

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from gazedir import cli, dataset


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """The smallest corpus, ert models trained one epoch on it, and each
    target's original file, mutant path and command line."""
    root = tmp_path_factory.mktemp("contract")
    data, models, work = root / "data", root / "models", root / "work"
    assert cli.main(["synth", "--out", str(data), "--n-per-class", "1", "--seed", "0"]) == 0
    manifest = data / "manifest.csv"
    assert cli.main(["train", "--manifest", str(manifest), "--mode", "ert", "--epochs", "1",
                     "--model-dir", str(models), "--report-dir", str(root / "reports")]) == 0
    work.mkdir()
    shutil.copytree(models, work / "models")
    sample = dataset.load_manifest(manifest)[0]
    face, lm = sample.face, sample.landmarks
    predict = [
        "predict", "--mode", "ert", "--face", f"{face.x},{face.y},{face.w},{face.h}",
        "--landmarks", ",".join(str(v) for pt in (lm.left_outer, lm.left_inner,
                                                  lm.right_inner, lm.right_outer) for v in pt),
    ]
    (work / "original.ini").write_text(
        f"[data]\nmanifest = {manifest}\nmode = ert\nclasses = 7\nsubject_split = false\n"
        "[train]\nlr = 0.01\nbatch_size = 32\nseed = 1\n"
        "[augment]\nrotations = 5,-5\nsigmas = 0.5\nscales = 0.9,1.1\n")
    mutants = {"manifest": work / "manifest.csv", "image": work / "image.pgm",
               "model": work / "models" / cli.MODEL_LEFT, "config": work / "run.ini"}
    # target: (original file, path the mutant is written to, command line)
    return {
        "manifest": (manifest, mutants["manifest"],
                     ["eval", "--mode", "ert", "--model-dir", str(models), "--report-dir",
                      str(work / "reports"), "--image-root", str(data),
                      "--manifest", str(mutants["manifest"])]),
        "image": (data / sample.image_path, mutants["image"],
                  [*predict, "--model-dir", str(models), "--image", str(mutants["image"])]),
        "model": (models / cli.MODEL_LEFT, mutants["model"],
                  [*predict, "--model-dir", str(work / "models"),
                   "--image", str(data / sample.image_path)]),
        "config": (work / "original.ini", mutants["config"],
                   ["train", "--epochs", "1", "--model-dir", str(work / "trained"),
                    "--report-dir", str(work / "reports"), "--config", str(mutants["config"])]),
    }


def mutate(original: bytes, edits) -> bytes:
    """original with each (kind, position, byte) edit applied in turn; the
    position wraps to the current length."""
    out = bytearray(original)
    for kind, pos, byte in edits:
        if kind == "insert":
            out.insert(pos % (len(out) + 1), byte)
        elif out and kind == "replace":
            out[pos % len(out)] = byte
        elif out:
            del out[pos % len(out)]
    return bytes(out)


# the headers, trailers and short files hold the structure: half the
# positions fall within 64 bytes of either end
positions = st.one_of(st.integers(-64, 63), st.integers(0, 2**20))
edits = st.lists(st.tuples(st.sampled_from(["replace", "insert", "delete"]), positions,
                           st.integers(0, 255)),
                 min_size=1, max_size=4)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(target=st.sampled_from(["manifest", "image", "model", "config"]), edits=edits)
@example(target="model", edits=[("delete", -1, 0)])  # the trailer a byte short
@example(target="image", edits=[("replace", 3, ord("9"))])  # wider than its raster
def test_mutated_input_keeps_the_exit_code_contract(runs, target, edits):
    original, path, argv = runs[target]
    path.write_bytes(mutate(original.read_bytes(), edits))
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception as exc:  # the contract: nothing escapes
        kind = f"{type(exc).__module__}.{type(exc).__name__}"
        pytest.fail(f"{kind} escaped cli.main on a mutated {target}: {exc}")
    err = err.getvalue()
    assert code in (0, 1, 2), (code, err)
    if code == 0:
        assert err == ""
    else:  # one line, as str.splitlines() counts: quoted control characters are escaped
        assert err.endswith("\n") and len(err.splitlines()) == 1, err
        assert err.startswith(("error:", "i/o error:")), err
