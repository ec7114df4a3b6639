"""Command-line surface: synth/train/eval/predict/bench, config, exit codes."""

import configparser
import dataclasses
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gazedir import augment, cli, config, dataset, nn, preprocess, synth
from gazedir.augment import AugmentPolicy
from gazedir.config import ConfigError, RunConfig, ini_text, load_config


def run(argv):
    return cli.main(argv)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    assert run(["synth", "--out", str(out), "--n-per-class", "2", "--seed", "4"]) == 0
    return out


@pytest.fixture(scope="module")
def trained(tmp_path_factory, corpus):
    """Two-epoch ERT training run shared by the eval/predict/bench tests."""
    work = tmp_path_factory.mktemp("trained")
    code = run([
        "train",
        "--manifest", str(corpus / "manifest.csv"),
        "--model-dir", str(work / "models"),
        "--report-dir", str(work / "reports"),
        "--mode", "ert",
        "--epochs", "2",
        "--seed", "1",
    ])
    assert code == 0
    return work


class TestSynth:
    def test_counts(self, corpus):
        pgms = sorted(p for p in os.listdir(corpus) if p.endswith(".pgm"))
        assert len(pgms) == 14  # 7 classes x 2
        samples = dataset.load_manifest(corpus / "manifest.csv")
        assert len(samples) == 14
        per_class = {c: 0 for c in dataset.EacClass}
        for s in samples:
            per_class[s.eac] += 1
        assert all(v == 2 for v in per_class.values())

    def test_annotations_are_usable_by_both_modes(self, corpus):
        samples = dataset.load_manifest(corpus / "manifest.csv")
        for mode, hw in (("roi", (42, 50)), ("ert", (15, 25))):
            pairs = dataset.patches_to_tensors(
                dataset.make_eye_patches(samples[:2], "left", mode, image_root=str(corpus))
            )
            assert pairs[0][0].shape == (1, *hw)

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(["synth", "--out", str(out), "--n-per-class", "1", "--seed", "9"]) == 0
        for name in sorted(os.listdir(a)):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_vd_iris_is_centered(self):
        assert synth.IRIS_OFFSETS[dataset.EacClass.VD] == (0, 0)
        assert list(synth.IRIS_OFFSETS) == list(dataset.EacClass)


class TestConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.mode == "ert" and cfg.classes == 7
        assert cfg.patch_hw == (15, 25)
        assert cfg.lr == 0.01 and cfg.batch_size == 32 and cfg.epochs == 200

    def test_mode_sets_patch_default(self):
        assert RunConfig(mode="roi").patch_hw == (42, 50)

    def test_file_values_and_overrides(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(
            "[data]\nmode = roi\nclasses = 3\n"
            "[train]\nlr = 0.02\nepochs = 7\n"
            "[augment]\nrotations = 1,-1\n"
            "[map3]\nvd = center\nvr = excluded\nvc = excluded\n"
            "ar = left\nac = right\nid = excluded\nk = left\n"
        )
        cfg = load_config(path, {"epochs": 9})
        assert cfg.mode == "roi" and cfg.classes == 3
        assert cfg.lr == 0.02
        assert cfg.epochs == 9  # flag wins over file
        assert cfg.rotations == (1.0, -1.0)
        assert cfg.map3[dataset.EacClass.K] == dataset.ThreeClass.LEFT

    def test_unknown_key_rejected(self, tmp_path, capsys):
        # patch_h: the patch size is fixed per mode, so no key sets it
        path = tmp_path / "run.ini"
        for section, key in (("train", "learning_rate"), ("data", "patch_h")):
            path.write_text(f"[{section}]\n{key} = 42\n")
            with pytest.raises(ConfigError, match=key):
                load_config(path)
            assert run(["train", "--config", str(path)]) == 1
            assert _single_error_line(capsys.readouterr().err) == (
                f"error: {path}: unknown key {key!r} in [{section}]"
            )

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[optimizer]\nlr = 0.1\n")
        with pytest.raises(ConfigError, match="optimizer"):
            load_config(path)

    def test_incomplete_map3_rejected(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[map3]\nvd = center\n")
        with pytest.raises(ConfigError, match="missing"):
            load_config(path)

    def test_validation_errors(self):
        with pytest.raises(ConfigError):
            load_config(None, {"classes": 5})
        with pytest.raises(ConfigError):
            load_config(None, {"mode": "both"})

    def test_ini_echo_reproduces_config(self, tmp_path):
        cfg = load_config(None, {"mode": "roi", "seed": 11, "manifest": "m.csv"})
        path = tmp_path / "echo.ini"
        path.write_text(ini_text(cfg.as_dict()))
        again = load_config(path)
        assert ini_text(again.as_dict()) == ini_text(cfg.as_dict())
        assert again.config_hash() == cfg.config_hash()

    def test_unset_path_echo_round_trips_to_unset(self, tmp_path, capsys):
        path = tmp_path / "echo.ini"
        path.write_text(ini_text(load_config(None, {}).as_dict()))
        assert load_config(path).manifest is None
        assert run(["train", "--config", str(path)]) == 1
        assert "no manifest configured" in _single_error_line(capsys.readouterr().err)

    def test_empty_image_root_echo_round_trips(self, tmp_path):
        cfg = load_config(None, {"manifest": "d/m.csv", "image_root": ""})
        path = tmp_path / "echo.ini"
        path.write_text(ini_text(cfg.as_dict()))
        assert load_config(path).resolved_image_root() == ""
        assert ini_text(load_config(path).as_dict()) == ini_text(cfg.as_dict())

    def test_percent_in_path_round_trips(self, tmp_path):
        cfg = load_config(None, {"manifest": "d/100%/m.csv", "model_dir": "m%(x)s"})
        path = tmp_path / "echo.ini"
        path.write_text(ini_text(cfg.as_dict()))
        again = load_config(path)
        assert again.manifest == "d/100%/m.csv" and again.model_dir == "m%(x)s"
        assert ini_text(again.as_dict()) == ini_text(cfg.as_dict())

    @pytest.mark.parametrize("lr", [float("nan"), float("inf")])
    def test_non_finite_lr_rejected(self, lr):
        with pytest.raises(ConfigError, match="lr must be a finite"):
            load_config(None, {"lr": lr})

    @pytest.mark.parametrize("line", ["rotations = nan", "sigmas = inf", "scales = nan"])
    def test_non_finite_augment_rejected(self, tmp_path, line):
        path = tmp_path / "run.ini"
        path.write_text(f"[augment]\n{line}\n")
        with pytest.raises(ConfigError, match="finite"):
            load_config(path)

    def test_config_directory_is_io_error(self, tmp_path, capsys):
        assert run(["train", "--config", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1 and err.startswith("i/o error:"), err

    @pytest.mark.parametrize("text", [
        "[DEFAULT]\nmode = roi\n",
        "[data]\nmode = roi\n[DEFAULT]\nseed = 3\n",
    ], ids=["alone", "beside-data"])
    def test_default_section_rejected(self, tmp_path, capsys, text):
        ini = tmp_path / "run.ini"
        ini.write_text(text)
        assert run(["train", "--config", str(ini)]) == 1
        assert "unknown section [DEFAULT]" in _single_error_line(capsys.readouterr().err)

    def test_control_character_in_error_line_is_escaped(self, tmp_path, capsys):
        # 0x1e is a line end to str.splitlines(), though not to "\n"
        ini = tmp_path / "run.ini"
        ini.write_bytes(b"[tra\x1ein]\nepochs = 1\n")
        assert run(["train", "--config", str(ini)]) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [f"error: {ini}: unknown section [tra\\x1ein]"]

    def test_readme_ini_example_loads(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = re.findall(r"```ini\n(.*?)```", readme, re.S)
        assert len(blocks) == 1
        path = tmp_path / "readme.ini"
        path.write_text(blocks[0])
        cfg = load_config(path)
        assert cfg.manifest == "data/manifest.csv" and cfg.resolved_image_root() == "data"
        assert cfg.mode == "ert" and cfg.classes == 7
        # the block sets every key, so none goes undocumented
        parser = configparser.ConfigParser(interpolation=None)
        parser.read_string(blocks[0])
        listed = {(section, key) for section in parser.sections() for key in parser[section]}
        assert listed == {(section, name) for section, name, _ in config._FIELDS} | {
            ("map3", c.name.lower()) for c in dataset.EacClass
        }

    def test_readme_command_lines_parse(self):
        """Every `gazedir ...` line of README's command-line block parses, so a
        renamed or dropped flag fails here."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("## Command line", 1)[1]
        block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
        lines = block.replace("\\\n", " ").splitlines()
        commands = [shlex.split(line) for line in lines if line.startswith("gazedir ")]
        assert [argv[1] for argv in commands] == ["synth", "train", "eval", "predict", "bench"]
        for argv in commands:
            assert cli.build_parser().parse_args(argv[1:]).command == argv[1]

    def test_readme_model_tags_are_the_layer_table(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("## Model file", 1)[1]
        listed = re.search(r"\((0=.*?)\)", section, re.S).group(1)
        tags = [item.split("=") for item in re.split(r",\s*", listed)]
        assert [int(i) for i, _ in tags] == list(range(len(tags)))
        assert [kind for _, kind in tags] == [c.kind for c in nn._LAYER_CLASSES]

    @pytest.mark.parametrize("text", [
        "mode = roi\n", "[]\n", "[data]\nmode\n",
    ], ids=["no-section", "empty-section-name", "key-without-value"])
    def test_malformed_config_is_one_line(self, tmp_path, capsys, text):
        ini = tmp_path / "run.ini"
        ini.write_text(text)
        assert run(["train", "--config", str(ini)]) == 1
        assert _single_error_line(capsys.readouterr().err).startswith(f"error: {ini}: ")

    def test_non_utf8_config_names_the_file(self, tmp_path, capsys):
        ini = tmp_path / "run.ini"
        ini.write_bytes(b"[data]\nmode = \xff\n")
        assert run(["train", "--config", str(ini)]) == 1
        line = _single_error_line(capsys.readouterr().err)
        assert line.startswith(f"error: {ini}: ") and "utf-8" in line

    def test_negative_seed_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
            load_config(None, {"seed": -1})
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            synth.generate_corpus(tmp_path / "out", 1, -1)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["train", "eval", "bench", "synth"])
    def test_negative_seed_flag_exit_1(self, corpus, tmp_path, capsys, command):
        extra = (["--out", str(tmp_path / "out")] if command == "synth"
                 else ["--manifest", str(corpus / "manifest.csv"), "--model-dir", str(tmp_path)])
        assert run([command, *extra, "--seed", "-1"]) == 1
        assert "seed must be >= 0, got -1" in _single_error_line(capsys.readouterr().err)

    @pytest.mark.parametrize("command", ["train", "eval", "bench"])
    @pytest.mark.parametrize("field", ["model_dir", "report_dir"])
    def test_empty_output_dir_flag_exit_1(
        self, trained, corpus, tmp_path, capsys, monkeypatch, command, field
    ):
        """Rejected before any work, so nothing is written; "" never stands
        for the working directory."""
        monkeypatch.chdir(tmp_path)
        dirs = {"model_dir": "models" if command == "train" else str(trained / "models"),
                "report_dir": "reports", field: ""}
        extra = ["--epochs", "1"] if command == "train" else []
        code = run([
            command, "--manifest", str(corpus / "manifest.csv"), "--mode", "ert",
            "--model-dir", dirs["model_dir"], "--report-dir", dirs["report_dir"], *extra,
        ])
        assert code == 1
        assert _single_error_line(capsys.readouterr().err) == EMPTY_DIR_ERROR
        assert list(tmp_path.iterdir()) == []

    def test_empty_model_dir_in_config_file_exit_1(self, corpus, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        ini = tmp_path / "run.ini"
        ini.write_text("[train]\nmodel_dir =\n")
        code = run(["train", "--config", str(ini), "--manifest", str(corpus / "manifest.csv"),
                    "--mode", "ert", "--epochs", "1"])
        assert code == 1
        assert _single_error_line(capsys.readouterr().err) == EMPTY_DIR_ERROR
        assert list(tmp_path.iterdir()) == [ini]

    def test_augment_defaults_are_the_policy_defaults(self):
        cfg = RunConfig()
        assert cfg.policy == AugmentPolicy()
        assert cfg.rotations == (5.0, -5.0, 10.0, -10.0)
        assert cfg.sigmas == (0.5, 1.0) and cfg.scales == (0.9, 1.1)

    def test_report_config_echo_reproduces_run(self, trained, corpus, tmp_path):
        """Feeding a report's config echo back yields a byte-identical report."""
        reports = tmp_path / "r1"
        args = [
            "eval", "--manifest", str(corpus / "manifest.csv"),
            "--model-dir", str(trained / "models"),
            "--report-dir", str(reports), "--mode", "ert", "--seed", "1",
        ]
        assert run(args) == 0
        first = (reports / "metrics.json").read_bytes()
        ini = tmp_path / "echo.ini"
        ini.write_text(ini_text(json.loads(first)["config"]))
        assert run(["eval", "--config", str(ini),
                    "--report-dir", str(reports)]) == 0
        assert (reports / "metrics.json").read_bytes() == first

    def test_report_echo_keeps_full_float_precision(self, trained, corpus, tmp_path):
        """Only measured values are rounded: an lr that needs more than six
        significant digits survives the metrics.json echo."""
        ini = tmp_path / "lr.ini"
        ini.write_text("[train]\nlr = 0.0123456789\n")
        assert run([
            "eval", "--config", str(ini), "--manifest", str(corpus / "manifest.csv"),
            "--model-dir", str(trained / "models"),
            "--report-dir", str(tmp_path), "--mode", "ert", "--seed", "1",
        ]) == 0
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert metrics["config"]["lr"] == 0.0123456789
        echo = tmp_path / "echo.ini"
        echo.write_text(ini_text(metrics["config"]))
        assert load_config(echo).config_hash() == metrics["config_hash"]


class TestTrainCommand:
    def test_outputs(self, trained):
        models = trained / "models"
        assert (models / "model_left.gdn").exists()
        assert (models / "model_right.gdn").exists()
        log = (models / "train_log.csv").read_text().strip().split("\n")
        assert log[0] == "epoch,mean_loss_L,mean_loss_R"
        assert len(log) == 3  # header + 2 epochs
        first = [float(v) for v in log[1].split(",")[1:]]
        last = [float(v) for v in log[2].split(",")[1:]]
        assert all(np.isfinite(first)) and all(np.isfinite(last))

    def test_epochs_zero_saves_init(self, tmp_path, corpus):
        models = tmp_path / "m0"
        code = run([
            "train", "--manifest", str(corpus / "manifest.csv"),
            "--model-dir", str(models), "--epochs", "0", "--seed", "2",
        ])
        assert code == 0
        left = nn.load_model(models / "model_left.gdn")
        reference = nn.build_gaze_net(15, 25, 7, seed=2)
        for a, b in zip(left.parameters(), reference.parameters()):
            assert a.tobytes() == b.astype(np.float32).tobytes()

    def test_three_class_filtering(self, tmp_path, corpus):
        models = tmp_path / "m3"
        code = run([
            "train", "--manifest", str(corpus / "manifest.csv"),
            "--model-dir", str(models), "--classes", "3",
            "--epochs", "1", "--seed", "0",
        ])
        assert code == 0
        assert nn.load_model(models / "model_left.gdn").n_classes == 3
        # default mapping keeps only VD/AR/AC rows: 6 of 14 images, split 3/3
        reports = tmp_path / "r3"
        code = run([
            "eval", "--manifest", str(corpus / "manifest.csv"),
            "--model-dir", str(models), "--report-dir", str(reports),
            "--classes", "3", "--seed", "0",
        ])
        assert code == 0
        assert json.loads((reports / "metrics.json").read_text())["n_test"] == 3

    def test_missing_manifest_is_validation_error(self):
        assert run(["train", "--epochs", "1"]) == 1

    def test_empty_manifest_flag_is_unset(self, tmp_path, capsys):
        """`--manifest ""` reads like `manifest =` in a file: no manifest."""
        assert run(["train", "--manifest", "", "--model-dir", str(tmp_path)]) == 1
        assert "no manifest configured" in _single_error_line(capsys.readouterr().err)

    def test_empty_after_filtering_is_validation_error(self, tmp_path, corpus):
        ini = tmp_path / "empty.ini"
        ini.write_text(
            "[data]\nclasses = 3\n[map3]\n"
            + "".join(f"{c.name.lower()} = excluded\n" for c in dataset.EacClass)
        )
        code = run([
            "train", "--config", str(ini),
            "--manifest", str(corpus / "manifest.csv"),
            "--model-dir", str(tmp_path / "m"), "--epochs", "1",
        ])
        assert code == 1

    def test_subject_disjoint_split_mode(self, tmp_path, corpus):
        ini = tmp_path / "subj.ini"
        ini.write_text("[data]\nsubject_split = true\n")
        code = run([
            "train", "--config", str(ini),
            "--manifest", str(corpus / "manifest.csv"),
            "--model-dir", str(tmp_path / "m"), "--epochs", "1", "--seed", "0",
        ])
        assert code == 0
        assert (tmp_path / "m" / "model_left.gdn").exists()


class TestDecodeOnce:
    @pytest.mark.parametrize("mode", ["roi", "ert"])
    def test_train_and_eval_decode_each_image_once(self, corpus, tmp_path, monkeypatch, mode):
        decoded = []
        read_pnm = preprocess.read_pnm

        def counting_read_pnm(path, *args):
            decoded.append(os.path.normpath(path))
            return read_pnm(path, *args)

        monkeypatch.setattr(preprocess, "read_pnm", counting_read_pnm)
        common = [
            "--manifest", str(corpus / "manifest.csv"), "--model-dir", str(tmp_path),
            "--report-dir", str(tmp_path), "--mode", mode, "--seed", "0",
        ]
        assert run(["train", *common, "--epochs", "0"]) == 0
        train, decoded[:] = list(decoded), []
        assert run(["eval", *common]) == 0
        # 14 images split 7/7; each side of the split decodes each image once
        for paths in (train, decoded):
            assert len(paths) == len(set(paths)) == 7
        assert not set(train) & set(decoded)


class TestBadImageErrors:
    """A bad image in the eval split is one error line that names it once, and
    a bad image is reported before bad landmarks."""

    def test_truncated_image_exit_1(self, trained, corpus, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(corpus, data)
        manifest = str(data / "manifest.csv")
        bad = dataset.split_50_50(dataset.load_manifest(manifest), 0).test[0]
        image = data / bad.image_path
        image.write_bytes(image.read_bytes()[:-1])
        capsys.readouterr()
        code = run(["eval", "--manifest", manifest, "--model-dir", str(trained / "models"),
                    "--report-dir", str(tmp_path / "reports"), "--mode", "ert", "--seed", "0"])
        assert code == 1
        assert capsys.readouterr().err == f"error: {image}: raster truncated\n"

    def test_missing_image_before_missing_landmarks(self, trained, tmp_path, capsys):
        samples = [dataset.Sample(f"absent_{i}.pgm", synth.FACE, dataset.EacClass.VD)
                   for i in range(2)]
        dataset.write_manifest(tmp_path / "manifest.csv", samples)
        capsys.readouterr()
        code = run(["eval", "--manifest", str(tmp_path / "manifest.csv"),
                    "--model-dir", str(trained / "models"),
                    "--report-dir", str(tmp_path / "reports"), "--mode", "ert"])
        assert code == 2
        err = capsys.readouterr().err
        assert re.fullmatch(r"i/o error: \[Errno 2\] No such file or directory: '.*absent_\d\.pgm'\n", err)


class TestColourCorpus:
    """A P6 corpus of R=G=B=g pixels runs exactly as the P5 corpus it was
    written from, since the Rec.601 luma of (g, g, g) is g."""

    @pytest.mark.parametrize("mode", ["roi", "ert"])
    def test_p6_runs_match_p5_and_no_frame_is_greyed_whole(
            self, tmp_path, monkeypatch, capsys, mode):
        p5, p6 = tmp_path / "p5", tmp_path / "p6"
        assert run(["synth", "--out", str(p5), "--n-per-class", "3", "--seed", "0"]) == 0
        samples = dataset.load_manifest(p5 / "manifest.csv")
        colour = [dataclasses.replace(s, image_path=s.image_path[:-3] + "ppm") for s in samples]
        p6.mkdir()
        for grey, rgb in zip(samples, colour):
            pixels = preprocess.read_pnm(p5 / grey.image_path)
            preprocess.write_ppm(p6 / rgb.image_path, np.repeat(pixels[..., None], 3, axis=2))
        dataset.write_manifest(p6 / "manifest.csv", colour)
        capsys.readouterr()

        greyed, colour_crops = [], []
        to_grayscale, crop = preprocess.to_grayscale, preprocess.crop

        def spy(img):
            greyed.append(img.shape)
            return to_grayscale(img)

        def crop_spy(*args):
            out = crop(*args)
            if out.ndim == 3:
                colour_crops.append(out.shape)
            return out

        monkeypatch.setattr(preprocess, "to_grayscale", spy)
        monkeypatch.setattr(preprocess, "crop", crop_spy)
        face = synth.FACE
        lm = synth.canonical_landmarks()
        landmarks = ",".join(str(v) for v in (*lm.left_outer, *lm.left_inner,
                                              *lm.right_inner, *lm.right_outer))

        def outputs(root, image):
            # relative paths, so the reports' config echoes match too
            monkeypatch.chdir(root)
            common = ["--manifest", "manifest.csv", "--model-dir", "models",
                      "--mode", mode, "--seed", "1"]
            assert run(["train", *common, "--epochs", "1"]) == 0
            for eye in dataset.EYES:
                assert run(["eval", *common, "--report-dir", f"reports/{eye}", "--eye", eye]) == 0
                assert run([
                    "predict", "--image", image, "--face", f"{face.x},{face.y},{face.w},{face.h}",
                    "--landmarks", landmarks, "--model-dir", "models", "--mode", mode,
                    "--eye", eye,
                ]) == 0
            files = {str(p.relative_to(root)): p.read_bytes()
                     for d in ("models", "reports") for p in sorted((root / d).rglob("*"))
                     if p.is_file()}
            return files, capsys.readouterr()

        p6_outputs = outputs(p6, colour[0].image_path)
        # luma sees stacks of colour eye crops, never a whole frame, and
        # exactly the pixels of the colour crops taken
        assert greyed and all(len(s) == 4 and s[1:3] != (synth.CANVAS, synth.CANVAS) for s in greyed)
        assert sum(n * h * w for n, h, w, _ in greyed) == sum(h * w for h, w, _ in colour_crops)
        greyed.clear()
        assert p6_outputs == outputs(p5, samples[0].image_path)
        assert greyed == []  # a grey frame never reaches luma


class TestEvalCommand:
    def test_report_files(self, trained, corpus):
        reports = trained / "reports"
        code = run([
            "eval", "--manifest", str(corpus / "manifest.csv"),
            "--model-dir", str(trained / "models"),
            "--report-dir", str(reports),
            "--mode", "ert", "--seed", "1",
        ])
        assert code == 0
        metrics = json.loads((reports / "metrics.json").read_text())
        assert metrics["eye"] == "both"
        assert 0.0 <= metrics["accuracy"] <= 1.0
        assert metrics["classes"] == 7
        assert "config" in metrics and metrics["config"]["epochs"] == 200
        lines = (reports / "confusion.csv").read_text().strip().split("\n")
        assert len(lines) == 8 and lines[0] == ",VD,VR,VC,AR,AC,ID,K"

    def test_eval_and_predict_patches_carry_the_test_split(
            self, trained, corpus, tmp_path, monkeypatch):
        """The patches eval and predict score are tagged "test", so
        augmentation refuses them."""
        scored = []
        make_eye_pairs = dataset.make_eye_pairs

        def spy(*args, **kwargs):
            pairs = make_eye_pairs(*args, **kwargs)
            scored.extend(p for p in pairs if p is not None)
            return pairs

        monkeypatch.setattr(dataset, "make_eye_pairs", spy)
        assert run([
            "eval", "--manifest", str(corpus / "manifest.csv"),
            "--model-dir", str(trained / "models"), "--report-dir", str(tmp_path),
            "--mode", "ert", "--seed", "1",
        ]) == 0
        assert _predict_ert(corpus, trained / "models") == 0
        assert [p.split for p in scored] == ["test"] * 4
        for patches in scored:
            with pytest.raises(ValueError, match="test split"):
                augment.expand(patches, AugmentPolicy())

    def test_single_eye_mode(self, trained, corpus, tmp_path):
        code = run([
            "eval", "--manifest", str(corpus / "manifest.csv"),
            "--model-dir", str(trained / "models"),
            "--report-dir", str(tmp_path),
            "--mode", "ert", "--seed", "1", "--eye", "left",
        ])
        assert code == 0
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert metrics["eye"] == "left"

    def test_unscored_eye_is_not_cropped(self, trained, corpus, tmp_path, capsys):
        # every image-right eye's corners are moved off the 120x120 images
        off = tmp_path / "off.csv"
        dataset.write_manifest(off, [
            dataclasses.replace(s, landmarks=dataclasses.replace(
                s.landmarks, right_inner=(500.0, 45.0), right_outer=(522.0, 45.0)))
            for s in dataset.load_manifest(corpus / "manifest.csv")
        ])

        def evaluate(manifest, eye):
            return run([
                "eval", "--manifest", str(manifest), "--image-root", str(corpus),
                "--model-dir", str(trained / "models"), "--report-dir", str(tmp_path / eye),
                "--mode", "ert", "--seed", "1", "--eye", eye,
            ])

        assert evaluate(corpus / "manifest.csv", "left") == 0
        plain = (tmp_path / "left" / "confusion.csv").read_bytes()
        assert evaluate(off, "left") == 0
        assert (tmp_path / "left" / "confusion.csv").read_bytes() == plain
        capsys.readouterr()
        for eye in ("right", "both"):
            assert evaluate(off, eye) == 1
            line = _single_error_line(capsys.readouterr().err)
            assert re.match(r"error: \w+_\d+\.pgm: crop box .* lies outside", line), line

    def test_class_count_mismatch_is_validation_error(self, trained, corpus, tmp_path):
        code = run([
            "eval", "--manifest", str(corpus / "manifest.csv"),
            "--model-dir", str(trained / "models"),
            "--report-dir", str(tmp_path),
            "--mode", "ert", "--seed", "1", "--classes", "3",
        ])
        assert code == 1

    def test_missing_models_is_io_error(self, corpus, tmp_path):
        code = run([
            "eval", "--manifest", str(corpus / "manifest.csv"),
            "--model-dir", str(tmp_path / "nothing"),
            "--mode", "ert",
        ])
        assert code == 2

    @pytest.mark.parametrize("command", ["eval", "bench"])
    def test_empty_test_split_exit_1(self, trained, tmp_path, capsys, command):
        """Subject "a" has 1 of 21 images and sorts first; at seed 0 the
        subject-disjoint split gives it to train, then "b" too."""
        manifest, samples = synth.generate_corpus(tmp_path / "data", 3, 0)
        samples = [dataclasses.replace(s, subject_id="b" if i else "a")
                   for i, s in enumerate(samples)]
        dataset.write_manifest(manifest, samples)
        split = dataset.split_subject_disjoint(samples, 0)
        assert (len(split.train), len(split.test)) == (21, 0)
        ini = tmp_path / "subj.ini"
        ini.write_text("[data]\nsubject_split = true\n")
        reports = tmp_path / "reports"
        code = run([
            command, "--config", str(ini), "--manifest", manifest,
            "--model-dir", str(trained / "models"), "--report-dir", str(reports),
            "--mode", "ert", "--seed", "0",
        ])
        assert code == 1
        assert _single_error_line(capsys.readouterr().err) == "error: test split is empty"
        assert not reports.exists()


class TestPredictCommand:
    def test_prediction_json(self, trained, corpus, capsys):
        face = synth.FACE
        lm = synth.canonical_landmarks()
        landmarks = ",".join(
            str(v) for pt in (lm.left_outer, lm.left_inner, lm.right_inner, lm.right_outer)
            for v in pt
        )
        code = run([
            "predict", "--image", str(corpus / "vd_000.pgm"),
            "--face", f"{face.x},{face.y},{face.w},{face.h}",
            "--landmarks", landmarks,
            "--model-dir", str(trained / "models"), "--mode", "ert",
        ])
        assert code == 0
        out = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
        assert out["class"] in [c.name for c in dataset.EacClass]
        assert len(out["scores"]) == 7
        assert abs(sum(out["scores"]) - 1.0) < 1e-4

    @pytest.mark.parametrize("flag, value", [
        ("--seed", "7"), ("--manifest", "/nonexistent.csv"),
        ("--image-root", "/nonexistent"), ("--report-dir", "/nonexistent"),
    ])
    def test_flags_it_never_reads_exit_1(self, trained, corpus, capsys, flag, value):
        """predict reads no manifest split and writes no report."""
        assert _predict_ert(corpus, trained / "models") == 0
        capsys.readouterr()
        assert _predict_ert(corpus, trained / "models", flag, value) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert flag in _single_error_line(captured.err)

    def test_deterministic(self, trained, corpus, capsys):
        face = synth.FACE
        args = [
            "predict", "--image", str(corpus / "ac_001.pgm"),
            "--face", f"{face.x},{face.y},{face.w},{face.h}",
            "--model-dir", str(trained / "models"), "--mode", "roi",
        ]
        # roi-mode predict against ert-trained models must fail fast instead
        assert run(args) == 1

        lm = synth.canonical_landmarks()
        landmarks = ",".join(
            str(v) for pt in (lm.left_outer, lm.left_inner, lm.right_inner, lm.right_outer)
            for v in pt
        )
        args = [
            "predict", "--image", str(corpus / "ac_001.pgm"),
            "--face", f"{face.x},{face.y},{face.w},{face.h}",
            "--landmarks", landmarks,
            "--model-dir", str(trained / "models"), "--mode", "ert",
        ]
        assert run(args) == 0
        first = capsys.readouterr().out
        assert run(args) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_single_eye_prediction(self, trained, corpus, capsys):
        lm = synth.canonical_landmarks()
        landmarks = ",".join(
            str(v) for pt in (lm.left_outer, lm.left_inner, lm.right_inner, lm.right_outer)
            for v in pt
        )
        code = run([
            "predict", "--image", str(corpus / "ar_000.pgm"),
            "--face", "10,10,100,100", "--landmarks", landmarks,
            "--model-dir", str(trained / "models"), "--mode", "ert",
            "--eye", "left",
        ])
        assert code == 0
        out = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
        assert len(out["scores"]) == 7

    def test_unscored_eye_is_not_cropped(self, trained, corpus, capsys):
        # the image-right corners coincide and lie off the 120x120 image
        lm = synth.canonical_landmarks()
        landmarks = ",".join(str(v) for v in (*lm.left_outer, *lm.left_inner, 500, 45, 500, 45))
        args = [
            "predict", "--image", str(corpus / "vd_000.pgm"),
            "--face", "10,10,100,100", "--landmarks", landmarks,
            "--model-dir", str(trained / "models"), "--mode", "ert",
        ]
        assert run([*args, "--eye", "left"]) == 0
        assert len(json.loads(capsys.readouterr().out)["scores"]) == 7
        assert run([*args, "--eye", "right"]) == 1
        assert run([*args, "--eye", "both"]) == 1
        assert "coincident eye corners" in capsys.readouterr().err

    @pytest.mark.parametrize("mode, annotations, box", [
        # eye corners 0.2 px apart frame a 0x0 box
        ("ert", ["--face", "10,10,100,100", "--landmarks", "27,45,27.2,45,71,45,93,45"],
         "Box(x=27, y=45, w=0, h=0)"),
        # a 1x1 face cuts 0x0 eye ROIs
        ("roi", ["--face", "10,10,1,1"], "Box(x=10, y=10, w=0, h=0)"),
    ])
    def test_empty_eye_box_is_validation_error(self, trained, corpus, capsys, mode, annotations, box):
        image = str(corpus / "vd_000.pgm")
        code = run([
            "predict", "--image", image, *annotations,
            "--model-dir", str(trained / "models"), "--mode", mode,
        ])
        assert code == 1
        assert _single_error_line(capsys.readouterr().err) == f"error: {image}: empty crop box {box}"

    def test_ert_without_landmarks_is_validation_error(self, trained, corpus, capsys):
        code = run([
            "predict", "--image", str(corpus / "vd_000.pgm"),
            "--face", "10,10,100,100",
            "--model-dir", str(trained / "models"), "--mode", "ert",
        ])
        assert code == 1
        assert "landmarks" in capsys.readouterr().err

    def test_bad_face_format_is_validation_error(self, trained, corpus):
        code = run([
            "predict", "--image", str(corpus / "vd_000.pgm"),
            "--face", "10,10",
            "--model-dir", str(trained / "models"), "--mode", "ert",
        ])
        assert code == 1


class TestBenchCommand:
    def test_report(self, trained, corpus, tmp_path, capsys):
        code = run([
            "bench", "--frames", "5", "--warmup", "2",
            "--manifest", str(corpus / "manifest.csv"), "--model-dir", str(trained / "models"),
            "--report-dir", str(tmp_path), "--mode", "ert", "--seed", "0",
        ])
        assert code == 0
        blob = json.loads((tmp_path / "bench.json").read_text())
        assert blob["n_frames"] == 5 and blob["warmup"] == 2
        assert blob["fps"] > 0
        assert set(blob["stages"]) == set(
            ("decode", "crop_resize", "normalize", "forward_left", "forward_right", "fuse")
        )
        assert "timed_models" not in blob and blob["seed"] == 0
        out = capsys.readouterr().out
        assert "fps" in out and "end_to_end" in out

    def test_frames_cycle_over_the_test_split(self, trained, corpus, tmp_path, monkeypatch):
        read = []
        read_pnm = preprocess.read_pnm
        monkeypatch.setattr(preprocess, "read_pnm",
                            lambda path, rows=None: read.append(path) or read_pnm(path, rows))
        manifest = str(corpus / "manifest.csv")
        assert run([
            "bench", "--frames", "9", "--warmup", "3", "--manifest", manifest,
            "--model-dir", str(trained / "models"), "--report-dir", str(tmp_path),
            "--mode", "ert", "--seed", "2",
        ]) == 0
        test = dataset.split_50_50(dataset.load_manifest(manifest), 2).test  # 7 of 14
        expected = [test[i % 7] for i in range(3)] + [test[i % 7] for i in range(9)]
        assert read == [os.path.join(str(corpus), s.image_path) for s in expected]

    def test_negative_warmup_exit_1(self, trained, corpus, tmp_path, capsys):
        code = run([
            "bench", "--frames", "2", "--warmup", "-4",
            "--manifest", str(corpus / "manifest.csv"), "--model-dir", str(trained / "models"),
            "--report-dir", str(tmp_path), "--mode", "ert",
        ])
        assert code == 1
        assert "warmup" in _single_error_line(capsys.readouterr().err)
        assert not (tmp_path / "bench.json").exists()

    def test_no_manifest_exit_1(self, trained, tmp_path, capsys):
        code = run([
            "bench", "--model-dir", str(trained / "models"), "--report-dir", str(tmp_path),
            "--mode", "ert",
        ])
        assert code == 1
        assert "no manifest configured" in _single_error_line(capsys.readouterr().err)
        assert not (tmp_path / "bench.json").exists()

    def test_trained_models(self, trained, corpus, tmp_path, capsys, monkeypatch):
        loaded = []
        load_model = nn.load_model
        monkeypatch.setattr(nn, "load_model", lambda path: loaded.append(path) or load_model(path))
        args = [
            "bench", "--frames", "3", "--warmup", "1", "--manifest", str(corpus / "manifest.csv"),
            "--model-dir", str(trained / "models"), "--report-dir", str(tmp_path),
        ]
        assert run([*args, "--mode", "ert"]) == 0
        assert [os.path.basename(p) for p in loaded] == [cli.MODEL_LEFT, cli.MODEL_RIGHT]
        blob = json.loads((tmp_path / "bench.json").read_text())
        assert blob["n_frames"] == 3
        # the ert-trained models take 15x25 patches, roi mode makes 42x50
        assert run([*args, "--mode", "roi"]) == 1
        assert "does not match" in _single_error_line(capsys.readouterr().err)

    @pytest.mark.parametrize("annotations", ["no-landmarks", "right-eye-off-image"])
    def test_crop_error_names_the_image_as_eval_does(
        self, trained, corpus, tmp_path, capsys, annotations
    ):
        samples = dataset.load_manifest(corpus / "manifest.csv")
        if annotations == "no-landmarks":
            samples = [dataclasses.replace(s, landmarks=None) for s in samples]
            reason = "ert mode needs eye-corner landmarks"
        else:  # as in TestEvalCommand.test_unscored_eye_is_not_cropped
            samples = [dataclasses.replace(s, landmarks=dataclasses.replace(
                s.landmarks, right_inner=(500.0, 45.0), right_outer=(522.0, 45.0)))
                for s in samples]
            reason = "crop box"
        manifest = tmp_path / "bad.csv"
        dataset.write_manifest(manifest, samples)
        first = dataset.split_50_50(samples, 1).test[0].image_path
        errors = []
        for command in ("eval", "bench"):
            reports = tmp_path / command
            assert run([
                command, "--manifest", str(manifest), "--image-root", str(corpus),
                "--model-dir", str(trained / "models"), "--report-dir", str(reports),
                "--mode", "ert", "--seed", "1",
            ]) == 1
            errors.append(capsys.readouterr().err)
            assert _single_error_line(errors[-1]).startswith(f"error: {first}: {reason}")
            assert not reports.exists()
        assert errors[0] == errors[1]

    def test_config_file_model_dir(self, trained, corpus, tmp_path, monkeypatch):
        """`model_dir` from a config file is read as eval reads it."""
        loaded = []
        load_model = nn.load_model
        monkeypatch.setattr(nn, "load_model", lambda path: loaded.append(path) or load_model(path))
        ini = tmp_path / "run.ini"
        ini.write_text(f"[train]\nmodel_dir = {trained / 'models'}\n")
        assert run([
            "bench", "--config", str(ini), "--frames", "2", "--warmup", "0",
            "--manifest", str(corpus / "manifest.csv"), "--report-dir", str(tmp_path),
        ]) == 0
        assert loaded == [str(trained / "models" / n) for n in (cli.MODEL_LEFT, cli.MODEL_RIGHT)]


# runs each command line of argv[1] (a JSON list) through cli.main, one after
# another in one process, and prints each exit code
RUN_COMMANDS = (
    "import json, sys\n"
    "from gazedir import cli\n"
    "for argv in json.loads(sys.argv[1]):\n"
    "    print('exit', cli.main(argv))\n"
)


@pytest.mark.skipif(nn.blas_threads() is None, reason="no OpenBLAS thread count to pin")
def test_outputs_do_not_depend_on_openblas_threads(tmp_path):
    """cli.main pins BLAS to one thread: train, eval for every eye and
    predict print and write the same bytes under OPENBLAS_NUM_THREADS=2 as
    under =1, in roi and ert mode."""
    data = tmp_path / "data"
    assert run(["synth", "--out", str(data), "--n-per-class", "1", "--seed", "0"]) == 0
    manifest = str(data / "manifest.csv")
    sample = dataset.load_manifest(manifest)[0]
    face, lm = sample.face, sample.landmarks
    image = ["--image", str(data / sample.image_path),
             "--face", f"{face.x},{face.y},{face.w},{face.h}",
             "--landmarks", ",".join(str(v) for pt in (lm.left_outer, lm.left_inner,
                                                       lm.right_inner, lm.right_outer)
                                     for v in pt)]
    commands = []
    for mode in ("roi", "ert"):  # paths are relative to each run's own directory
        common = ["--mode", mode, "--model-dir", mode, "--seed", "1"]
        commands.append(["train", "--manifest", manifest, *common, "--epochs", "1"])
        commands += [["eval", "--manifest", manifest, *common, "--eye", eye,
                      "--report-dir", f"{mode}_{eye}"] for eye in dataset.EYES]
        commands.append(["predict", *image, "--mode", mode, "--model-dir", mode])
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    runs = []
    for threads in ("1", "2"):
        cwd = tmp_path / f"threads{threads}"
        cwd.mkdir()
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": package_root}
        proc = subprocess.run([sys.executable, "-c", RUN_COMMANDS, json.dumps(commands)],
                              cwd=cwd, env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr
        files = {str(p.relative_to(cwd)): p.read_bytes() for p in cwd.rglob("*") if p.is_file()}
        runs.append((proc.stdout, files))
    assert runs[0][0].count("exit 0") == len(commands)
    assert sorted(runs[0][1]) == sorted(runs[1][1])
    assert runs[0] == runs[1]


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        assert run(["explode"]) == 1
        assert "error" in capsys.readouterr().err

    def test_bad_flag_value(self):
        assert run(["train", "--classes", "5"]) == 1

    def test_missing_config_file_is_io_error(self):
        assert run(["train", "--config", "/nonexistent/run.ini"]) == 2


def _predict_ert(corpus, model_dir, *extra):
    face = synth.FACE
    lm = synth.canonical_landmarks()
    landmarks = ",".join(
        str(v) for pt in (lm.left_outer, lm.left_inner, lm.right_inner, lm.right_outer)
        for v in pt
    )
    return run([
        "predict", "--image", str(corpus / "vd_000.pgm"),
        "--face", f"{face.x},{face.y},{face.w},{face.h}", "--landmarks", landmarks,
        "--model-dir", str(model_dir), "--mode", "ert", *extra,
    ])


def _copy_models(trained, dest):
    dest.mkdir()
    for name in (cli.MODEL_LEFT, cli.MODEL_RIGHT):
        (dest / name).write_bytes((trained / "models" / name).read_bytes())
    return dest


def _single_error_line(err):
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err
    return lines[0]


EMPTY_DIR_ERROR = (
    "error: model_dir and report_dir must not be empty; use . for the working directory"
)
HEADER = ",".join(dataset.MANIFEST_COLUMNS)
GOOD_FACE = "10,10,100,100"
GOOD_LANDMARKS = "27,45,49,45,71,45,93,45"
# finite, but the eye-corner distance overflows to inf
HUGE_LANDMARKS = "1e308,45,-1e308,45,71,45,93,45"


class TestRuntimeFailures:
    def test_non_finite_scores_exit_1(self, trained, corpus, tmp_path, capsys):
        models = _copy_models(trained, tmp_path / "models")
        model = nn.load_model(models / cli.MODEL_LEFT)
        model.layers[0].weights[0, 0, 0, 0] = np.nan
        nn.save_model(model, models / cli.MODEL_LEFT)
        assert _predict_ert(corpus, models) == 1
        assert "non-finite" in _single_error_line(capsys.readouterr().err)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_model_exit_1_without_warnings(self, trained, corpus, tmp_path, capsys):
        """Weights that overflow the forward give the one non-finite error,
        not a numpy warning per overflowing op before it."""
        models = _copy_models(trained, tmp_path / "models")
        model = nn.load_model(models / cli.MODEL_LEFT)
        model.layers[0].weights[:] = np.float32(3e38)
        nn.save_model(model, models / cli.MODEL_LEFT)
        assert _predict_ert(corpus, models) == 1
        assert "non-finite" in _single_error_line(capsys.readouterr().err)

    def test_non_finite_scores_in_eval_exit_1(self, trained, corpus, tmp_path, capsys):
        models = _copy_models(trained, tmp_path / "models")
        model = nn.load_model(models / cli.MODEL_LEFT)
        model.layers[0].weights[0, 0, 0, 0] = np.nan
        nn.save_model(model, models / cli.MODEL_LEFT)
        code = run([
            "eval", "--manifest", str(corpus / "manifest.csv"), "--model-dir", str(models),
            "--report-dir", str(tmp_path / "reports"), "--mode", "ert", "--seed", "1",
        ])
        assert code == 1
        assert "non-finite" in _single_error_line(capsys.readouterr().err)
        assert not (tmp_path / "reports").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_diverged_training_exit_1(self, corpus, tmp_path, capsys):
        code = run([
            "train", "--manifest", str(corpus / "manifest.csv"),
            "--model-dir", str(tmp_path / "models"), "--mode", "ert",
            "--epochs", "2", "--seed", "1", "--lr", "1e6",
        ])
        assert code == 1
        assert "diverged" in _single_error_line(capsys.readouterr().err)
        assert not (tmp_path / "models").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_diverged_training_on_the_lane_worker_exit_1(self, corpus, tmp_path, capsys,
                                                          monkeypatch):
        """numpy's error state is per thread: the worker's lane overflows
        without a warning too, and the run ends in the one error line."""
        monkeypatch.setattr(nn.os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(nn, "_worker", None)
        try:
            code = run([
                "train", "--manifest", str(corpus / "manifest.csv"),
                "--model-dir", str(tmp_path / "models"), "--mode", "ert",
                "--epochs", "2", "--seed", "1", "--lr", "1e6",
            ])
            threaded = nn._worker is not None
        finally:
            if nn._worker is not None:
                nn._worker.shutdown()
        if not threaded:
            pytest.skip("no OpenBLAS thread count to pin, so the lanes ran in turn")
        assert code == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "diverged" in _single_error_line(err)
        assert list(tmp_path.iterdir()) == []

    def test_non_finite_lr_exit_1(self, corpus, tmp_path, capsys):
        code = run([
            "train", "--manifest", str(corpus / "manifest.csv"),
            "--model-dir", str(tmp_path / "models"), "--epochs", "1", "--lr", "nan",
        ])
        assert code == 1
        assert "lr must be a finite" in _single_error_line(capsys.readouterr().err)
        assert not (tmp_path / "models").exists()

    @pytest.mark.parametrize("token", ["nan", "inf"])
    def test_non_finite_rotations_exit_1(self, corpus, tmp_path, capsys, token):
        ini = tmp_path / "run.ini"
        ini.write_text(f"[augment]\nrotations = 5,{token}\n")
        code = run([
            "train", "--config", str(ini), "--manifest", str(corpus / "manifest.csv"),
            "--model-dir", str(tmp_path / "models"), "--epochs", "1",
        ])
        assert code == 1
        assert "must be finite" in _single_error_line(capsys.readouterr().err)

    def test_malformed_model_file_exit_1(self, trained, corpus, tmp_path, capsys):
        models = _copy_models(trained, tmp_path / "models")
        blob = (models / cli.MODEL_LEFT).read_bytes()
        (models / cli.MODEL_LEFT).write_bytes(blob[:14])
        assert _predict_ert(corpus, models) == 1
        line = _single_error_line(capsys.readouterr().err)
        assert cli.MODEL_LEFT in line and "truncated" in line

    def test_model_file_with_trailing_bytes_exit_1(self, trained, corpus, tmp_path, capsys):
        models = _copy_models(trained, tmp_path / "models")
        with open(models / cli.MODEL_RIGHT, "ab") as f:
            f.write(b"\0")
        assert _predict_ert(corpus, models) == 1
        line = _single_error_line(capsys.readouterr().err)
        assert cli.MODEL_RIGHT in line and "trailing bytes" in line

    def test_zero_width_image_exit_1(self, trained, tmp_path, capsys):
        image = tmp_path / "empty.pgm"
        image.write_bytes(b"P5\n0 120\n255\n")
        code = run([
            "predict", "--image", str(image), "--face", GOOD_FACE, "--landmarks", GOOD_LANDMARKS,
            "--model-dir", str(trained / "models"), "--mode", "ert",
        ])
        assert code == 1
        line = _single_error_line(capsys.readouterr().err)
        assert "empty.pgm" in line and "bad dimensions" in line

    def test_failed_side_writes_no_model(self, trained, corpus, tmp_path, capsys, monkeypatch):
        """A run that fails on the right eye leaves the previous pair and log as they were."""
        models = tmp_path / "models"
        shutil.copytree(trained / "models", models)
        before = {p.name: p.read_bytes() for p in models.iterdir()}
        train_epoch = nn.train_epoch
        calls = []

        def right_side_diverges(model, *args, **kwargs):
            calls.append(model)
            if len(calls) > 1:  # one epoch per side: the second call trains the right eye
                raise FloatingPointError("training loss diverged (non-finite)")
            return train_epoch(model, *args, **kwargs)

        monkeypatch.setattr(nn, "train_epoch", right_side_diverges)
        code = run([
            "train", "--manifest", str(corpus / "manifest.csv"), "--model-dir", str(models),
            "--mode", "ert", "--epochs", "1", "--seed", "2",
        ])
        assert code == 1
        assert "diverged" in _single_error_line(capsys.readouterr().err)
        assert {p.name: p.read_bytes() for p in models.iterdir()} == before

    @pytest.mark.parametrize("message, shown", [
        ("Unable to allocate 27.3 TiB for an array", "error: out of memory: Unable to allocate"),
        ("", "error: out of memory"),
    ])
    def test_out_of_memory_exit_1(self, corpus, tmp_path, capsys, monkeypatch, message, shown):
        """An array sized beyond memory ends the run with one error line; the
        failure is simulated inside augmentation's stacked rescale kernel."""
        def out_of_memory(stack, factor):
            raise MemoryError(message)

        monkeypatch.setattr(augment, "rescale", out_of_memory)
        code = run([
            "train", "--manifest", str(corpus / "manifest.csv"),
            "--model-dir", str(tmp_path / "models"), "--epochs", "1",
        ])
        assert code == 1
        assert _single_error_line(capsys.readouterr().err).startswith(shown)
        assert not (tmp_path / "models" / cli.MODEL_LEFT).exists()

    def test_oversized_manifest_field_exit_1(self, tmp_path, capsys):
        manifest = tmp_path / "big.csv"
        manifest.write_text(f"{HEADER}\nvd_000.pgm,VD,{GOOD_FACE},,,,,,,,,{'s' * 200_000}\n")
        assert run(["train", "--manifest", str(manifest), "--model-dir", str(tmp_path)]) == 1
        line = _single_error_line(capsys.readouterr().err)
        assert line.startswith(f"error: {manifest}: line 2: field larger than field limit")

    def test_non_utf8_manifest_names_the_file(self, tmp_path, capsys):
        manifest = tmp_path / "m.csv"
        manifest.write_bytes(f"{HEADER}\nvd_\xff.pgm,VD,{GOOD_FACE},,,,,,,,,\n".encode("latin-1"))
        assert run(["train", "--manifest", str(manifest), "--model-dir", str(tmp_path)]) == 1
        line = _single_error_line(capsys.readouterr().err)
        assert line.startswith(f"error: {manifest}: ") and "utf-8" in line

    def test_huge_landmarks_predict_exit_1(self, trained, corpus, capsys):
        code = run([
            "predict", "--image", str(corpus / "vd_000.pgm"),
            "--face", GOOD_FACE, "--landmarks", HUGE_LANDMARKS,
            "--model-dir", str(trained / "models"), "--mode", "ert",
        ])
        assert code == 1
        assert "non-finite" in _single_error_line(capsys.readouterr().err)

    def test_huge_landmarks_train_exit_1(self, corpus, tmp_path, capsys):
        rows = [f"vd_00{i}.pgm,VD,{GOOD_FACE},{HUGE_LANDMARKS},s00{i}" for i in (0, 1)]
        manifest = tmp_path / "huge.csv"
        manifest.write_text(HEADER + "\n" + "\n".join(rows) + "\n")
        code = run([
            "train", "--manifest", str(manifest), "--image-root", str(corpus),
            "--model-dir", str(tmp_path / "models"), "--mode", "ert", "--epochs", "1",
        ])
        assert code == 1
        line = _single_error_line(capsys.readouterr().err)
        assert re.search(r"vd_00[01]\.pgm: non-finite", line), line
        assert not (tmp_path / "models").exists()


@pytest.mark.parametrize("flag, text", [
    ("face", "10,10,100"),
    ("face", "10,ten,100,100"),
    ("face", "10,10,0,100"),
    ("face", "10,10,inf,100"),
    pytest.param("face", f"10,10,{10**400},100", id="face-401-digit-width"),
    ("landmarks", "27,45,49,45,71,45,93"),
    ("landmarks", "27,45,abc,45,71,45,93,45"),
    ("landmarks", "27,45,49,45,71,45,inf,45"),
])
def test_manifest_row_and_predict_flags_reject_alike(
    trained, corpus, tmp_path, capsys, flag, text
):
    """One parser reads face boxes and eye corners from both sources."""
    face, landmarks = (text, GOOD_LANDMARKS) if flag == "face" else (GOOD_FACE, text)
    manifest = tmp_path / "bad.csv"
    manifest.write_text(
        f"{HEADER}\nvd_000.pgm,VD,{GOOD_FACE},{GOOD_LANDMARKS},s000\n"
        f"vd_001.pgm,VD,{face},{landmarks},s001\n"
    )
    code = run([
        "train", "--manifest", str(manifest), "--image-root", str(corpus),
        "--model-dir", str(tmp_path / "models"), "--mode", "ert", "--epochs", "1",
    ])
    assert code == 1
    assert "line 3" in _single_error_line(capsys.readouterr().err)
    code = run([
        "predict", "--image", str(corpus / "vd_001.pgm"),
        "--face", face, "--landmarks", landmarks,
        "--model-dir", str(trained / "models"), "--mode", "ert",
    ])
    assert code == 1
    _single_error_line(capsys.readouterr().err)
