"""Command-line surface: synth/train/eval/predict/bench, config, exit codes."""

import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

from gazedir import cli, dataset, nn, preprocess, synth
from gazedir.config import ConfigError, RunConfig, load_config


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

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[train]\nlearning_rate = 0.1\n")
        with pytest.raises(ConfigError, match="learning_rate"):
            load_config(path)

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
        path.write_text(cfg.to_ini_text())
        again = load_config(path)
        assert again.to_ini_text() == cfg.to_ini_text()
        assert again.config_hash() == cfg.config_hash()

    def test_unset_path_echo_round_trips_to_unset(self, tmp_path, capsys):
        path = tmp_path / "echo.ini"
        path.write_text(load_config(None, {}).to_ini_text())
        assert load_config(path).manifest is None
        assert run(["train", "--config", str(path)]) == 1
        assert "no manifest configured" in _single_error_line(capsys.readouterr().err)

    def test_empty_image_root_echo_round_trips(self, tmp_path):
        cfg = load_config(None, {"manifest": "d/m.csv", "image_root": ""})
        path = tmp_path / "echo.ini"
        path.write_text(cfg.to_ini_text())
        assert load_config(path).resolved_image_root() == ""
        assert RunConfig.from_dict(cfg.as_dict()).resolved_image_root() == ""

    def test_percent_in_path_round_trips(self, tmp_path):
        cfg = load_config(None, {"manifest": "d/100%/m.csv", "model_dir": "m%(x)s"})
        path = tmp_path / "echo.ini"
        path.write_text(cfg.to_ini_text())
        again = load_config(path)
        assert again.manifest == "d/100%/m.csv" and again.model_dir == "m%(x)s"
        assert RunConfig.from_dict(cfg.as_dict()).to_ini_text() == cfg.to_ini_text()

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

    def test_zero_patch_is_not_the_default(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[data]\npatch_h = 0\n")
        with pytest.raises(ConfigError, match="0x25 too small"):
            load_config(path)

    def test_readme_ini_example_loads(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = re.findall(r"```ini\n(.*?)```", readme, re.S)
        assert len(blocks) == 1
        path = tmp_path / "readme.ini"
        path.write_text(blocks[0])
        cfg = load_config(path)
        assert cfg.manifest == "data/manifest.csv"
        assert cfg.mode == "ert" and cfg.classes == 7

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
        echoed = RunConfig.from_dict(json.loads(first)["config"])
        ini = tmp_path / "echo.ini"
        ini.write_text(echoed.to_ini_text())
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
        assert RunConfig.from_dict(metrics["config"]).config_hash() == metrics["config_hash"]


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

        def counting_read_pnm(path):
            decoded.append(os.path.normpath(path))
            return read_pnm(path)

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
    def test_report(self, tmp_path, capsys):
        code = run([
            "bench", "--frames", "5", "--warmup", "2",
            "--report-dir", str(tmp_path), "--mode", "ert", "--seed", "0",
        ])
        assert code == 0
        blob = json.loads((tmp_path / "bench.json").read_text())
        assert blob["n_frames"] == 5 and blob["warmup"] == 2
        assert blob["fps"] > 0
        assert set(blob["stages"]) == set(
            ("crop_resize", "normalize", "forward_left", "forward_right", "fuse")
        )
        out = capsys.readouterr().out
        assert "fps" in out and "end_to_end" in out


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        assert run(["explode"]) == 1
        assert "error" in capsys.readouterr().err

    def test_bad_flag_value(self):
        assert run(["train", "--classes", "5"]) == 1

    def test_missing_config_file_is_io_error(self):
        assert run(["train", "--config", "/nonexistent/run.ini"]) == 2


def _predict_ert(corpus, model_dir):
    face = synth.FACE
    lm = synth.canonical_landmarks()
    landmarks = ",".join(
        str(v) for pt in (lm.left_outer, lm.left_inner, lm.right_inner, lm.right_outer)
        for v in pt
    )
    return run([
        "predict", "--image", str(corpus / "vd_000.pgm"),
        "--face", f"{face.x},{face.y},{face.w},{face.h}", "--landmarks", landmarks,
        "--model-dir", str(model_dir), "--mode", "ert",
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
    def test_diverged_training_exit_1(self, corpus, tmp_path, capsys):
        code = run([
            "train", "--manifest", str(corpus / "manifest.csv"),
            "--model-dir", str(tmp_path / "models"), "--mode", "ert",
            "--epochs", "2", "--seed", "1", "--lr", "1e6",
        ])
        assert code == 1
        assert "diverged" in _single_error_line(capsys.readouterr().err)

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
