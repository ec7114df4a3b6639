"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them live).

The long-running criteria (3, 4) train real models on the synthetic corpus;
the whole module is sized to finish well inside its stated budgets.
"""

import json
import time

import numpy as np

from gazedir import cli, dataset, fusion, nn, synth


def conclude(number, name, ok=True):
    print(f"\nACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok


def train_eye(samples, side, root, n_classes=7, epochs=500, lr=0.01,
              batch_size=32, seed=0, mode="ert", stop_at_perfect=False,
              labels=None):
    hw = dataset.default_patch_hw(mode)
    tensors = dataset.patches_to_tensors(
        dataset.make_eye_patches(samples, side, mode, image_root=root, labels=labels)
    )
    xs = [t for t, _ in tensors]
    ys = [y for _, y in tensors]
    model = nn.build_gaze_net(*hw, n_classes, seed=seed)
    for epoch in range(epochs):
        nn.train_epoch(model, xs, ys, lr, batch_size, rng_seed=seed * 7919 + epoch)
        if stop_at_perfect and (epoch + 1) % 10 == 0:
            if train_accuracy(model, tensors) == 1.0:
                break
    return model, tensors


def train_accuracy(model, tensors):
    hits = sum(int(np.argmax(model.forward(x))) == y for x, y in tensors)
    return hits / len(tensors)


class TestAcceptance:
    def test_criterion_1_gradient_correctness(self):
        start = time.perf_counter()
        rng = np.random.default_rng(42)

        # dense layer in isolation
        dense = nn.Dense(rng.normal(size=(5, 12)), rng.normal(size=5))
        report = nn.grad_check(nn.Model((12,), 5, [dense, nn.SoftmaxCE()]),
                               rng.normal(size=12), 1, h=1e-5)
        assert report.passed, report.per_param

        # full network: covers Conv2D, ReLU, MaxPool2, Dense, SoftmaxCE
        model = nn.build_gaze_net(15, 25, 7, seed=3).astype(np.float64)
        x = rng.normal(scale=0.3, size=(1, 15, 25))
        report = nn.grad_check(model, x, 2, h=1e-5)
        assert report.max_rel_error < 1e-4, report.per_param
        assert set(report.per_param) == {
            f"layer{i}.Conv2D.{p}" for i in (0, 3, 6) for p in ("weights", "bias")
        } | {"layer9.Dense.weights", "layer9.Dense.bias"}

        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"gradient check took {elapsed:.1f}s"
        conclude(1, f"gradient-correctness (max rel err {report.max_rel_error:.2e}, "
                    f"{elapsed:.1f}s)")

    def test_criterion_2_softmax_invariants(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            n = int(rng.integers(2, 12))
            logits = rng.uniform(-1e3, 1e3, size=n)
            _, probs, grad = nn.softmax_ce(logits[None], np.array([rng.integers(n)]))
            assert np.all(np.isfinite(probs)) and np.all(np.isfinite(grad))
            assert np.all((probs >= 0.0) & (probs <= 1.0))
            assert abs(probs.sum() - 1.0) < 1e-6
        conclude(2, "softmax-normalization-invariants (1000 vectors)")

    def test_criterion_3_overfit_21_images(self, tmp_path):
        out = tmp_path / "overfit"
        _, samples = synth.generate_corpus(out, 3, seed=0)
        assert len(samples) == 21
        accs = {}
        for side, seed in (("left", 0), ("right", 1)):
            model, tensors = train_eye(
                samples, side, str(out), epochs=500, lr=0.01, seed=seed,
                stop_at_perfect=True,
            )
            accs[side] = train_accuracy(model, tensors)
        assert accs["left"] == 1.0 and accs["right"] == 1.0
        conclude(3, "overfit-21-image-corpus (100% train accuracy, both eyes)")

    def test_criterion_4_end_to_end_synthetic_generalization(self, tmp_path):
        start = time.perf_counter()
        out = tmp_path / "full"
        assert cli.main(["synth", "--out", str(out), "--n-per-class", "30",
                         "--seed", "0"]) == 0
        # default augmentation and hyperparameters; the epoch count is the
        # config's documented override knob, set here for CI runtime
        assert cli.main([
            "train",
            "--manifest", str(out / "manifest.csv"),
            "--model-dir", str(out / "models"),
            "--mode", "ert", "--seed", "0", "--epochs", "60",
        ]) == 0
        assert cli.main([
            "eval",
            "--manifest", str(out / "manifest.csv"),
            "--model-dir", str(out / "models"),
            "--report-dir", str(out / "reports"),
            "--mode", "ert", "--seed", "0",
        ]) == 0
        metrics = json.loads((out / "reports" / "metrics.json").read_text())
        elapsed = time.perf_counter() - start
        assert metrics["eye"] == "both" and metrics["classes"] == 7
        assert metrics["n_test"] == 105
        assert metrics["accuracy"] >= 0.90, metrics
        assert elapsed < 600.0, f"end-to-end run took {elapsed:.0f}s"
        conclude(4, f"synthetic-generalization (fused 7-class accuracy "
                    f"{metrics['accuracy']:.3f} >= 0.90, {elapsed:.0f}s)")

    def test_criterion_5_fusion_properties(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            n = int(rng.integers(2, 9))
            l = rng.dirichlet(np.ones(n))
            r = rng.dirichlet(np.ones(n))
            fused = fusion.fuse_scores(l, r)
            np.testing.assert_allclose(fused, (l + r) / 2, rtol=0, atol=0)
            assert abs(fused.sum() - 1.0) < 1e-6
            assert np.all((fused >= 0) & (fused <= 1))
            if int(np.argmax(l)) == int(np.argmax(r)):
                assert fusion.predict_class(fused) == int(np.argmax(l))
        # deterministic tie-break: lowest index wins, exhaustively for C=2..4
        for n in (2, 3, 4):
            assert fusion.predict_class(np.full(n, 1.0 / n)) == 0
        assert fusion.predict_class(np.array([0.2, 0.4, 0.4])) == 1
        conclude(5, "fusion-properties (mean arithmetic, closure, shared argmax)")

    def test_criterion_6_dual_shape_support(self):
        rng = np.random.default_rng(13)
        traces = {
            (42, 50): [(42, 50), (21, 25), (10, 12), (5, 6)],
            (15, 25): [(15, 25), (7, 12), (3, 6), (1, 3)],
        }
        for hw, expected in traces.items():
            model = nn.build_gaze_net(*hw, 7, seed=1)
            h = rng.normal(size=(1, 1, *hw)).astype(np.float32)
            seen = [h.shape[2:]]
            for layer in model.layers:
                h = layer.forward(h)
                if layer.kind == "MaxPool2":
                    seen.append(h.shape[2:])
            assert seen == expected
            probs = h[0]
            assert probs.shape == (7,)
            assert abs(probs.sum() - 1.0) < 1e-6 and np.all(probs >= 0)
            dense = [l for l in model.layers if l.kind == "Dense"][0]
            assert dense.weights.shape[1] == 24 * expected[-1][0] * expected[-1][1]
        conclude(6, "dual-shape-support (42x50 and 15x25 traces)")

    def test_criterion_7_latency(self, tmp_path):
        ml = nn.build_gaze_net(42, 50, 7, seed=0)
        mr = nn.build_gaze_net(42, 50, 7, seed=1)
        manifest, _ = synth.generate_corpus(tmp_path, 15, 3)
        frames = dataset.load_manifest(manifest)[:100]  # 100 of 105 image files
        report = fusion.bench_latency(ml, mr, frames, 10, "roi", str(tmp_path))
        inference_ms = (
            report["stages"]["forward_left"]["mean_ms"]
            + report["stages"]["forward_right"]["mean_ms"]
            + report["stages"]["fuse"]["mean_ms"]
        )
        assert report["n_frames"] == 100
        assert inference_ms <= 42.0, f"{inference_ms:.2f} ms"
        conclude(7, f"latency (two 42x50 forwards + fusion: {inference_ms:.2f} ms "
                    f"<= 42 ms; end-to-end {report['end_to_end']['mean_ms']:.2f} ms)")

    def test_criterion_8_determinism_and_serialization(self, tmp_path):
        out = tmp_path / "det"
        assert cli.main(["synth", "--out", str(out), "--n-per-class", "2",
                         "--seed", "5"]) == 0
        args = [
            "--manifest", str(out / "manifest.csv"),
            "--model-dir", str(out / "models"),
            "--report-dir", str(out / "reports"),
            "--mode", "ert", "--seed", "9",
        ]
        model_files = ("model_left.gdn", "model_right.gdn", "train_log.csv")
        report_files = ("metrics.json", "confusion.csv")
        snapshots = []
        for _ in range(2):  # identical run, same destinations, twice
            assert cli.main(["train", *args, "--epochs", "2"]) == 0
            assert cli.main(["eval", *args]) == 0
            snapshots.append(
                [(out / "models" / n).read_bytes() for n in model_files]
                + [(out / "reports" / n).read_bytes() for n in report_files]
            )
        assert snapshots[0] == snapshots[1]

        model = nn.load_model(out / "models" / "model_left.gdn")
        again = tmp_path / "again.gdn"
        nn.save_model(model, again)
        reloaded = nn.load_model(again)
        for a, b in zip(model.parameters(), reloaded.parameters()):
            assert a.tobytes() == b.tobytes()
        x = np.random.default_rng(0).normal(size=(1, 15, 25)).astype(np.float32)
        np.testing.assert_array_equal(model.forward(x), reloaded.forward(x))
        conclude(8, "determinism-and-serialization (bit-identical weights, "
                    "byte-identical reports, exact round trip)")

    def test_criterion_9_reproduction_path(self, tmp_path):
        """The harness emits every reported-table analogue for a user manifest.

        The reference dataset cannot ship with the repo, so a synthetic
        manifest stands in; published figures are printed for context only.
        """
        out = tmp_path / "repro"
        assert cli.main(["synth", "--out", str(out), "--n-per-class", "2",
                         "--seed", "1"]) == 0
        reference = {("roi", 7): 85.58, ("roi", 3): 97.65,
                     ("ert", 7): 89.81, ("ert", 3): 98.32}
        for mode in ("roi", "ert"):
            for classes in (7, 3):
                tag = f"{mode}{classes}"
                base = [
                    "--manifest", str(out / "manifest.csv"),
                    "--model-dir", str(out / f"models_{tag}"),
                    "--mode", mode, "--classes", str(classes), "--seed", "0",
                ]
                assert cli.main(["train", *base, "--epochs", "1"]) == 0
                for eye in ("both", "left", "right"):
                    report_dir = out / f"reports_{tag}_{eye}"
                    assert cli.main([
                        "eval", *base, "--report-dir", str(report_dir),
                        "--eye", eye,
                    ]) == 0
                    metrics = json.loads((report_dir / "metrics.json").read_text())
                    assert metrics["eye"] == eye
                    assert len(metrics["per_class_accuracy"]) == classes
                    assert (report_dir / "confusion.csv").exists()
                print(f"  {mode} {classes}-class fused reference (not asserted): "
                      f"{reference[(mode, classes)]}%")
        conclude(9, "paper-table-reproduction-path (single-eye + fused, "
                    "3- and 7-class reports emitted)")
