"""Score fusion, metrics, report emission, and the latency harness."""

import json
import time

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gazedir import fusion, preprocess, synth
from gazedir.fusion import ConfusionMatrix, EvalResult


def prob_vectors(n):
    return (
        st.lists(st.floats(1e-6, 1.0), min_size=n, max_size=n)
        .map(lambda v: np.array(v) / np.sum(v))
    )


class FixedModel:
    """Stub model: ignores the input, returns a canned score vector."""

    def __init__(self, scores, n_classes=None):
        self.scores = np.asarray(scores, dtype=np.float64)
        self.n_classes = n_classes or len(self.scores)

    def forward(self, x):
        return self.scores


class LookupModel:
    """Stub model keyed on the input tensor's first element."""

    def __init__(self, table, n_classes):
        self.table = table
        self.n_classes = n_classes

    def forward(self, x):
        return self.table[float(np.ravel(x)[0])]


class TestFuseScores:
    def test_elementwise_mean(self):
        fused = fusion.fuse_scores(np.array([0.2, 0.8]), np.array([0.6, 0.4]))
        npt.assert_allclose(fused, [0.4, 0.6])

    def test_idempotent_on_equal_inputs(self):
        v = np.array([0.1, 0.2, 0.7])
        npt.assert_array_equal(fusion.fuse_scores(v, v), v)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            fusion.fuse_scores(np.zeros(3), np.zeros(4))

    @settings(max_examples=100, deadline=None)
    @given(l=prob_vectors(7), r=prob_vectors(7))
    def test_validity_closure(self, l, r):
        fused = fusion.fuse_scores(l, r)
        assert abs(fused.sum() - 1.0) < 1e-6
        assert np.all((fused >= 0) & (fused <= 1))


class TestPredictClass:
    def test_argmax(self):
        assert fusion.predict_class(np.array([0.1, 0.7, 0.2])) == 1

    def test_tie_breaks_low(self):
        assert fusion.predict_class(np.array([0.5, 0.5])) == 0
        assert fusion.predict_class(np.array([0.2, 0.4, 0.4])) == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fusion.predict_class(np.array([]))

    @settings(max_examples=100, deadline=None)
    @given(l=prob_vectors(5), r=prob_vectors(5))
    def test_shared_argmax_preserved(self, l, r):
        kl, kr = fusion.predict_class(l), fusion.predict_class(r)
        if kl == kr:
            assert fusion.predict_class(fusion.fuse_scores(l, r)) == kl


class TestConfusionMatrix:
    def test_row_sums_and_accuracy(self):
        cm = ConfusionMatrix(3)
        truth = [0, 0, 1, 1, 1, 2]
        preds = [0, 1, 1, 1, 2, 2]
        for t, p in zip(truth, preds):
            cm.add(t, p)
        npt.assert_array_equal(cm.counts.sum(axis=1), [2, 3, 1])
        assert cm.accuracy == 4 / 6
        npt.assert_allclose(cm.per_class_accuracy, [0.5, 2 / 3, 1.0])

    def test_trace_over_total_equals_accuracy_exactly(self):
        rng = np.random.default_rng(0)
        cm = ConfusionMatrix(4)
        for _ in range(200):
            cm.add(int(rng.integers(4)), int(rng.integers(4)))
        assert cm.accuracy == np.trace(cm.counts) / cm.counts.sum()

    def test_absent_class_is_nan(self):
        cm = ConfusionMatrix(3)
        cm.add(0, 0)
        per = cm.per_class_accuracy
        assert per[0] == 1.0 and np.isnan(per[1]) and np.isnan(per[2])


def triples_for(labels, n_classes, score_of):
    """(left, right, label) triples whose tensors encode the row index."""
    out = []
    table_l, table_r = {}, {}
    for i, y in enumerate(labels):
        x = np.full((1, 2, 2), float(i))
        table_l[float(i)] = score_of(y)
        table_r[float(i)] = score_of(y)
        out.append((x, x, y))
    return out, LookupModel(table_l, n_classes), LookupModel(table_r, n_classes)


class TestEvaluate:
    def test_perfect_predictor(self):
        labels = [0, 1, 2, 2, 1, 0]
        triples, ml, mr = triples_for(labels, 3, lambda y: np.eye(3)[y])
        result = fusion.evaluate(ml, mr, triples)
        assert result.accuracy == 1.0
        npt.assert_array_equal(result.confusion.counts, np.diag([2, 2, 2]))

    def test_constant_predictor_on_balanced_set(self):
        labels = [0, 1, 2, 3] * 5
        ml = FixedModel(np.eye(4)[0])
        mr = FixedModel(np.eye(4)[0])
        triples = [(np.zeros((1, 1, 1)), np.zeros((1, 1, 1)), y) for y in labels]
        result = fusion.evaluate(ml, mr, triples)
        assert result.accuracy == 1 / 4

    def test_single_eye_modes(self):
        ml = FixedModel([0.9, 0.1])
        mr = FixedModel([0.1, 0.9])
        triples = [(np.zeros(1), np.zeros(1), 0)]
        assert fusion.evaluate(ml, mr, triples, eye="left").accuracy == 1.0
        assert fusion.evaluate(ml, mr, triples, eye="right").accuracy == 0.0
        assert fusion.evaluate(ml, None, triples, eye="left").accuracy == 1.0

    def test_class_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="class-count"):
            fusion.evaluate(FixedModel(np.zeros(3)), FixedModel(np.zeros(4)), [])

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        labels = [int(rng.integers(3)) for _ in range(30)]
        triples, ml, mr = triples_for(
            labels, 3, lambda y: rng.dirichlet(np.ones(3))
        )
        a = fusion.evaluate(ml, mr, triples)
        order = rng.permutation(len(triples))
        b = fusion.evaluate(ml, mr, [triples[i] for i in order])
        assert a.accuracy == b.accuracy
        npt.assert_array_equal(a.confusion.counts, b.confusion.counts)

    def test_bad_eye_rejected(self):
        with pytest.raises(ValueError):
            fusion.evaluate(FixedModel(np.zeros(3)), None, [], eye="up")


class TestEmitReport:
    def result_3class(self):
        cm = ConfusionMatrix(3)
        for c in range(3):
            for _ in range(4):
                cm.add(c, c)
        return EvalResult(cm.accuracy, cm.per_class_accuracy, cm)

    def test_confusion_csv_grid(self, tmp_path):
        result = self.result_3class()
        paths = fusion.emit_report(result, ["LEFT", "CENTER", "RIGHT"], {}, tmp_path)
        lines = (tmp_path / "confusion.csv").read_text().strip().split("\n")
        assert len(lines) == 4
        assert all(len(line.split(",")) == 4 for line in lines)
        assert lines[0] == ",LEFT,CENTER,RIGHT"
        assert lines[1] == "LEFT,4,0,0"
        assert str(tmp_path / "confusion.csv") in paths

    def test_metrics_json_round_trips(self, tmp_path):
        result = self.result_3class()
        meta = {"mode": "ert", "classes": 3, "seed": 0, "eye": "both"}
        fusion.emit_report(result, ["LEFT", "CENTER", "RIGHT"], meta, tmp_path)
        blob = json.loads((tmp_path / "metrics.json").read_text())
        assert blob["accuracy"] == 1.0
        assert blob["per_class_accuracy"]["CENTER"] == 1.0
        assert blob["n_test"] == 12
        assert blob["mode"] == "ert"

    def test_byte_deterministic(self, tmp_path):
        result = self.result_3class()
        meta = {"mode": "ert", "seed": 3, "accuracy_note": 0.123456789}
        a, b = tmp_path / "a", tmp_path / "b"
        fusion.emit_report(result, ["L", "C", "R"], meta, a)
        fusion.emit_report(result, ["L", "C", "R"], meta, b)
        assert (a / "metrics.json").read_bytes() == (b / "metrics.json").read_bytes()
        assert (a / "confusion.csv").read_bytes() == (b / "confusion.csv").read_bytes()

    def test_floats_carry_six_significant_digits(self, tmp_path):
        cm = ConfusionMatrix(2)
        for _ in range(2):
            cm.add(0, 0)
        cm.add(1, 0)
        result = EvalResult(cm.accuracy, cm.per_class_accuracy, cm)
        fusion.emit_report(result, ["A", "B"], {}, tmp_path)
        blob = json.loads((tmp_path / "metrics.json").read_text())
        assert blob["accuracy"] == 0.666667  # 2/3 at 6 significant digits

    def test_nan_per_class_becomes_null(self, tmp_path):
        cm = ConfusionMatrix(2)
        cm.add(0, 0)
        result = EvalResult(cm.accuracy, cm.per_class_accuracy, cm)
        fusion.emit_report(result, ["A", "B"], {}, tmp_path)
        blob = json.loads((tmp_path / "metrics.json").read_text())
        assert blob["per_class_accuracy"]["B"] is None


def bench_frames(n, seed=0):
    rng = np.random.default_rng(seed)
    lms = synth.canonical_landmarks()
    return [
        (synth.render_face(rng, synth.EacClass(i % 7)), synth.FACE, lms)
        for i in range(n)
    ]


class TestBenchLatency:
    def test_counts_and_fps_relation(self):
        from gazedir import nn

        ml = nn.build_gaze_net(15, 25, 7, seed=0)
        mr = nn.build_gaze_net(15, 25, 7, seed=1)
        report = fusion.bench_latency(ml, mr, bench_frames(12), warmup=3, mode="ert")
        assert report.n_frames == 12 and report.warmup == 3
        assert set(report.stages) == set(fusion.BENCH_STAGES)
        npt.assert_allclose(report.fps, 1000.0 / report.end_to_end.mean_ms, rtol=1e-9)

    def test_end_to_end_dominates_stages(self):
        from gazedir import nn

        ml = nn.build_gaze_net(15, 25, 7, seed=0)
        mr = nn.build_gaze_net(15, 25, 7, seed=1)
        report = fusion.bench_latency(ml, mr, bench_frames(10), warmup=2, mode="ert")
        worst_stage = max(s.mean_ms for s in report.stages.values())
        assert report.end_to_end.mean_ms >= worst_stage

    def test_monotone_under_injected_delay(self, monkeypatch):
        from gazedir import nn

        ml = nn.build_gaze_net(15, 25, 7, seed=0)
        mr = nn.build_gaze_net(15, 25, 7, seed=1)
        frames = bench_frames(8)
        base = fusion.bench_latency(ml, mr, frames, warmup=2, mode="ert")

        slow_normalize = preprocess.normalize

        def delayed(img):
            time.sleep(0.005)
            return slow_normalize(img)

        monkeypatch.setattr(preprocess, "normalize", delayed)
        slowed = fusion.bench_latency(ml, mr, frames, warmup=2, mode="ert")
        # two normalize calls per frame -> at least ~10 ms extra
        assert slowed.stages["normalize"].mean_ms > base.stages["normalize"].mean_ms + 8
        assert slowed.end_to_end.mean_ms > base.end_to_end.mean_ms + 8

    def test_empty_frames_rejected(self):
        with pytest.raises(ValueError):
            fusion.bench_latency(None, None, [], warmup=0)

    def test_larger_patch_slows_forward(self):
        from gazedir import nn

        frames = bench_frames(30)
        means = {}
        for hw in ((15, 25), (42, 50)):
            ml = nn.build_gaze_net(*hw, 7, seed=0)
            mr = nn.build_gaze_net(*hw, 7, seed=1)
            report = fusion.bench_latency(ml, mr, frames, warmup=5,
                                          mode="roi", patch_hw=hw)
            means[hw] = report.stages["forward_left"].mean_ms
        assert means[(42, 50)] > means[(15, 25)]
