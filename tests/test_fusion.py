"""Score fusion, metrics, report emission, and the latency harness."""

import json
import os
import time
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gazedir import dataset, fusion, nn, preprocess, synth
from gazedir.fusion import ConfusionMatrix, EvalResult


def prob_vectors(n):
    return (
        st.lists(st.floats(1e-6, 1.0), min_size=n, max_size=n)
        .map(lambda v: np.array(v) / np.sum(v))
    )


class FixedModel:
    """Stub model: ignores the input, returns a canned score vector per row.
    The last stack it returned is kept in `returned`."""

    def __init__(self, scores, n_classes=None):
        self.scores = np.asarray(scores, dtype=np.float64)
        self.n_classes = n_classes or len(self.scores)

    def forward_batch(self, x4):
        self.returned = np.tile(self.scores, (len(x4), 1))
        return self.returned


class LookupModel:
    """Stub model keyed on each input tensor's first element."""

    def __init__(self, table, n_classes):
        self.table = table
        self.n_classes = n_classes

    def forward_batch(self, x4):
        return np.stack([self.table[float(np.ravel(x)[0])] for x in x4])


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

    @pytest.mark.parametrize("score", [[[0, 0, 0], [0, 1, 0]], [[0.2, 0.8]], 0.5])
    def test_non_vector_rejected(self, score):
        """A stack of scores is not one vector: its flat argmax is no class."""
        with pytest.raises(ValueError, match="one score vector"):
            fusion.predict_class(score)

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
        assert fusion.evaluate(ml, None, triples).accuracy == 1.0
        assert fusion.evaluate(None, mr, triples).accuracy == 0.0
        assert fusion.evaluate(ml, None, [(np.zeros(1), None, 0)]).accuracy == 1.0

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

    def test_no_model_rejected(self):
        with pytest.raises(ValueError, match="left or a right model"):
            fusion.evaluate(None, None, [(np.zeros(1), np.zeros(1), 0)])

    def test_none_model_leaves_its_eye_unscored(self):
        ml = FixedModel([0.9, 0.1])
        mr = FixedModel([0.1, 0.9])
        # a fused pair would score 0.5/0.5 and predict class 0 for either label
        assert fusion.evaluate(None, mr, [(None, np.zeros(1), 1)]).accuracy == 1.0
        assert fusion.evaluate(ml, None, [(np.zeros(1), None, 1)]).accuracy == 0.0
        assert fusion.evaluate(ml, mr, [(np.zeros(1), np.zeros(1), 1)]).accuracy == 0.0

    @pytest.mark.parametrize("bad", [-1, 7])
    def test_label_out_of_range_rejected(self, bad):
        m = FixedModel(np.eye(7)[6])
        x = np.zeros((1, 1, 1))
        with pytest.raises(ValueError, match=rf"sample 2: label {bad} outside \[0, 7\)"):
            fusion.evaluate(m, m, [(x, x, 0), (x, x, 6), (x, x, bad)])

    def test_single_eye_class_count_from_its_model(self):
        triples = [(None, np.zeros(1), 1)]
        result = fusion.evaluate(None, FixedModel([0.1, 0.9]), triples)
        assert result.confusion.n_classes == 2 and result.accuracy == 1.0


class TestScorePair:
    def test_both_models_fuse(self):
        ml, mr = FixedModel([0.8, 0.2]), FixedModel([0.2, 0.6])
        stack = np.zeros((2, 1, 1, 1))
        npt.assert_array_equal(fusion.score_pair(ml, mr, stack, stack), [[0.5, 0.4]] * 2)

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_none_model_scores_the_other_eye(self, side):
        """The present network's softmax, untouched; the absent eye's tensor
        is never read."""
        present = FixedModel([0.8, 0.2])
        stack = np.zeros((2, 1, 1, 1))
        if side == "left":
            score = fusion.score_pair(present, None, stack, None)
        else:
            score = fusion.score_pair(None, present, None, stack)
        assert score is present.returned

    @pytest.mark.parametrize("eye", ["left", "right", "both"])
    def test_list_of_tensors_scores_as_their_stack(self, eye):
        """Each eye may come as B (1, H, W) tensors; an unscored eye's are None."""
        ml, mr = eye_models(eye)
        lefts, rights, _ = zip(*random_triples(3, eye, seed=5))
        stacks = (None if xs[0] is None else np.stack(xs) for xs in (lefts, rights))
        want = fusion.score_pair(ml, mr, *stacks)
        assert want.shape == (3, 7)
        assert fusion.score_pair(ml, mr, list(lefts), list(rights)).tobytes() == want.tobytes()


def random_triples(n, eye, seed=0):
    """n (left, right, label) triples of random 15x25 eyes; an eye that
    `eye` does not select is None, as the CLI builds them."""
    rng = np.random.default_rng(seed)
    return [
        (*(rng.normal(size=(1, 15, 25)).astype(np.float32) if w else None
           for w in dataset.eye_selection(eye)),
         int(rng.integers(7)))
        for _ in range(n)
    ]


def eye_models(eye):
    """15x25 nets for the eyes `eye` selects, None for the other."""
    return tuple(
        nn.build_gaze_net(15, 25, 7, seed=seed) if w else None
        for seed, w in zip((3, 4), dataset.eye_selection(eye))
    )


class TestBatchedEvaluate:
    @pytest.mark.parametrize("eye", ["left", "right", "both"])
    @pytest.mark.parametrize("n", [1, 3, 4, 5, 9])
    def test_same_confusion_as_per_sample_scoring(self, eye, n):
        ml, mr = eye_models(eye)
        triples = random_triples(n, eye, seed=n)
        expected = ConfusionMatrix(7)
        for xl, xr, y in triples:
            one = [x if x is None else x[None] for x in (xl, xr)]
            expected.add(y, fusion.predict_class(fusion.score_pair(ml, mr, *one)[0]))
        result = fusion.evaluate(ml, mr, triples)
        npt.assert_array_equal(result.confusion.counts, expected.counts)

    def test_scores_stacks_of_four(self, monkeypatch):
        """9 pairs run each model's first conv at batch sizes 4, 4 and 1."""
        ml, mr = eye_models("both")
        sizes = {"left": [], "right": []}
        for side, model in (("left", ml), ("right", mr)):
            conv1 = model.layers[0].forward

            def spy(x, cache=False, conv1=conv1, seen=sizes[side]):
                seen.append(x.shape[0])
                return conv1(x, cache)

            monkeypatch.setattr(model.layers[0], "forward", spy)
        fusion.evaluate(ml, mr, random_triples(9, "both"))
        assert fusion.EVAL_CHUNK == 4
        assert sizes == {"left": [4, 4, 1], "right": [4, 4, 1]}

    def test_nan_in_partial_stack_raises_before_counting_it(self, monkeypatch):
        """6 pairs are stacks of 4 and 2; a NaN in the last pair stops the
        run after the first stack's 4 counts, naming the second stack."""
        ml, mr = eye_models("both")
        triples = random_triples(6, "both")
        triples[5][0][0, 3, 4] = np.nan
        counted = []
        add = ConfusionMatrix.add
        monkeypatch.setattr(
            ConfusionMatrix, "add", lambda cm, t, p: (counted.append(t), add(cm, t, p))
        )
        with pytest.raises(FloatingPointError, match=r"samples 4\.\.5: non-finite"):
            fusion.evaluate(ml, mr, triples)
        assert len(counted) == 4


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


@pytest.fixture
def corpus(tmp_path):
    """(image root, samples) of a 14-image synthetic corpus written under tmp_path."""
    manifest, _ = synth.generate_corpus(tmp_path, 2, 0)
    return str(tmp_path), dataset.load_manifest(manifest)


class TestBenchLatency:
    def test_counts_and_fps_relation(self, corpus):
        root, samples = corpus
        ml = nn.build_gaze_net(15, 25, 7, seed=0)
        mr = nn.build_gaze_net(15, 25, 7, seed=1)
        report = fusion.bench_latency(ml, mr, samples[:12], 3, "ert", root)
        assert report["n_frames"] == 12 and report["warmup"] == 3
        assert set(report["stages"]) == set(fusion.BENCH_STAGES)
        npt.assert_allclose(report["fps"], 1000.0 / report["end_to_end"]["mean_ms"], rtol=1e-9)

    def test_end_to_end_dominates_stages(self, corpus):
        root, samples = corpus
        ml = nn.build_gaze_net(15, 25, 7, seed=0)
        mr = nn.build_gaze_net(15, 25, 7, seed=1)
        report = fusion.bench_latency(ml, mr, samples[:10], 2, "ert", root)
        worst_stage = max(s["mean_ms"] for s in report["stages"].values())
        assert report["end_to_end"]["mean_ms"] >= worst_stage

    def test_monotone_under_injected_delay(self, corpus, monkeypatch):
        root, samples = corpus
        ml = nn.build_gaze_net(15, 25, 7, seed=0)
        mr = nn.build_gaze_net(15, 25, 7, seed=1)
        base = fusion.bench_latency(ml, mr, samples[:8], 2, "ert", root)

        slow_normalize = preprocess.normalize_stack

        def delayed(stack):
            time.sleep(0.010)
            return slow_normalize(stack)

        monkeypatch.setattr(preprocess, "normalize_stack", delayed)
        slowed = fusion.bench_latency(ml, mr, samples[:8], 2, "ert", root)
        # one normalize call per frame, both eyes stacked -> at least ~10 ms extra
        assert slowed["stages"]["normalize"]["mean_ms"] > base["stages"]["normalize"]["mean_ms"] + 8
        assert slowed["end_to_end"]["mean_ms"] > base["end_to_end"]["mean_ms"] + 8

    @pytest.mark.parametrize("mode", ["rio", "ERT"])
    def test_unknown_mode_rejected(self, corpus, mode):
        root, samples = corpus
        ml = nn.build_gaze_net(15, 25, 7, seed=0)
        mr = nn.build_gaze_net(15, 25, 7, seed=1)
        with pytest.raises(ValueError, match=f"mode must be roi or ert, got '{mode}'"):
            fusion.bench_latency(ml, mr, samples[:2], 0, mode, root)

    def test_empty_frames_rejected(self):
        with pytest.raises(ValueError):
            fusion.bench_latency(None, None, [], 0, "roi")

    @pytest.mark.parametrize("mode", ["roi", "ert"])
    def test_decode_reads_the_rows_make_eye_pairs_reads(self, corpus, monkeypatch, mode):
        root, samples = corpus
        reads = []
        read_pnm = preprocess.read_pnm

        def spy(path, rows=None):
            reads.append((path, rows))
            return read_pnm(path, rows)

        monkeypatch.setattr(preprocess, "read_pnm", spy)
        resized = []  # (crops, patches) per grey_resize call
        grey_resize = dataset.grey_resize

        def resize_spy(crops, patch_hw):
            resized.append((crops, grey_resize(crops, patch_hw)))
            return resized[-1][1]

        monkeypatch.setattr(dataset, "grey_resize", resize_spy)
        ml = nn.build_gaze_net(*dataset.default_patch_hw(mode), 7, seed=0)
        mr = nn.build_gaze_net(*dataset.default_patch_hw(mode), 7, seed=1)
        with mock.patch.object(dataset, "eye_boxes", wraps=dataset.eye_boxes) as boxes_spy:
            fusion.bench_latency(ml, mr, samples[:3], 2, mode, root)
        timed = [samples[0], samples[1], *samples[:3]]  # two warmup passes, then each sample
        assert boxes_spy.call_count == len(timed)  # each frame is boxed once
        monkeypatch.setattr(dataset, "grey_resize", grey_resize)

        def span(s):  # the rows both eye boxes span
            boxes = dataset.eye_boxes(s, mode, "both")
            return min(b.y for b in boxes), max(b.y + b.h for b in boxes)

        assert reads == [(os.path.join(root, s.image_path), span(s)) for s in timed]
        assert None not in (rows for _, rows in reads)
        bench_reads, reads[:] = list(reads), []
        dataset.make_eye_pairs(samples[:3], mode, root)
        assert reads == bench_reads[2:]

        # crop_resize is one grey_resize of the frame's two crops, and its
        # patches are make_eye_pairs' for that frame
        assert len(resized) == len(timed)
        for s, (crops, patches) in zip(timed, resized):
            whole = read_pnm(os.path.join(root, s.image_path))
            want = [preprocess.crop(whole, b) for b in dataset.eye_boxes(s, mode, "both")]
            assert [(c.shape, c.tobytes()) for c in crops] == [(c.shape, c.tobytes()) for c in want]
            pair = dataset.make_eye_pairs([s], mode, root)
            assert patches.tobytes() == np.stack([p.pixels[0] for p in pair]).tobytes()

    def test_ert_crops_do_not_fit_42x50_models(self, corpus):
        """The patch size is the mode's, whatever size the models take."""
        root, samples = corpus
        ml = nn.build_gaze_net(42, 50, 7, seed=0)
        mr = nn.build_gaze_net(42, 50, 7, seed=1)
        with pytest.raises(ValueError, match="does not match model input"):
            fusion.bench_latency(ml, mr, samples[:2], 0, "ert", root)

    def test_models_of_different_shapes_rejected(self, corpus):
        root, samples = corpus
        ml = nn.build_gaze_net(15, 25, 7, seed=0)
        mr = nn.build_gaze_net(42, 50, 7, seed=1)
        with pytest.raises(ValueError, match="does not match model input"):
            fusion.bench_latency(ml, mr, samples[:2], 0, "ert", root)
