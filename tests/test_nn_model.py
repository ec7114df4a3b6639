"""Model construction, training loop, gradient check, and binary model I/O."""

import functools
import sys
import threading

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gazedir import dataset, nn


def dense_in_features(model):
    return [l for l in model.layers if l.kind == "Dense"][0].weights.shape[1]


def block_pattern_set(n_per_class=3, n_classes=7, hw=(8, 8), seed=0):
    """Tiny separable corpus: one bright block region per class, plus noise."""
    rng = np.random.default_rng(seed)
    h, w = hw
    xs, ys = [], []
    for c in range(n_classes):
        for _ in range(n_per_class):
            img = rng.normal(0.0, 0.05, size=(1, h, w)).astype(np.float32)
            r, s = divmod(c, 3)
            img[0, 2 * r : 2 * r + 3, 2 * s : 2 * s + 3] += 0.5
            xs.append(img)
            ys.append(c)
    return xs, ys


class TestBuildGazeNet:
    def test_layer_sequence(self):
        model = nn.build_gaze_net(42, 50, 7)
        kinds = [l.kind for l in model.layers]
        assert kinds == [
            "Conv2D", "ReLU", "MaxPool2",
            "Conv2D", "ReLU", "MaxPool2",
            "Conv2D", "ReLU", "MaxPool2",
            "Dense", "SoftmaxCE",
        ]
        convs = [l for l in model.layers if l.kind == "Conv2D"]
        assert [c.weights.shape[2] for c in convs] == [7, 5, 3]
        assert all(c.weights.shape[0] == 24 for c in convs)

    def test_roi_shape_trace(self):
        # 42x50 -> 21x25 -> 10x12 -> 5x6; dense input 24*5*6
        assert dense_in_features(nn.build_gaze_net(42, 50, 7)) == 720

    def test_ert_shape_trace(self):
        # 15x25 -> 7x12 -> 3x6 -> 1x3; dense input 24*1*3
        assert dense_in_features(nn.build_gaze_net(15, 25, 7)) == 72

    def test_minimal_input(self):
        # 8 -> 4 -> 2 -> 1 is the boundary of the precondition
        model = nn.build_gaze_net(8, 8, 3)
        assert dense_in_features(model) == 24
        probs = model.forward(np.zeros((1, 8, 8), dtype=np.float32))
        assert probs.shape == (3,)

    def test_too_small_input_rejected(self):
        with pytest.raises(ValueError):
            nn.build_gaze_net(7, 25, 7)
        with pytest.raises(ValueError):
            nn.build_gaze_net(25, 7, 7)

    def test_bias_zero_and_weight_range(self):
        model = nn.build_gaze_net(15, 25, 7, seed=5)
        first = model.layers[0]
        assert not first.bias.any()
        limit = np.sqrt(6.0 / 49)
        assert np.all(np.abs(first.weights) <= limit)

    def test_seed_controls_init(self):
        a = nn.build_gaze_net(15, 25, 7, seed=1)
        b = nn.build_gaze_net(15, 25, 7, seed=1)
        c = nn.build_gaze_net(15, 25, 7, seed=2)
        for pa, pb in zip(a.parameters(), b.parameters()):
            npt.assert_array_equal(pa, pb)
        assert any((pa != pc).any() for pa, pc in zip(a.parameters(), c.parameters()))


class TestModelConstruction:
    def test_class_count_checked_against_head(self):
        layers = nn.build_gaze_net(8, 8, 3).layers
        with pytest.raises(ValueError, match="classes"):
            nn.Model((1, 8, 8), 4, layers)

    def test_dense_fan_in_checked_against_input(self):
        # 15x25 pools to 1x3 (fan-in 72); 42x50 pools to 5x6 (720)
        layers = nn.build_gaze_net(15, 25, 7).layers
        with pytest.raises(ValueError, match="dense dimension mismatch"):
            nn.Model((1, 42, 50), 7, layers)


class TestModelForward:
    def test_valid_score_vector(self):
        model = nn.build_gaze_net(15, 25, 7)
        x = np.random.default_rng(0).normal(size=(1, 15, 25)).astype(np.float32)
        probs = model.forward(x)
        assert probs.shape == (7,)
        assert abs(probs.sum() - 1.0) < 1e-6
        assert np.all((probs >= 0) & (probs <= 1))

    def test_deterministic(self):
        model = nn.build_gaze_net(15, 25, 7)
        x = np.random.default_rng(1).normal(size=(1, 15, 25)).astype(np.float32)
        npt.assert_array_equal(model.forward(x), model.forward(x))

    def test_shape_mismatch_rejected(self):
        model = nn.build_gaze_net(15, 25, 7)
        with pytest.raises(ValueError):
            model.forward(np.zeros((1, 42, 50), dtype=np.float32))

    def test_non_finite_scores_rejected(self):
        # a NaN score must never reach predict_class, which would read it as class 0
        model = nn.build_gaze_net(15, 25, 7)
        model.layers[0].weights[0, 0, 0, 0] = np.nan
        with pytest.raises(FloatingPointError, match="non-finite"):
            model.forward(np.ones((1, 15, 25), dtype=np.float32))

    def test_dual_shape_support(self):
        for hw in ((42, 50), (15, 25)):
            model = nn.build_gaze_net(*hw, 7)
            x = np.random.default_rng(2).normal(size=(1, *hw)).astype(np.float32)
            probs = model.forward(x)
            assert probs.shape == (7,)
            assert abs(probs.sum() - 1.0) < 1e-6


@functools.cache
def gaze_net(mode, dtype):
    """One net per (mode, dtype), shared by the batch-invariance cases."""
    return nn.build_gaze_net(*dataset.default_patch_hw(mode), 7, seed=9).astype(dtype)


class TestForwardBatch:
    @settings(max_examples=40, deadline=None)
    @given(
        mode=st.sampled_from(["roi", "ert"]),
        dtype=st.sampled_from([np.float32, np.float64]),
        b=st.integers(1, 9),
        seed=st.integers(0, 2**16),
    )
    def test_rows_equal_single_forwards_byte_for_byte(self, mode, dtype, b, seed):
        model = gaze_net(mode, dtype)
        x4 = np.random.default_rng(seed).normal(size=(b, *model.input_shape)).astype(dtype)
        rows = model.forward_batch(x4)
        assert rows.shape == (b, 7) and rows.dtype == dtype
        for x, row in zip(x4, rows):
            assert row.tobytes() == model.forward(x).tobytes()

    def test_single_sample_shape_rejected(self):
        model = nn.build_gaze_net(15, 25, 7)
        with pytest.raises(ValueError, match="does not match model input"):
            model.forward_batch(np.zeros((1, 15, 25), dtype=np.float32))

    def test_non_finite_row_raises(self):
        model = nn.build_gaze_net(15, 25, 7)
        x4 = np.ones((3, 1, 15, 25), dtype=np.float32)
        x4[2, 0, 7, 7] = np.nan
        with pytest.raises(FloatingPointError, match="non-finite"):
            model.forward_batch(x4)

    @pytest.mark.parametrize("trained", [False, True])
    def test_leaves_every_layer_attribute_as_it_was(self, trained):
        # the purity contract: no cache written, no view of a scratch array kept
        model = nn.build_gaze_net(15, 25, 7)
        rng = np.random.default_rng(4)
        if trained:  # fills Conv2D._cols/_input_shape, ReLU._input, MaxPool2._winner, Dense._flat
            x4 = rng.normal(size=(3, 1, 15, 25)).astype(np.float32)
            model.batch_loss_and_backward(x4, np.array([0, 3, 6]))

        def state(layer):  # each attribute: (the object, its contents)
            return {k: (v, v.tobytes() if isinstance(v, np.ndarray) else v)
                    for k, v in vars(layer).items()}

        before = [state(layer) for layer in model.layers]
        model.forward_batch(rng.normal(size=(5, 1, 15, 25)).astype(np.float32))
        for layer, saved in zip(model.layers, before):
            after = state(layer)
            assert after.keys() == saved.keys()
            for k, (v, contents) in after.items():
                assert v is saved[k][0] and contents == saved[k][1], f"{layer.kind}.{k} changed"


def conv_layers_with_inputs(mode):
    """(Conv2D, its per-sample input shape) for each conv of the shared gaze net."""
    model = gaze_net(mode, np.float32)
    shape, out = model.input_shape, []
    for layer in model.layers[:-2]:
        if layer.kind == "Conv2D":
            out.append((layer, shape))
        shape = layer.output_shape(shape)
    return out


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("b", [1, 4, 32])
@pytest.mark.parametrize("mode", ["roi", "ert"])
def test_conv_inference_and_training_forward_agree_byte_for_byte(mode, b, dtype):
    # one conv kernel: the cached (training) forward is the inference forward
    rng = np.random.default_rng(b)
    for layer, shape in conv_layers_with_inputs(mode):
        bias = rng.normal(size=layer.bias.shape).astype(dtype)  # the net's own biases are 0
        conv = nn.Conv2D(layer.weights.astype(dtype), bias)
        x = rng.normal(size=(b, *shape)).astype(dtype)
        assert conv.forward(x).tobytes() == conv.forward(x, cache=True).tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("mode", ["roi", "ert"])
def test_conv_weight_grad_equals_the_upstream_first_product(mode, dtype):
    # backward forms cols @ upstream^T per sample; the sum over the batch is
    # byte-identical to the (upstream @ cols^T).sum(0) form it replaced
    for b in (1, 2, 16, 17, 32):
        rng = np.random.default_rng(b)
        for layer, shape in conv_layers_with_inputs(mode):
            conv = nn.Conv2D(layer.weights.astype(dtype), layer.bias.astype(dtype))
            out = conv.forward(rng.normal(size=(b, *shape)).astype(dtype), cache=True)
            up = rng.normal(size=out.shape).astype(dtype)
            conv.backward(up, need_input_grad=False)
            expected = np.zeros_like(conv.weights)
            expected += (up.reshape(b, up.shape[1], -1) @ conv._cols.transpose(0, 2, 1)).sum(
                axis=0).reshape(conv.weights.shape)
            assert conv.grad_weights.tobytes() == expected.tobytes()


def one_lane_step(model, x4, labels):
    """The training step in one lane: every layer's own forward and backward
    on the whole batch, each conv summing its grads in backward."""
    h = x4.astype(model.dtype, copy=False)
    for layer in model.layers[:-1]:
        h = layer.forward(h, cache=True)
    loss, _, grad = nn.softmax_ce(h, labels)
    for i in reversed(range(len(model.layers) - 1)):
        layer = model.layers[i]
        if layer.kind == "Conv2D":
            grad = layer.backward(grad, need_input_grad=i > 0)
        else:
            grad = layer.backward(grad)
    return loss


def gaze_net_copy(mode, dtype):
    """A fresh gaze net of the shared seed, so two copies train alike."""
    return nn.build_gaze_net(*dataset.default_patch_hw(mode), 7, seed=9).astype(dtype)


@pytest.fixture(params=[1, 2], ids=["worker", "in-turn"])
def blas_query(request, monkeypatch):
    """The lanes' BLAS thread query forced to 1 (lane 1 on a new worker
    thread; two CPUs are reported) or to 2 (the lanes run in turn)."""
    monkeypatch.setattr(nn, "blas_threads", lambda: request.param)
    monkeypatch.setattr(nn.os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(nn, "_worker", None)
    yield request.param
    if nn._worker is not None:
        nn._worker.shutdown()


class TestLanes:
    """Two batch lanes give the bytes of the one-lane step, threaded or in turn."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("mode", ["roi", "ert"])
    def test_step_equals_one_lane_byte_for_byte(self, blas_query, mode, dtype):
        lanes, serial = (gaze_net_copy(mode, dtype) for _ in range(2))
        for b in (1, 2, 3, 17, 32):
            rng = np.random.default_rng(b)
            x4 = rng.normal(size=(b, *lanes.input_shape)).astype(dtype)
            labels = rng.integers(0, 7, size=b)
            lanes.zero_grads()
            serial.zero_grads()
            loss = lanes.batch_loss_and_backward(x4, labels)
            assert repr(loss) == repr(one_lane_step(serial, x4, labels))
            for g, s in zip(lanes.gradients(), serial.gradients()):
                assert g.tobytes() == s.tobytes()
        assert (nn._worker is not None) == (blas_query == 1)

    def test_ragged_epoch_equals_one_lane_byte_for_byte(self, blas_query, monkeypatch):
        # 101 samples in batches of 32: the last batch of 5 splits 3 + 2
        for mode in ("roi", "ert"):
            lanes, serial = (gaze_net_copy(mode, np.float32) for _ in range(2))
            rng = np.random.default_rng(5)
            xs = rng.normal(size=(101, *lanes.input_shape)).astype(np.float32)
            ys = rng.integers(0, 7, size=101)
            loss = nn.train_epoch(lanes, xs, ys, 0.01, 32, rng_seed=1)
            with monkeypatch.context() as m:
                m.setattr(nn.Model, "batch_loss_and_backward", one_lane_step)
                assert repr(loss) == repr(nn.train_epoch(serial, xs, ys, 0.01, 32, rng_seed=1))
            for p, q in zip(lanes.parameters(), serial.parameters()):
                assert p.tobytes() == q.tobytes()

    def test_concurrent_trainings_equal_training_alone(self, blas_query):
        # two threads train at once, sending their lanes 1 to the one worker,
        # with the interpreter switching threads as often as it can
        rng = np.random.default_rng(7)
        xs = rng.normal(size=(101, 1, 15, 25)).astype(np.float32)
        ys = rng.integers(0, 7, size=101)
        alone = [gaze_net_copy("ert", np.float32) for _ in range(2)]
        expected = [nn.train_epoch(m, xs, ys, 0.01, 32, rng_seed=i) for i, m in enumerate(alone)]
        together = [gaze_net_copy("ert", np.float32) for _ in range(2)]
        losses = [None, None]

        def train(i):
            losses[i] = nn.train_epoch(together[i], xs, ys, 0.01, 32, rng_seed=i)

        threads = [threading.Thread(target=train, args=(i,)) for i in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert [repr(v) for v in losses] == [repr(v) for v in expected]
        for a, b in zip(alone, together):
            assert [p.tobytes() for p in a.parameters()] == [p.tobytes() for p in b.parameters()]


def test_inference_and_one_sample_steps_start_no_worker(monkeypatch):
    monkeypatch.setattr(nn, "blas_threads", lambda: 1)
    monkeypatch.setattr(nn.os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(nn, "_worker", None)
    model = gaze_net_copy("ert", np.float32)
    x4 = np.random.default_rng(1).normal(size=(4, 1, 15, 25)).astype(np.float32)
    model.forward_batch(x4)
    model.batch_loss_and_backward(x4[:1], np.array([3]))  # one sample is one lane
    assert nn._worker is None


class TestTrainEpoch:
    def test_lr_zero_leaves_weights_and_reports_eval_loss(self):
        xs, ys = block_pattern_set()
        model = nn.build_gaze_net(8, 8, 7, seed=0)
        before = [p.copy() for p in model.parameters()]
        loss = nn.train_epoch(model, xs, ys, lr=0.0, batch_size=4, rng_seed=0)
        for p, b in zip(model.parameters(), before):
            npt.assert_array_equal(p, b)
        eval_loss = np.mean(
            [model.batch_loss_and_backward(x[None], np.array([y])) for x, y in zip(xs, ys)]
        )
        npt.assert_allclose(loss, eval_loss, rtol=1e-6)

    def test_same_seed_bitwise_identical_weights(self):
        xs, ys = block_pattern_set()
        runs = []
        for _ in range(2):
            model = nn.build_gaze_net(8, 8, 7, seed=3)
            for epoch in range(3):
                nn.train_epoch(model, xs, ys, 0.01, 4, rng_seed=100 + epoch)
            runs.append([p.tobytes() for p in model.parameters()])
        assert runs[0] == runs[1]

    def test_loss_decreases_on_block_patterns(self):
        # 21 samples, 3 per class, distinct block patterns
        xs, ys = block_pattern_set()
        model = nn.build_gaze_net(8, 8, 7, seed=0)
        initial = nn.train_epoch(model, xs, ys, lr=0.0, batch_size=32, rng_seed=0)
        for epoch in range(10):
            loss = nn.train_epoch(model, xs, ys, lr=0.01, batch_size=32, rng_seed=epoch)
        assert loss < initial

    def test_empty_dataset_rejected(self):
        model = nn.build_gaze_net(8, 8, 7)
        with pytest.raises(ValueError):
            nn.train_epoch(model, [], [], 0.01, 4, 0)

    def test_label_out_of_range_rejected(self):
        model = nn.build_gaze_net(8, 8, 3)
        xs = [np.zeros((1, 8, 8), dtype=np.float32)]
        for label in (3, -1):
            with pytest.raises(ValueError, match="label"):
                nn.train_epoch(model, xs, [label], 0.01, 4, 0)


class TestGradCheck:
    def test_dense_only_model(self):
        rng = np.random.default_rng(4)
        dense = nn.Dense(rng.normal(size=(5, 12)), rng.normal(size=5))
        model = nn.Model((12,), 5, [dense, nn.SoftmaxCE()])
        x = rng.normal(size=12)
        report = nn.grad_check(model, x, 1, h=1e-5)
        assert report.passed
        assert report.max_rel_error < 1e-7

    def test_small_conv_net(self):
        model = nn.build_gaze_net(8, 8, 3, seed=6).astype(np.float64)
        x = np.random.default_rng(7).normal(scale=0.3, size=(1, 8, 8))
        report = nn.grad_check(model, x, 1, h=1e-5)
        assert report.passed
        assert report.max_rel_error < 1e-4
        # every layer with parameters is covered
        assert sorted(report.per_param) == [
            "layer0.Conv2D.bias", "layer0.Conv2D.weights",
            "layer3.Conv2D.bias", "layer3.Conv2D.weights",
            "layer6.Conv2D.bias", "layer6.Conv2D.weights",
            "layer9.Dense.bias", "layer9.Dense.weights",
        ]

    def test_step_sizes_agree(self):
        model = nn.build_gaze_net(8, 8, 3, seed=8).astype(np.float64)
        x = np.random.default_rng(9).normal(scale=0.3, size=(1, 8, 8))
        r5 = nn.grad_check(model, x, 0, h=1e-5)
        r6 = nn.grad_check(model, x, 0, h=1e-6)
        assert r5.passed == r6.passed

    def test_single_precision_model_rejected(self):
        model = nn.build_gaze_net(8, 8, 3)
        with pytest.raises(ValueError, match="double"):
            nn.grad_check(model, np.zeros((1, 8, 8)), 0)

    def test_step_out_of_range_rejected(self):
        model = nn.build_gaze_net(8, 8, 3).astype(np.float64)
        with pytest.raises(ValueError):
            nn.grad_check(model, np.zeros((1, 8, 8)), 0, h=1e-3)


class TestModelIO:
    def test_round_trip_bit_exact(self, tmp_path):
        model = nn.build_gaze_net(15, 25, 7, seed=11)
        path = tmp_path / "model.gdn"
        nn.save_model(model, path)
        loaded = nn.load_model(path)
        assert loaded.n_classes == 7
        assert loaded.input_shape == (1, 15, 25)
        assert [l.kind for l in loaded.layers] == [l.kind for l in model.layers]
        for a, b in zip(model.parameters(), loaded.parameters()):
            assert a.tobytes() == b.tobytes()

    def test_round_trip_preserves_forward(self, tmp_path):
        model = nn.build_gaze_net(15, 25, 7, seed=12)
        path = tmp_path / "model.gdn"
        nn.save_model(model, path)
        loaded = nn.load_model(path)
        x = np.random.default_rng(13).normal(size=(1, 15, 25)).astype(np.float32)
        npt.assert_array_equal(model.forward(x), loaded.forward(x))

    def test_save_is_byte_deterministic(self, tmp_path):
        model = nn.build_gaze_net(8, 8, 3, seed=14)
        p1, p2 = tmp_path / "a.gdn", tmp_path / "b.gdn"
        nn.save_model(model, p1)
        nn.save_model(model, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_file_layout(self, tmp_path):
        model = nn.build_gaze_net(8, 8, 3, seed=15)
        path = tmp_path / "model.gdn"
        nn.save_model(model, path)
        blob = path.read_bytes()
        assert blob[:4] == b"GDN1"
        assert int.from_bytes(blob[4:8], "little") == 1
        assert int.from_bytes(blob[8:12], "little") == 11  # layer count
        # trailer: n_classes, input_h, input_w
        assert int.from_bytes(blob[-12:-8], "little") == 3
        assert int.from_bytes(blob[-8:-4], "little") == 8
        assert int.from_bytes(blob[-4:], "little") == 8

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bogus.gdn"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ValueError, match="magic"):
            nn.load_model(path)

    def test_bad_version_rejected(self, tmp_path):
        path = tmp_path / "bogus.gdn"
        path.write_bytes(b"GDN1" + (99).to_bytes(4, "little") + b"\x00" * 8)
        with pytest.raises(ValueError, match="version"):
            nn.load_model(path)

    def test_wrong_input_size_trailer_rejected(self, tmp_path):
        path = tmp_path / "model.gdn"
        nn.save_model(nn.build_gaze_net(15, 25, 7), path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-8] + (42).to_bytes(4, "little") + (50).to_bytes(4, "little"))
        with pytest.raises(ValueError, match="model.gdn: dense dimension mismatch"):
            nn.load_model(path)

    @settings(
        max_examples=300, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_truncated_or_garbled_file(self, tmp_path, data):
        # a tiny model, so that random positions often hit the header and
        # shape fields rather than the float data
        rng = np.random.default_rng(16)
        layers = [
            nn.Conv2D(rng.normal(size=(2, 1, 3, 3)), np.zeros(2)), nn.ReLU(), nn.MaxPool2(),
            nn.Dense(rng.normal(size=(3, 8)), np.zeros(3)), nn.SoftmaxCE(),
        ]
        path = tmp_path / "fuzz.gdn"
        path.unlink(missing_ok=True)  # a new file: truncating in place can be slow
        nn.save_model(nn.Model((1, 4, 4), 3, layers), path)
        blob = bytearray(path.read_bytes())
        flips = data.draw(st.lists(
            st.tuples(st.integers(0, len(blob) - 1), st.integers(0, 255)), max_size=3
        ))
        for pos, value in flips:
            blob[pos] = value
        cut = data.draw(st.one_of(st.just(len(blob)), st.integers(0, len(blob))))
        path.unlink()
        path.write_bytes(bytes(blob[:cut]))
        try:
            nn.load_model(path)
        except ValueError as exc:
            assert str(path) in str(exc)
