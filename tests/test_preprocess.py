"""Codec, grayscale, resize, eye-box geometry, crop, and normalization."""

import math
import os
import re
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gazedir import augment, preprocess
from gazedir.preprocess import Box


def assert_band(read, whole, top, bottom):
    """A row read returned (band, top, height) with band exactly whole[top:bottom]
    in shape, dtype and bytes, and height the whole image's."""
    band, got_top, height = read
    assert (got_top, height) == (top, len(whole))
    assert band.dtype == np.uint8 and band.shape == whole[top:bottom].shape
    assert band.tobytes() == whole[top:bottom].tobytes()


class TestPnmCodec:
    def test_pgm_round_trip(self, tmp_path):
        img = np.arange(12, dtype=np.uint8).reshape(3, 4)
        path = tmp_path / "img.pgm"
        preprocess.write_pgm(path, img)
        npt.assert_array_equal(preprocess.read_pnm(path), img)

    def test_ppm_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        img = rng.integers(0, 256, size=(5, 7, 3), dtype=np.uint8)
        path = tmp_path / "img.ppm"
        preprocess.write_ppm(path, img)
        npt.assert_array_equal(preprocess.read_pnm(path), img)

    def test_header_comments_and_whitespace(self, tmp_path):
        path = tmp_path / "img.pgm"
        raster = bytes(range(6))
        path.write_bytes(b"P5 # magic\n# a comment line\n 3\t2 # dims\n255\n" + raster)
        img = preprocess.read_pnm(path)
        assert img.shape == (2, 3)
        npt.assert_array_equal(img.ravel(), list(range(6)))

    def test_comment_inside_a_token_ends_it(self, tmp_path):
        # as in Netpbm, '#' starts a comment anywhere in the header, even mid-token
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P5\n640#c\n 480\n255\n" + bytes(640 * 480))
        assert preprocess.read_pnm(path).shape == (480, 640)
        path.write_bytes(b"P#c\n5\n3 2\n255\n" + bytes(range(6)))
        with pytest.raises(ValueError, match=r"unsupported raster format b'P'"):
            preprocess.read_pnm(path)

    @pytest.mark.parametrize("rows", [None, (1, 2)])
    def test_comment_after_maxval_reads_as_its_newline(self, tmp_path, rows):
        # the comment's line end is the one whitespace byte before the raster
        path = tmp_path / "img.pgm"
        raster = bytes([10, 35, 13, 32, 9, 200])  # starts '\n', '#', '\r', ' ', '\t'
        path.write_bytes(b"P5\n3 2\n255#c\n" + raster)
        expected = np.frombuffer(raster, np.uint8).reshape(2, 3)
        if rows is None:
            npt.assert_array_equal(preprocess.read_pnm(path), expected)
        else:
            assert_band(preprocess.read_pnm(path, rows), expected, *rows)

    def test_16bit_maxval_rejected(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
        with pytest.raises(ValueError, match="maxval"):
            preprocess.read_pnm(path)

    def test_low_maxval_rescaled_to_8_bit(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P5\n2 1\n15\n" + bytes([15, 7]))
        npt.assert_array_equal(preprocess.read_pnm(path), [[255, 119]])
        # floor(v * 255 / maxval + 0.5) in exact arithmetic: 127.5 rounds up
        path.write_bytes(b"P6\n2 1\n100\n" + bytes([100, 50, 0, 1, 99, 2]))
        npt.assert_array_equal(
            preprocess.read_pnm(path), [[[255, 128, 0], [3, 252, 5]]]
        )

    def test_sample_above_maxval_rejected(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P5\n2 1\n15\n" + bytes([15, 16]))
        with pytest.raises(ValueError, match=r"img\.pgm: sample above maxval 15"):
            preprocess.read_pnm(path)

    @settings(
        max_examples=300, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_truncated_or_garbled_file(self, tmp_path, data):
        # small rasters, so random positions often hit the header
        valid = data.draw(st.sampled_from([
            b"P5\n3 2\n15\n" + bytes([0, 1, 7, 8, 14, 15]),
            b"P6 # rgb\n2 1\n255\n" + bytes([0, 64, 128, 192, 255, 9]),
        ]))
        blob = bytearray(valid)
        flips = data.draw(st.lists(
            st.tuples(st.integers(0, len(blob) - 1), st.integers(0, 255)), max_size=3
        ))
        for pos, value in flips:
            blob[pos] = value
        cut = data.draw(st.one_of(st.just(len(blob)), st.integers(0, len(blob))))
        path = tmp_path / "fuzz.pnm"
        path.unlink(missing_ok=True)  # a new file: truncating in place can be slow
        path.write_bytes(bytes(blob[:cut]))
        try:
            img = preprocess.read_pnm(path)
        except ValueError as exc:
            assert str(path) in str(exc)
            return
        assert img.dtype == np.uint8 and img.ndim in (2, 3)

    def test_truncated_raster_rejected(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + bytes(3))
        with pytest.raises(ValueError, match="truncated"):
            preprocess.read_pnm(path)

    def test_unknown_magic_rejected(self, tmp_path):
        path = tmp_path / "img.pbm"
        path.write_bytes(b"P1\n2 2\n0 1 1 0\n")
        with pytest.raises(ValueError, match="unsupported"):
            preprocess.read_pnm(path)

    def test_missing_file_is_io_error(self, tmp_path):
        with pytest.raises(OSError):
            preprocess.read_pnm(tmp_path / "absent.pgm")

    @pytest.mark.parametrize("write, img", [
        (preprocess.write_pgm, np.full((2, 2), 300, np.int64)),  # would wrap to 44
        (preprocess.write_ppm, np.full((2, 2, 3), 255.7)),  # would truncate to 255
        (preprocess.write_pgm, np.zeros((0, 3), np.uint8)),  # read_pnm: bad dimensions
    ])
    def test_writer_refuses_what_would_not_read_back(self, tmp_path, write, img):
        path = tmp_path / "img.pnm"
        with pytest.raises(ValueError, match="non-empty uint8 image"):
            write(path, img)
        assert not path.exists()


def pnm_bytes(img: np.ndarray, maxval: int = 255, head: bytes = b"") -> bytes:
    """A P5 (2-D img) or P6 (3-D img) file; `head` goes before the magic."""
    magic = b"P5" if img.ndim == 2 else b"P6"
    size = f"{img.shape[1]} {img.shape[0]}\n{maxval}\n".encode("ascii")
    return head + magic + b"\n" + size + img.astype(np.uint8).tobytes()


# 30 rows of 40 pixels: the raster runs on past the first read
FRAMES = {"P5": (np.arange(1200) % 251).astype(np.uint8).reshape(30, 40),
          "P6": (np.arange(3600) % 251).astype(np.uint8).reshape(30, 40, 3)}


def _pipe_holding(blob: bytes) -> int:
    """The read end of a pipe holding blob (which must fit the pipe buffer),
    its write end closed."""
    read_end, write_end = os.pipe()
    os.write(write_end, blob)
    os.close(write_end)
    return read_end


class TestPnmReadSteps:
    """The header comes from a first small read and the raster is read into
    the output array, so the header may span reads and the file may shrink."""

    @pytest.mark.parametrize("magic", FRAMES)
    def test_header_longer_than_first_read(self, tmp_path, magic):
        path = tmp_path / "img.pnm"
        comment = b"# " + b"x" * (5 * preprocess._HEADER_READ) + b"\n"
        path.write_bytes(pnm_bytes(FRAMES[magic], head=comment))
        npt.assert_array_equal(preprocess.read_pnm(path), FRAMES[magic])

    @pytest.mark.parametrize("magic", FRAMES)
    def test_token_straddling_first_read(self, tmp_path, magic):
        # leading whitespace moves every header byte across the read boundary
        path = tmp_path / "img.pnm"
        for pad in range(preprocess._HEADER_READ - 16, preprocess._HEADER_READ + 1):
            path.write_bytes(pnm_bytes(FRAMES[magic], head=b" " * pad))
            npt.assert_array_equal(preprocess.read_pnm(path), FRAMES[magic])
            assert_band(preprocess.read_pnm(path, (1, 2)), FRAMES[magic], 1, 2)

    @pytest.mark.parametrize("magic", FRAMES)
    def test_comment_inside_a_token_straddling_first_read(self, tmp_path, magic):
        # the '#' in "40#c" and its line end land on either side of the read boundary
        path = tmp_path / "img.pnm"
        body = pnm_bytes(FRAMES[magic]).replace(b"\n40 30\n", b"\n40#c\n30\n", 1)
        for pad in range(preprocess._HEADER_READ - 16, preprocess._HEADER_READ + 1):
            path.write_bytes(b" " * pad + body)
            npt.assert_array_equal(preprocess.read_pnm(path), FRAMES[magic])
            assert_band(preprocess.read_pnm(path, (1, 2)), FRAMES[magic], 1, 2)

    @pytest.mark.parametrize("rows", [None, (29, 30)])
    @pytest.mark.parametrize("magic", FRAMES)
    def test_file_shrinking_after_size_check(self, tmp_path, monkeypatch, magic, rows):
        path = tmp_path / "img.pnm"
        path.write_bytes(pnm_bytes(FRAMES[magic]))
        fstat = os.fstat

        def fstat_then_shrink(fd):
            stat = fstat(fd)
            os.truncate(path, stat.st_size - 1)
            return stat

        monkeypatch.setattr(preprocess.os, "fstat", fstat_then_shrink)
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: raster truncated$"):
            preprocess.read_pnm(path, rows)

    @pytest.mark.parametrize("cut", [0, 1])
    @pytest.mark.parametrize("magic", FRAMES)
    def test_pipe_is_read_whole(self, magic, cut):
        blob = pnm_bytes(FRAMES[magic])
        read_end, write_end = os.pipe()
        os.write(write_end, blob[: len(blob) - cut])  # fits the pipe buffer
        os.close(write_end)
        try:
            if cut:
                with pytest.raises(ValueError, match=r": raster truncated$"):
                    preprocess.read_pnm(f"/dev/fd/{read_end}", (3, 5))
            else:
                band = preprocess.read_pnm(f"/dev/fd/{read_end}", (3, 5))
                assert_band(band, FRAMES[magic], 3, 5)
        finally:
            os.close(read_end)

    @pytest.mark.parametrize("source", ["file", "pipe"])
    @pytest.mark.parametrize("magic", FRAMES)
    def test_row_read_checks_samples_outside_its_rows(self, tmp_path, magic, source):
        # maxval < 255 is read whole, so a bad sample in the last row fails a read of rows 0..1
        img = FRAMES[magic] % 16
        img[-1, -1] = 16
        path = tmp_path / "img.pnm"
        path.write_bytes(pnm_bytes(img, 15))
        read_end = _pipe_holding(path.read_bytes())
        try:
            with pytest.raises(ValueError, match=r": sample above maxval 15$"):
                preprocess.read_pnm(path if source == "file" else f"/dev/fd/{read_end}", (0, 2))
        finally:
            os.close(read_end)

    @pytest.mark.parametrize("maxval", [255, 15])
    @pytest.mark.parametrize("magic", FRAMES)
    def test_row_read_from_a_pipe_consumes_it(self, tmp_path, magic, maxval):
        path = tmp_path / "img.pnm"
        path.write_bytes(pnm_bytes(FRAMES[magic] // (256 // (maxval + 1)), maxval))
        read_end = _pipe_holding(path.read_bytes())
        try:
            band = preprocess.read_pnm(f"/dev/fd/{read_end}", (3, 5))
            assert os.read(read_end, 1) == b""  # rows 5.. were read through too
        finally:
            os.close(read_end)
        assert_band(band, preprocess.read_pnm(path), 3, 5)

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), channels=st.sampled_from([1, 3]),
           maxval=st.sampled_from([255, 1, 15, 200]))
    def test_rows_read_equals_full_read_inside_them(self, tmp_path, data, channels, maxval):
        h, w = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 12))
        shape = (h, w) if channels == 1 else (h, w, 3)
        img = data.draw(hnp.arrays(np.uint8, shape, elements=st.integers(0, maxval)))
        rows = data.draw(st.tuples(st.integers(-3, h + 3), st.integers(-3, h + 3)))
        path = tmp_path / "img.pnm"
        path.unlink(missing_ok=True)
        path.write_bytes(pnm_bytes(img, maxval))
        top, bottom = (min(max(y, 0), h) for y in rows)
        assert_band(preprocess.read_pnm(path, rows), preprocess.read_pnm(path),
                    top, max(top, bottom))


def _bytes_read() -> int:
    """This process's read() byte count so far (rchar of /proc/self/io)."""
    with open("/proc/self/io") as f:
        return int(next(line for line in f if line.startswith("rchar:")).split()[1])


@pytest.mark.skipif(not os.path.exists("/proc/self/io"), reason="needs /proc/self/io")
def test_row_read_reads_only_its_rows(tmp_path):
    path = tmp_path / "vga.ppm"
    preprocess.write_ppm(path, np.zeros((480, 640, 3), np.uint8))
    header = len(b"P6\n640 480\n255\n")
    bound = header + preprocess._HEADER_READ + 22 * 640 * 3 + 4096  # 4 KiB of slack

    def volume(rows):
        before = _bytes_read()
        preprocess.read_pnm(path, rows)
        return _bytes_read() - before

    assert volume((200, 222)) < bound
    assert volume(None) > bound


def test_row_read_allocates_only_its_band(tmp_path):
    path = tmp_path / "vga.ppm"
    preprocess.write_ppm(path, np.zeros((480, 640, 3), np.uint8))
    band = 22 * 640 * 3  # 42,240 bytes; a whole frame is 921,600
    tracemalloc.start()
    try:
        preprocess.read_pnm(path, (200, 222))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert band <= peak < 48 * 1024


class TestToGrayscale:
    def test_white_and_black(self):
        img = np.zeros((1, 1, 2, 3), dtype=np.uint8)
        img[0, 0, 0] = (255, 255, 255)
        gray = preprocess.to_grayscale(img)
        assert gray[0, 0, 0] == 255
        assert gray[0, 0, 1] == 0

    def test_pure_red(self):
        img = np.zeros((1, 1, 1, 3), dtype=np.uint8)
        img[0, 0, 0] = (255, 0, 0)
        assert preprocess.to_grayscale(img)[0, 0, 0] == 76  # round(0.299*255)

    def test_single_channel_passthrough(self):
        img = np.arange(6, dtype=np.uint8).reshape(2, 3)
        npt.assert_array_equal(preprocess.to_grayscale(img), img)

    def test_output_range(self):
        rng = np.random.default_rng(1)
        img = rng.integers(0, 256, size=(2, 8, 9, 3), dtype=np.uint8)
        gray = preprocess.to_grayscale(img)
        assert gray.shape == (2, 8, 9) and gray.dtype == np.uint8
        assert gray.min() >= 0 and gray.max() <= 255

    def test_bad_channel_count_rejected(self):
        """Colour is an (n, h, w, 3) stack: a 4-channel stack is refused, and
        so is any 3-D input, which is a grey stack or one colour image and
        must not be told apart by its last axis."""
        for shape in ((1, 2, 2, 4), (2, 2, 3), (2, 2, 4), (1, 1, 2, 2, 3)):
            with pytest.raises(ValueError, match=re.escape(f"unsupported channel layout for shape {shape}")):
                preprocess.to_grayscale(np.zeros(shape, dtype=np.uint8))

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(1, 33), h=st.integers(1, 9), w=st.integers(1, 9), seed=st.integers(0, 2**32 - 1))
    def test_stack_equals_per_image(self, n, h, w, seed):
        rgb = np.random.default_rng(seed).integers(0, 256, size=(n, h, w, 3), dtype=np.uint8)
        gray = preprocess.to_grayscale(rgb)
        assert gray.tobytes() == b"".join(preprocess.to_grayscale(img[None]).tobytes() for img in rgb)


class TestResizeBilinear:
    def test_identity(self):
        img = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        npt.assert_array_equal(preprocess.resize_bilinear(img, 2, 2), img)

    def test_center_sample(self):
        img = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        out = preprocess.resize_bilinear(img, 1, 1)
        npt.assert_allclose(out, [[[2.5]]])  # sample lands at the exact center

    def test_constant_image_any_size(self):
        img = np.full((2, 3, 5), 77, dtype=np.uint8)
        for w, h in ((1, 1), (7, 2), (10, 10)):
            out = preprocess.resize_bilinear(img, w, h)
            npt.assert_array_equal(out, np.full((2, h, w), 77.0, dtype=np.float32))

    def test_up_down_identity_on_constant(self):
        img = np.full((1, 4, 6), 13, dtype=np.uint8)
        up = preprocess.resize_bilinear(img, 12, 8)
        back = preprocess.resize_bilinear(up, 6, 4)
        npt.assert_array_equal(back, img.astype(np.float32))

    def test_empty_target_rejected(self):
        with pytest.raises(ValueError):
            preprocess.resize_bilinear(np.zeros((1, 2, 2)), 0, 1)

    def test_three_channel_rejected(self):
        img = np.stack([np.full((1, 2, 2), v, dtype=np.uint8) for v in (10, 20, 30)], axis=-1)
        with pytest.raises(ValueError, match=r"single-channel image, got shape \(1, 2, 2, 3\)"):
            preprocess.resize_bilinear(img, 4, 4)

    def test_single_image_rejected(self):
        with pytest.raises(ValueError, match=r"single-channel image, got shape \(2, 2\)"):
            preprocess.resize_bilinear(np.zeros((2, 2)), 4, 4)


def reference_resize_bilinear(img, out_w, out_h):
    """The two-tap-per-row resize that preceded preprocess.bilinear_sample."""
    h, w = img.shape
    src = img.astype(np.float64, copy=False)
    xs = np.clip((np.arange(out_w) + 0.5) * (w / out_w) - 0.5, 0, w - 1)
    ys = np.clip((np.arange(out_h) + 0.5) * (h / out_h) - 0.5, 0, h - 1)
    x0 = np.floor(xs).astype(int)
    y0 = np.floor(ys).astype(int)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = xs - x0
    fy = (ys - y0)[:, None]
    v00 = src[y0[:, None], x0[None, :]]
    v01 = src[y0[:, None], x1[None, :]]
    v10 = src[y1[:, None], x0[None, :]]
    v11 = src[y1[:, None], x1[None, :]]
    top = v00 + (v01 - v00) * fx
    bottom = v10 + (v11 - v10) * fx
    return (top + (bottom - top) * fy).astype(np.float32)


def reference_rotate(img, degrees):
    """The inverse-mapped rotation that preceded preprocess.bilinear_sample."""
    if degrees == 0:
        return img.copy()
    h, w = img.shape
    src = img.astype(np.float64, copy=False)
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    rad = math.radians(degrees)
    cos_t, sin_t = math.cos(rad), math.sin(rad)
    u = np.arange(w) - cx
    v = (np.arange(h) - cy)[:, None]
    xs = np.clip(cx + u * cos_t - v * sin_t, 0, w - 1)
    ys = np.clip(cy + u * sin_t + v * cos_t, 0, h - 1)
    x0 = np.floor(xs).astype(int)
    y0 = np.floor(ys).astype(int)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = xs - x0
    fy = ys - y0
    top = src[y0, x0] + (src[y0, x1] - src[y0, x0]) * fx
    bottom = src[y1, x0] + (src[y1, x1] - src[y1, x0]) * fx
    return augment._restore_dtype(top + (bottom - top) * fy, img)


def reference_fancy_index_sample(src, xs, ys):
    """The broadcast fancy-index gather bilinear_sample used before its
    flat-index np.take."""
    h, w = src.shape[-2:]
    src = src.astype(np.float64, copy=False)
    x0 = np.floor(xs).astype(int)
    y0 = np.floor(ys).astype(int)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = xs - x0
    fy = ys - y0
    v00 = src[..., y0, x0]
    v10 = src[..., y1, x0]
    top = v00 + (src[..., y0, x1] - v00) * fx
    bottom = v10 + (src[..., y1, x1] - v10) * fx
    return top + (bottom - top) * fy


def random_image(seed, h, w, dtype):
    rng = np.random.default_rng(seed)
    if dtype == np.uint8:
        return rng.integers(0, 256, size=(h, w), dtype=np.uint8)
    return (rng.normal(size=(h, w)) * 100).astype(dtype)


class TestBilinearSampler:
    """resize_bilinear and augment.rotate share one sampler; both stay
    byte-equal to the implementations that preceded it."""

    @settings(max_examples=300, deadline=None)
    @given(
        h=st.integers(1, 40), w=st.integers(1, 40),
        out_h=st.integers(1, 60), out_w=st.integers(1, 60),
        dtype=st.sampled_from([np.uint8, np.float32, np.float64]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_resize_matches_reference(self, h, w, out_h, out_w, dtype, seed):
        img = random_image(seed, h, w, dtype)
        out = preprocess.resize_bilinear(img[None], out_w, out_h)[0]
        ref = reference_resize_bilinear(img, out_w, out_h)
        assert out.dtype == ref.dtype and out.tobytes() == ref.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(
        h=st.integers(1, 40), w=st.integers(1, 40),
        degrees=st.floats(allow_nan=False, allow_infinity=False),
        dtype=st.sampled_from([np.uint8, np.float32, np.float64]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rotate_matches_reference(self, h, w, degrees, dtype, seed):
        img = random_image(seed, h, w, dtype)
        out = augment.rotate(img[None], degrees)[0]
        ref = reference_rotate(img, degrees)
        assert out.dtype == ref.dtype and out.tobytes() == ref.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.sampled_from([1, 2, 32]), h=st.integers(1, 30), w=st.integers(1, 30),
        out_h=st.integers(1, 40), out_w=st.integers(1, 40),
        field=st.sampled_from(["resize", "rotation"]),
        degrees=st.floats(-360, 360, allow_nan=False),
        dtype=st.sampled_from([np.uint8, np.float32, np.float64]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_stack_equals_per_image_calls(self, n, h, w, out_h, out_w, field, degrees, dtype, seed):
        """The flat-index gather on an (n, h, w) stack equals n 2-D calls and
        the broadcast fancy-index gather it replaced, byte for byte."""
        stack = np.stack([random_image(seed + i, h, w, dtype) for i in range(n)])
        if field == "resize":  # separable grid: (1, out_w) and (out_h, 1)
            xs = preprocess.resize_grid(w, out_w)[None, :]
            ys = preprocess.resize_grid(h, out_h)[:, None]
        else:  # a dense (h, w) field of rotated coordinates, as augment.rotate makes
            rad = math.radians(degrees)
            u, v = np.arange(w) - (w - 1) / 2, (np.arange(h) - (h - 1) / 2)[:, None]
            xs = np.clip((w - 1) / 2 + u * math.cos(rad) - v * math.sin(rad), 0, w - 1)
            ys = np.clip((h - 1) / 2 + u * math.sin(rad) + v * math.cos(rad), 0, h - 1)
        out = preprocess.bilinear_sample(stack, xs, ys)
        per_image = np.stack([preprocess.bilinear_sample(img, xs, ys) for img in stack])
        assert out.tobytes() == per_image.tobytes()
        assert out.tobytes() == reference_fancy_index_sample(stack, xs, ys).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.sampled_from([1, 2, 32]), h=st.integers(1, 30), w=st.integers(1, 30),
        out_h=st.integers(1, 40), out_w=st.integers(1, 40),
        dtype=st.sampled_from([np.uint8, np.float32, np.float64]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_resize_stack_equals_per_image(self, n, h, w, out_h, out_w, dtype, seed):
        images = [random_image(seed + i, h, w, dtype) for i in range(n)]
        out = preprocess.resize_bilinear(np.stack(images), out_w, out_h)
        assert out.shape == (n, out_h, out_w) and out.dtype == np.float32
        assert out.tobytes() == b"".join(
            reference_resize_bilinear(img, out_w, out_h).tobytes() for img in images)


class TestGeometricEyeRois:
    def test_unit_face(self):
        left, right = preprocess.geometric_eye_rois(Box(0, 0, 100, 100))
        assert left == Box(12, 22, 32, 26)
        assert right == Box(56, 22, 32, 26)

    def test_boxes_never_overlap(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            face = Box(int(rng.integers(-50, 50)), int(rng.integers(-50, 50)),
                       int(rng.integers(10, 400)), int(rng.integers(10, 400)))
            left, right = preprocess.geometric_eye_rois(face)
            assert left.x + left.w <= right.x

    def test_translation_equivariance(self):
        face = Box(10, 20, 160, 120)
        left, right = preprocess.geometric_eye_rois(face)
        for dx, dy in ((5, -3), (-17, 40)):
            shifted = Box(face.x + dx, face.y + dy, face.w, face.h)
            l2, r2 = preprocess.geometric_eye_rois(shifted)
            assert (l2.x - left.x, l2.y - left.y) == (dx, dy)
            assert (r2.x - right.x, r2.y - right.y) == (dx, dy)
            assert (l2.w, l2.h) == (left.w, left.h)

    def test_scale_equivariance(self):
        left1, _ = preprocess.geometric_eye_rois(Box(0, 0, 100, 100))
        left2, _ = preprocess.geometric_eye_rois(Box(0, 0, 200, 200))
        assert (left2.x, left2.y, left2.w, left2.h) == (
            2 * left1.x, 2 * left1.y, 2 * left1.w, 2 * left1.h
        )

    def test_degenerate_face_rejected(self):
        with pytest.raises(ValueError):
            preprocess.geometric_eye_rois(Box(0, 0, 0, 10))


class TestLandmarkEyeCrop:
    def test_horizontal_corners(self):
        box = preprocess.landmark_eye_crop((50, 40), (30, 40))
        assert box == Box(25, 31, 30, 18)

    def test_scale_equivariance(self):
        small = preprocess.landmark_eye_crop((50, 40), (30, 40))
        large = preprocess.landmark_eye_crop((70, 40), (30, 40))  # d doubles
        assert (large.w, large.h) == (2 * small.w, 2 * small.h)

    def test_axis_aligned_under_vertical_offset(self):
        box = preprocess.landmark_eye_crop((40, 50), (40, 30))
        assert isinstance(box, Box)  # tilted corners still yield an upright box
        assert box.w == 30 and box.h == 18

    def test_coincident_corners_rejected(self):
        with pytest.raises(ValueError):
            preprocess.landmark_eye_crop((5.0, 5.0), (5.0, 5.0))


class TestCrop:
    def test_full_image(self):
        img = np.arange(16, dtype=np.uint8).reshape(4, 4)
        npt.assert_array_equal(preprocess.crop(img, Box(0, 0, 4, 4)), img)

    def test_clamped_to_bottom_right(self):
        img = np.arange(16, dtype=np.uint8).reshape(4, 4)
        out = preprocess.crop(img, Box(2, 2, 4, 4))
        npt.assert_array_equal(out, img[2:, 2:])

    def test_clamped_negative_origin(self):
        img = np.arange(16, dtype=np.uint8).reshape(4, 4)
        out = preprocess.crop(img, Box(-2, -2, 4, 4))
        npt.assert_array_equal(out, img[:2, :2])

    def test_fully_outside_rejected(self):
        img = np.zeros((4, 4), dtype=np.uint8)
        with pytest.raises(ValueError):
            preprocess.crop(img, Box(10, 10, 2, 2))

    @pytest.mark.parametrize("box", [Box(-2, -3, 4, 5), Box(1, 2, 2, 3), Box(3, 4, 9, 9)])
    def test_band_crops_as_the_whole_image(self, box):
        img = np.arange(24, dtype=np.uint8).reshape(6, 4)
        top, bottom = max(box.y, 0), min(box.y + box.h, 6)
        npt.assert_array_equal(preprocess.crop(img[top:bottom], box, top, 6),
                               preprocess.crop(img, box))

    @pytest.mark.parametrize("box, message", [
        (Box(0, 7, 2, 2), r"lies outside the 4x6 image"),  # judged against the whole image
        (Box(0, 1, 2, 2), r"spans rows outside the band 2:4"),
        (Box(0, 3, 2, 2), r"spans rows outside the band 2:4"),
    ])
    def test_band_errors(self, box, message):
        img = np.zeros((6, 4), dtype=np.uint8)
        with pytest.raises(ValueError, match=rf"^crop box {re.escape(str(box))} {message}$"):
            preprocess.crop(img[2:4], box, 2, 6)

    @pytest.mark.parametrize("box", [Box(1, 1, 0, 2), Box(1, 1, 2, 0), Box(1, 1, -1, 2)])
    def test_empty_box_rejected(self, box):
        img = np.zeros((4, 4), dtype=np.uint8)
        with pytest.raises(ValueError, match=rf"^empty crop box {re.escape(str(box))}$"):
            preprocess.crop(img, box)


class TestNormalize:
    def test_extremes_and_midpoint(self):
        img = np.array([[255, 0, 128]], dtype=np.uint8)
        t = preprocess.normalize(img)
        assert t.shape == (1, 1, 3)
        npt.assert_allclose(t[0, 0], [0.5, -0.5, 128 / 255 - 0.5], atol=1e-7)

    def test_range_invariant(self):
        rng = np.random.default_rng(3)
        img = rng.integers(0, 256, size=(10, 12), dtype=np.uint8)
        t = preprocess.normalize(img)
        assert t.dtype == np.float32
        assert t.min() >= -0.5 and t.max() <= 0.5

    def test_multi_channel_rejected(self):
        with pytest.raises(ValueError):
            preprocess.normalize(np.zeros((2, 2, 3), dtype=np.uint8))
