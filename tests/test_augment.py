"""Rotation, blur, rescale, and training-set expansion."""

import math
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gazedir import augment, preprocess
from gazedir.augment import AugmentPolicy
from gazedir.dataset import EyePatches


# the transforms take an (N, h, w) stack; these apply them to one 2-D patch
def rotate(img, degrees):
    return augment.rotate(img[None], degrees)[0]


def gaussian_blur(img, sigma):
    return augment.gaussian_blur(img[None], sigma)[0]


def rescale(img, factor):
    return augment.rescale(img[None], factor)[0]


def scalar_bilinear_resize(img, out_w, out_h):
    """Independent oracle: the half-pixel-center convention, one pixel at a time."""
    h, w = img.shape
    out = np.zeros((out_h, out_w))
    for i in range(out_h):
        for j in range(out_w):
            x = min(max((j + 0.5) * w / out_w - 0.5, 0), w - 1)
            y = min(max((i + 0.5) * h / out_h - 0.5, 0), h - 1)
            x0, y0 = int(np.floor(x)), int(np.floor(y))
            x1, y1 = min(x0 + 1, w - 1), min(y0 + 1, h - 1)
            fx, fy = x - x0, y - y0
            top = img[y0, x0] + (img[y0, x1] - img[y0, x0]) * fx
            bot = img[y1, x0] + (img[y1, x1] - img[y1, x0]) * fx
            out[i, j] = top + (bot - top) * fy
    return out


class TestRotate:
    def test_zero_degrees_is_identity(self):
        img = np.random.default_rng(0).integers(0, 256, size=(9, 11)).astype(np.uint8)
        npt.assert_array_equal(rotate(img, 0.0), img)

    def test_constant_image_any_angle(self):
        img = np.full((8, 8), 42, dtype=np.uint8)
        for deg in (3.0, 45.0, 90.0, -170.0):
            npt.assert_array_equal(rotate(img, deg), img)

    def test_quarter_turn_2x2(self):
        img = np.array([[1.0, 2.0], [3.0, 4.0]])
        npt.assert_allclose(rotate(img, 90.0), [[2.0, 4.0], [1.0, 3.0]])

    def test_dims_preserved(self):
        img = np.random.default_rng(1).integers(0, 256, size=(15, 25)).astype(np.uint8)
        assert rotate(img, 10).shape == img.shape

    def test_float_patch_keeps_dtype(self):
        img = np.random.default_rng(2).uniform(0, 255, size=(6, 6)).astype(np.float32)
        assert rotate(img, 5.0).dtype == np.float32


finite_patches = st.one_of(
    hnp.arrays(np.uint8, hnp.array_shapes(min_dims=2, max_dims=2, max_side=59)),
    hnp.arrays(
        np.float32, hnp.array_shapes(min_dims=2, max_dims=2, max_side=59),
        elements=st.floats(allow_nan=False, allow_infinity=False, width=32),
    ),
)


def unchanged(out, img):
    """Same dtype and values. For finite pixels that is bit for bit, except
    that a -0.0 pixel may come back as +0.0, as the lerp adds a zero tap."""
    return out.dtype == img.dtype and np.array_equal(out, img)


# one row or one column, with float32 values near the top of the range
LINES = [np.arange(7, dtype=np.float32).reshape(shape) * 4.8e37 for shape in ((1, 7), (7, 1))]


class TestIdentityParameters:
    """The general paths return finite pixels unchanged at the identity
    parameters, so they need no identity branch."""

    @settings(max_examples=150, deadline=None)
    @given(img=finite_patches, degrees=st.sampled_from([0.0, -0.0]))
    @example(img=LINES[0], degrees=0.0)
    @example(img=LINES[1], degrees=-0.0)
    def test_rotate_by_zero(self, img, degrees):
        assert unchanged(rotate(img, degrees), img)

    @settings(max_examples=150, deadline=None)
    @given(img=finite_patches)
    @example(img=LINES[0])
    @example(img=LINES[1])
    def test_rescale_by_one(self, img):
        assert unchanged(rescale(img, 1.0), img)


class TestGaussianBlur:
    def test_sigma_zero_is_identity(self):
        img = np.random.default_rng(3).integers(0, 256, size=(7, 9)).astype(np.uint8)
        npt.assert_array_equal(gaussian_blur(img, 0.0), img)

    def test_constant_image_any_sigma(self):
        img = np.full((10, 10), 77, dtype=np.uint8)
        for sigma in (0.5, 1.0, 3.0):
            npt.assert_array_equal(gaussian_blur(img, sigma), img)

    def test_mean_preserved(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            img = rng.integers(0, 256, size=(20, 30)).astype(np.uint8)
            out = gaussian_blur(img, 1.0)
            assert abs(float(img.mean()) - float(out.mean())) < 0.5

    def test_smooths_variance(self):
        rng = np.random.default_rng(5)
        img = rng.integers(0, 256, size=(20, 20)).astype(np.uint8)
        out = gaussian_blur(img, 1.5)
        assert out.astype(float).var() < img.astype(float).var()

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            augment.gaussian_blur(np.zeros((1, 4, 4), dtype=np.uint8), -0.1)


def rescale_up_by_full_resize(img, factor):
    """Reference for factor >= 1: resize the whole patch up to
    round(h*f) x round(w*f), cut its h x w centre, and restore the dtype."""
    h, w = img.shape
    rh = max(int(math.floor(h * factor + 0.5)), h)
    rw = max(int(math.floor(w * factor + 0.5)), w)
    big = preprocess.resize_bilinear(img[None], out_w=rw, out_h=rh)[0]
    y0, x0 = (rh - h) // 2, (rw - w) // 2
    out = big[y0 : y0 + h, x0 : x0 + w]
    if img.dtype == np.uint8:
        return np.clip(np.floor(out + 0.5), 0, 255).astype(np.uint8)
    return out.astype(img.dtype)


class TestRescale:
    @settings(max_examples=200, deadline=None)
    @given(img=finite_patches, factor=st.floats(1.0, 5.0))
    @example(img=LINES[0], factor=1.1)
    @example(img=LINES[1], factor=4.99)
    def test_upscale_samples_the_full_resize_centre(self, img, factor):
        out = rescale(img, factor)
        ref = rescale_up_by_full_resize(img, factor)
        assert out.dtype == ref.dtype and out.tobytes() == ref.tobytes()

    def test_huge_factor_keeps_patch_size(self):
        # the full resize would be 1.5e6 x 2.5e6 pixels
        img = np.random.default_rng(10).integers(0, 256, size=(15, 25)).astype(np.uint8)
        out = rescale(img, 1e5)
        assert out.shape == img.shape and out.dtype == np.uint8

    def test_factor_one_is_identity(self):
        img = np.random.default_rng(6).integers(0, 256, size=(8, 8)).astype(np.uint8)
        npt.assert_array_equal(rescale(img, 1.0), img)

    def test_constant_image_any_factor(self):
        img = np.full((8, 12), 9, dtype=np.uint8)
        for factor in (0.5, 0.9, 1.1, 2.0):
            npt.assert_array_equal(rescale(img, factor), img)

    def test_factor_two_matches_two_step_rule(self):
        rng = np.random.default_rng(7)
        img = rng.uniform(0, 255, size=(4, 4))
        # stated rule: resize up to 8x8, then crop the central 4x4
        expected = scalar_bilinear_resize(img, 8, 8)[2:6, 2:6]
        npt.assert_allclose(rescale(img, 2.0), expected, rtol=1e-5)

    def test_shrink_matches_crop_then_upsize(self):
        rng = np.random.default_rng(8)
        img = rng.uniform(0, 255, size=(10, 10))
        # factor 0.5: central 5x5 crop resized back to 10x10
        expected = scalar_bilinear_resize(img[2:7, 2:7], 10, 10)
        npt.assert_allclose(rescale(img, 0.5), expected, rtol=1e-5)

    def test_dims_always_preserved(self):
        img = np.random.default_rng(9).integers(0, 256, size=(15, 25)).astype(np.uint8)
        for factor in (0.7, 0.9, 1.1, 1.6):
            assert rescale(img, factor).shape == img.shape

    def test_degenerate_factor_rejected(self):
        img = np.zeros((4, 4), dtype=np.uint8)
        with pytest.raises(ValueError):
            rescale(img, 0.0)
        with pytest.raises(ValueError):
            rescale(img, 0.05)  # central crop would be empty


class TestPolicy:
    def test_defaults(self):
        policy = AugmentPolicy()
        assert policy.rotation_degrees == (5.0, -5.0, 10.0, -10.0)
        assert policy.blur_sigmas == (0.5, 1.0)
        assert policy.scale_factors == (0.9, 1.1)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            AugmentPolicy(blur_sigmas=(-1.0,))
        with pytest.raises(ValueError):
            AugmentPolicy(scale_factors=(0.0,))

    @pytest.mark.parametrize("kwargs", [
        {"rotation_degrees": (5.0, float("nan"))},
        {"rotation_degrees": (float("inf"),)},
        {"blur_sigmas": (float("inf"),)},
        {"scale_factors": (float("nan"),)},
    ])
    def test_non_finite_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError, match="finite"):
            AugmentPolicy(**kwargs)


def per_source(policy):
    """Entries expand writes per input patch: the original and its variants."""
    return 1 + len(policy.rotation_degrees) + len(policy.blur_sigmas) + len(policy.scale_factors)


def make_patches(n, split="train", seed=0):
    rng = np.random.default_rng(seed)
    return EyePatches(rng.uniform(0, 255, size=(n, 15, 25)).astype(np.float32),
                      rng.integers(0, 7, size=n), split)


class TestExpand:
    def test_default_policy_count(self):
        out = augment.expand(make_patches(10), AugmentPolicy())
        assert len(out) == len(out.pixels) == len(out.labels) == 90  # 10 * (1 + 4 + 2 + 2)

    def test_empty_policy_is_identity(self):
        patches = make_patches(5)
        out = augment.expand(patches, AugmentPolicy((), (), ()))
        assert out.pixels.dtype == patches.pixels.dtype
        assert out.pixels.tobytes() == patches.pixels.tobytes()
        npt.assert_array_equal(out.labels, patches.labels)
        assert out.split == patches.split

    def test_labels_and_split_preserved(self):
        patches = make_patches(6, seed=1)
        out = augment.expand(patches, AugmentPolicy())
        n = per_source(AugmentPolicy())
        npt.assert_array_equal(out.labels, [patches.labels[i // n] for i in range(len(out))])
        assert out.split == "train"
        assert out.pixels.shape == (len(out), *patches.pixels.shape[1:])

    def test_originals_kept_verbatim(self):
        patches = make_patches(3, seed=2)
        out = augment.expand(patches, AugmentPolicy())
        n = per_source(AugmentPolicy())
        for i, pixels in enumerate(patches.pixels):
            npt.assert_array_equal(out.pixels[i * n], pixels)

    def test_test_split_guarded(self, monkeypatch):
        """The test split is refused before any transform runs on it."""
        calls = []
        for name in ("rotate", "gaussian_blur", "rescale"):
            monkeypatch.setattr(augment, name, lambda stack, param, name=name: calls.append(name))
        with pytest.raises(ValueError, match="test split"):
            augment.expand(make_patches(3, split="test"), AugmentPolicy())
        assert calls == []

    def test_deterministic(self):
        patches = make_patches(4, seed=3)
        a = augment.expand(patches, AugmentPolicy())
        b = augment.expand(patches, AugmentPolicy())
        assert a.pixels.tobytes() == b.pixels.tobytes()
        npt.assert_array_equal(a.labels, b.labels)


# the per-patch transforms and expand body that preceded the stacked kernels,
# kept as the byte-for-byte oracle of expand
# --------------------------------------------------------------------------

def per_patch_rotate(img, degrees):
    h, w = img.shape
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    rad = math.radians(degrees)
    cos_t, sin_t = math.cos(rad), math.sin(rad)
    u = np.arange(w) - cx
    v = (np.arange(h) - cy)[:, None]
    xs = np.clip(cx + u * cos_t - v * sin_t, 0, w - 1)
    ys = np.clip(cy + u * sin_t + v * cos_t, 0, h - 1)
    return augment._restore_dtype(per_patch_sample(img, xs, ys), img)


def per_patch_sample(src, xs, ys):
    h, w = src.shape
    src = src.astype(np.float64, copy=False)
    x0 = np.floor(xs).astype(int)
    y0 = np.floor(ys).astype(int)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx, fy = xs - x0, ys - y0
    top = src[y0, x0] + (src[y0, x1] - src[y0, x0]) * fx
    bottom = src[y1, x0] + (src[y1, x1] - src[y1, x0]) * fx
    return top + (bottom - top) * fy


def per_patch_blur(img, sigma):
    if sigma < 1e-6:
        return img.copy()
    radius = math.ceil(3 * sigma)
    taps = np.exp(-np.arange(-radius, radius + 1) ** 2 / (2 * sigma * sigma))
    taps /= taps.sum()
    out = img.astype(np.float64, copy=False)
    for axis in (1, 0):
        pad = [(0, 0), (0, 0)]
        pad[axis] = (radius, radius)
        padded = np.pad(out, pad, mode="edge")
        acc = np.zeros_like(out)
        for k, tap in enumerate(taps):
            if axis == 1:
                acc += tap * padded[:, k : k + img.shape[1]]
            else:
                acc += tap * padded[k : k + img.shape[0], :]
        out = acc
    return augment._restore_dtype(out, img)


def per_patch_resize(img, out_w, out_h):
    h, w = img.shape
    xs = np.clip((np.arange(out_w) + 0.5) * (w / out_w) - 0.5, 0, w - 1)
    ys = np.clip((np.arange(out_h) + 0.5) * (h / out_h) - 0.5, 0, h - 1)
    return per_patch_sample(img, xs[None, :], ys[:, None]).astype(np.float32)


def per_patch_rescale(img, factor):
    h, w = img.shape
    if factor < 1:
        ch = int(math.floor(h * factor + 0.5))
        cw = int(math.floor(w * factor + 0.5))
        if ch < 1 or cw < 1:
            raise ValueError(f"scale factor {factor} degenerates a {h}x{w} image")
        y0, x0 = (h - ch) // 2, (w - cw) // 2
        out = per_patch_resize(img[y0 : y0 + ch, x0 : x0 + cw], w, h)
    else:
        rh = max(int(math.floor(h * factor + 0.5)), h)
        rw = max(int(math.floor(w * factor + 0.5)), w)
        y0, x0 = (rh - h) // 2, (rw - w) // 2
        xs = np.clip((np.arange(x0, x0 + w) + 0.5) * (w / rw) - 0.5, 0, w - 1)
        ys = np.clip((np.arange(y0, y0 + h) + 0.5) * (h / rh) - 0.5, 0, h - 1)
        out = per_patch_sample(img, xs[None, :], ys[:, None]).astype(np.float32)
    return augment._restore_dtype(out, img)


def per_patch_expand(patches, policy):
    out = []
    for pixels in patches.pixels:
        out.append(pixels)
        out.extend(per_patch_rotate(pixels, deg) for deg in policy.rotation_degrees)
        out.extend(per_patch_blur(pixels, sigma) for sigma in policy.blur_sigmas)
        out.extend(per_patch_rescale(pixels, f) for f in policy.scale_factors)
    labels = np.repeat(patches.labels, per_source(policy))
    return EyePatches(np.array(out).reshape(-1, *patches.pixels.shape[1:]), labels, patches.split)


def assert_same_entries(got, want):
    assert len(got) == len(want)
    npt.assert_array_equal(got.labels, want.labels)
    assert got.split == want.split
    assert got.pixels.dtype == want.pixels.dtype and got.pixels.shape == want.pixels.shape
    assert got.pixels.tobytes() == want.pixels.tobytes()


def random_patches(n, h, w, dtype, seed):
    """n patches of one (h, w, dtype) kind with random labels."""
    rng = np.random.default_rng(seed)
    if dtype == "uint8":
        pixels = rng.integers(0, 256, size=(n, h, w), dtype=np.uint8)
    else:
        pixels = (rng.normal(size=(n, h, w)) * 100).astype(dtype)
    return EyePatches(pixels, rng.integers(0, 7, size=n))


class TestStackedExpand:
    """expand transforms stacks of AUGMENT_CHUNK patches; the result is
    byte-equal to transforming one patch at a time."""

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.sampled_from([1, 31, 32, 33, 65]),
        kind=st.tuples(st.integers(1, 16), st.integers(1, 16),
                       st.sampled_from(["uint8", "float32", "float64"])),
        rotations=st.lists(st.floats(-1e4, 1e4), max_size=2),
        sigmas=st.lists(st.sampled_from([0.0, 0.3, 1.0, 2.5, 7.0]), max_size=2),
        factors=st.lists(st.one_of(st.just(1.0), st.floats(0.5, 4.0)), max_size=2),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=33, kind=(4, 7, "float32"), rotations=[5.0, -170.0], sigmas=[0.0, 2.5],
             factors=[0.5, 1.0], seed=0)
    @example(n=33, kind=(9, 2, "float64"), rotations=[5.0, -170.0], sigmas=[0.0, 2.5],
             factors=[0.5, 1.0], seed=0)
    @example(n=65, kind=(15, 25, "uint8"), rotations=[33.0, 1e6], sigmas=[0.3],
             factors=[1.0, 3.0], seed=1)
    def test_equals_the_per_patch_body(self, n, kind, rotations, sigmas, factors, seed):
        patches = random_patches(n, *kind, seed)
        policy = AugmentPolicy(tuple(rotations), tuple(sigmas), tuple(factors))
        assert_same_entries(augment.expand(patches, policy), per_patch_expand(patches, policy))

    def test_default_policy_on_eye_patch_sizes(self):
        policy = AugmentPolicy()
        for hw in ((15, 25), (42, 50)):
            patches = random_patches(70, *hw, "float32", seed=4)
            assert_same_entries(augment.expand(patches, policy), per_patch_expand(patches, policy))

    def test_huge_sigma_blur_memory_stays_within_the_per_patch_peak(self):
        """sigma 1000 pads a 15x25 patch per pass by 3000 pixels a side in the
        per-patch body; the stacked blur reads the edge for taps past the
        patch, so its peak over 64 patches stays within twice the per-patch
        body's peak on the first patch alone (a lower bound of its peak on
        all 64)."""
        patches = random_patches(64, 15, 25, "float32", seed=5)
        first = EyePatches(patches.pixels[:1], patches.labels[:1])
        policy = AugmentPolicy((), (1000.0,), ())
        outs, peaks = [], []
        for fn, arg in ((per_patch_expand, first), (augment.expand, patches)):
            tracemalloc.start()
            try:
                outs.append(fn(arg, policy))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        oracle, stacked = peaks
        assert stacked <= 2 * oracle, (stacked, oracle)
        head = outs[1]
        assert_same_entries(EyePatches(head.pixels[:2], head.labels[:2]), outs[0])


class TestSingleChannelContract:
    """The transforms take an (N, h, w) stack, so a stack of colour images,
    (N, h, w, 3), must be rejected, not read as N*h single-row images; the
    2-D normalize rejects one colour (h, w, 3) image."""

    @pytest.mark.parametrize("call, message", [
        (lambda img: augment.rotate(img[None], 5.0), "rotate expects a single-channel image"),
        (lambda img: augment.gaussian_blur(img[None], 1.0),
         "gaussian_blur expects a single-channel image"),
        (lambda img: augment.rescale(img[None], 1.1), "rescale expects a single-channel image"),
        (lambda img: augment.rescale(img[None], 0.9), "rescale expects a single-channel image"),
        (preprocess.normalize, "normalize expects a single-channel image"),
    ])
    def test_colour_image_rejected(self, call, message):
        img = np.zeros((6, 8, 3), dtype=np.uint8)
        with pytest.raises(ValueError, match=f"^{message}$"):
            call(img)

    def test_expand_rejects_a_colour_patch(self):
        patches = EyePatches(np.zeros((1, 6, 8, 3), dtype=np.uint8), np.zeros(1, dtype=int))
        with pytest.raises(ValueError, match="^rotate expects a single-channel image$"):
            augment.expand(patches, AugmentPolicy())
