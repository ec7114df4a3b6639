"""Rotation, blur, rescale, and training-set expansion."""

import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gazedir import augment, preprocess
from gazedir.augment import AugmentPolicy
from gazedir.dataset import EyePatch


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
        npt.assert_array_equal(augment.rotate(img, 0.0), img)

    def test_constant_image_any_angle(self):
        img = np.full((8, 8), 42, dtype=np.uint8)
        for deg in (3.0, 45.0, 90.0, -170.0):
            npt.assert_array_equal(augment.rotate(img, deg), img)

    def test_quarter_turn_2x2(self):
        img = np.array([[1.0, 2.0], [3.0, 4.0]])
        npt.assert_allclose(augment.rotate(img, 90.0), [[2.0, 4.0], [1.0, 3.0]])

    def test_dims_preserved(self):
        img = np.random.default_rng(1).integers(0, 256, size=(15, 25)).astype(np.uint8)
        assert augment.rotate(img, 10).shape == img.shape

    def test_float_patch_keeps_dtype(self):
        img = np.random.default_rng(2).uniform(0, 255, size=(6, 6)).astype(np.float32)
        assert augment.rotate(img, 5.0).dtype == np.float32


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
        assert unchanged(augment.rotate(img, degrees), img)

    @settings(max_examples=150, deadline=None)
    @given(img=finite_patches)
    @example(img=LINES[0])
    @example(img=LINES[1])
    def test_rescale_by_one(self, img):
        assert unchanged(augment.rescale(img, 1.0), img)


class TestGaussianBlur:
    def test_sigma_zero_is_identity(self):
        img = np.random.default_rng(3).integers(0, 256, size=(7, 9)).astype(np.uint8)
        npt.assert_array_equal(augment.gaussian_blur(img, 0.0), img)

    def test_constant_image_any_sigma(self):
        img = np.full((10, 10), 77, dtype=np.uint8)
        for sigma in (0.5, 1.0, 3.0):
            npt.assert_array_equal(augment.gaussian_blur(img, sigma), img)

    def test_mean_preserved(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            img = rng.integers(0, 256, size=(20, 30)).astype(np.uint8)
            out = augment.gaussian_blur(img, 1.0)
            assert abs(float(img.mean()) - float(out.mean())) < 0.5

    def test_smooths_variance(self):
        rng = np.random.default_rng(5)
        img = rng.integers(0, 256, size=(20, 20)).astype(np.uint8)
        out = augment.gaussian_blur(img, 1.5)
        assert out.astype(float).var() < img.astype(float).var()

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            augment.gaussian_blur(np.zeros((4, 4), dtype=np.uint8), -0.1)


def rescale_up_by_full_resize(img, factor):
    """Reference for factor >= 1: resize the whole patch up to
    round(h*f) x round(w*f), cut its h x w centre, and restore the dtype."""
    h, w = img.shape
    rh = max(int(math.floor(h * factor + 0.5)), h)
    rw = max(int(math.floor(w * factor + 0.5)), w)
    big = preprocess.resize_bilinear(img, out_w=rw, out_h=rh)
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
        out = augment.rescale(img, factor)
        ref = rescale_up_by_full_resize(img, factor)
        assert out.dtype == ref.dtype and out.tobytes() == ref.tobytes()

    def test_huge_factor_keeps_patch_size(self):
        # the full resize would be 1.5e6 x 2.5e6 pixels
        img = np.random.default_rng(10).integers(0, 256, size=(15, 25)).astype(np.uint8)
        out = augment.rescale(img, 1e5)
        assert out.shape == img.shape and out.dtype == np.uint8

    def test_factor_one_is_identity(self):
        img = np.random.default_rng(6).integers(0, 256, size=(8, 8)).astype(np.uint8)
        npt.assert_array_equal(augment.rescale(img, 1.0), img)

    def test_constant_image_any_factor(self):
        img = np.full((8, 12), 9, dtype=np.uint8)
        for factor in (0.5, 0.9, 1.1, 2.0):
            npt.assert_array_equal(augment.rescale(img, factor), img)

    def test_factor_two_matches_two_step_rule(self):
        rng = np.random.default_rng(7)
        img = rng.uniform(0, 255, size=(4, 4))
        # stated rule: resize up to 8x8, then crop the central 4x4
        expected = scalar_bilinear_resize(img, 8, 8)[2:6, 2:6]
        npt.assert_allclose(augment.rescale(img, 2.0), expected, rtol=1e-5)

    def test_shrink_matches_crop_then_upsize(self):
        rng = np.random.default_rng(8)
        img = rng.uniform(0, 255, size=(10, 10))
        # factor 0.5: central 5x5 crop resized back to 10x10
        expected = scalar_bilinear_resize(img[2:7, 2:7], 10, 10)
        npt.assert_allclose(augment.rescale(img, 0.5), expected, rtol=1e-5)

    def test_dims_always_preserved(self):
        img = np.random.default_rng(9).integers(0, 256, size=(15, 25)).astype(np.uint8)
        for factor in (0.7, 0.9, 1.1, 1.6):
            assert augment.rescale(img, factor).shape == img.shape

    def test_degenerate_factor_rejected(self):
        img = np.zeros((4, 4), dtype=np.uint8)
        with pytest.raises(ValueError):
            augment.rescale(img, 0.0)
        with pytest.raises(ValueError):
            augment.rescale(img, 0.05)  # central crop would be empty


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
    return [
        EyePatch(rng.uniform(0, 255, size=(15, 25)).astype(np.float32), int(rng.integers(0, 7)), split)
        for _ in range(n)
    ]


class TestExpand:
    def test_default_policy_count(self):
        out = augment.expand(make_patches(10), AugmentPolicy())
        assert len(out) == 90  # 10 * (1 + 4 + 2 + 2)

    def test_empty_policy_is_identity(self):
        patches = make_patches(5)
        out = augment.expand(patches, AugmentPolicy((), (), ()))
        assert out == patches

    def test_labels_and_split_preserved(self):
        patches = make_patches(6, seed=1)
        out = augment.expand(patches, AugmentPolicy())
        n = per_source(AugmentPolicy())
        for i, patch in enumerate(out):
            source = patches[i // n]
            assert patch.label == source.label
            assert patch.split == "train"
            assert patch.pixels.shape == source.pixels.shape

    def test_originals_kept_verbatim(self):
        patches = make_patches(3, seed=2)
        out = augment.expand(patches, AugmentPolicy())
        n = per_source(AugmentPolicy())
        for i, patch in enumerate(patches):
            npt.assert_array_equal(out[i * n].pixels, patch.pixels)

    def test_test_split_guarded(self):
        patches = make_patches(2) + make_patches(1, split="test")
        with pytest.raises(ValueError, match="test split"):
            augment.expand(patches, AugmentPolicy())

    def test_deterministic(self):
        patches = make_patches(4, seed=3)
        a = augment.expand(patches, AugmentPolicy())
        b = augment.expand(patches, AugmentPolicy())
        assert all(np.array_equal(x.pixels, y.pixels) for x, y in zip(a, b))
