"""Manifest parsing, splits, label mapping, and eye-sample materialization."""

import dataclasses
import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gazedir import cli, dataset, preprocess, synth
from gazedir.config import ConfigError, RunConfig
from gazedir.dataset import EacClass, ManifestError, Sample, ThreeClass
from gazedir.preprocess import Box

HEADER = ",".join(dataset.MANIFEST_COLUMNS)
TEXT = st.text(st.characters(exclude_categories=()))  # surrogates too


def write_manifest_text(tmp_path, body, name="m.csv"):
    path = tmp_path / name
    path.write_text(body, encoding="utf-8")
    return path


class TestEnums:
    def test_eac_order_matches_reporting_columns(self):
        assert [c.name for c in EacClass] == ["VD", "VR", "VC", "AR", "AC", "ID", "K"]
        assert [int(c) for c in EacClass] == list(range(7))

    def test_three_class_values(self):
        assert [(c.name, int(c)) for c in ThreeClass] == [
            ("LEFT", 0), ("CENTER", 1), ("RIGHT", 2)
        ]


class TestLoadManifest:
    def test_basic_row(self, tmp_path):
        path = write_manifest_text(
            tmp_path,
            HEADER + "\nimg.pgm,AR,1,2,100,120,10,20,30,20,60,20,80,20,s01\n",
        )
        samples = dataset.load_manifest(path)
        assert len(samples) == 1
        s = samples[0]
        assert s.image_path == "img.pgm"
        assert s.eac == EacClass.AR
        assert s.face == Box(1, 2, 100, 120)
        assert s.landmarks.left_outer == (10.0, 20.0)
        assert s.landmarks.right_outer == (80.0, 20.0)
        assert s.subject_id == "s01"

    def test_empty_landmarks_and_subject(self, tmp_path):
        path = write_manifest_text(
            tmp_path, HEADER + "\nimg.pgm,K,0,0,10,10,,,,,,,,,\n"
        )
        s = dataset.load_manifest(path)[0]
        assert s.landmarks is None and s.subject_id is None

    def test_empty_data_section_is_valid(self, tmp_path):
        path = write_manifest_text(tmp_path, HEADER + "\n")
        assert dataset.load_manifest(path) == []

    def test_comments_and_crlf(self, tmp_path):
        body = (
            "# a comment\r\n" + HEADER + "\r\n"
            "# another\r\nimg.pgm,VD,0,0,10,10,,,,,,,,,\r\n"
        )
        path = write_manifest_text(tmp_path, body)
        assert len(dataset.load_manifest(path)) == 1

    def test_unknown_label_names_row(self, tmp_path):
        path = write_manifest_text(
            tmp_path,
            HEADER + "\nok.pgm,VD,0,0,10,10,,,,,,,,,\nbad.pgm,XX,0,0,10,10,,,,,,,,,\n",
        )
        with pytest.raises(ManifestError, match="line 3"):
            dataset.load_manifest(path)

    def test_partial_landmarks_rejected(self, tmp_path):
        path = write_manifest_text(
            tmp_path, HEADER + "\nimg.pgm,VD,0,0,10,10,1,2,,,,,,,\n"
        )
        with pytest.raises(ManifestError, match="landmark"):
            dataset.load_manifest(path)

    def test_bad_header_rejected(self, tmp_path):
        path = write_manifest_text(tmp_path, "a,b,c\n1,2,3\n")
        with pytest.raises(ManifestError, match="header"):
            dataset.load_manifest(path)

    def test_nonpositive_face_rejected(self, tmp_path):
        path = write_manifest_text(
            tmp_path, HEADER + "\nimg.pgm,VD,0,0,0,10,,,,,,,,,\n"
        )
        with pytest.raises(ManifestError):
            dataset.load_manifest(path)

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_landmarks_name_the_row(self, tmp_path, token):
        path = write_manifest_text(
            tmp_path,
            HEADER + "\nok.pgm,VD,0,0,10,10,1,2,3,2,6,2,8,2,\n"
            f"bad.pgm,VD,0,0,10,10,1,2,3,2,6,2,{token},2,\n",
        )
        with pytest.raises(ManifestError, match="line 3: non-finite landmark"):
            dataset.load_manifest(path)

    def test_oversized_field_names_file_and_line(self, tmp_path):
        # one field beyond the csv module's 131072-character limit
        path = write_manifest_text(
            tmp_path,
            HEADER + "\nok.pgm,VD,0,0,10,10,,,,,,,,,s1\n"
            "big.pgm,VD,0,0,10,10,,,,,,,,," + "s" * 200_000 + "\n",
        )
        with pytest.raises(ManifestError, match=r"m\.csv: line 3: field larger than field limit"):
            dataset.load_manifest(path)

    def test_missing_file_is_io_error(self, tmp_path):
        with pytest.raises(OSError):
            dataset.load_manifest(tmp_path / "absent.csv")

    @settings(
        max_examples=300, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_truncated_or_garbled_file(self, tmp_path, data):
        valid = (
            "# comment\n" + HEADER + "\n"
            "a.pgm,AR,1,2,100,120,10,20,30,20,60,20,80,20,s01\n"
            "b.pgm,VD,0,0,10,10,,,,,,,,,\n"
        ).encode("utf-8")
        blob = bytearray(valid)
        flips = data.draw(st.lists(
            st.tuples(st.integers(0, len(blob) - 1), st.integers(0, 255)), max_size=3
        ))
        for pos, value in flips:
            blob[pos] = value
        cut = data.draw(st.one_of(st.just(len(blob)), st.integers(0, len(blob))))
        path = tmp_path / "fuzz.csv"
        path.unlink(missing_ok=True)  # a new file: truncating in place can be slow
        path.write_bytes(bytes(blob[:cut]))
        try:
            samples = dataset.load_manifest(path)
        except ValueError:  # includes ManifestError and UnicodeDecodeError
            return
        assert all(isinstance(s, Sample) for s in samples)

    def test_write_then_load_round_trip(self, tmp_path):
        samples = [
            Sample("a.pgm", Box(0, 1, 50, 60), EacClass.VC,
                   synth.canonical_landmarks(), "s00"),
            Sample("b.pgm", Box(5, 5, 80, 80), EacClass.K, None, None),
        ]
        path = tmp_path / "round.csv"
        dataset.write_manifest(path, samples)
        assert dataset.load_manifest(path) == samples

    @settings(
        max_examples=300, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(rows=st.lists(st.tuples(TEXT, st.none() | TEXT), min_size=1, max_size=4))
    def test_write_raises_or_round_trips(self, tmp_path, rows):
        """write_manifest refuses a text field load_manifest would drop or alter."""
        samples = [Sample(p, Box(0, 1, 50, 60), EacClass.AR, None, subject)
                   for p, subject in rows]
        path = tmp_path / "fuzz.csv"
        path.unlink(missing_ok=True)
        try:
            dataset.write_manifest(path, samples)
        except ValueError:
            assert not path.exists()
            return
        loaded = dataset.load_manifest(path)
        # an empty subject reads back as None
        assert [(s.image_path, s.subject_id or "") for s in loaded] == \
            [(p, subject or "") for p, subject in rows]

    def test_write_names_the_unreadable_sample(self, tmp_path):
        for bad in (Sample("#a.pgm", Box(0, 0, 1, 1), EacClass.VD),
                    Sample(" b.pgm ", Box(0, 0, 1, 1), EacClass.VD),
                    Sample("c.pgm", Box(0, 0, 1, 1), EacClass.VD, None, " s1 "),
                    Sample("", Box(0, 0, 1, 1), EacClass.VD),
                    Sample("e\udc80.pgm", Box(0, 0, 1, 1), EacClass.VD),
                    Sample("d.pgm", Box(0, 0, 1, 1), EacClass.VD, None, "s" * 200_000)):
            with pytest.raises(ValueError, match=re.escape(repr(bad.image_path))):
                dataset.write_manifest(tmp_path / "m.csv", [bad])

    def test_empty_image_path_rejected_by_line(self, tmp_path):
        path = write_manifest_text(tmp_path, HEADER + "\n,VD,0,0,10,10,,,,,,,,,\n")
        with pytest.raises(ManifestError, match="line 2: empty image_path"):
            dataset.load_manifest(path)


class TestSplit5050:
    def test_1170_halves_exactly(self):
        pair = dataset.split_50_50(list(range(1170)), seed=0)
        assert len(pair.train) == 585 and len(pair.test) == 585

    def test_odd_count(self):
        pair = dataset.split_50_50(list(range(11)), seed=1)
        assert len(pair.train) == 6 and len(pair.test) == 5

    def test_deterministic_and_seed_sensitive(self):
        items = list(range(100))
        a = dataset.split_50_50(items, seed=7)
        b = dataset.split_50_50(items, seed=7)
        c = dataset.split_50_50(items, seed=8)
        assert a.train == b.train and a.test == b.test
        assert a.train != c.train

    def test_too_few_rejected(self):
        with pytest.raises(ValueError):
            dataset.split_50_50([1], seed=0)

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(min_value=2, max_value=400), seed=st.integers(0, 2**31 - 1))
    def test_disjoint_exhaustive_balanced(self, n, seed):
        items = list(range(n))
        pair = dataset.split_50_50(items, seed)
        assert set(pair.train) | set(pair.test) == set(items)
        assert set(pair.train) & set(pair.test) == set()
        assert abs(len(pair.train) - len(pair.test)) <= 1


class TestSubjectDisjointSplit:
    def test_subjects_never_straddle(self):
        samples = [
            Sample(f"{i}.pgm", Box(0, 0, 10, 10), EacClass(i % 7),
                   subject_id=f"s{i % 5}")
            for i in range(35)
        ]
        pair = dataset.split_subject_disjoint(samples, seed=0)
        train_subj = {s.subject_id for s in pair.train}
        test_subj = {s.subject_id for s in pair.test}
        assert train_subj & test_subj == set()
        assert len(pair.train) + len(pair.test) == 35

    def test_missing_subject_rejected(self):
        samples = [Sample("a.pgm", Box(0, 0, 1, 1), EacClass.VD)] * 4
        with pytest.raises(ValueError):
            dataset.split_subject_disjoint(samples, seed=0)

    @settings(max_examples=60, deadline=None)
    @given(
        subjects=st.lists(st.integers(0, 12), min_size=2, max_size=80),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_counted_sizes_match_the_scanning_split(self, subjects, seed):
        """Counting each subject once gives the lists the per-subject scan gave."""
        samples = [Sample(f"{i}.pgm", Box(0, 0, 1, 1), EacClass.VD, subject_id=f"s{k}")
                   for i, k in enumerate(subjects)]
        try:
            want = scanning_subject_split(samples, seed)
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                dataset.split_subject_disjoint(samples, seed)
            return
        got = dataset.split_subject_disjoint(samples, seed)
        assert [s.image_path for s in got.train] == [s.image_path for s in want.train]
        assert [s.image_path for s in got.test] == [s.image_path for s in want.test]


def scanning_subject_split(samples, seed):
    """The subject-disjoint split that counted each chosen subject by scanning
    every sample (quadratic in the subject count)."""
    if any(s.subject_id is None for s in samples):
        raise ValueError("subject-disjoint split needs subject_id on every sample")
    subjects = sorted({s.subject_id for s in samples})
    if len(subjects) < 2:
        raise ValueError("need at least 2 subjects for a subject-disjoint split")
    order = np.random.default_rng(seed).permutation(len(subjects))
    target = len(samples) / 2
    train_subjects: set = set()
    count = 0
    for i in order:
        if count >= target:
            break
        train_subjects.add(subjects[i])
        count += sum(1 for s in samples if s.subject_id == subjects[i])
    train = [s for s in samples if s.subject_id in train_subjects]
    test = [s for s in samples if s.subject_id not in train_subjects]
    return dataset.SplitPair(train=train, test=test)


class TestThreeClassMapping:
    """The 7 -> 3 mapping is RunConfig.map3, applied by cli._label."""

    def test_default_mapping(self):
        expect = {
            EacClass.VD: ThreeClass.CENTER,
            EacClass.AR: ThreeClass.LEFT,
            EacClass.AC: ThreeClass.RIGHT,
        }
        cfg = RunConfig(classes=3)
        for eac in EacClass:
            s = Sample("x.pgm", Box(0, 0, 1, 1), eac)
            assert cli._label(cfg, s) == expect.get(eac)

    def test_missing_entry_rejected(self):
        cfg = RunConfig(classes=3)
        del cfg.map3[EacClass.ID]
        with pytest.raises(ConfigError, match="ID"):
            cfg.validate()

    def test_filtered_subset_size(self):
        cfg = RunConfig(classes=3)
        samples = [Sample("x.pgm", Box(0, 0, 1, 1), eac) for eac in EacClass] * 3
        kept = [s for s in samples if cli._label(cfg, s) is not None]
        assert len(kept) == 9  # AR/VD/AC only
        assert len(kept) <= len(samples)

    def test_no_exclusions_keeps_every_sample(self):
        cfg = RunConfig(classes=3, map3={c: ThreeClass(int(c) % 3) for c in EacClass})
        samples = [Sample("x.pgm", Box(0, 0, 1, 1), eac) for eac in EacClass] * 2
        kept = [s for s in samples if cli._label(cfg, s) is not None]
        assert len(kept) == len(samples)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    manifest, samples = synth.generate_corpus(out, 2, seed=0)
    return str(out), samples


def eye_tensors(samples, side, mode, **kwargs):
    return dataset.patches_to_tensors(dataset.make_eye_patches(samples, side, mode, **kwargs))


class TestPatchesToTensors:
    @settings(max_examples=40, deadline=None)
    @given(
        h=st.integers(1, 9), w=st.integers(1, 9),
        dtype=st.sampled_from(["uint8", "float32", "float64"]),
        n=st.integers(0, 70), seed=st.integers(0, 2**32 - 1),
    )
    def test_stacks_equal_one_patch_at_a_time(self, h, w, dtype, n, seed):
        """Each tensor is byte-equal to a per-patch normalize, in input
        order, with its label as an int."""
        rng = np.random.default_rng(seed)
        pixels = rng.uniform(0, 256, size=(n, h, w)).astype(dtype)
        got = dataset.patches_to_tensors(dataset.EyePatches(pixels, np.arange(n) % 7))
        assert [y for _, y in got] == [i % 7 for i in range(n)]
        assert all(type(y) is int for _, y in got)
        for (t, _), p in zip(got, pixels):
            want = (p.astype(np.float32) / np.float32(255) - np.float32(0.5))[None]
            assert t.dtype == want.dtype and t.shape == want.shape
            assert t.tobytes() == want.tobytes() == preprocess.normalize(p).tobytes()

    def test_colour_patch_rejected(self):
        patches = dataset.EyePatches(np.zeros((1, 4, 5, 3), np.uint8), np.zeros(1, dtype=int))
        with pytest.raises(ValueError, match="normalize expects a single-channel image"):
            dataset.patches_to_tensors(patches)


class TestMakeEyeSamples:
    def test_roi_shapes(self, corpus):
        root, samples = corpus
        pairs = eye_tensors(samples, "left", "roi", image_root=root)
        assert all(t.shape == (1, 42, 50) for t, _ in pairs)
        assert all(t.dtype == np.float32 for t, _ in pairs)

    def test_ert_shapes(self, corpus):
        root, samples = corpus
        pairs = eye_tensors(samples, "right", "ert", image_root=root)
        assert all(t.shape == (1, 15, 25) for t, _ in pairs)

    def test_sides_have_equal_counts(self, corpus):
        root, samples = corpus
        left = eye_tensors(samples, "left", "ert", image_root=root)
        right = eye_tensors(samples, "right", "ert", image_root=root)
        assert len(left) == len(right) == len(samples)

    def test_labels_default_to_eac(self, corpus):
        root, samples = corpus
        pairs = eye_tensors(samples, "left", "ert", image_root=root)
        assert [y for _, y in pairs] == [int(s.eac) for s in samples]

    def test_explicit_labels(self, corpus):
        root, samples = corpus
        labels = list(range(len(samples)))
        pairs = eye_tensors(samples, "left", "ert", image_root=root, labels=labels)
        assert [y for _, y in pairs] == labels

    def test_ert_without_landmarks_rejected(self, corpus):
        root, _ = corpus
        bare = [Sample("vd_000.pgm", synth.FACE, EacClass.VD)]
        with pytest.raises(ValueError, match="landmark"):
            eye_tensors(bare, "left", "ert", image_root=root)

    def test_crop_error_names_the_image(self, corpus):
        root, _ = corpus
        off_image = Sample("vd_000.pgm", Box(500, 500, 100, 100), EacClass.VD)
        with pytest.raises(ValueError, match=r"^vd_000\.pgm: crop box .* lies outside"):
            dataset.make_eye_pairs([off_image], "roi", image_root=root)

    def test_full_path_determinism(self, corpus):
        root, samples = corpus
        a = eye_tensors(samples, "left", "ert", image_root=root)
        b = eye_tensors(samples, "left", "ert", image_root=root)
        for (ta, _), (tb, _) in zip(a, b):
            assert ta.tobytes() == tb.tobytes()

    def test_bad_side_and_mode_rejected(self, corpus):
        root, samples = corpus
        with pytest.raises(ValueError):
            eye_tensors(samples, "up", "ert", image_root=root)
        with pytest.raises(ValueError):
            eye_tensors(samples, "left", "cnn", image_root=root)


def whole_crops(img, sample, mode, eye):
    """preprocess.crop of a whole decoded image under the sample's eye_boxes,
    None for an unselected eye; a box or crop error names the image, as
    make_eye_pairs reports it."""
    try:
        return [None if b is None else preprocess.crop(img, b)
                for b in dataset.eye_boxes(sample, mode, eye)]
    except ValueError as exc:
        raise ValueError(f"{sample.image_path}: {exc}") from None


def reference_pair(img, sample, mode, patch_hw, eye):
    """The (left, right) patches of a whole decoded image, built apart from
    the crop path under test: the frame greyed whole, each eye cropped under
    eye_boxes and resized alone. Errors are those of whole_crops."""
    grey = preprocess.to_grayscale(img[None])[0] if img.ndim == 3 else img
    h, w = patch_hw
    return [None if c is None else preprocess.resize_bilinear(c[None], w, h)[0]
            for c in whole_crops(grey, sample, mode, eye)]


# every dataset entry point that takes a mode and an eye, as (root, sample, mode, eye)
CHOICE_ENTRY_POINTS = {
    "eye_boxes": lambda root, sample, mode, eye: dataset.eye_boxes(sample, mode, eye),
    "read_frame": lambda root, sample, mode, eye: dataset.read_frame(sample, mode, root, eye),
    "make_eye_pairs": lambda root, sample, mode, eye: dataset.make_eye_pairs(
        [sample], mode, image_root=root, eye=eye),
}


class TestRunChoices:
    """mode, eye and class set each come from one table in `dataset`; a value
    outside it is a ValueError from every entry point, never a silent default."""

    def test_tables(self):
        assert dataset.default_patch_hw("roi") == (42, 50)
        assert dataset.default_patch_hw("ert") == (15, 25)
        assert [dataset.eye_selection(e) for e in dataset.EYES] == [
            (True, False), (False, True), (True, True)
        ]
        assert dataset.class_names(7) == ["VD", "VR", "VC", "AR", "AC", "ID", "K"]
        assert dataset.class_names(3) == ["LEFT", "CENTER", "RIGHT"]

    @pytest.mark.parametrize("value", [5, 0])
    def test_unknown_class_set_rejected(self, value):
        with pytest.raises(ValueError, match="classes must be 3 or 7"):
            dataset.class_names(value)

    @pytest.mark.parametrize("entry", CHOICE_ENTRY_POINTS)
    @pytest.mark.parametrize("eye", ["lft", "Both"])
    def test_unknown_eye_rejected(self, corpus, entry, eye):
        root, samples = corpus
        with pytest.raises(ValueError, match=rf"eye must be left\|right\|both, got '{eye}'"):
            CHOICE_ENTRY_POINTS[entry](root, samples[0], "ert", eye)

    @pytest.mark.parametrize("entry", CHOICE_ENTRY_POINTS)
    @pytest.mark.parametrize("mode", ["rio", "ERT"])
    def test_unknown_mode_rejected(self, corpus, entry, mode):
        root, samples = corpus
        with pytest.raises(ValueError, match=f"mode must be roi or ert, got '{mode}'"):
            CHOICE_ENTRY_POINTS[entry](root, samples[0], mode, "both")

    def test_unselected_eye_is_none_per_sample(self, corpus):
        root, samples = corpus
        left, right = dataset.make_eye_pairs(samples, "ert", image_root=root, eye="left")
        assert right is None
        assert len(left) == len(left.labels) == len(samples)
        assert left.pixels.shape == (len(samples), 15, 25) and left.pixels.dtype == np.float32


@st.composite
def colour_frames(draw):
    """A random (H, W, 3) uint8 frame and a sample whose face box and eye
    corners may put an eye box over any edge of it, or off it."""
    h, w = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    rgb = draw(hnp.arrays(np.uint8, (h, w, 3)))
    face = Box(draw(st.integers(-w, w)), draw(st.integers(-h, h)),
               draw(st.integers(4, 3 * w + 4)), draw(st.integers(4, 3 * h + 4)))
    corners = [(draw(st.floats(-8, w + 8)), draw(st.floats(-8, h + 8))) for _ in range(4)]
    return rgb, Sample("<frame>", face, EacClass.VD, preprocess.EyeLandmarks(*corners))


class TestColourInput:
    """grey_resize greys each eye crop, never the whole frame. Luma is per
    pixel, so the patches equal those of greying the frame first."""

    @settings(max_examples=400, deadline=None)
    @given(frame=colour_frames(), mode=st.sampled_from(list(dataset.PATCH_HW)),
           eye=st.sampled_from(dataset.EYES),
           patch_hw=st.tuples(st.integers(1, 8), st.integers(1, 8)))
    def test_colour_equals_grey_then_crop(self, frame, mode, eye, patch_hw):
        rgb, sample = frame
        grey_first = pair_or_error(lambda: reference_pair(rgb, sample, mode, patch_hw, eye))
        try:
            crops = [c for c in whole_crops(rgb, sample, mode, eye) if c is not None]
        except ValueError as exc:  # a box off the frame, or coincident corners
            assert str(exc) == grey_first
            return
        with mock.patch.object(preprocess, "to_grayscale", wraps=preprocess.to_grayscale) as spy:
            crop_first = dataset.grey_resize(crops, patch_hw)
        assert [p.tobytes() for p in crop_first] == [p for p in grey_first if p is not None]
        # one call per crop shape, each on a stack of colour crops of that
        # shape, and the pixels greyed are those of the selected crops
        shapes = [c.shape for c in crops]
        stacks = [c.args[0].shape for c in spy.call_args_list]
        assert sorted(s[1:] for s in stacks) == sorted(set(shapes))
        assert sum(math.prod(s[:3]) for s in stacks) == sum(h * w for h, w, _ in shapes)


@st.composite
def pnm_frames(draw):
    """A colour_frames frame stored as P5 (its first plane) or P6, with
    maxval 255 or below; returns (file bytes, sample)."""
    rgb, sample = draw(colour_frames())
    img = rgb if draw(st.booleans()) else rgb[..., 0]
    maxval = draw(st.sampled_from([255, 200, 15, 1]))
    img = (img.astype(np.uint32) * maxval // 255).astype(np.uint8)
    head = f"{'P5' if img.ndim == 2 else 'P6'}\n{img.shape[1]} {img.shape[0]}\n{maxval}\n"
    return head.encode("ascii") + img.tobytes(), sample


def pair_or_error(make, bytes_of=lambda p: p.tobytes()):
    try:
        return [None if p is None else bytes_of(p) for p in make()]
    except ValueError as exc:
        return str(exc)


class TestRowRead:
    """read_frame reads only the rows its eye boxes span; its crops, the
    patches of make_eye_pairs and their errors are those of a whole decode,
    and the errors name the image."""

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(frame=pnm_frames(), mode=st.sampled_from(list(dataset.PATCH_HW)),
           eye=st.sampled_from(dataset.EYES))
    def test_patches_equal_eye_pair_on_full_read(self, tmp_path, frame, mode, eye):
        blob, sample = frame
        sample = dataclasses.replace(sample, image_path="frame.pnm")
        path = tmp_path / sample.image_path
        path.unlink(missing_ok=True)
        path.write_bytes(blob)
        hw = dataset.default_patch_hw(mode)
        want = pair_or_error(
            lambda: reference_pair(preprocess.read_pnm(path), sample, mode, hw, eye))
        got = pair_or_error(lambda: [
            None if p is None else p.pixels[0]
            for p in dataset.make_eye_pairs([sample], mode, str(tmp_path), eye=eye)])
        assert isinstance(want, list) or want.startswith("frame.pnm: ")
        assert got == want

        def crop_bytes(c):
            return c.shape, c.dtype, c.tobytes()
        want_crops = pair_or_error(
            lambda: whole_crops(preprocess.read_pnm(path), sample, mode, eye), crop_bytes)
        got_crops = pair_or_error(
            lambda: dataset.read_frame(sample, mode, str(tmp_path), eye), crop_bytes)
        assert isinstance(want_crops, list) == isinstance(want, list)
        assert got_crops == want_crops

    @pytest.mark.parametrize("face_y", [-200, 30, 200])  # above, across, below
    @pytest.mark.parametrize("face_x", [-200, 200])      # left, right
    def test_box_off_the_frame_keeps_the_crop_error(self, tmp_path, face_x, face_y):
        path = tmp_path / "frame.pgm"
        preprocess.write_pgm(path, np.full((60, 80), 7, np.uint8))
        sample = Sample("frame.pgm", Box(face_x, face_y, 100, 100), EacClass.VD)
        box = preprocess.geometric_eye_rois(sample.face)[0]
        with pytest.raises(ValueError) as exc:
            dataset.make_eye_pairs([sample], "roi", str(tmp_path), eye="left")
        assert str(exc.value) == f"frame.pgm: crop box {box} lies outside the 80x60 image"

    def test_bad_boxes_allocate_no_frame(self, tmp_path):
        """A sample whose boxes cannot be computed is checked by a zero-row
        read, not a whole decode, and its error names the image; a bad image
        is still reported first."""
        preprocess.write_ppm(tmp_path / "vga.ppm", np.zeros((480, 640, 3), np.uint8))
        sample = Sample("vga.ppm", Box(200, 100, 240, 240), EacClass.VD)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"^vga\.ppm: ert mode needs eye-corner landmarks$"):
                dataset.make_eye_pairs([sample], "ert", str(tmp_path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 480 * 640 * 3
        (tmp_path / "vga.ppm").write_bytes(b"P6\n640 480\n255\n")
        with pytest.raises(ValueError, match=r"/vga\.ppm: raster truncated$"):
            dataset.make_eye_pairs([sample], "ert", str(tmp_path))


def write_pnm(path, img, maxval=255):
    """img (0..255) stored as P5 or P6 at maxval, as read_pnm rescales it back."""
    img = (img.astype(np.uint32) * maxval // 255).astype(np.uint8)
    head = f"{'P5' if img.ndim == 2 else 'P6'}\n{img.shape[1]} {img.shape[0]}\n{maxval}\n"
    path.write_bytes(head.encode("ascii") + img.tobytes())


def landmarks_at(cx, cy, d):
    """Eye corners d apart, level, for eyes centred at cx and cx + 20 on row cy."""
    return preprocess.EyeLandmarks((cx - d / 2, cy), (cx + d / 2, cy),
                                   (cx + 20 - d / 2, cy), (cx + 20 + d / 2, cy))


def crop_run_corpus(root, n):
    """n frames of mixed P5/P6, maxval and size, with faces and eye corners of
    a few sizes, so each run of make_eye_pairs holds several crop shapes of
    both kinds. The smallest face, on grey frames only, gives eye crops 3 px
    wide ((3, 3) roi, (2, 3) ert), and so does colour frame CROP_CHUNK + 1."""
    rng = np.random.default_rng(11)
    samples = []
    for i in range(n):
        h, w = (40, 48) if i % 2 else (36, 44)
        colour = i % 3 == 0
        img = rng.integers(0, 256, size=(h, w, 3) if colour else (h, w), dtype=np.uint8)
        face, d = [(Box(2, 4, 30, 24), 8.0), (Box(5, 3, 24, 30), 6.0), (Box(1, 1, 10, 10), 2.0)][i // 2 % 3]
        if i == CHUNK + 1:
            face, d = Box(1, 1, 10, 10), 2.0
        name = f"f{i:02d}.{'ppm' if colour else 'pgm'}"
        write_pnm(root / name, img, (255, 200, 255, 15)[i % 4])
        samples.append(Sample(name, face, EacClass(i % 7), landmarks_at(10, 12, d)))
    return samples


CHUNK = dataset.CROP_CHUNK


class TestCropRuns:
    """make_eye_pairs crops runs of CROP_CHUNK frames and greys and resizes
    each run's crops in one stack per crop shape; its patches and errors are
    those of each whole decoded frame, across a run boundary."""

    @pytest.mark.parametrize("mode", list(dataset.PATCH_HW))
    @pytest.mark.parametrize("eye", dataset.EYES)
    def test_runs_equal_per_frame_eye_pair(self, tmp_path, mode, eye):
        samples = crop_run_corpus(tmp_path, CHUNK + 3)
        hw = dataset.default_patch_hw(mode)
        shapes = {preprocess.crop(preprocess.read_pnm(tmp_path / s.image_path), b).shape
                  for s in samples for b in dataset.eye_boxes(s, mode, eye) if b is not None}
        thin = {"roi": (3, 3), "ert": (2, 3)}[mode]
        assert {thin, (*thin, 3)} <= shapes and len(shapes) >= 6
        with mock.patch.object(dataset, "eye_boxes", wraps=dataset.eye_boxes) as spy:
            got = dataset.make_eye_pairs(samples, mode, str(tmp_path), eye=eye)
        assert spy.call_count == len(samples)  # once per sample, by read_frame
        for k, selected in enumerate(dataset.eye_selection(eye)):
            if not selected:
                assert got[k] is None
                continue
            want = [reference_pair(preprocess.read_pnm(tmp_path / s.image_path), s, mode, hw, eye)[k]
                    for s in samples]
            assert got[k].pixels.tobytes() == np.stack(want).tobytes()
            assert got[k].labels.tolist() == [int(s.eac) for s in samples]

    def test_first_bad_sample_in_order_is_reported(self, tmp_path):
        samples = crop_run_corpus(tmp_path, CHUNK + 3)
        samples[2] = dataclasses.replace(samples[2], face=Box(500, 500, 30, 30))
        (tmp_path / samples[5].image_path).write_bytes(b"P5\n4 4\n255\n")
        with pytest.raises(ValueError, match=f"^{samples[2].image_path}: crop box "):
            dataset.make_eye_pairs(samples, "roi", str(tmp_path))
        with pytest.raises(ValueError, match=rf"/{re.escape(samples[5].image_path)}: raster truncated$"):
            dataset.make_eye_pairs(samples[3:], "roi", str(tmp_path))

    def test_error_in_second_run_names_its_image(self, tmp_path):
        samples = crop_run_corpus(tmp_path, CHUNK + 3)
        bad = CHUNK + 1
        samples[bad] = dataclasses.replace(samples[bad], face=Box(-500, 0, 30, 30))
        with pytest.raises(ValueError, match=f"^{samples[bad].image_path}: crop box "):
            dataset.make_eye_pairs(samples, "roi", str(tmp_path))
        samples[bad] = dataclasses.replace(samples[bad], landmarks=None)
        with pytest.raises(ValueError, match=f"^{samples[bad].image_path}: ert mode needs"):
            dataset.make_eye_pairs(samples, "ert", str(tmp_path))
