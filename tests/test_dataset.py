"""Manifest parsing, splits, label mapping, and eye-sample materialization."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gazedir import dataset, synth
from gazedir.dataset import (
    DEFAULT_THREE_CLASS_MAP,
    EacClass,
    ManifestError,
    Sample,
    ThreeClass,
)
from gazedir.preprocess import Box

HEADER = ",".join(dataset.MANIFEST_COLUMNS)


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


class TestThreeClassMapping:
    def test_default_mapping(self):
        expect = {
            EacClass.VD: ThreeClass.CENTER,
            EacClass.AR: ThreeClass.LEFT,
            EacClass.AC: ThreeClass.RIGHT,
        }
        for eac in EacClass:
            s = Sample("x.pgm", Box(0, 0, 1, 1), eac)
            assert dataset.to_three_class(s) == expect.get(eac)

    def test_missing_entry_rejected(self):
        broken = dict(DEFAULT_THREE_CLASS_MAP)
        del broken[EacClass.ID]
        s = Sample("x.pgm", Box(0, 0, 1, 1), EacClass.VD)
        with pytest.raises(ValueError, match="ID"):
            dataset.to_three_class(s, broken)

    def test_filtered_subset_size(self):
        samples = [Sample("x.pgm", Box(0, 0, 1, 1), eac) for eac in EacClass] * 3
        kept = [s for s in samples if dataset.to_three_class(s) is not None]
        assert len(kept) == 9  # AR/VD/AC only
        assert len(kept) <= len(samples)

    def test_no_exclusions_keeps_every_sample(self):
        everything = {c: ThreeClass(int(c) % 3) for c in EacClass}
        samples = [Sample("x.pgm", Box(0, 0, 1, 1), eac) for eac in EacClass] * 2
        kept = [s for s in samples if dataset.to_three_class(s, everything) is not None]
        assert len(kept) == len(samples)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    manifest, samples = synth.generate_corpus(out, 2, seed=0)
    return str(out), samples


def eye_tensors(samples, side, mode, **kwargs):
    return dataset.patches_to_tensors(dataset.make_eye_patches(samples, side, mode, **kwargs))


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
