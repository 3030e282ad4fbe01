import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vitbench import data as D
from vitbench.errors import (
    ConfigurationError,
    EmptyDatasetError,
    FormatError,
    RangeError,
    ValidationError,
)
from vitbench.tensor import tnsr_encode


@pytest.fixture
def small_dataset(tmp_path):
    """Two-class, four-entry PPM dataset on disk."""
    rng = np.random.default_rng(0)
    entries = []
    for i in range(4):
        img = rng.random((3, 8, 8))
        rel = f"img{i}.ppm"
        (tmp_path / rel).write_bytes(D.encode_ppm(img))
        entries.append((rel, i % 2))
    manifest = D.DatasetManifest(
        name="small", class_names=["a", "b"], entries=entries, root=tmp_path
    )
    return manifest, tmp_path


class TestManifest:
    def test_load(self, small_dataset, tmp_path):
        manifest, root = small_dataset
        path = tmp_path / "small.manifest"
        D.save_manifest(manifest, path)
        loaded = D.load_manifest(path)
        assert loaded.num_classes == 2
        assert len(loaded) == 4
        assert loaded.entries == manifest.entries

    def test_label_out_of_range(self, tmp_path):
        (tmp_path / "x.ppm").write_bytes(D.encode_ppm(np.zeros((3, 2, 2))))
        path = tmp_path / "bad.manifest"
        path.write_text("#classes: a,b\nx.ppm\t7\n")
        with pytest.raises(ValidationError, match="x.ppm"):
            D.load_manifest(path)

    def test_missing_files_listed(self, tmp_path):
        path = tmp_path / "missing.manifest"
        path.write_text("#classes: a,b\nnope.ppm\t0\n")
        with pytest.raises(ValidationError, match="nope.ppm"):
            D.load_manifest(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "hdr.manifest"
        path.write_text("x.ppm\t0\n")
        with pytest.raises(FormatError, match="#classes"):
            D.load_manifest(path)

    def test_non_utf8_names_path(self, tmp_path):
        path = tmp_path / "bytes.manifest"
        path.write_bytes(b"#classes: a,b\n\xff\t0\n")
        with pytest.raises(FormatError, match="bytes.manifest"):
            D.load_manifest(path)

    # int() reads each of these as a label; only ASCII digits are one
    @pytest.mark.parametrize("label", ["0_1", "\u0661", " +1 ", "+1", "-0", "\uff11"])
    def test_label_must_be_ascii_digits(self, tmp_path, label):
        (tmp_path / "x.ppm").write_bytes(D.encode_ppm(np.zeros((3, 2, 2))))
        path = tmp_path / "label.manifest"
        path.write_text(f"#classes: a,b\nx.ppm\t{label}\n", encoding="utf-8")
        with pytest.raises(FormatError, match=r"label\.manifest:2: label .* decimal"):
            D.load_manifest(path)

    @pytest.mark.parametrize("header", ["#classes: a,,b", "#classes: a,b,",
                                        "#classes:", "#classes: a, ,b"])
    def test_class_names_must_be_non_empty(self, tmp_path, header):
        (tmp_path / "x.ppm").write_bytes(D.encode_ppm(np.zeros((3, 2, 2))))
        path = tmp_path / "names.manifest"
        path.write_text(f"#name: n\n{header}\nx.ppm\t0\n", encoding="utf-8")
        with pytest.raises(FormatError, match=r"names\.manifest:2: empty class name"):
            D.load_manifest(path)

    @pytest.mark.parametrize("second", ["0", "1"])
    def test_repeated_entry_path_names_both_lines(self, tmp_path, second):
        (tmp_path / "x.ppm").write_bytes(D.encode_ppm(np.zeros((3, 2, 2))))
        path = tmp_path / "twice.manifest"
        path.write_text(f"#classes: a,b\nx.ppm\t0\n\nx.ppm\t{second}\n")
        with pytest.raises(FormatError, match=r"twice\.manifest:4: .*'x\.ppm' repeats line 2"):
            D.load_manifest(path)

    def test_malformed_line_reports_location(self, tmp_path):
        path = tmp_path / "fmt.manifest"
        path.write_text("#classes: a\nonly-one-field\n")
        with pytest.raises(FormatError, match=":2"):
            D.load_manifest(path)

    def test_round_trip(self, small_dataset, tmp_path):
        manifest, _ = small_dataset
        p1 = tmp_path / "a.manifest"
        p2 = tmp_path / "b.manifest"
        D.save_manifest(manifest, p1)
        loaded = D.load_manifest(p1)
        D.save_manifest(loaded, p2)
        assert p1.read_text() == p2.read_text()


class TestDecodeImage:
    def test_ppm_single_pixel(self):
        data = b"P6\n1 1\n255\n" + bytes([255, 0, 0])
        img = D.decode_image(data, "ppm")
        assert img.shape == (3, 1, 1)
        assert np.array_equal(img[:, 0, 0], [1.0, 0.0, 0.0])

    def test_pgm(self):
        data = b"P5\n2 1\n255\n" + bytes([0, 128])
        img = D.decode_image(data, "pgm")
        assert img.shape == (1, 1, 2)
        assert img[0, 0, 0] == 0.0
        assert img[0, 0, 1] == pytest.approx(128 / 255)

    def test_ppm_comment_in_header(self):
        data = b"P6\n# comment\n1 1\n255\n" + bytes([1, 2, 3])
        img = D.decode_image(data, "ppm")
        assert img.shape == (3, 1, 1)

    def test_tnsr_round_trip(self):
        rng = np.random.default_rng(1)
        img = rng.random((3, 4, 4))
        out = D.decode_image(tnsr_encode(img), "tnsr")
        assert np.array_equal(out, img)

    def test_tnsr_bad_magic(self):
        with pytest.raises(FormatError):
            D.decode_image(b"TNSX" + bytes(20), "tnsr")

    def test_tnsr_extent_product_overflow(self):
        # 2^32 * 2^32 wraps to 0 in int64, which would pass the length check
        data = b"TNSR" + struct.pack("<BBB", 1, 2, 3) + struct.pack("<3Q", 1, 2**32, 2**32)
        with pytest.raises(FormatError, match="does not match shape"):
            D.decode_image(data, "tnsr")

    def test_tnsr_range_check(self):
        img = np.full((1, 2, 2), 1.5)
        with pytest.raises(RangeError):
            D.decode_image(tnsr_encode(img), "tnsr")

    @pytest.mark.parametrize("data, fmt", [
        (b"P6\n0 0\n255\n", "ppm"),
        (b"P6\n0 3\n255\n", "ppm"),
        (b"P5\n4 0\n255\n", "pgm"),
        (tnsr_encode(np.zeros((3, 0, 4))), "tnsr"),
        (tnsr_encode(np.zeros((0, 2, 2))), "tnsr"),
    ], ids=["ppm-0x0", "ppm-0x3", "pgm-4x0", "tnsr-3x0x4", "tnsr-0x2x2"])
    def test_zero_extent_is_format_error(self, data, fmt):
        with pytest.raises(FormatError, match="zero extent"):
            D.decode_image(data, fmt)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_tnsr_non_finite_is_range_error(self, value):
        with pytest.raises(RangeError, match="non-finite"):
            D.decode_image(tnsr_encode(np.full((1, 2, 2), value)), "tnsr")
        img = np.full((3, 2, 2), 0.5)
        img[2, 1, 0] = value
        with pytest.raises(RangeError, match="non-finite"):
            D.decode_image(tnsr_encode(img), "tnsr")

    def test_truncated_ppm(self):
        data = b"P6\n2 2\n255\n" + bytes(5)
        with pytest.raises(FormatError, match="truncated"):
            D.decode_image(data, "ppm")

    def test_non_numeric_header_token(self):
        with pytest.raises(FormatError, match="non-numeric"):
            D.decode_image(b"P6\n3 x\n255\n", "ppm")

    def test_ppm_encode_decode_round_trip(self):
        rng = np.random.default_rng(2)
        img = np.rint(rng.random((3, 5, 7)) * 255) / 255.0
        out = D.decode_image(D.encode_ppm(img), "ppm")
        assert np.allclose(out, img, atol=1e-12)


class _Offsets:
    """Stands in for a Generator: ``integers`` returns the given values in
    turn and records its bounds."""

    def __init__(self, *values):
        self.values, self.bounds = iter(values), []

    def integers(self, low, high):
        self.bounds.append((low, high))
        return next(self.values)


class TestAugment:
    def test_flip_involution(self):
        rng = np.random.default_rng(5)
        img = rng.random((3, 6, 6))
        assert np.array_equal(D.horizontal_flip(D.horizontal_flip(img)), img)

    def test_rotation_identity_cycle(self):
        rng = np.random.default_rng(6)
        img = rng.random((3, 6, 6))
        assert np.array_equal(D.rotate_quarter(img, 4), img)
        out = img
        for _ in range(4):
            out = D.rotate_quarter(out, 1)
        assert np.array_equal(out, img)

    def test_deterministic_under_seed(self):
        rng_img = np.random.default_rng(7)
        img = rng_img.random((3, 8, 8))
        cfg = D.AugmentConfig(crop_pad=2, flip_p=0.5, rotate=True)
        a = D.augment(img, cfg, np.random.default_rng(42))
        b = D.augment(img, cfg, np.random.default_rng(42))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("field, value", [
        ("crop_pad", 1.5), ("crop_pad", -1), ("crop_pad", True),
        ("flip_p", float("nan")), ("flip_p", 1.5), ("flip_p", "0.5"),
        ("rotate", 1), ("rotate", "yes"),
    ])
    def test_bad_field_is_configuration_error(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            D.AugmentConfig(**{field: value})

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("pad", [0, 1, 3, 5, 9])
    def test_crop_matches_a_padded_copy_at_every_offset(self, pad, dtype):
        """Every (dy, dx), drawn in that order from [0, 2·pad], with pads of
        0, below, at and above the 5x4 image's extents: the bytes of
        cropping ``np.pad``'s copy."""
        img = np.random.default_rng(9).random((3, 5, 4)).astype(dtype)
        padded = np.pad(img, ((0, 0), (pad, pad), (pad, pad)))
        for dy in range(2 * pad + 1):
            for dx in range(2 * pad + 1):
                rng = _Offsets(dy, dx)
                out = D.random_crop(img, pad, rng)
                want = padded[:, dy:dy + 5, dx:dx + 4]
                assert out.dtype == want.dtype and out.tobytes() == want.tobytes(), (dy, dx)
                assert rng.bounds == [(0, 2 * pad + 1)] * 2

    def test_shape_preserved(self):
        rng = np.random.default_rng(8)
        img = rng.random((3, 10, 10))
        cfg = D.AugmentConfig(crop_pad=3, flip_p=1.0, rotate=True)
        out = D.augment(img, cfg, np.random.default_rng(0))
        assert out.shape == img.shape


def in_memory_manifest(labels, prefix="e"):
    c = max(labels) + 1 if len(labels) else 1
    return D.DatasetManifest(
        name="mem",
        class_names=[f"c{i}" for i in range(c)],
        entries=[(f"{prefix}{i}.ppm", lab) for i, lab in enumerate(labels)],
    )


class TestSplit:
    def test_15000_at_80_10_10(self):
        manifest = in_memory_manifest([i % 3 for i in range(15000)])
        tr, va, te = D.split_dataset(manifest, D.SplitSpec(seed=1))
        assert (len(tr), len(va), len(te)) == (12000, 1500, 1500)

    def test_partition_property(self):
        manifest = in_memory_manifest([i % 4 for i in range(101)])
        tr, va, te = D.split_dataset(manifest, D.SplitSpec(seed=2))
        all_entries = set(manifest.entries)
        parts = [set(tr.entries), set(va.entries), set(te.entries)]
        assert parts[0] | parts[1] | parts[2] == all_entries
        assert not (parts[0] & parts[1]) and not (parts[0] & parts[2]) and not (parts[1] & parts[2])

    def test_stratified_proportions(self):
        manifest = in_memory_manifest([0] * 100 + [1] * 100)
        tr, va, te = D.split_dataset(manifest, D.SplitSpec(seed=3))
        for part, expect in ((tr, 80), (va, 10), (te, 10)):
            labels = part.labels()
            assert abs(int((labels == 0).sum()) - expect) <= 1
            assert abs(int((labels == 1).sum()) - expect) <= 1

    def test_tiny_class_goes_to_train_with_warning(self):
        manifest = in_memory_manifest([0] * 50 + [1] * 2)
        with pytest.warns(UserWarning, match="class 1"):
            tr, va, te = D.split_dataset(manifest, D.SplitSpec(seed=4))
        assert int((tr.labels() == 1).sum()) == 2

    def test_deterministic(self):
        manifest = in_memory_manifest([i % 3 for i in range(60)])
        a = D.split_dataset(manifest, D.SplitSpec(seed=5))
        b = D.split_dataset(manifest, D.SplitSpec(seed=5))
        for x, y in zip(a, b):
            assert x.entries == y.entries

    def test_bad_ratios(self):
        with pytest.raises(ConfigurationError):
            D.SplitSpec(ratios=(0.5, 0.2, 0.2))

    @pytest.mark.parametrize("field, value", [
        ("ratios", (0.5, 0.5)), ("ratios", (0.25, 0.25, 0.25, 0.25)),
        ("ratios", (float("nan"), 0.5, 0.5)), ("ratios", (1.5, -0.25, -0.25)),
        ("ratios", (1, 0, "0")), ("ratios", 1.0), ("ratios", "abc"),
        ("seed", -1), ("seed", 0.5), ("stratified", 1), ("stratified", None),
    ])
    def test_bad_field_is_configuration_error(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            D.SplitSpec(**{field: value})


class TestBatches:
    def make_disk_manifest(self, tmp_path, n, num_classes=2):
        rng = np.random.default_rng(9)
        entries = []
        for i in range(n):
            rel = f"b{i}.ppm"
            (tmp_path / rel).write_bytes(D.encode_ppm(rng.random((3, 4, 4))))
            entries.append((rel, i % num_classes))
        return D.DatasetManifest(
            name="batchy", class_names=[f"c{i}" for i in range(num_classes)],
            entries=entries, root=tmp_path,
        )

    def test_150_at_75(self, tmp_path):
        manifest = self.make_disk_manifest(tmp_path, 150)
        batches = list(D.make_batches(manifest, 75, seed=0))
        assert len(batches) == 2
        assert all(len(b.labels) == 75 for b in batches)

    def test_partial_batch_kept(self, tmp_path):
        manifest = self.make_disk_manifest(tmp_path, 10)
        batches = list(D.make_batches(manifest, 75, seed=0))
        assert len(batches) == 1
        assert len(batches[0].labels) == 10

    def test_label_multiset_coverage(self, tmp_path):
        manifest = self.make_disk_manifest(tmp_path, 23, num_classes=3)
        batches = D.make_batches(manifest, 7, seed=1, epoch=2)
        seen = sorted(lab for b in batches for lab in b.labels)
        assert seen == sorted(manifest.labels().tolist())

    def test_deterministic_per_seed_epoch(self, tmp_path):
        manifest = self.make_disk_manifest(tmp_path, 20)
        a = list(D.make_batches(manifest, 6, seed=3, epoch=1))
        b = list(D.make_batches(manifest, 6, seed=3, epoch=1))
        c = list(D.make_batches(manifest, 6, seed=3, epoch=2))
        assert all(np.array_equal(x.labels, y.labels) for x, y in zip(a, b))
        assert any(not np.array_equal(x.labels, y.labels) for x, y in zip(a, c))

    def test_mixed_image_sizes_name_the_first_odd_file(self, tmp_path):
        manifest = self.make_disk_manifest(tmp_path, 3)
        (tmp_path / "b2.ppm").write_bytes(D.encode_ppm(np.zeros((3, 5, 5))))
        with pytest.raises(FormatError, match=r"b2\.ppm has shape \(3, 5, 5\)"):
            list(D.make_batches(manifest, 3, shuffle=False))
        # in batches of two the odd image is a batch of its own
        assert len(list(D.make_batches(manifest, 2, shuffle=False))) == 2

    def test_odd_image_fails_when_its_batch_is_reached(self, tmp_path):
        manifest = self.make_disk_manifest(tmp_path, 5)
        (tmp_path / "b3.ppm").write_bytes(D.encode_ppm(np.zeros((3, 5, 5))))
        batches = D.make_batches(manifest, 2, shuffle=False)
        first = next(batches)
        assert first.labels.tolist() == [0, 1] and first.images.shape == (2, 3, 4, 4)
        with pytest.raises(FormatError, match=r"b3\.ppm has shape"):
            next(batches)

    def test_uncached_batches_see_a_rewritten_image(self, tmp_path):
        manifest = self.make_disk_manifest(tmp_path, 1)
        before = list(D.make_batches(manifest, 1, shuffle=False))[0].images[0]
        (tmp_path / "b0.ppm").write_bytes(D.encode_ppm(1.0 - before))
        after = list(D.make_batches(manifest, 1, shuffle=False))[0].images[0]
        assert np.array_equal(after, D.decode_image(D.encode_ppm(1.0 - before), "ppm"))
        assert not np.array_equal(after, before)

    def test_cache_serves_the_first_decode(self, tmp_path):
        manifest = self.make_disk_manifest(tmp_path, 1)
        cache = D.ImageCache()
        before = list(D.make_batches(manifest, 1, shuffle=False, cache=cache))[0].images[0]
        (tmp_path / "b0.ppm").write_bytes(D.encode_ppm(1.0 - before))
        again = list(D.make_batches(manifest, 1, shuffle=False, cache=cache))[0].images[0]
        assert np.array_equal(again, before)

    def dtype_manifest(self, tmp_path):
        """A PPM holding every byte value and a TNSR image, both 3x16x16,
        and their float64 decodes worked out without ``decode_image``."""
        raw = (np.arange(3 * 16 * 16) % 256).astype(np.uint8)
        (tmp_path / "bytes.ppm").write_bytes(b"P6\n16 16\n255\n" + raw.tobytes())
        values = np.random.default_rng(10).random((3, 16, 16))
        (tmp_path / "values.tnsr").write_bytes(tnsr_encode(values))
        manifest = D.DatasetManifest(
            name="dtypes", class_names=["a", "b"],
            entries=[("bytes.ppm", 0), ("values.tnsr", 1)], root=tmp_path,
        )
        ppm = raw.reshape(16, 16, 3).transpose(2, 0, 1).astype(np.float64) / 255.0
        return manifest, np.stack([ppm, values])

    @pytest.mark.parametrize("augment_cfg", [
        None, D.AugmentConfig(crop_pad=3, flip_p=0.5, rotate=True),
    ], ids=["plain", "augmented"])
    def test_float32_pass_is_the_float64_pass_cast(self, tmp_path, augment_cfg):
        manifest, _ = self.dtype_manifest(tmp_path)
        for epoch in range(4):
            (b32,) = D.make_batches(manifest, 2, seed=5, epoch=epoch,
                                    augment_cfg=augment_cfg, dtype="float32")
            (b64,) = D.make_batches(manifest, 2, seed=5, epoch=epoch,
                                    augment_cfg=augment_cfg, dtype="float64")
            assert b32.images.dtype == np.float32
            assert b32.images.tobytes() == b64.images.astype(np.float32).tobytes()
            assert np.array_equal(b32.labels, b64.labels)

    def test_float64_pass_is_unchanged(self, tmp_path):
        manifest, expected = self.dtype_manifest(tmp_path)
        for dtype in (np.float64, "float64"):
            (batch,) = D.make_batches(manifest, 2, shuffle=False, dtype=dtype)
            assert batch.images.dtype == np.float64
            assert batch.images.tobytes() == expected.tobytes()

    def test_cache_keeps_one_decode_per_dtype(self, tmp_path):
        manifest, expected = self.dtype_manifest(tmp_path)
        cache = D.ImageCache()
        path = manifest.resolve("bytes.ppm")
        f32 = cache.get(path, "float32")
        assert cache.get(path, np.float32) is f32
        assert f32.dtype == np.float32 and cache.get(path).dtype == np.float64
        assert f32.tobytes() == expected[0].astype(np.float32).tobytes()

    def test_empty_manifest(self):
        manifest = in_memory_manifest([])
        with pytest.raises(EmptyDatasetError):
            D.make_batches(manifest, 4)

    def test_bad_batch_size(self):
        manifest = in_memory_manifest([0])
        with pytest.raises(ConfigurationError):
            D.make_batches(manifest, 0)

    @pytest.mark.parametrize("batch_size", [2.5, "4", True])
    def test_non_int_batch_size(self, batch_size):
        manifest = in_memory_manifest([0])
        with pytest.raises(ConfigurationError, match="batch_size"):
            D.make_batches(manifest, batch_size)


class TestSynthetic:
    def test_byte_identical_across_runs(self, tmp_path):
        p1 = D.generate_synthetic(tmp_path / "a", "ds", 3, 4, seed=11)
        p2 = D.generate_synthetic(tmp_path / "b", "ds", 3, 4, seed=11)
        files1 = sorted(f.name for f in (tmp_path / "a").iterdir())
        files2 = sorted(f.name for f in (tmp_path / "b").iterdir())
        assert files1 == files2
        for name in files1:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_manifest_loads_and_round_trips(self, tmp_path):
        path = D.generate_synthetic(tmp_path, "gen", 2, 3, seed=12)
        manifest = D.load_manifest(path)
        assert manifest.num_classes == 2
        assert len(manifest) == 6
        out = tmp_path / "again.manifest"
        D.save_manifest(manifest, out)
        assert path.read_text() == out.read_text()

    BAD_ARGUMENTS = [
        ("seed", -1), ("seed", 1.5), ("num_classes", -1), ("num_classes", 0),
        ("per_class", 0), ("image_size", -3), ("image_size", 0), ("noise", -1.0),
        ("noise", math.nan), ("angle_offset", -1.0), ("angle_offset", math.nan),
        ("angle_offset", math.inf), ("angle_offset", 1e308), ("angle_offset", "0.5"),
    ]

    # a seed case is named by its value alone
    @pytest.mark.parametrize("field, value", BAD_ARGUMENTS, ids=[
        str(v) if f == "seed" else f"{f}={v!r}" for f, v in BAD_ARGUMENTS])
    def test_bad_seed_is_configuration_error(self, tmp_path, field, value):
        kwargs = {"num_classes": 2, "per_class": 2, field: value}
        with pytest.raises(ConfigurationError, match=field):
            D.generate_synthetic(tmp_path / "out", "bad", **kwargs)
        assert not (tmp_path / "out").exists()

    # past the address space, or past numpy's byte-count range: no
    # allocation of these sizes can succeed
    @pytest.mark.parametrize("image_size", [10**7, 10**10])
    def test_image_size_too_large_to_allocate(self, tmp_path, image_size):
        with pytest.raises(ConfigurationError, match=f"image_size {image_size}"):
            D.generate_synthetic(tmp_path / "out", "huge", 2, 1, image_size=image_size)
        assert not (tmp_path / "out").exists()

    def test_values_in_range(self, tmp_path):
        path = D.generate_synthetic(tmp_path, "rng", 3, 2, seed=13)
        manifest = D.load_manifest(path)
        for rel, _ in manifest.entries:
            img = D.load_image(manifest.resolve(rel))
            assert img.min() >= 0.0 and img.max() <= 1.0
