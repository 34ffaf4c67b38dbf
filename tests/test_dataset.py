import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trustkit import dataset, sensing
from trustkit.errors import DatasetError, ParameterError


def small_spec(**overrides):
    base = dict(image_size=8, train=12, val=4, test=4, seed=7)
    base.update(overrides)
    return dataset.DatasetSpec(**base)


def test_zero_blob_spec_gives_zero_image():
    spec = dataset.TargetSpec(num_blobs=(0, 0))
    img = dataset.gen_target(spec, 16, seed=0)
    assert np.array_equal(img, np.zeros((16, 16)))


def test_single_blob_peaks_at_center():
    spec = dataset.TargetSpec(num_blobs=(1, 1), sigma=(1.0, 1.0), amplitude=(1.0, 1.0))
    # search a seed whose blob center lands away from the border
    for seed in range(50):
        rng = np.random.default_rng(seed)
        count = int(rng.integers(1, 2))
        ci, cj = rng.uniform(0, 16, 2)
        if 3 < ci < 13 and 3 < cj < 13:
            img = dataset.gen_target(spec, 16, seed=seed)
            peak = np.unravel_index(np.argmax(img), img.shape)
            assert peak == (round(ci), round(cj)) or img[peak] >= img[round(ci), round(cj)]
            assert abs(peak[0] - ci) <= 1 and abs(peak[1] - cj) <= 1
            return
    pytest.fail("no interior blob found")


def test_targets_are_sparse():
    spec = dataset.TargetSpec()
    fractions = []
    for seed in range(1000):
        img = dataset.gen_target(spec, 32, seed=seed)
        fractions.append(np.mean(img < 0.05))
    assert np.mean(fractions) >= 0.80


def test_pair_identity_operator_roundtrip():
    op = sensing.sample_operator(sensing.IDENTITY, 64, 64, seed=1)
    x = dataset.gen_target(dataset.TargetSpec(), 8, seed=3)
    y, scale, offset = dataset.gen_pair(op, x, noise_sigma=0.0)
    assert np.allclose(y, x.reshape(-1), atol=1e-15)  # already in [0,1]: identity normalization
    assert scale == 1.0 and offset == 0.0


def test_pair_normalization_roundtrip():
    op = sensing.sample_operator(sensing.DENSE, 64, 64, seed=5)
    x = dataset.gen_target(dataset.TargetSpec(), 8, seed=4)
    rng = np.random.default_rng(0)
    y, scale, offset = dataset.gen_pair(op, x, noise_sigma=0.1, rng=rng)
    assert y.min() >= 0.0 and y.max() <= 1.0
    rng2 = np.random.default_rng(0)
    y_raw = sensing.apply(op, x.reshape(-1), noise_sigma=0.1, rng=rng2)
    one = dataset.Split(x[None], y[None], np.array([scale]), np.array([offset]))
    assert np.max(np.abs(one.raw()[0] - y_raw)) < 1e-10


def test_pair_normalization_range_holds_zero():
    # all-negative measurements normalize as if a zero were among them
    op = sensing.sample_operator(sensing.IDENTITY, 2, 2, seed=0)
    y, scale, offset = dataset.gen_pair(op, np.array([-3.0, -2.0]), noise_sigma=0.0)
    assert (scale, offset) == (3.0, -3.0)
    assert y.tolist() == [0.0, 1.0 / 3.0]


def test_pair_fat_operator_gives_its_m_measurements():
    op = sensing.sample_operator(sensing.GAUSSIAN_FAT, 32, 64, seed=2)
    x = dataset.gen_target(dataset.TargetSpec(), 8, seed=1)
    y, scale, offset = dataset.gen_pair(op, x, noise_sigma=0.0)
    assert y.shape == (32,)
    one = dataset.Split(x[None], y[None], np.array([scale]), np.array([offset]))
    y_raw = sensing.apply(op, x.reshape(-1))
    assert np.max(np.abs(one.raw()[0] - y_raw)) < 1e-10


@pytest.mark.parametrize("kind", [sensing.GAUSSIAN_FAT, sensing.FOURIER_MASKED])
def test_stored_records_hold_the_operators_m_measurements(tmp_path, kind):
    spec = small_spec(operator_kind=kind, dtype="f64")
    manifest = dataset.gen_dataset(spec, tmp_path)
    m = manifest["operator"]["m"]
    assert m < 64
    assert (tmp_path / "val.pairs.f64").stat().st_size == 4 * (64 + m) * 8
    data = dataset.load_split(dataset.load_manifest(tmp_path), "val")
    assert data.y.shape == (4, m)
    op = dataset.operator_from_manifest(manifest)
    y_raw = np.stack([sensing.apply(op, x.reshape(-1)) for x in data.x])
    assert np.max(np.abs(data.raw() - y_raw)) < 1e-10


def test_images_refuse_a_non_square_split(tmp_path):
    dataset.gen_dataset(small_spec(operator_kind=sensing.GAUSSIAN_FAT), tmp_path)
    data = dataset.load_split(dataset.load_manifest(tmp_path), "val")
    with pytest.raises(ParameterError, match="square operator dataset"):
        data.images()


def test_images_of_a_square_split_are_its_measurements(tmp_path):
    dataset.gen_dataset(small_spec(), tmp_path)
    data = dataset.load_split(dataset.load_manifest(tmp_path), "val")
    images = data.images()
    assert images.shape == (4, 8, 8)
    assert images.tobytes() == data.y.tobytes()


def test_energy_spread_under_dense_operator():
    # a single blob diffuses: no pixel of y holds > 20% of total energy
    spec = dataset.TargetSpec(num_blobs=(1, 1))
    wins = 0
    for seed in (0, 1, 2):
        op = sensing.sample_operator(sensing.DENSE, 1024, 1024, seed=seed)
        x = dataset.gen_target(spec, 32, seed=seed)
        y, _, _ = dataset.gen_pair(op, x, noise_sigma=0.0)
        energy = y.reshape(-1) ** 2
        if energy.max() / energy.sum() <= 0.20:
            wins += 1
    assert wins >= 2


def test_gen_dataset_deterministic(tmp_path):
    spec = small_spec()
    dataset.gen_dataset(spec, tmp_path / "a")
    dataset.gen_dataset(spec, tmp_path / "b")
    for name in ("manifest.json", "train.pairs.f32", "train.norm.f64", "val.pairs.f32"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_gen_dataset_refuses_overflowing_noise_before_writing_a_split(tmp_path):
    with pytest.raises(ParameterError, match="overflows"):
        dataset.gen_dataset(small_spec(noise_sigma=1e308), tmp_path / "ds")
    assert list((tmp_path / "ds").iterdir()) == []


def test_split_targets_disjoint(tmp_path):
    spec = small_spec()
    manifest = dataset.gen_dataset(spec, tmp_path)
    manifest = dataset.load_manifest(tmp_path)
    train = dataset.load_split(manifest, "train")
    test = dataset.load_split(manifest, "test")
    for tr in train.x:
        for te in test.x:
            assert not np.array_equal(tr, te)


def test_loader_counts_and_checksums(tmp_path):
    spec = small_spec()
    dataset.gen_dataset(spec, tmp_path)
    manifest = dataset.load_manifest(tmp_path)
    for split, expected in (("train", 12), ("val", 4), ("test", 4)):
        data = dataset.load_split(manifest, split)
        assert len(data) == expected
        assert data.x.shape == (expected, 8, 8) and data.y.shape == (expected, 64)
        assert data.scale.shape == data.offset.shape == (expected,)
        assert data.x.dtype == data.y.dtype == np.float64
        assert data.x.min() >= 0 and data.x.max() <= 1
        assert data.y.min() >= 0 and data.y.max() <= 1


def test_loader_detects_corruption(tmp_path):
    spec = small_spec()
    dataset.gen_dataset(spec, tmp_path)
    target = tmp_path / "val.pairs.f32"
    blob = bytearray(target.read_bytes())
    blob[10] ^= 0xFF
    target.write_bytes(bytes(blob))
    manifest = dataset.load_manifest(tmp_path)
    with pytest.raises(DatasetError, match="val.pairs.f32"):
        dataset.load_split(manifest, "val")


@pytest.mark.parametrize("key, value", [
    ("splits", None), ("splits", [1]), ("operator", None), ("operator", "dense"),
    ("image_size", None), ("image_size", "8"), ("image_size", 0), ("image_size", True),
])
def test_load_manifest_rejects_missing_or_malformed_keys(tmp_path, key, value):
    dataset.gen_dataset(small_spec(), tmp_path)
    path = tmp_path / "manifest.json"
    manifest = json.loads(path.read_text())
    if value is None:
        del manifest[key]
    else:
        manifest[key] = value
    path.write_text(json.dumps(manifest))
    with pytest.raises(DatasetError, match=key):
        dataset.load_manifest(tmp_path)


def test_image_size_below_one_rejected():
    with pytest.raises(ParameterError, match="image_size"):
        dataset.DatasetSpec(image_size=0)


def test_f64_dataset_roundtrip_exact(tmp_path):
    spec = small_spec(dtype="f64")
    dataset.gen_dataset(spec, tmp_path)
    manifest = dataset.load_manifest(tmp_path)
    data = dataset.load_split(manifest, "train").head(4)
    op = dataset.operator_from_manifest(manifest)
    y_raw = data.x.reshape(4, -1) @ op.matrix.T
    assert np.max(np.abs(data.raw() - y_raw)) < 1e-10


def test_operator_from_manifest_matches(tmp_path):
    spec = small_spec()
    dataset.gen_dataset(spec, tmp_path)
    manifest = dataset.load_manifest(tmp_path)
    a = dataset.operator_from_manifest(manifest)
    b = dataset.operator_from_manifest(manifest)
    assert a.matrix.tobytes() == b.matrix.tobytes()


def test_write_pgm(tmp_path):
    img = np.linspace(0, 1, 16).reshape(4, 4)
    dataset.write_pgm(tmp_path / "x.pgm", img)
    raw = (tmp_path / "x.pgm").read_bytes()
    assert raw.startswith(b"P5\n4 4\n255\n")
    assert len(raw) == len(b"P5\n4 4\n255\n") + 16
    assert raw[-1] == 255 and raw[len(b"P5\n4 4\n255\n")] == 0


def test_split_raw_and_head_match_per_sample_denormalization(tmp_path):
    manifest = dataset.gen_dataset(small_spec(operator_kind=sensing.FOURIER_MASKED), tmp_path)
    data = dataset.load_split(dataset.load_manifest(tmp_path), "train")
    raw = data.raw()
    assert raw.shape == (12, manifest["operator"]["m"])
    for i in range(len(data)):
        one = data.y[i] * data.scale[i] + data.offset[i]
        assert raw[i].tobytes() == one.tobytes()
    assert data.head(0) is data
    first = data.head(5)
    assert len(first) == 5 and first.raw().tobytes() == raw[:5].tobytes()


def test_load_split_returns_the_generated_stacks(tmp_path):
    spec = small_spec(dtype="f64", noise_sigma=0.1)
    dataset.gen_dataset(spec, tmp_path)
    loaded = dataset.load_split(dataset.load_manifest(tmp_path), "val")
    made = dataset.generate_split(spec, spec.build_operator(), "val", spec.val)
    for name in ("x", "y", "scale", "offset"):
        assert getattr(loaded, name).tobytes() == getattr(made, name).tobytes(), name


def _edit_manifest(tmp_path, edit):
    dataset.gen_dataset(small_spec(), tmp_path)
    path = tmp_path / "manifest.json"
    manifest = json.loads(path.read_text())
    edit(manifest)
    path.write_text(json.dumps(manifest))


@pytest.mark.parametrize("where, key, value, message", [
    ((), "image_size", 6, "image_size"),
    ((), "dtype", "f16", "dtype"),
    (("operator",), "kind", "bogus", "kind"),
    (("operator",), "seed", -1, "seed"),
    (("operator",), "n", 65, "operator does not map"),
    (("splits", "val"), "count", "4", "count"),
    (("splits", "val"), "pairs", 3, "pairs"),
    (("splits", "test"), "norm", None, "norm"),
    ((), "version", True, "version"),
    ((), "version", 1.0, "version"),
])
def test_load_manifest_rejects_malformed_entries(tmp_path, where, key, value, message):
    def edit(manifest):
        for step in where:
            manifest = manifest[step]
        manifest[key] = value

    _edit_manifest(tmp_path, edit)
    with pytest.raises(DatasetError, match=message):
        dataset.load_manifest(tmp_path)


# ---- corrupt datasets: typed errors, and the CLI exits 2 ---------------------------

# every manifest entry that load_split and operator_from_manifest read
_READ_KEYS = (
    [("image_size",), ("dtype",), ("splits",), ("operator",)]
    + [("operator", key) for key in ("kind", "m", "n", "seed")]
    + [("splits", split, key) for split in dataset.SPLITS
       for key in ("count", "pairs", "pairs_sha256", "norm", "norm_sha256")]
)


@pytest.fixture(scope="module")
def clean_dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("clean")
    dataset.gen_dataset(small_spec(), path)
    return path


def _copy_dataset(src, dst):
    for f in src.iterdir():
        (dst / f.name).write_bytes(f.read_bytes())


def _solve_exits_2(data_dir, split="test"):
    from click.testing import CliRunner

    from trustkit.cli import main

    res = CliRunner().invoke(main, ["solve", "--dataset", str(data_dir), "--split", split,
                                    "--out", str(data_dir / "run"), "--limit", "1"])
    assert res.exit_code == 2, res.output
    assert "Traceback" not in res.output
    assert res.exception is None or isinstance(res.exception, SystemExit)


@settings(max_examples=30)
@given(path=st.sampled_from(_READ_KEYS))
def test_manifest_missing_any_read_key_is_a_dataset_error(clean_dataset, path):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        _copy_dataset(clean_dataset, tmp)
        manifest = json.loads((tmp / "manifest.json").read_text())
        entries = manifest
        for step in path[:-1]:
            entries = entries[step]
        del entries[path[-1]]
        (tmp / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(DatasetError):
            dataset.load_manifest(tmp)
        _solve_exits_2(tmp)


@settings(max_examples=30)
@given(split=st.sampled_from(dataset.SPLITS), blob=st.sampled_from(["pairs", "norm"]),
       where=st.floats(0.0, 1.0, exclude_max=True), flip=st.integers(1, 255))
def test_flipped_blob_byte_is_a_dataset_error(clean_dataset, split, blob, where, flip):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        _copy_dataset(clean_dataset, tmp)
        manifest = dataset.load_manifest(tmp)
        target = tmp / manifest["splits"][split][blob]
        data = bytearray(target.read_bytes())
        data[int(where * len(data))] ^= flip
        target.write_bytes(bytes(data))
        with pytest.raises(DatasetError, match="checksum mismatch"):
            dataset.load_split(manifest, split)
        _solve_exits_2(tmp, split)
