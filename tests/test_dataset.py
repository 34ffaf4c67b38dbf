import json

import numpy as np
import pytest

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
    op = sensing.sample_operator(sensing.ORTHONORMAL_SQUARE, 64, 64, seed=1)
    op.matrix[:] = np.eye(64)
    x = dataset.gen_target(dataset.TargetSpec(), 8, seed=3)
    pair = dataset.gen_pair(op, x, noise_sigma=0.0)
    assert np.allclose(pair.y, x, atol=1e-15)  # already in [0,1]: identity normalization
    assert pair.scale == 1.0 and pair.offset == 0.0


def test_pair_normalization_roundtrip():
    op = sensing.sample_operator(sensing.DENSE, 64, 64, seed=5)
    x = dataset.gen_target(dataset.TargetSpec(), 8, seed=4)
    rng = np.random.default_rng(0)
    pair = dataset.gen_pair(op, x, noise_sigma=0.1, rng=rng)
    assert pair.y.min() >= 0.0 and pair.y.max() <= 1.0
    rng2 = np.random.default_rng(0)
    y_raw = sensing.apply(op, x.reshape(-1), noise_sigma=0.1, rng=rng2)
    assert np.max(np.abs(pair.de_normalize() - y_raw)) < 1e-10


def test_pair_fat_operator_padded_square():
    op = sensing.sample_operator(sensing.GAUSSIAN_FAT, 32, 64, seed=2)
    x = dataset.gen_target(dataset.TargetSpec(), 8, seed=1)
    pair = dataset.gen_pair(op, x, noise_sigma=0.0)
    assert pair.y.shape == (6, 6)  # ceil(sqrt(32)) = 6
    assert pair.raw_len == 32
    assert pair.de_normalize().shape == (32,)
    y_raw = sensing.apply(op, x.reshape(-1))
    assert np.max(np.abs(pair.de_normalize() - y_raw)) < 1e-10


def test_energy_spread_under_dense_operator():
    # a single blob diffuses: no pixel of y holds > 20% of total energy
    spec = dataset.TargetSpec(num_blobs=(1, 1))
    wins = 0
    for seed in (0, 1, 2):
        op = sensing.sample_operator(sensing.DENSE, 1024, 1024, seed=seed)
        x = dataset.gen_target(spec, 32, seed=seed)
        pair = dataset.gen_pair(op, x, noise_sigma=0.0)
        energy = pair.y.reshape(-1) ** 2
        if energy.max() / energy.sum() <= 0.20:
            wins += 1
    assert wins >= 2


def test_gen_dataset_deterministic(tmp_path):
    spec = small_spec()
    dataset.gen_dataset(spec, tmp_path / "a")
    dataset.gen_dataset(spec, tmp_path / "b")
    for name in ("manifest.json", "train.pairs.f32", "train.norm.f64", "val.pairs.f32"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_split_targets_disjoint(tmp_path):
    spec = small_spec()
    manifest = dataset.gen_dataset(spec, tmp_path)
    manifest = dataset.load_manifest(tmp_path)
    train = dataset.load_split(manifest, "train")
    test = dataset.load_split(manifest, "test")
    for tr in train:
        for te in test:
            assert not np.array_equal(tr.x, te.x)


def test_loader_counts_and_checksums(tmp_path):
    spec = small_spec()
    dataset.gen_dataset(spec, tmp_path)
    manifest = dataset.load_manifest(tmp_path)
    for split, expected in (("train", 12), ("val", 4), ("test", 4)):
        pairs = dataset.load_split(manifest, split)
        assert len(pairs) == expected
        for p in pairs:
            assert p.x.shape == (8, 8) and p.y.shape == (8, 8)
            assert p.x.min() >= 0 and p.x.max() <= 1
            assert p.y.min() >= 0 and p.y.max() <= 1


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
    pairs = dataset.load_split(manifest, "train")
    op = dataset.operator_from_manifest(manifest)
    for p in pairs[:4]:
        y_raw = sensing.apply(op, p.x.reshape(-1))
        assert np.max(np.abs(p.de_normalize() - y_raw)) < 1e-10


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
