import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from trustkit import dataset, model, sensing
from trustkit.errors import DatasetError, DimensionError, ParameterError

from json_values import JSON_VALUES


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
    # targets already lie in [0, 1], so normalization is the identity
    spec = small_spec(operator_kind=sensing.IDENTITY)
    data = dataset.generate_split(spec, spec.build_operator(), "val", spec.val)
    assert data.y.tobytes() == data.x.reshape(spec.val, -1).tobytes()
    assert np.all(data.scale == 1.0) and np.all(data.offset == 0.0)


def test_pair_normalization_roundtrip():
    spec = small_spec(noise_sigma=0.1)
    op = spec.build_operator()
    data = dataset.generate_split(spec, op, "train", spec.train)
    assert data.y.min() >= 0.0 and data.y.max() <= 1.0
    seeds = (dataset._derived_seed(spec.seed, "train", i, noise=True) for i in range(spec.train))
    noise = np.stack([np.random.default_rng(seed).standard_normal(op.m) for seed in seeds])
    y_raw = data.x.reshape(spec.train, -1) @ op.matrix.T + 0.1 * noise
    assert np.max(np.abs(data.raw() - y_raw)) < 1e-10


def test_split_noise_is_drawn_from_each_samples_seed():
    # the same sample gets the same noise whatever the split's size, and
    # the noise is there
    spec = small_spec(noise_sigma=0.5)
    op = spec.build_operator()
    every = dataset.generate_split(spec, op, "train", spec.train)
    first = dataset.generate_split(spec, op, "train", 3)
    for name in ("x", "y", "scale", "offset"):
        assert getattr(first, name).tobytes() == getattr(every, name)[:3].tobytes(), name
    clean = dataset.generate_split(small_spec(), op, "train", 3)
    assert clean.x.tobytes() == first.x.tobytes()
    assert not np.allclose(clean.raw(), first.raw())


def test_pair_normalization_range_holds_zero():
    # all-negative measurements normalize as if a zero were among them
    spec = small_spec()
    matrix = np.stack([np.full(64, -30.0), np.full(64, -20.0)])
    op = sensing.SensingOperator(sensing.DENSE, 2, 64, 0, matrix)
    data = dataset.generate_split(spec, op, "val", spec.val)
    total = data.x.reshape(spec.val, -1).sum(axis=1)
    assert np.allclose(data.offset, -30.0 * total, rtol=1e-15, atol=0)
    assert np.array_equal(data.scale, -data.offset)
    assert np.all(data.y[:, 0] == 0.0)
    assert np.allclose(data.y[:, 1], 1.0 / 3.0, rtol=1e-14, atol=0)


def test_pair_fat_operator_gives_its_m_measurements():
    spec = small_spec(operator_kind=sensing.GAUSSIAN_FAT)
    op = spec.build_operator()
    assert (op.m, op.n) == (32, 64)
    data = dataset.generate_split(spec, op, "val", spec.val)
    assert data.y.shape == (spec.val, 32)
    y_raw = np.stack([sensing.apply(op, x.reshape(-1)) for x in data.x])
    assert np.max(np.abs(data.raw() - y_raw)) < 1e-10


def test_split_rows_match_one_sample_at_a_time():
    # the stacked measurement and normalization give each row the bits of
    # measuring and normalizing that sample alone
    spec = small_spec(operator_kind=sensing.FOURIER_MASKED, noise_sigma=0.05)
    op = spec.build_operator()
    data = dataset.generate_split(spec, op, "test", spec.test)
    for i in range(spec.test):
        x = dataset.gen_target(spec.target, 8, dataset._derived_seed(spec.seed, "test", i))
        rng = np.random.default_rng(dataset._derived_seed(spec.seed, "test", i, noise=True))
        y_raw = op.matrix @ x.reshape(-1) + 0.05 * rng.standard_normal(op.m)
        offset = min(float(y_raw.min()), 0.0)
        scale = max(max(float(y_raw.max()), 0.0) - offset, 1.0)
        assert data.x[i].tobytes() == x.tobytes()
        assert (data.scale[i], data.offset[i]) == (scale, offset)
        assert data.y[i].tobytes() == ((y_raw - offset) / scale).tobytes()


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


@pytest.mark.parametrize("kind", [sensing.GAUSSIAN_FAT, sensing.FOURIER_MASKED])
def test_input_stage_refuses_a_non_square_split(tmp_path, kind):
    dataset.gen_dataset(small_spec(operator_kind=kind), tmp_path)
    data = dataset.load_split(dataset.load_manifest(tmp_path), "val")
    with pytest.raises(DimensionError, match="square operator dataset"):
        model.input_stage(model.UnetConfig(image_size=8), data.y)


def test_input_stage_of_a_square_split_keeps_its_measurements(tmp_path):
    dataset.gen_dataset(small_spec(), tmp_path)
    data = dataset.load_split(dataset.load_manifest(tmp_path), "val")
    images = model.input_stage(model.UnetConfig(image_size=8), data.y).data
    assert images.shape == (4, 8, 8)
    assert images.tobytes() == data.y.tobytes()


def test_energy_spread_under_dense_operator():
    # a single blob diffuses: no pixel of y holds > 20% of total energy
    wins = 0
    for seed in (0, 1, 2):
        spec = dataset.DatasetSpec(image_size=32, train=1, val=1, test=1, seed=seed,
                                   target=dataset.TargetSpec(num_blobs=(1, 1)))
        op = sensing.sample_operator(sensing.DENSE, 1024, 1024, seed=seed)
        energy = dataset.generate_split(spec, op, "val", 1).y[0] ** 2
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
    assert not (tmp_path / "ds").exists()


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


# each kind's m on an n-pixel image when the datasets' table held it, with
# fourier_masked keeping a quarter of the n frequencies
_TABLE_M = {sensing.GAUSSIAN_FAT: lambda n: n // 2,
            sensing.FOURIER_MASKED: lambda n: 2 * max(1, round(0.25 * n))}


@pytest.mark.parametrize("kind", sensing.KINDS)
def test_each_operator_kinds_default_m_is_the_tables(kind):
    for size in range(7, 33):
        n = size * size
        assert sensing.default_m(kind, n) == _TABLE_M.get(kind, lambda n: n)(n)
    op = small_spec(operator_kind=kind).build_operator()
    assert (op.kind, op.m, op.n) == (kind, _TABLE_M.get(kind, lambda n: n)(64), 64)


# m = 2 max(1, round(f n)) reproduces the old fourier_masked keep fraction f
@pytest.mark.parametrize("kind,m", [(sensing.FOURIER_MASKED, 2), (sensing.FOURIER_MASKED, 128),
                                    (sensing.TALL_ORTHONORMAL, 128)])
def test_measurements_set_the_operators_m(kind, m):
    op = small_spec(operator_kind=kind, measurements=m).build_operator()
    assert (op.kind, op.m, op.n) == (kind, m, 64)


@pytest.mark.parametrize("make,values,message", [
    (dataset.TargetSpec, {"sigma": (0, 0)}, "sigma"),
    (dataset.TargetSpec, {"sigma": (-1.0, 1.0)}, "sigma"),
    (dataset.TargetSpec, {"amplitude": (1.0, 0.5)}, "amplitude"),
    (dataset.TargetSpec, {"amplitude": (0.5, float("inf"))}, "amplitude"),
    (dataset.TargetSpec, {"num_blobs": (1.5, 3)}, "num_blobs"),
    (dataset.TargetSpec, {"num_blobs": (1, 2, 3)}, "num_blobs"),
    (small_spec, {"image_size": 8.0}, "image_size"),
    (small_spec, {"train": 2.5}, "split counts"),
    (small_spec, {"test": True}, "split counts"),
    (small_spec, {"seed": -1}, "seed"),
    (small_spec, {"seed": 1.5}, "seed"),
    (small_spec, {"noise_sigma": float("nan")}, "noise_sigma"),
    (small_spec, {"noise_sigma": float("inf")}, "noise_sigma"),
    (small_spec, {"noise_sigma": -0.1}, "noise_sigma"),
    (small_spec, {"operator_kind": "bogus"}, "operator kind"),
    (small_spec, {"measurements": -1}, "measurements"),
    (small_spec, {"measurements": 2.0}, "measurements"),
    (small_spec, {"operator_kind": sensing.IDENTITY, "measurements": 32},
     "identity requires m == n, got 32x64"),
], ids=["sigma-zero", "sigma-negative", "amplitude-reversed", "amplitude-inf",
        "blobs-float", "blobs-three", "image-size-float", "train-float", "test-bool",
        "seed-negative", "seed-float", "noise-nan", "noise-inf", "noise-negative",
        "kind-unknown", "measurements-negative", "measurements-float",
        "measurements-off-the-kinds-rule"])
def test_bad_spec_values_are_parameter_errors(make, values, message):
    with pytest.raises(ParameterError, match=message):
        make(**values)


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
    ((), "noise_sigma", -0.5, "noise_sigma"),
    ((), "noise_sigma", True, "noise_sigma"),
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

# every manifest entry that load_manifest, load_split, operator_from_manifest
# and check_operator read
_READ_KEYS = (
    [("version",), ("image_size",), ("dtype",), ("noise_sigma",), ("splits",), ("operator",)]
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


@settings(max_examples=60)
@given(path=st.sampled_from(_READ_KEYS), value=JSON_VALUES)
@example(path=("splits", "test", "pairs"), value="\x00")
@example(path=("splits", "test", "norm"), value="\x00")
@example(path=("splits", "val", "pairs"), value="a\x00b")
@example(path=("splits", "train", "norm"), value="a\x00b")
@example(path=("version",), value=True)
def test_any_substituted_manifest_entry_is_a_dataset_error(clean_dataset, path, value):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        _copy_dataset(clean_dataset, tmp)
        manifest = json.loads((tmp / "manifest.json").read_text())
        entries = manifest
        for step in path[:-1]:
            entries = entries[step]
        assume(json.dumps(value, sort_keys=True)
               != json.dumps(entries[path[-1]], sort_keys=True))
        entries[path[-1]] = value
        (tmp / "manifest.json").write_text(json.dumps(manifest))
        split = path[1] if len(path) == 3 else "test"
        try:
            loaded = dataset.load_manifest(tmp)
            data = dataset.load_split(loaded, split)
            dataset.check_operator(loaded, dataset.operator_from_manifest(loaded), data)
        except DatasetError:
            _solve_exits_2(tmp, split)
            return
        # a noise level above the stored one only widens what the pairs must meet
        assert path == ("noise_sigma",) and value > 0, (path, value)


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
        with pytest.raises(DatasetError, match="dataset file digest mismatch"):
            dataset.load_split(manifest, split)
        _solve_exits_2(tmp, split)


@pytest.mark.parametrize("noise_sigma", [0.0, 0.01, 0.1])
@pytest.mark.parametrize("dtype", dataset.DTYPES)
@pytest.mark.parametrize("kind", sensing.KINDS)
def test_check_operator_accepts_every_valid_dataset_and_refuses_another_seed(
        tmp_path, kind, dtype, noise_sigma):
    dataset.gen_dataset(small_spec(operator_kind=kind, dtype=dtype, noise_sigma=noise_sigma),
                        tmp_path)
    manifest = dataset.load_manifest(tmp_path)
    op = dataset.operator_from_manifest(manifest)
    splits = [dataset.load_split(manifest, split) for split in dataset.SPLITS]
    for data in splits:
        dataset.check_operator(manifest, op, data)
    info = manifest["operator"]
    other = sensing.sample_operator(info["kind"], info["m"], info["n"], info["seed"] + 1)
    if kind == sensing.IDENTITY:  # its one member does not depend on the seed
        dataset.check_operator(manifest, other, splits[0])
    else:
        with pytest.raises(DatasetError, match="did not measure the stored pairs"):
            dataset.check_operator(manifest, other, splits[0])


def test_check_operator_passes_a_split_of_zero_targets(tmp_path):
    spec = small_spec(target=dataset.TargetSpec(num_blobs=(0, 0)))
    dataset.gen_dataset(spec, tmp_path)
    manifest = dataset.load_manifest(tmp_path)
    other = sensing.sample_operator(sensing.DENSE, 64, 64, seed=1)
    dataset.check_operator(manifest, other, dataset.load_split(manifest, "test"))
