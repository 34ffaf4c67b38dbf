"""Synthetic observation-target pair generation and persistence.

Targets are sparse fields of Gaussian blobs on a dark background; the
observation is the operator's m measurements of the flattened target plus
optional noise, affine-normalized into [0, 1] with the constants stored so
the raw measurement can be recovered. A split stores them as an (N, m)
block.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import metrics, sensing
from .errors import (OBJECT, STRING, DatasetError, ParameterError, check_entries, check_finite,
                     check_ints, is_finite, is_int, make_out_dir, read_blob, read_json_object,
                     write_blob, write_json)

MANIFEST_VERSION = 2
_SPLIT_KEY = {"train": 0x10, "val": 0x11, "test": 0x12}  # each split's sample seed
SPLITS = tuple(_SPLIT_KEY)
DTYPES = ("f32", "f64")  # on-disk precisions


@dataclass(frozen=True)
class TargetSpec:
    num_blobs: tuple[int, int] = (1, 4)
    amplitude: tuple[float, float] = (0.5, 1.0)
    sigma: tuple[float, float] = (0.5, 1.5)

    def __post_init__(self):
        for name, valid, what in (("num_blobs", lambda v: is_int(v, 0), "blob counts >= 0"),
                                  ("amplitude", math.isfinite, "finite amplitudes"),
                                  ("sigma", lambda v: math.isfinite(v) and v > 0,
                                   "finite sigmas > 0")):
            pair = tuple(getattr(self, name))
            object.__setattr__(self, name, pair)
            if not (len(pair) == 2 and all(map(valid, pair)) and pair[0] <= pair[1]):
                raise ParameterError(f"{name} must be a (low, high) range of {what}, got {pair}")


@dataclass(frozen=True)
class DatasetSpec:
    image_size: int = 32
    train: int = 2000
    val: int = 400
    test: int = 400
    operator_kind: str = sensing.DENSE
    measurements: int = 0  # 0: the operator kind's sensing.default_m
    noise_sigma: float = 0.0
    seed: int = 0
    dtype: str = "f32"  # on-disk precision; generation is always f64
    target: TargetSpec = field(default_factory=TargetSpec)

    def __post_init__(self):
        if not is_int(self.image_size, metrics.SSIM_WINDOW):
            raise ParameterError(f"image_size must be an integer >= {metrics.SSIM_WINDOW}, "
                                 f"the SSIM window every score uses, got {self.image_size!r}")
        if not all(is_int(count, 1) for count in (self.train, self.val, self.test)):
            raise ParameterError(f"split counts must be integers >= 1, got {self.train!r}, "
                                 f"{self.val!r}, {self.test!r}")
        check_ints(self, {"seed": 0, "measurements": 0})
        if self.dtype not in DTYPES:
            raise ParameterError(f"dtype must be f32 or f64, got {self.dtype!r}")
        check_finite(self, ("noise_sigma",))
        violation = sensing.shape_violation(self.operator_kind, self.m, self.image_size**2)
        if violation:
            raise ParameterError(violation)

    @property
    def m(self) -> int:
        """The operator's m: ``measurements``, or its kind's default when that is 0."""
        return self.measurements or sensing.default_m(self.operator_kind, self.image_size**2)

    def build_operator(self) -> sensing.SensingOperator:
        rng = np.random.default_rng(np.random.SeedSequence(entropy=self.seed, spawn_key=(0x20,)))
        op_seed = int(rng.integers(0, 2**31 - 1))
        return sensing.sample_operator(self.operator_kind, self.m, self.image_size**2, op_seed)


@dataclass(frozen=True)
class Split:
    """One split as stacks: targets x (N, S, S), the operator's normalized
    measurements y (N, m), and the per-sample affine constants scale and
    offset (N,), with y_raw = y * scale + offset."""

    x: np.ndarray
    y: np.ndarray
    scale: np.ndarray
    offset: np.ndarray

    def __len__(self) -> int:
        return len(self.x)

    def raw(self) -> np.ndarray:
        """The (N, m) de-normalized measurements."""
        return self.y * self.scale[:, None] + self.offset[:, None]

    def head(self, limit: int) -> Split:
        """The first ``limit`` samples; 0 keeps them all."""
        if not limit:
            return self
        return Split(self.x[:limit], self.y[:limit], self.scale[:limit], self.offset[:limit])


SPARSITY_FLOOR = 5e-3  # blob tails below this snap to exactly zero


def gen_target(spec: TargetSpec, image_size: int, seed) -> np.ndarray:
    """Sum of Gaussian blobs on zero background, clipped to [0, 1].

    Sub-threshold tail values are zeroed so targets are exactly sparse,
    not merely small off-support.
    """
    rng = np.random.default_rng(seed)
    img = np.zeros((image_size, image_size))
    count = int(rng.integers(spec.num_blobs[0], spec.num_blobs[1] + 1))
    ii, jj = np.mgrid[0:image_size, 0:image_size]
    for _ in range(count):
        ci, cj = rng.uniform(0, image_size, 2)
        amp = rng.uniform(*spec.amplitude)
        sig = rng.uniform(*spec.sigma)
        img += amp * np.exp(-((ii - ci) ** 2 + (jj - cj) ** 2) / (2.0 * sig * sig))
    img[img < SPARSITY_FLOOR] = 0.0
    return np.clip(img, 0.0, 1.0)


def _derived_seed(global_seed: int, split: str, index: int, noise: bool = False):
    key = (_SPLIT_KEY[split], index, 1 if noise else 0)
    return np.random.SeedSequence(entropy=global_seed, spawn_key=key)


def generate_split(spec: DatasetSpec, op: sensing.SensingOperator, split: str,
                   count: int) -> Split:
    """The ``count`` samples of one split, each target and noise vector drawn
    from its sample's seed. One ``sensing.apply`` measures the stack; each row
    maps affinely into [0, 1] by a range that also holds 0 (the identity when
    the row is already inside)."""
    s = spec.image_size
    x = np.empty((count, s, s))
    for index in range(count):
        x[index] = gen_target(spec.target, s, _derived_seed(spec.seed, split, index))
    y = sensing.apply(op, x.reshape(count, -1))
    # noise that overflows the observations is refused below, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        if spec.noise_sigma > 0:
            noise = np.empty_like(y)
            for index in range(count):
                rng = np.random.default_rng(_derived_seed(spec.seed, split, index, noise=True))
                noise[index] = rng.standard_normal(op.m)
            y += spec.noise_sigma * noise
        # Python's min(v, 0.0) and max(v, c): np.minimum and np.maximum turn -0.0 into 0.0
        low, high = y.min(axis=1), y.max(axis=1)
        offset = np.where(low > 0.0, 0.0, low)
        span = np.where(high < 0.0, 0.0, high) - offset
        scale = np.where(span < 1.0, 1.0, span)
        y -= offset[:, None]
        y /= scale[:, None]
    if not all(np.isfinite(a).all() for a in (y, scale, offset)):
        raise ParameterError(f"noise_sigma {spec.noise_sigma} overflows the {split} observations")
    return Split(x=x, y=y, scale=scale, offset=offset)


def _pair_dtype(dtype: str):
    return "<f4" if dtype == "f32" else "<f8"


def gen_dataset(spec: DatasetSpec, out_dir: str | Path) -> dict:
    """Write split blobs, normalization sidecars, and the manifest.

    The operator and every split are drawn before ``out_dir`` is made, so a
    spec they refuse leaves no directory behind; that, and a directory that
    cannot be made, is a ParameterError. Deterministic: identical specs
    produce byte-identical files.
    """
    op = spec.build_operator()
    splits = {split: generate_split(spec, op, split, getattr(spec, split)) for split in SPLITS}
    out_dir = make_out_dir(out_dir)
    manifest = {
        "version": MANIFEST_VERSION,
        "image_size": spec.image_size,
        "dtype": spec.dtype,
        "seed": spec.seed,
        "noise_sigma": spec.noise_sigma,
        "operator": {"kind": op.kind, "m": op.m, "n": op.n, "seed": op.seed},
        "target": asdict(spec.target),
        "splits": {},
    }
    dt = _pair_dtype(spec.dtype)
    for split, data in splits.items():
        count = len(data)
        records = np.concatenate([data.x.reshape(count, -1), data.y], axis=1)
        pair_file = out_dir / f"{split}.pairs.{spec.dtype}"
        norm_file = out_dir / f"{split}.norm.f64"
        manifest["splits"][split] = {
            "count": count,
            "pairs": pair_file.name,
            "pairs_sha256": write_blob(pair_file, records.astype(dt).tobytes()),
            "norm": norm_file.name,
            "norm_sha256": write_blob(norm_file, np.stack([data.scale, data.offset], axis=1)
                                      .astype("<f8").tobytes()),
        }
    write_json(out_dir / "manifest.json", manifest)
    return manifest


# Every manifest entry that load_split and operator_from_manifest read:
# key -> (test of its value, what the value must be).
_POSITIVE = (lambda v: is_int(v, 1), "a positive integer")
_TOP_KEYS = {
    "version": (lambda v: is_int(v) and v == MANIFEST_VERSION, str(MANIFEST_VERSION)),
    "image_size": (lambda v: is_int(v, metrics.SSIM_WINDOW),
                   f"an integer >= {metrics.SSIM_WINDOW}, the SSIM window"),
    "dtype": (lambda v: v in DTYPES, "'f32' or 'f64'"),
    "noise_sigma": (is_finite, "a finite number >= 0"),
    "operator": OBJECT,
    "splits": OBJECT,
}
_OPERATOR_KEYS = {
    "kind": (lambda v: v in sensing.KINDS, f"one of {sensing.KINDS}"),
    "m": _POSITIVE,
    "n": _POSITIVE,
    "seed": (lambda v: is_int(v, 0), "a non-negative integer"),
}
_SPLIT_KEYS = {"count": _POSITIVE, "pairs": STRING, "pairs_sha256": STRING,
               "norm": STRING, "norm_sha256": STRING}


def load_manifest(path: str | Path) -> dict:
    """Read a manifest and check the type of every entry the loaders use."""
    path = Path(path)
    if path.is_dir():
        path = path / "manifest.json"
    manifest = read_json_object(path, DatasetError, "manifest")
    where = f"manifest {path}"
    check_entries(manifest, _TOP_KEYS, where, DatasetError)
    op, splits = manifest["operator"], manifest["splits"]
    check_entries(op, _OPERATOR_KEYS, f"{where} operator", DatasetError)
    if op["n"] != manifest["image_size"] ** 2:
        raise DatasetError(f"{where}: a {op['m']}x{op['n']} operator does not map "
                           f"{manifest['image_size']} px images")
    check_entries(splits, dict.fromkeys(splits, OBJECT), f"{where} splits", DatasetError)
    for split, info in splits.items():
        check_entries(info, _SPLIT_KEYS, f"{where} split {split!r}", DatasetError)
    manifest["_dir"] = str(path.parent)
    return manifest


def load_split(manifest: dict, split: str) -> Split:
    """The checksum-verified samples of one split, as float64 stacks."""
    if split not in manifest["splits"]:
        raise DatasetError(f"manifest has no split {split!r}")
    info = manifest["splits"][split]
    pair_blob, norm_blob = (
        read_blob(Path(manifest["_dir"]) / info[name], info[f"{name}_sha256"], DatasetError,
                  "dataset file") for name in ("pairs", "norm"))
    s, m, count = manifest["image_size"], manifest["operator"]["m"], info["count"]
    records = np.frombuffer(pair_blob, dtype=_pair_dtype(manifest["dtype"]))
    norms = np.frombuffer(norm_blob, dtype="<f8")
    if records.size != count * (s * s + m) or norms.size != 2 * count:
        raise DatasetError(f"dataset file sizes inconsistent for split {split!r}")
    records = records.reshape(count, -1)
    norms = norms.reshape(count, 2)
    return Split(
        x=records[:, : s * s].astype(np.float64).reshape(count, s, s),
        y=records[:, s * s :].astype(np.float64),
        scale=norms[:, 0].copy(),
        offset=norms[:, 1].copy(),
    )


def operator_from_manifest(manifest: dict) -> sensing.SensingOperator:
    """The operator the manifest records; a DatasetError when its kind has
    no member of its shape."""
    info = manifest["operator"]
    try:
        return sensing.sample_operator(info["kind"], info["m"], info["n"], info["seed"])
    except ParameterError as exc:
        raise DatasetError(f"manifest operator: {exc}") from None


def check_operator(manifest: dict, op: sensing.SensingOperator, split: Split) -> None:
    """DatasetError unless ``op`` measured the split: its measurement of the
    first non-zero stored target must lie within the noise and storage
    allowance of that sample's stored raw measurement. A split whose targets
    are all zero cannot tell operators apart and passes.

    The noise allowance is sigma (sqrt(m) + 8), with sigma the manifest's
    ``noise_sigma``: |w| of w ~ N(0, sigma^2 I_m) exceeds it with
    probability below e^-32. The storage allowance is
    4 eps (|A|_F |x| + sqrt(m) (scale + |offset|)), with eps that of the
    stored precision: it holds the rounding of the stored target and of the
    normalized measurement. An operator of another seed misses a blob target
    by a distance of the order of |A x|, far outside both.
    """
    nonzero = np.flatnonzero(split.x.reshape(len(split), -1).any(axis=1))
    if not nonzero.size:
        return
    i = int(nonzero[0])
    x = split.x[i].reshape(-1)
    scale, offset = split.scale[i], split.offset[i]
    residual = float(np.linalg.norm(op.matrix @ x - (split.y[i] * scale + offset)))
    eps = float(np.finfo(_pair_dtype(manifest["dtype"])).eps)
    allowance = (manifest["noise_sigma"] * (math.sqrt(op.m) + 8.0)
                 + 4.0 * eps * (float(np.linalg.norm(op.matrix)) * float(np.linalg.norm(x))
                                + math.sqrt(op.m) * (scale + abs(offset))))
    if not residual <= allowance:
        raise DatasetError(
            f"manifest {Path(manifest['_dir']) / 'manifest.json'}: its {op.kind} operator of "
            f"seed {op.seed} did not measure the stored pairs (sample {i}: |A x - y| = "
            f"{residual:.3g}, allowed {allowance:.3g})")


def write_pgm(path: str | Path, image: np.ndarray) -> None:
    """8-bit binary PGM (P5); values are clipped to [0, 1] then scaled."""
    img = np.clip(np.asarray(image, dtype=np.float64), 0.0, 1.0)
    data = np.round(img * 255.0).astype(np.uint8)
    h, w = data.shape
    with Path(path).open("wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(data.tobytes())
