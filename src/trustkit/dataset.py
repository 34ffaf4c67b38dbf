"""Synthetic observation-target pair generation and persistence.

Targets are sparse fields of Gaussian blobs on a dark background; the
observation is the operator image of the flattened target plus optional
noise, affine-normalized into [0, 1] with the constants stored so the raw
measurement can be recovered.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import sensing
from .errors import DatasetError, DimensionError, ParameterError

MANIFEST_VERSION = 1
SPLITS = ("train", "val", "test")
_SPLIT_KEY = {"train": 0x10, "val": 0x11, "test": 0x12}


@dataclass(frozen=True)
class TargetSpec:
    num_blobs: tuple[int, int] = (1, 4)
    amplitude: tuple[float, float] = (0.5, 1.0)
    sigma: tuple[float, float] = (0.5, 1.5)

    def __post_init__(self):
        object.__setattr__(self, "num_blobs", tuple(self.num_blobs))
        object.__setattr__(self, "amplitude", tuple(self.amplitude))
        object.__setattr__(self, "sigma", tuple(self.sigma))
        if self.num_blobs[0] < 0 or self.num_blobs[0] > self.num_blobs[1]:
            raise ParameterError(f"invalid blob count range {self.num_blobs}")


@dataclass(frozen=True)
class DatasetSpec:
    image_size: int = 32
    train: int = 2000
    val: int = 400
    test: int = 400
    operator_kind: str = sensing.DENSE
    operator_keep: float = 0.25  # fourier_masked only
    noise_sigma: float = 0.0
    seed: int = 0
    dtype: str = "f32"  # on-disk precision; generation is always f64
    target: TargetSpec = field(default_factory=TargetSpec)

    def __post_init__(self):
        if self.image_size < 1:
            raise ParameterError(f"image_size must be >= 1, got {self.image_size}")
        if self.train < 1 or self.val < 1 or self.test < 1:
            raise ParameterError("split counts must be >= 1")
        if self.dtype not in ("f32", "f64"):
            raise ParameterError(f"dtype must be f32 or f64, got {self.dtype!r}")

    def build_operator(self) -> sensing.SensingOperator:
        n = self.image_size**2
        op_seed = int(
            np.random.default_rng(
                np.random.SeedSequence(entropy=self.seed, spawn_key=(0x20,))
            ).integers(0, 2**31 - 1)
        )
        if self.operator_kind == sensing.FOURIER_MASKED:
            return sensing.fourier_from_keep(n, self.operator_keep, op_seed)
        if self.operator_kind in (sensing.DENSE, sensing.ORTHONORMAL_SQUARE, sensing.IDENTITY):
            return sensing.sample_operator(self.operator_kind, n, n, op_seed)
        if self.operator_kind == sensing.GAUSSIAN_FAT:
            return sensing.sample_operator(self.operator_kind, n // 2, n, op_seed)
        raise ParameterError(f"unsupported dataset operator kind {self.operator_kind!r}")


@dataclass
class SamplePair:
    """Target image x, normalized observation image y, and the affine
    constants (scale, offset) with y_raw = y * scale + offset on the first
    raw_len entries of the flattened y."""

    x: np.ndarray
    y: np.ndarray
    scale: float
    offset: float
    raw_len: int

    def de_normalize(self) -> np.ndarray:
        flat = self.y.reshape(-1) * self.scale + self.offset
        return flat[: self.raw_len]


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


def _normalize(y_raw: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Affine map into [0, 1] that is the identity when already inside."""
    offset = min(float(y_raw.min()), 0.0)
    scale = max(float(y_raw.max()) - offset, 1.0)
    return (y_raw - offset) / scale, scale, offset


def gen_pair(op: sensing.SensingOperator, target: np.ndarray, noise_sigma: float,
             rng: np.random.Generator | None = None) -> SamplePair:
    """Observation for one target: y = reshape(A vec(x) + w), normalized."""
    n = target.size
    if op.n != n:
        raise DimensionError(f"operator expects n={op.n}, target has {n} pixels")
    y_raw = sensing.apply(op, target.reshape(-1), noise_sigma=noise_sigma, rng=rng)
    side = math.isqrt(op.m)
    if side * side != op.m:
        side = math.isqrt(op.m) + 1  # zero-pad to the nearest square
    padded = np.zeros(side * side)
    padded[: op.m] = y_raw
    normalized, scale, offset = _normalize(padded)
    return SamplePair(
        x=target.copy(),
        y=normalized.reshape(side, side),
        scale=scale,
        offset=offset,
        raw_len=op.m,
    )


def _derived_seed(global_seed: int, split: str, index: int, noise: bool = False):
    key = (_SPLIT_KEY[split], index, 1 if noise else 0)
    return np.random.SeedSequence(entropy=global_seed, spawn_key=key)


def generate_split(spec: DatasetSpec, op: sensing.SensingOperator, split: str,
                   count: int) -> list[SamplePair]:
    pairs = []
    for index in range(count):
        target = gen_target(spec.target, spec.image_size, _derived_seed(spec.seed, split, index))
        noise_rng = np.random.default_rng(_derived_seed(spec.seed, split, index, noise=True))
        pairs.append(gen_pair(op, target, spec.noise_sigma, rng=noise_rng))
    return pairs


def _pair_dtype(dtype: str):
    return "<f4" if dtype == "f32" else "<f8"


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def gen_dataset(spec: DatasetSpec, out_dir: str | Path) -> dict:
    """Write split blobs, normalization sidecars, and the manifest.

    Deterministic: identical specs produce byte-identical files.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    op = spec.build_operator()
    manifest = {
        "version": MANIFEST_VERSION,
        "image_size": spec.image_size,
        "dtype": spec.dtype,
        "seed": spec.seed,
        "noise_sigma": spec.noise_sigma,
        "operator": {"kind": op.kind, "m": op.m, "n": op.n, "seed": op.seed,
                     **({"keep": spec.operator_keep} if op.kind == sensing.FOURIER_MASKED else {})},
        "observation_side": 0,
        "target": asdict(spec.target),
        "splits": {},
    }
    dt = _pair_dtype(spec.dtype)
    for split, count in (("train", spec.train), ("val", spec.val), ("test", spec.test)):
        pairs = generate_split(spec, op, split, count)
        manifest["observation_side"] = pairs[0].y.shape[0]
        pair_file = out_dir / f"{split}.pairs.{spec.dtype}"
        norm_file = out_dir / f"{split}.norm.f64"
        with pair_file.open("wb") as fh:
            for p in pairs:
                fh.write(np.ascontiguousarray(p.x, dtype=dt).tobytes())
                fh.write(np.ascontiguousarray(p.y, dtype=dt).tobytes())
        with norm_file.open("wb") as fh:
            for p in pairs:
                fh.write(np.array([p.scale, p.offset], dtype="<f8").tobytes())
        manifest["splits"][split] = {
            "count": count,
            "pairs": pair_file.name,
            "pairs_sha256": _sha256(pair_file),
            "norm": norm_file.name,
            "norm_sha256": _sha256(norm_file),
            "raw_len": op.m,
        }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return manifest


def load_manifest(path: str | Path) -> dict:
    path = Path(path)
    if path.is_dir():
        path = path / "manifest.json"
    try:
        manifest = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise DatasetError(f"unreadable manifest {path}: {exc}") from exc
    if not isinstance(manifest, dict):
        raise DatasetError(f"manifest {path} does not hold a JSON object")
    if manifest.get("version") != MANIFEST_VERSION:
        raise DatasetError(f"manifest version {manifest.get('version')} != {MANIFEST_VERSION}")
    for key in ("splits", "operator"):
        if not isinstance(manifest.get(key), dict):
            raise DatasetError(f"manifest {path} has no {key!r} object")
    size = manifest.get("image_size")
    if isinstance(size, bool) or not isinstance(size, int) or size < 1:
        raise DatasetError(f"manifest {path} has no positive integer 'image_size'")
    manifest["_dir"] = str(path.parent)
    return manifest


def load_split(manifest: dict, split: str) -> list[SamplePair]:
    """Checksum-verified pairs of one split."""
    if split not in manifest["splits"]:
        raise DatasetError(f"manifest has no split {split!r}")
    info = manifest["splits"][split]
    base = Path(manifest["_dir"])
    pair_file = base / info["pairs"]
    norm_file = base / info["norm"]
    for f, digest in ((pair_file, info["pairs_sha256"]), (norm_file, info["norm_sha256"])):
        if not f.exists():
            raise DatasetError(f"missing dataset file {f}")
        if _sha256(f) != digest:
            raise DatasetError(f"checksum mismatch for {f}")
    s = manifest["image_size"]
    side = manifest["observation_side"]
    dt = _pair_dtype(manifest["dtype"])
    rec = s * s + side * side
    flat = np.frombuffer(pair_file.read_bytes(), dtype=dt).astype(np.float64)
    norms = np.frombuffer(norm_file.read_bytes(), dtype="<f8")
    count = info["count"]
    if flat.size != count * rec or norms.size != 2 * count:
        raise DatasetError(f"dataset file sizes inconsistent for split {split!r}")
    pairs = []
    for i in range(count):
        chunk = flat[i * rec : (i + 1) * rec]
        pairs.append(
            SamplePair(
                x=chunk[: s * s].reshape(s, s).copy(),
                y=chunk[s * s :].reshape(side, side).copy(),
                scale=float(norms[2 * i]),
                offset=float(norms[2 * i + 1]),
                raw_len=info["raw_len"],
            )
        )
    return pairs


def operator_from_manifest(manifest: dict) -> sensing.SensingOperator:
    info = manifest["operator"]
    return sensing.sample_operator(info["kind"], info["m"], info["n"], info["seed"])


def split_vectors(manifest: dict, split: str):
    """(target vector, de-normalized measurement) pairs for solver use."""
    return [(p.x.reshape(-1), p.de_normalize()) for p in load_split(manifest, split)]


def write_pgm(path: str | Path, image: np.ndarray) -> None:
    """8-bit binary PGM (P5); values are clipped to [0, 1] then scaled."""
    img = np.clip(np.asarray(image, dtype=np.float64), 0.0, 1.0)
    data = np.round(img * 255.0).astype(np.uint8)
    h, w = data.shape
    with Path(path).open("wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(data.tobytes())
