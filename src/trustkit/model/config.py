"""Architecture and training hyperparameters."""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import NamedTuple

from ..errors import ParameterError

MLP_RATIO = 4  # transformer feed-forward width, in multiples of embed_dim
MAX_POOL_GRID = 8  # largest pooled token grid chosen when pool_grid is not given


class Stage(NamedTuple):
    """A decoder stage: its output side, the channels its convolution reads
    (its skip's included) and writes, whether it upsamples, and the 1-indexed
    encoder block feeding its skip (None without one)."""

    resolution: int
    in_channels: int
    out_channels: int
    upsampled: bool
    skip_block: int | None


@dataclass(frozen=True)
class TrustConfig:
    """Hybrid reconstructor: attention encoder, adaptive pooling, upsampling
    decoder with projected token skips.

    Decoder stages double the resolution until the image size is reached;
    any remaining stages refine at full resolution. Skip connection j wires
    encoder block ``skip_sources[j]`` (1-indexed) into decoder stage j. When
    ``skip_sources`` is not given it is (min(4, depth), min(2, depth)) for
    the encoder depth: (4, 2) at the default depth 4, (2, 2) at depth 2.

    When ``pool_grid`` is not given it is derived from the image: the largest
    grid that is at most ``MAX_POOL_GRID`` (8), at most the token grid, and
    divides ``image_size`` by a power of two. A 32 px image keeps 8, 8 px
    gets 2, 48 px gets 6. The resolved integer is what the instance holds,
    so ``to_dict`` and checkpoints store it, and a checkpoint that holds
    ``pool_grid: 8`` loads unchanged. The same holds for ``skip_sources``.
    An explicit ``pool_grid`` or ``skip_sources`` is validated as given.
    """

    image_size: int = 32
    patch_size: int = 4
    embed_dim: int = 64
    num_heads: int = 4
    encoder_depth: int = 4
    pool_grid: int | None = None
    decoder_channels: tuple[int, ...] = (64, 32, 16, 8)
    skip_sources: tuple[int, ...] | None = None
    skip_enabled: tuple[bool, ...] = (True, True)
    seed: int = 0

    def __post_init__(self):
        skips = self.skip_sources
        if skips is None:
            skips = (min(4, self.encoder_depth), min(2, self.encoder_depth))
        object.__setattr__(self, "decoder_channels", tuple(self.decoder_channels))
        object.__setattr__(self, "skip_sources", tuple(skips))
        object.__setattr__(self, "skip_enabled", tuple(bool(b) for b in self.skip_enabled))
        for name in ("image_size", "patch_size", "embed_dim", "num_heads", "encoder_depth"):
            if getattr(self, name) < 1:
                raise ParameterError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.image_size % self.patch_size != 0:
            raise ParameterError(
                f"image_size {self.image_size} not divisible by patch_size {self.patch_size}"
            )
        if self.pool_grid is None:
            grid = _derive_pool_grid(self.image_size, self.token_grid)
            object.__setattr__(self, "pool_grid", grid)
        if self.embed_dim % self.num_heads != 0:
            raise ParameterError(
                f"embed_dim {self.embed_dim} not divisible by num_heads {self.num_heads}"
            )
        if self.pool_grid > self.token_grid:
            raise ParameterError(
                f"pool_grid {self.pool_grid} exceeds token grid {self.token_grid}"
            )
        ratio = self.image_size // self.pool_grid
        ups = _log2(ratio)
        if ups < 0 or self.pool_grid * ratio != self.image_size:
            raise ParameterError(
                f"image_size {self.image_size} must be pool_grid {self.pool_grid} "
                "times a power of two"
            )
        if len(self.decoder_channels) < ups:
            raise ParameterError(
                f"{ups} upsampling stages needed to reach {self.image_size} from "
                f"{self.pool_grid}, but only {len(self.decoder_channels)} decoder channels given"
            )
        if len(self.skip_sources) != len(self.skip_enabled):
            raise ParameterError("skip_sources and skip_enabled lengths differ")
        if len(self.skip_sources) > len(self.decoder_channels):
            raise ParameterError("more skip connections than decoder stages")
        for s in self.skip_sources:
            if not 1 <= s <= self.encoder_depth:
                raise ParameterError(
                    f"skip source block {s} outside 1..{self.encoder_depth}"
                )

    @property
    def head_dim(self) -> int:
        return self.embed_dim // self.num_heads

    @property
    def token_grid(self) -> int:
        return self.image_size // self.patch_size

    @property
    def tokens(self) -> int:
        return self.token_grid**2

    @property
    def patch_dim(self) -> int:
        return self.patch_size**2

    @property
    def mlp_dim(self) -> int:
        return MLP_RATIO * self.embed_dim

    def stage_plan(self) -> list[Stage]:
        """One ``Stage`` per decoder stage, in order. A stage upsamples by two
        while below the image size, concatenates its skip, projected to the
        stage's channels, and convolves; stage 0 reads the pooled tokens."""
        plan = []
        res, in_ch = self.pool_grid, self.embed_dim
        for s, ch in enumerate(self.decoder_channels):
            up = res < self.image_size
            if up:
                res *= 2
            skip = None
            if s < len(self.skip_sources) and self.skip_enabled[s]:
                skip = self.skip_sources[s]
                in_ch += ch
            plan.append(Stage(res, in_ch, ch, up, skip))
            in_ch = ch
        return plan

    def to_dict(self) -> dict:
        return asdict(self)


def _derive_pool_grid(image_size: int, token_grid: int) -> int:
    for grid in range(min(MAX_POOL_GRID, token_grid), 0, -1):
        if image_size % grid == 0 and _log2(image_size // grid) >= 0:
            return grid
    raise ParameterError(
        f"no pool grid <= {min(MAX_POOL_GRID, token_grid)} divides image_size "
        f"{image_size} by a power of two"
    )


def _log2(value: int) -> int:
    out = 0
    while value > 1:
        if value % 2:
            return -1  # caller's divisibility check fails on reconstruction
        value //= 2
        out += 1
    return out


@dataclass(frozen=True)
class UnetConfig:
    """Three-level convolutional encoder/decoder baseline with skips."""

    image_size: int = 32
    base_channels: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.image_size % 4 != 0:
            raise ParameterError(f"image_size {self.image_size} must be divisible by 4")
        if self.base_channels < 1:
            raise ParameterError("base_channels must be >= 1")

    def to_dict(self) -> dict:
        return asdict(self)


LOSS_KINDS = ("l2", "l2_l1", "l2_ssim")


@dataclass(frozen=True)
class TrainConfig:
    loss_kind: str = "l2_ssim"
    learning_rate: float = 1e-4
    batch_size: int = 16
    epochs: int = 20
    seed: int = 0

    def __post_init__(self):
        if self.loss_kind not in LOSS_KINDS:
            raise ParameterError(f"loss_kind must be one of {LOSS_KINDS}, got {self.loss_kind!r}")
        if self.learning_rate < 0:
            raise ParameterError("learning_rate must be >= 0")
        if self.batch_size < 1 or self.epochs < 1:
            raise ParameterError("batch_size and epochs must be >= 1")
