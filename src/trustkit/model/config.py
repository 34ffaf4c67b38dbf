"""Architecture and training hyperparameters."""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import NamedTuple

from ..errors import ParameterError, check_finite, check_ints, is_int

MLP_RATIO = 4  # transformer feed-forward width, in multiples of embed_dim


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
    """Hybrid reconstructor: attention encoder over patch tokens, upsampling
    decoder with projected token skips.

    The decoder's geometry follows from the other settings. Its first stage
    reads the token grid, ``image_size / patch_size`` tokens a side, and
    stages double the resolution from there until the image size is reached;
    any remaining stages refine at full resolution. Doubling lands on the
    image size only from a power-of-two patch, so ``patch_size`` must be one:
    1, 2, 4, ... Skip connection j wires encoder block ``skip_sources[j]``
    (1-indexed) into decoder stage j when ``skip_enabled[j]`` is set; the
    sources are (min(4, depth), min(2, depth)) for the encoder depth: (4, 2)
    at the default depth 4, (1, 1) at depth 1.
    """

    image_size: int = 32
    patch_size: int = 4
    embed_dim: int = 64
    num_heads: int = 4
    encoder_depth: int = 4
    decoder_channels: tuple[int, ...] = (64, 32, 16, 8)
    skip_enabled: tuple[bool, ...] = (True, True)
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "decoder_channels", tuple(self.decoder_channels))
        object.__setattr__(self, "skip_enabled", tuple(self.skip_enabled))
        check_ints(self, {"image_size": 1, "patch_size": 1, "embed_dim": 1, "num_heads": 1,
                           "encoder_depth": 1, "seed": 0})
        if not all(is_int(ch, 1) for ch in self.decoder_channels):
            raise ParameterError("every decoder_channels entry must be an integer >= 1, "
                                 f"got {self.decoder_channels}")
        if not all(isinstance(flag, bool) for flag in self.skip_enabled):
            raise ParameterError(
                f"every skip_enabled entry must be a bool, got {self.skip_enabled}"
            )
        if self.patch_size & (self.patch_size - 1):
            raise ParameterError(f"patch_size must be a power of two, got {self.patch_size}")
        if self.image_size % self.patch_size != 0:
            raise ParameterError(
                f"image_size {self.image_size} not divisible by patch_size {self.patch_size}"
            )
        if self.embed_dim % self.num_heads != 0:
            raise ParameterError(
                f"embed_dim {self.embed_dim} not divisible by num_heads {self.num_heads}"
            )
        ups = self.patch_size.bit_length() - 1
        if len(self.decoder_channels) < ups:
            raise ParameterError(
                f"{ups} upsampling stages needed to reach {self.image_size} from "
                f"{self.token_grid}, but only {len(self.decoder_channels)} decoder channels given"
            )
        if len(self.skip_enabled) != len(self.skip_sources):
            raise ParameterError(f"skip_enabled must hold one flag per skip connection "
                                 f"({len(self.skip_sources)}), got {self.skip_enabled}")
        if len(self.skip_sources) > len(self.decoder_channels):
            raise ParameterError("more skip connections than decoder stages")

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

    @property
    def skip_sources(self) -> tuple[int, int]:
        return (min(4, self.encoder_depth), min(2, self.encoder_depth))

    def stage_plan(self) -> list[Stage]:
        """One ``Stage`` per decoder stage, in order. A stage upsamples by two
        while below the image size, concatenates its skip, projected to the
        stage's channels, and convolves; stage 0 reads the token grid."""
        plan = []
        res, in_ch = self.token_grid, self.embed_dim
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


@dataclass(frozen=True)
class UnetConfig:
    """Three-level convolutional encoder/decoder baseline with skips."""

    image_size: int = 32
    base_channels: int = 8
    seed: int = 0

    def __post_init__(self):
        check_ints(self, {"image_size": 4, "base_channels": 1, "seed": 0})
        if self.image_size % 4 != 0:
            raise ParameterError(f"image_size {self.image_size} must be divisible by 4")

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
        check_ints(self, {"batch_size": 1, "epochs": 1, "seed": 0})
        check_finite(self, ("learning_rate",))
