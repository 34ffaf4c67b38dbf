"""Reconstruction quality metrics: MSE/MAE/RMSE, PSNR, windowed SSIM (also
usable as a differentiable loss term), and the hallucinated-pixel rate."""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import ndtensor as nd
from .errors import DimensionError, csv_text, write_json

PSNR_RMSE_FLOOR = 1e-12  # caps a perfect match at 240 dB
SSIM_C1 = 0.01**2
SSIM_C2 = 0.03**2
SSIM_WINDOW = 7
# a pixel is hallucinated when its prediction > FPR_T_HIGH while its truth <= FPR_T_LOW
FPR_T_HIGH = 0.5
FPR_T_LOW = 0.1


def _float_pair(pred, target) -> tuple[np.ndarray, np.ndarray]:
    """Both as float64 arrays; DimensionError unless their shapes agree."""
    pred, target = np.asarray(pred, dtype=np.float64), np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise DimensionError(f"shape mismatch: {pred.shape} vs {target.shape}")
    return pred, target


def mse(pred, target) -> float:
    pred, target = _float_pair(pred, target)
    return float(np.mean((pred - target) ** 2))


def mae(pred, target) -> float:
    pred, target = _float_pair(pred, target)
    return float(np.mean(np.abs(pred - target)))


def rmse(pred, target) -> float:
    return math.sqrt(mse(pred, target))


def psnr(pred, target) -> float:
    """20 * log10(1 / RMSE) for a dynamic range of 1, with RMSE floored at 1e-12."""
    return _psnr_db(rmse(pred, target))


def _psnr_db(rmse_value: float) -> float:
    return 20.0 * math.log10(1.0 / max(rmse_value, PSNR_RMSE_FLOOR))


def fpr(pred, target) -> float:
    """Fraction of hallucinated pixels over the entire image.

    The paper's tables label this whole-image-normalized count FDR; it is
    reported under ``fpr`` only, since a support-level false discovery rate
    is a different quantity.
    """
    pred, target = _float_pair(pred, target)
    hallucinated = (pred > FPR_T_HIGH) & (target <= FPR_T_LOW)
    return float(np.count_nonzero(hallucinated)) / pred.size


def ssim_tensor(pred: nd.Tensor, target: nd.Tensor) -> nd.Tensor:
    """Per-image mean SSIM of two (B, H, W) stacks, shape (B,), over sliding
    SSIM_WINDOW-wide uniform windows.

    Built from autodiff primitives, so the gradient flows when either input
    tracks gradients; the stack is filtered in one pass. Any other shape is
    a DimensionError. Dynamic range is assumed 1.
    """
    if pred.data.shape != target.data.shape:
        raise DimensionError(f"shape mismatch: {pred.data.shape} vs {target.data.shape}")
    if pred.data.ndim != 3:
        raise DimensionError(f"ssim expects (B, H, W) stacks, got {pred.data.shape}")

    def box(t):
        return nd.box_filter(t, SSIM_WINDOW)

    mu_p = box(pred)
    mu_t = box(target)
    mu_pt = nd.mul(mu_p, mu_t)
    mu_pp = nd.mul(mu_p, mu_p)
    mu_tt = nd.mul(mu_t, mu_t)
    var_p = nd.sub(box(nd.mul(pred, pred)), mu_pp)
    var_t = nd.sub(box(nd.mul(target, target)), mu_tt)
    cov = nd.sub(box(nd.mul(pred, target)), mu_pt)

    num = nd.mul(nd.scalar_add(nd.scalar_mul(mu_pt, 2.0), SSIM_C1),
                 nd.scalar_add(nd.scalar_mul(cov, 2.0), SSIM_C2))
    den = nd.mul(nd.scalar_add(nd.add(mu_pp, mu_tt), SSIM_C1),
                 nd.scalar_add(nd.add(var_p, var_t), SSIM_C2))
    ratio = nd.div(num, den)
    b, h, w = ratio.data.shape  # an explicit h * w: numpy infers no -1 when b = 0
    return nd.reduce_mean(nd.reshape(ratio, (b, h * w)), axis=1)


def ssim(pred, target) -> float:
    """Scalar SSIM of two (H, W) arrays (no gradient tracking): the reference
    ``score_batch`` is checked against, computed as a stack of one."""
    return float(ssim_tensor(
        nd.Tensor(np.asarray(pred, dtype=np.float64)[None]),
        nd.Tensor(np.asarray(target, dtype=np.float64)[None]),
    ).data[0])


@dataclass
class ImageMetrics:
    mse: float
    mae: float
    rmse: float
    psnr: float
    ssim: float
    fpr: float


def score_image(pred, target) -> ImageMetrics:
    return score_batch(np.asarray(pred)[None], np.asarray(target)[None])[0]


def score_batch(preds, targets) -> list[ImageMetrics]:
    """Score every image of a (B, H, W) stack against its target in one pass.

    Each row equals what ``mse``, ``mae``, ``rmse``, ``psnr``, ``ssim`` and
    ``fpr`` give for that image alone.
    """
    preds, targets = _float_pair(preds, targets)
    if preds.ndim != 3:
        raise DimensionError(f"score_batch expects (B, H, W) stacks, got {preds.shape}")
    b, h, w = preds.shape
    diff = (preds - targets).reshape(b, h * w)
    mses = np.mean(diff**2, axis=1)
    maes = np.mean(np.abs(diff), axis=1)
    ssims = ssim_tensor(nd.Tensor(preds), nd.Tensor(targets)).data
    hallucinated = (preds > FPR_T_HIGH) & (targets <= FPR_T_LOW)
    fprs = np.count_nonzero(hallucinated.reshape(b, h * w), axis=1) / (h * w)
    return [
        ImageMetrics(mse=float(m), mae=float(a), rmse=math.sqrt(m),
                     psnr=_psnr_db(math.sqrt(m)), ssim=float(s), fpr=float(f))
        for m, a, s, f in zip(mses, maes, ssims, fprs)
    ]


_FIELDS = tuple(f.name for f in fields(ImageMetrics))


@dataclass
class MetricReport:
    """Per-image metric rows plus mean/std aggregates.

    Aggregates use compensated summation (math.fsum) so sharded and serial
    evaluation produce identical numbers; std is the population standard
    deviation, matching a naive recomputation over the rows.
    """

    rows: list[ImageMetrics] = field(default_factory=list)

    def extend(self, preds, targets) -> None:
        """Score and append every image of a (B, H, W) stack.

        The predictions are clipped to [0, 1] first, the range of the
        targets: the one clip rule for every scored reconstruction.
        """
        self.rows.extend(score_batch(np.clip(preds, 0.0, 1.0), targets))

    def aggregate(self) -> dict:
        out = {}
        n = len(self.rows)
        for name in _FIELDS:
            vals = [getattr(r, name) for r in self.rows]
            mean = math.fsum(vals) / n if n else float("nan")
            var = math.fsum((v - mean) ** 2 for v in vals) / n if n else float("nan")
            out[name] = {"mean": mean, "std": math.sqrt(var) if n else float("nan")}
        return out

    def to_csv(self) -> str:
        return csv_text(("index", *_FIELDS), ((i, *astuple(r)) for i, r in enumerate(self.rows)))

    def to_json(self) -> dict:
        return {
            "count": len(self.rows),
            "aggregate": self.aggregate(),
            "parameters": {
                "t_high": FPR_T_HIGH,
                "t_low": FPR_T_LOW,
                "ssim_window": SSIM_WINDOW,
                "ssim_c1": SSIM_C1,
                "ssim_c2": SSIM_C2,
                "psnr_max": 1.0,
                "psnr_rmse_floor": PSNR_RMSE_FLOOR,
            },
        }

    def save(self, directory: Path) -> None:
        """Write the per-image CSV and the aggregate JSON into the existing ``directory``."""
        (directory / "metrics_per_image.csv").write_text(self.to_csv())
        write_json(directory / "metrics_aggregate.json", self.to_json())
