"""Single-threaded, fully seeded training loop with Adam and epoch logging."""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field, fields

import numpy as np

from .. import metrics, ndtensor as nd
from ..errors import ContractError, csv_text
from .config import TrainConfig
from .losses import loss as make_loss, sample_losses
from .params import init_params, model_spec


PREDICT_CHUNK = 4  # samples per forward when evaluating; bounds the transient memory
# Adam's decay rates of the first and second moment, and its denominator guard
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class Adam:
    """Adaptive moment estimation with bias correction."""

    def __init__(self, params: dict[str, nd.Tensor], lr: float):
        self.params = params
        self.lr = lr
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def step(self) -> None:
        self.t += 1
        b1c = 1.0 - ADAM_BETA1**self.t
        b2c = 1.0 - ADAM_BETA2**self.t
        for name, p in self.params.items():
            g = p.grad if p.grad is not None else 0.0
            self.m[name] = ADAM_BETA1 * self.m[name] + (1.0 - ADAM_BETA1) * g
            self.v[name] = ADAM_BETA2 * self.v[name] + (1.0 - ADAM_BETA2) * g * g
            p.data -= self.lr * (self.m[name] / b1c) / (np.sqrt(self.v[name] / b2c) + ADAM_EPS)

    def zero_grad(self) -> None:
        nd.zero_grads(self.params.values())


@dataclass
class EpochRow:
    epoch: int
    train_loss: float
    val_loss: float
    val_ssim: float
    val_psnr: float
    val_fpr: float


@dataclass
class TrainResult:
    """The last epoch's parameters, a copy of the best epoch's (lowest
    validation loss), and one row per epoch."""

    params: dict[str, nd.Tensor]
    best_params: dict[str, nd.Tensor] | None = None
    rows: list[EpochRow] = field(default_factory=list)
    best_epoch: int = 0

    def log_csv(self) -> str:
        return csv_text([f.name for f in fields(EpochRow)], map(astuple, self.rows))


def _abort_on_nonfinite(batch_loss: nd.Tensor, params: dict[str, nd.Tensor]) -> None:
    if math.isfinite(batch_loss.item()):
        return
    for tensor in nd.Tape.trace(batch_loss).nodes:
        if not np.isfinite(tensor.data).all():
            raise ContractError(
                f"training aborted: first non-finite tensor is "
                f"{tensor.name or f'<intermediate {tensor.data.shape}>'}"
            )
    for name, p in params.items():
        if not np.isfinite(p.data).all():
            raise ContractError(f"training aborted: first non-finite tensor is {name}")
    raise ContractError("training aborted: loss is non-finite")


def predict(model_kind: str, params: dict[str, nd.Tensor], model_cfg,
            observations) -> np.ndarray:
    """The (N, S, S) estimate stack of an (N, m) measurement stack, forwarded
    PREDICT_CHUNK samples at a time with no graph behind them, so that the
    forward's transient memory stays near that of a few samples whatever N is."""
    forward = model_spec(model_kind).forward
    frozen = {k: nd.Tensor(p.data) for k, p in params.items()}  # zero-copy, builds no graph
    preds = np.empty((len(observations), model_cfg.image_size, model_cfg.image_size))
    for lo in range(0, len(observations), PREDICT_CHUNK):
        preds[lo : lo + PREDICT_CHUNK] = forward(
            frozen, model_cfg, observations[lo : lo + PREDICT_CHUNK]).data
    return preds


def evaluate(model_kind: str, params: dict[str, nd.Tensor], model_cfg,
             data, train_cfg: TrainConfig) -> tuple[float, float, float, float]:
    """Mean validation loss, SSIM, PSNR, FPR over ``data``, a pair of float64
    stacks: (N, S, S) targets and (N, m) measurements. The loss is taken on the
    raw estimates, the metrics on estimates clipped as ``MetricReport`` clips.
    Empty stacks give a loss of 0 and nan metrics."""
    targets, observations = data
    preds = predict(model_kind, params, model_cfg, observations)
    losses = sample_losses(train_cfg.loss_kind, nd.Tensor(preds), targets).data
    report = metrics.MetricReport()
    report.extend(preds, targets)
    agg = report.aggregate()
    return (math.fsum(losses) / max(len(losses), 1),
            *(agg[name]["mean"] for name in ("ssim", "psnr", "fpr")))


def batch_loss(model_kind: str, params: dict[str, nd.Tensor], model_cfg,
               train_cfg: TrainConfig, targets: np.ndarray,
               observations: np.ndarray) -> nd.Tensor:
    """Mean training loss of a batch, (B, S, S) targets and (B, m)
    measurements, as one graph: one forward, one loss."""
    pred = model_spec(model_kind).forward(params, model_cfg, observations)
    return make_loss(train_cfg.loss_kind, pred, targets)


def _train_step(model_kind: str, params: dict[str, nd.Tensor], model_cfg,
                train_cfg: TrainConfig, adam: Adam, targets: np.ndarray,
                observations: np.ndarray) -> float:
    """One Adam step on a batch; returns its mean loss. The step's graph is
    released on return, before the next step builds its own."""
    adam.zero_grad()
    step_loss = batch_loss(model_kind, params, model_cfg, train_cfg, targets, observations)
    _abort_on_nonfinite(step_loss, params)
    step_loss.backward()
    adam.step()
    return step_loss.item()


def train(model_kind: str, model_cfg, train_cfg: TrainConfig, train_data,
          val_data, params: dict[str, nd.Tensor] | None = None) -> TrainResult:
    """Train on ``train_data``, a pair of float64 stacks, (N, S, S) targets and
    (N, m) measurements, and score each epoch's (N, S, S) estimates of
    ``val_data``, another such pair; deterministic for fixed seeds. Writes
    no file.

    One step's graph is alive at a time: each step is built, differentiated
    and released before the next begins. Initial parameters come from the
    model config's seed unless an explicit set is passed.
    """
    if params is None:
        params = init_params(model_kind, model_cfg)
    adam = Adam(params, train_cfg.learning_rate)
    shuffle_rng = np.random.default_rng(
        np.random.SeedSequence(entropy=train_cfg.seed, spawn_key=(0x5,))
    )
    result = TrainResult(params=params)
    best_val = math.inf
    targets, observations = train_data
    n_train = len(targets)
    # an overflowing forward is refused by the non-finite guards, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, train_cfg.epochs + 1):
            order = shuffle_rng.permutation(n_train)
            epoch_losses = []
            for lo in range(0, n_train, train_cfg.batch_size):
                batch = order[lo : lo + train_cfg.batch_size]
                step_loss = _train_step(model_kind, params, model_cfg, train_cfg, adam,
                                        targets[batch], observations[batch])
                epoch_losses.append(step_loss * len(batch))
            train_loss = math.fsum(epoch_losses) / n_train
            val_loss, val_ssim, val_psnr, val_fpr = evaluate(
                model_kind, params, model_cfg, val_data, train_cfg
            )
            # a step can leave finite parameters whose forward overflows
            if not math.isfinite(val_loss):
                raise ContractError(
                    f"training aborted: validation loss is {val_loss} after epoch {epoch}")
            result.rows.append(EpochRow(epoch, train_loss, val_loss, val_ssim, val_psnr, val_fpr))
            if val_loss < best_val:
                best_val = val_loss
                result.best_epoch = epoch
                result.best_params = {k: nd.Tensor(p.data.copy()) for k, p in params.items()}
    return result
