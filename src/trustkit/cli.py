"""Command-line entry point: dataset generation, bound verification, sparse
solving, training, evaluation, and cross-run reporting.

Every command but ``report``, which takes flags alone and writes no record,
accepts both flags and a JSON config file (flags win) and echoes the fully
resolved configuration into a run record next to its outputs. All follow a
fixed exit-code contract: 0 success, 1 verification failure, 2 usage or
configuration error. ``_Command.invoke`` is the one place that maps the
library's typed errors onto those codes. An input file that cannot be read
(missing, a directory, a NUL byte in its name, or a wrong digest or size) is
a usage error.

A config file is a JSON object whose keys are those of the run record's
``config`` object (``out``, ``max_iter``, ``m_list``, ``emit_images``...), one
per setting. It may supply any setting of the command, required ones
(``dataset``, ``checkpoint``) included, and becomes the command's default
map, so each entry passes the same type and range check as its flag. An
entry that names no setting of the command is a usage error, and so are a
list or an object, which no setting takes, ``null`` for a setting whose
default is not none (only ``lam``, ``ridge`` and ``emit_images`` take it),
anything but ``true`` or ``false`` for a flag (``emit_matrix``), and a bool
or a number beyond the float range for a float setting.

A setting that only some choices of another read (``--keep`` only
``--operator fourier_masked``; a model kind's are those its ``ModelSpec`` lists)
says so in its ``--help``. Given, as a flag or a config entry, to a run of
another choice, it is a usage error; left at its default, it is left out of
that run's settings and record.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from pathlib import Path

import click
import numpy as np
from click.core import ParameterSource

from . import bound_lab, dataset, metrics, model, sensing, solvers
from .errors import (
    OBJECT,
    STRING,
    CheckpointError,
    ContractError,
    DatasetError,
    DimensionError,
    EnumerationCapExceeded,
    ParameterError,
    SingularMatrixError,
    check_entries,
    csv_text,
    digest,
    is_int,
    make_out_dir,
    read_json_object,
    write_json,
)

_USAGE_ERRORS = (ParameterError, DatasetError, CheckpointError, DimensionError,
                 SingularMatrixError, EnumerationCapExceeded)

_LOSS_TOKENS = {"l2": "l2", "l2l1": "l2_l1", "l2ssim": "l2_ssim"}


class _Owned(click.Option):
    """An option that only the ``owners`` choices of the command's option
    ``owner`` read; its help text says so."""

    def __init__(self, *decls, owner: str, owners: tuple[str, ...], help: str = "", **attrs):
        self.owner, self.owners = owner, owners
        self.owned_by = f"--{owner} {'/'.join(owners)}"
        super().__init__(*decls, help=f"{help} Only for {self.owned_by}.".lstrip(), **attrs)


class _Command(click.Command):
    """A command whose typed library errors follow the exit-code contract:
    bad input is a usage error (exit 2); a broken run contract, such as a
    non-finite training loss, is a failed run (exit 1). An ``_Owned`` setting
    the run's choice does not read is refused if given, else dropped."""

    def invoke(self, ctx: click.Context):
        for param in self.params:
            if isinstance(param, _Owned) and ctx.params[param.owner] not in param.owners:
                if ctx.get_parameter_source(param.name) is not ParameterSource.DEFAULT:
                    raise click.UsageError(f"{param.opts[0]} is a setting of {param.owned_by}, not "
                                           f"of --{param.owner} {ctx.params[param.owner]}", ctx)
                del ctx.params[param.name]
        try:
            return super().invoke(ctx)
        except _USAGE_ERRORS as exc:
            raise click.UsageError(str(exc), ctx) from exc
        except ContractError as exc:
            raise click.ClickException(str(exc)) from exc


def _read_config(ctx: click.Context, param: click.Parameter, path: str | None) -> None:
    """Make the config file at ``path`` the command's default map, once no
    entry names an unknown setting, holds a list or an object, nulls a
    setting whose default is not none, or gives a flag a value but true or
    false."""
    if not path:
        return
    entries = read_json_object(Path(path), click.UsageError, "config file")
    settings = {p.name: p for p in ctx.command.params}
    unknown = sorted(set(entries) - set(settings))
    if unknown:
        raise click.UsageError(
            "config file entries name no setting of this command: "
            + ", ".join(repr(key) for key in unknown))
    for key, value in entries.items():
        if isinstance(value, (list, dict)):
            raise click.UsageError(f"config file entry {key!r} must not be a list or an object")
        if value is None and settings[key].default is not None:
            raise click.UsageError(f"config file entry {key!r} must not be null")
        if getattr(settings[key], "is_flag", False) and not isinstance(value, bool):
            raise click.UsageError(f"config file entry {key!r} must be true or false")
    ctx.default_map = entries


def _environment() -> dict:
    """What output bytes depend on beyond the config and the inputs: the
    numpy build, its BLAS, and the BLAS thread count (the order of a BLAS
    reduction, so its rounding, can follow the thread count)."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        **{name: os.environ.get(name) for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def write_run_record(out_dir: Path, command: str, config: dict, inputs: dict,
                     outputs: list[str], started: float, exit_status: int = 0,
                     model_info: dict | None = None) -> None:
    """Write ``run_record.json``; ``inputs`` maps a name to the path of each
    input file, recorded by its sha256. ``config`` holds the settings alone,
    so it reruns as a config file; what a model command learns of its model
    (``kind``, ``param_count``) goes under ``model``."""
    digests = {name: digest(Path(path).read_bytes()) for name, path in inputs.items()}
    record = {
        "command": command,
        "config": config,
        "input_hash": digest(
            (json.dumps(config, sort_keys=True) + json.dumps(digests, sort_keys=True)).encode()),
        "inputs": digests,
        "outputs": sorted(outputs),
        "duration_seconds": round(time.monotonic() - started, 3),
        "environment": _environment(),
        "exit_status": exit_status,
    }
    if model_info is not None:
        record["model"] = model_info
    write_json(out_dir / "run_record.json", record)


def _dataset_input(manifest: dict) -> dict:
    """The run-record input of a loaded dataset: its manifest file."""
    return {"dataset_manifest": Path(manifest["_dir"]) / "manifest.json"}


def _score_and_record(out: Path, command: str, cfg: dict, inputs: dict, outputs: list[str],
                      started: float, preds: np.ndarray, targets: np.ndarray,
                      model_info: dict | None = None) -> None:
    """The end of ``solve`` and ``eval``: score the (N, S, S) predictions,
    save the metric files, write the run record and print the summary line."""
    report = metrics.MetricReport()
    report.extend(preds, targets)
    report.save(out)
    write_run_record(out, command, cfg, inputs,
                     ["metrics_per_image.csv", "metrics_aggregate.json", *outputs], started,
                     model_info=model_info)
    agg = report.aggregate()
    click.echo(
        f"{len(report.rows)} samples: psnr {agg['psnr']['mean']:.2f} dB, "
        f"ssim {agg['ssim']['mean']:.4f} -> {out}"
    )


class _FiniteNonNegative(click.FloatRange):
    """A float >= 0 that is neither nan nor inf; a config-file bool is not
    one, though Python's float() would read true as 1.0."""

    def convert(self, value, param, ctx):
        if isinstance(value, bool):
            self.fail(f"{value!r} is not a number.", param, ctx)
        try:
            value = super().convert(value, param, ctx)
        except OverflowError:  # a config-file integer beyond the float range
            self.fail("the integer is beyond the float range.", param, ctx)
        if not math.isfinite(value):
            self.fail(f"{value} is not a finite number.", param, ctx)
        return value


class _Integer(click.ParamType):
    """An integer, of at least ``least`` when that is given. A command-line
    string parses as click's INT parses it; a config-file value must
    already be an integer by ``is_int``, so 2.7, 2.0 or true is refused
    instead of truncated."""

    def __init__(self, least: int | None = None):
        self.least = least
        self.name = "integer" if least is None else f"integer>={least}"  # --help's metavar

    def convert(self, value, param, ctx):
        if isinstance(value, str):
            value = click.INT.convert(value, param, ctx)
        if not is_int(value, self.least):
            bound = "" if self.least is None else f" >= {self.least}"
            self.fail(f"{value!r} is not an integer{bound}.", param, ctx)
        return value


# types and flags shared by several commands; an out-of-range value is a usage error (exit 2)
_INT = _Integer()
_NON_NEGATIVE = _Integer(least=0)
_FINITE = _FiniteNonNegative(min=0)
_config_option = click.option("--config", default=None, is_eager=True, expose_value=False,
                              callback=_read_config, help="JSON config file; flags override.")
_seed_option = click.option("--seed", default=0, show_default=True, type=_NON_NEGATIVE)
_limit_option = click.option("--limit", default=0, show_default=True, type=_NON_NEGATIVE,
                             help="Use at most the first N samples of the split (0: all).")


@click.group()
def main() -> None:
    """Sparse-recovery toolkit: data generation, bound verification, classical
    solvers, model training/evaluation, and run comparison reports."""


main.command_class = _Command


# ---- gen-data -----------------------------------------------------------------


@main.command("gen-data")
@click.option("--out", default="data", show_default=True)
@_config_option
@click.option("--image-size", default=32, type=_INT, show_default=True)
@click.option("--train", default=2000, type=_INT, show_default=True)
@click.option("--val", default=400, type=_INT, show_default=True)
@click.option("--test", default=400, type=_INT, show_default=True)
@click.option("--operator", default=sensing.DENSE, show_default=True,
              type=click.Choice(dataset.OPERATOR_KINDS),
              help="Sensing operator kind; its m measurements of an SxS image, n = S^2: "
                   + ", ".join(f"{kind} {rule}" for kind, (_, rule)
                               in dataset.MEASUREMENTS.items()) + ".")
@click.option("--keep", default=0.25, show_default=True, type=_FINITE, cls=_Owned,
              owner="operator", owners=(sensing.FOURIER_MASKED,),
              help="Kept-frequency fraction, in (0, 1].")
@click.option("--noise-sigma", default=0.0, show_default=True, type=_FINITE)
@_seed_option
@click.option("--dtype", default="f32", type=click.Choice(dataset.DTYPES), show_default=True)
def gen_data(**cfg):
    """Generate a synthetic observation-target dataset with a manifest."""
    started = time.monotonic()
    spec = dataset.DatasetSpec(
        image_size=cfg["image_size"], train=cfg["train"], val=cfg["val"],
        test=cfg["test"], operator_kind=cfg["operator"],
        operator_keep=cfg.get("keep", dataset.DatasetSpec.operator_keep),
        noise_sigma=cfg["noise_sigma"], seed=cfg["seed"], dtype=cfg["dtype"],
    )
    manifest = dataset.gen_dataset(spec, cfg["out"])
    out = Path(cfg["out"])
    outputs = ["manifest.json"] + [
        name for info in manifest["splits"].values() for name in (info["pairs"], info["norm"])
    ]
    write_run_record(out, "gen-data", cfg, {}, outputs, started)
    click.echo(f"dataset written to {out}")


# ---- verify-bound --------------------------------------------------------------


def _int_list(text: str, flag: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",") if v != ""]
    except ValueError:
        raise click.UsageError(f"--{flag} must be a comma-separated integer list, got {text!r}")


@main.command("verify-bound")
@click.option("--out", default="bound_run", show_default=True)
@_config_option
@click.option("--kinds", default="gaussian_fat,orthonormal_square", show_default=True)
@click.option("--m", "m_list", default="8,12", show_default=True)
@click.option("--n", "n_list", default="12", show_default=True)
@click.option("--k", "k_list", default="2", show_default=True)
@click.option("--trials", default=100, type=_INT, show_default=True)
@_seed_option
@click.option("--matrix", "emit_matrix", is_flag=True,
              help="Also emit a gnuplot-ready mean-deviation matrix per kind; "
                   "needs one n.")
def verify_bound(**cfg):
    """Sweep operator ensembles and check deviation <= delta on exact cells.

    An exactly-enumerated cell's delta is exact, the maximum over all
    C(n, 2k) supports; on an isometry it is the interlacing bound
    |A^T A - I|_2, which bounds every support's deviation. When G = A^T A
    is circulant up to rounding, as a partial DFT's is (tau = max |G_ij -
    G_0,(j-i) mod n| at most 16 (m + n) eps max |G|), one support per orbit
    under rotations and reflections of range(n) is solved, and delta is at
    most the full maximum and within 2 * 2k tau of it. Exits 1 if any such
    cell violates the bound.
    """
    started = time.monotonic()
    kind_names = [k.strip() for k in cfg["kinds"].split(",") if k.strip()]
    grid = {key: _int_list(cfg[f"{key}_list"], key) for key in ("m", "n", "k")}
    if cfg["emit_matrix"] and len(grid["n"]) > 1:
        raise click.UsageError(f"--matrix takes one n, got --n {cfg['n_list']}")
    result = bound_lab.attention_similarity_sweep(
        kinds=kind_names, ms=grid["m"], ns=grid["n"], ks=grid["k"],
        trials=cfg["trials"], seed=cfg["seed"],
    )
    if not result.cells:
        raise click.UsageError(
            "the grid has no cell: no kind has a member of any (m, n) with 2k <= min(m, n)"
        )
    out = make_out_dir(cfg["out"])
    (out / "sweep.csv").write_text(result.to_csv())
    outputs = ["sweep.csv"]
    if cfg["emit_matrix"]:
        for kind in kind_names:
            name = f"matrix_{kind}.txt"
            (out / name).write_text(result.to_matrix(kind))
            outputs.append(name)
    violations = result.violations()
    status = 1 if violations else 0
    write_run_record(out, "verify-bound", cfg, {}, outputs, started, exit_status=status)
    for cell in violations:
        click.echo(
            f"BOUND VIOLATION kind={cell.kind} m={cell.m} n={cell.n} k={cell.k}: "
            f"max_dev {cell.max_dev!r} > delta {cell.delta!r}",
            err=True,
        )
    click.echo(f"{len(result.cells)} cells -> {out / 'sweep.csv'}")
    if status:
        sys.exit(status)


# ---- solve ---------------------------------------------------------------------


def _solver_csv(results: list[solvers.RecoveryResult], ys: np.ndarray) -> str:
    """One row per sample: how its solve ended. A solve that took no step
    (y already within tolerance, or ``--max-iter 0``) returns x = 0, whose
    residual is |y|."""
    rows = []
    for i, (r, y) in enumerate(zip(results, ys)):
        history = r.residual_norm_history
        residual = history[-1] if history else float(np.linalg.norm(y))
        rows.append((i, r.iterations_used, r.converged, r.rank_deficient, residual))
    return csv_text(("index", "iterations", "converged", "rank_deficient", "final_residual"), rows)


@main.command("solve")
@click.option("--dataset", required=True)
@click.option("--out", default="solve_run", show_default=True)
@_config_option
@click.option("--method", default="omp", type=click.Choice(["omp", "ista", "fista"]),
              show_default=True)
@click.option("--operator", default="known",
              type=click.Choice(["known", "estimated"]), show_default=True)
@click.option("--split", default="test", show_default=True)
@click.option("--sparsity", default=0, type=_NON_NEGATIVE, show_default=True, cls=_Owned,
              owner="method", owners=("omp",), help="Greedy atom budget; 0 means n // 4.")
@click.option("--lam", default=None, type=_FINITE, cls=_Owned, owner="method",
              owners=("ista", "fista"), help="l1 weight; default 0.05 * |A^T y|_inf per problem.")
@click.option("--tol", default=1e-6, show_default=True, type=_FINITE)
@click.option("--max-iter", default=500, show_default=True, type=_NON_NEGATIVE)
@click.option("--ridge", default=None, type=_FINITE, cls=_Owned, owner="operator",
              owners=("estimated",), help="Ridge for operator estimation; default trace-scaled.")
@_limit_option
def solve(**cfg):
    """Sparse-recover a dataset split with a classical solver and score it."""
    started = time.monotonic()
    manifest = dataset.load_manifest(cfg["dataset"])
    split = dataset.load_split(manifest, cfg["split"])
    if cfg["operator"] == "known":
        op = dataset.operator_from_manifest(manifest)
        dataset.check_operator(manifest, op, split)
    else:
        train = dataset.load_split(manifest, "train")
        op = solvers.estimate_operator(train.x.reshape(len(train), -1), train.raw(),
                                       ridge=cfg["ridge"])
    data = split.head(cfg["limit"])
    solver_cfg = solvers.SolverConfig(
        max_iterations=cfg["max_iter"], residual_tolerance=cfg["tol"],
        sparsity_budget=cfg.get("sparsity") or max(1, op.n // 4), lam=cfg.get("lam"),
    )
    out = make_out_dir(cfg["out"])
    method = getattr(solvers, cfg["method"])  # looked up per call, so a wrapped solver is seen
    ys = data.raw()
    results = [method(op, y, solver_cfg) for y in ys]
    recon = np.stack([r.x_hat for r in results]).reshape(data.x.shape)
    (out / "reconstructions.f64").write_bytes(recon.astype("<f8").tobytes())
    (out / "solver_per_sample.csv").write_text(_solver_csv(results, ys))
    _score_and_record(out, "solve", cfg, _dataset_input(manifest),
                      ["reconstructions.f64", "solver_per_sample.csv"], started, recon, data.x)


# ---- train ---------------------------------------------------------------------


def _parse_skips(mask: str) -> tuple[bool, ...]:
    n = len(model.TrustConfig().skip_sources)
    parts = {"all": ["1"] * n, "none": ["0"] * n}.get(mask, mask.split(","))
    if len(parts) != n or any(p not in ("0", "1") for p in parts):
        raise click.UsageError(f"--skips must be 'all', 'none', or {n} comma-separated 0/1 flags")
    return tuple(p == "1" for p in parts)


def _model_info(kind: str, model_cfg) -> dict:
    """The run record's ``model`` entry of a model command."""
    return {"kind": kind, "param_count": model.param_count(kind, model_cfg)}


def _model_option(flag: str, **attrs):
    """An option that only the model kinds whose spec lists it read."""
    name = flag[2:].replace("-", "_")
    kinds = tuple(kind for kind in model.KINDS if name in model.model_spec(kind).settings)
    return click.option(flag, cls=_Owned, owner="model", owners=kinds, **attrs)


@main.command("train")
@click.option("--dataset", required=True)
@click.option("--out", default="train_run", show_default=True)
@_config_option
@click.option("--model", default=model.TRUST, type=click.Choice(model.KINDS), show_default=True)
@click.option("--loss", default="l2ssim",
              type=click.Choice(sorted(_LOSS_TOKENS)), show_default=True)
@_model_option("--skips", default="all", show_default=True,
               help="Skip-connection mask: all, none, or per-connection 0/1 list.")
@click.option("--epochs", default=20, type=_INT, show_default=True)
@click.option("--lr", default=1e-4, show_default=True, type=_FINITE)
@click.option("--batch", default=16, type=_INT, show_default=True)
@_seed_option
@_model_option("--embed-dim", default=64, type=_INT, show_default=True)
@_model_option("--depth", default=4, type=_INT, show_default=True)
@_model_option("--heads", default=4, type=_INT, show_default=True)
@_model_option("--base-channels", default=8, type=_INT, show_default=True)
@_limit_option
def train_cmd(**cfg):
    """Train a reconstruction model; writes checkpoints and an epoch log."""
    started = time.monotonic()
    manifest = dataset.load_manifest(cfg["dataset"])
    spec = model.model_spec(cfg["model"])
    values = dict(cfg, skips=_parse_skips(cfg["skips"])) if "skips" in cfg else cfg
    model_cfg = spec.config_class(image_size=manifest["image_size"], seed=cfg["seed"],
                                  **{field: values[name] for name, field in spec.settings.items()})
    train_cfg = model.TrainConfig(
        loss_kind=_LOSS_TOKENS[cfg["loss"]], learning_rate=cfg["lr"],
        batch_size=cfg["batch"], epochs=cfg["epochs"], seed=cfg["seed"],
    )
    train = dataset.load_split(manifest, "train").head(cfg["limit"])
    val = dataset.load_split(manifest, "val")
    result = model.train(cfg["model"], model_cfg, train_cfg, (train.x, train.y), (val.x, val.y))
    out = make_out_dir(cfg["out"])
    model.checkpoint_save(result.best_params, cfg["model"], model_cfg, out / "ckpt_best.json")
    model.checkpoint_save(result.params, cfg["model"], model_cfg, out / "ckpt_last.json")
    (out / "epochs.csv").write_text(result.log_csv())
    write_run_record(out, "train", cfg, _dataset_input(manifest),
                     ["ckpt_best.json", "ckpt_best.json.bin", "ckpt_last.json",
                      "ckpt_last.json.bin", "epochs.csv"], started,
                     model_info=_model_info(cfg["model"], model_cfg))
    last = result.rows[-1]
    click.echo(
        f"epoch {last.epoch}: val_loss {last.val_loss:.6f}, val_ssim {last.val_ssim:.4f} "
        f"(best epoch {result.best_epoch}) -> {out}"
    )


# ---- eval ----------------------------------------------------------------------


@main.command("eval")
@click.option("--checkpoint", required=True)
@click.option("--dataset", required=True)
@click.option("--out", default="eval_run", show_default=True)
@_config_option
@click.option("--split", default="test", show_default=True)
@click.option("--emit-images", default=None,
              help="Write (y, x, x_hat) PGM triplets into this directory; y is the (S, S) "
                   "image the model's input stage makes of a sample's measurements.")
@_limit_option
def eval_cmd(**cfg):
    """Score a checkpoint's (N, S, S) estimates of a split's (N, m) measurements, and
    optionally dump PGM images."""
    started = time.monotonic()
    params, manifest_ckpt = model.checkpoint_load(cfg["checkpoint"])
    model_cfg = model.config_from_manifest(manifest_ckpt)
    model_kind = manifest_ckpt["model_kind"]
    data_manifest = dataset.load_manifest(cfg["dataset"])
    size = data_manifest["image_size"]
    if size != model_cfg.image_size:
        raise ParameterError(f"dataset images are {size} px; "
                             f"the checkpoint's model takes {model_cfg.image_size} px")
    data = dataset.load_split(data_manifest, cfg["split"]).head(cfg["limit"])
    preds = model.predict(model_kind, params, model_cfg, data.y)
    # the images directory first: --out, made second, is not left empty when it cannot be made
    img_dir = make_out_dir(cfg["emit_images"]) if cfg["emit_images"] else None
    out = make_out_dir(cfg["out"])
    if img_dir:
        for i, (y, pred) in enumerate(zip(model.input_stage(model_cfg, data.y).data, preds)):
            dataset.write_pgm(img_dir / f"{i:04d}_y.pgm", y)
            dataset.write_pgm(img_dir / f"{i:04d}_x.pgm", data.x[i])
            dataset.write_pgm(img_dir / f"{i:04d}_xhat.pgm", pred)
    _score_and_record(out, "eval", cfg, {"checkpoint": cfg["checkpoint"],
                                         **_dataset_input(data_manifest)},
                      [], started, preds, data.x, model_info=_model_info(model_kind, model_cfg))


# ---- report --------------------------------------------------------------------


_REPORT_FIELDS = ("mse", "mae", "psnr", "ssim", "fpr")
_STATS = ("mean", "std")
# what report reads of a run's metrics file and run record
_AGGREGATE_KEYS = dict.fromkeys(_REPORT_FIELDS, (
    lambda cell: isinstance(cell, dict) and all(type(cell.get(k)) in (int, float)
                                                for k in _STATS),
    "a {mean, std} pair of numbers"))
_RECORD_KEYS = {"command": STRING, "config": OBJECT}


@main.command("report")
@click.option("--runs", "runs_dir", required=True,
              help="Directory whose subdirectories are solve/eval runs.")
@click.option("--out", "out_dir", default=None,
              help="Where to write report.md and report.csv (default: runs dir).")
def report_cmd(runs_dir, out_dir):
    """Comparison table over finished runs (one row per run directory)."""
    runs = Path(runs_dir)
    if not runs.is_dir():
        raise click.UsageError(f"{runs_dir} is not a directory")
    md = ["| run | kind | params | " + " | ".join(f.upper() for f in _REPORT_FIELDS) + " |",
          "|" + "---|" * (3 + len(_REPORT_FIELDS))]
    rows = []
    for sub in sorted(p for p in runs.iterdir() if p.is_dir()):
        agg_file = sub / "metrics_aggregate.json"
        record_file = sub / "run_record.json"
        if not agg_file.exists() or not record_file.exists():
            continue
        agg = read_json_object(agg_file, click.UsageError, "metrics file")
        check_entries(agg, {"aggregate": OBJECT}, f"metrics file {agg_file}", click.UsageError)
        agg = agg["aggregate"]
        check_entries(agg, _AGGREGATE_KEYS, f"metrics file {agg_file} aggregate",
                      click.UsageError)
        record = read_json_object(record_file, click.UsageError, "run record")
        check_entries(record, dict(_RECORD_KEYS, model=OBJECT) if "model" in record
                      else _RECORD_KEYS, f"run record {record_file}", click.UsageError)
        info = record.get("model", {})
        kind = info.get("kind") or record["config"].get("method") or "?"
        params = info.get("param_count", "")
        md.append(f"| {sub.name} | {kind} | {params} | " + " | ".join(
            f"{agg[f]['mean']:.4g} ± {agg[f]['std']:.2g}" for f in _REPORT_FIELDS) + " |")
        rows.append((sub.name, record["command"], kind, params,
                     *(agg[f][stat] for f in _REPORT_FIELDS for stat in _STATS)))
    if not rows:
        click.echo(f"no finished runs found under {runs_dir}", err=True)
        sys.exit(1)
    out = make_out_dir(out_dir) if out_dir else runs
    (out / "report.md").write_text("\n".join(md) + "\n")
    (out / "report.csv").write_text(csv_text(
        ("run", "command", "kind", "param_count",
         *(f"{f}_{stat}" for f in _REPORT_FIELDS for stat in _STATS)), rows))
    click.echo(f"{len(rows)} runs -> {out / 'report.md'}")


if __name__ == "__main__":
    main()
