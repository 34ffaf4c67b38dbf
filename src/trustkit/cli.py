"""Command-line entry point: dataset generation, bound verification, sparse
solving, training, evaluation, and cross-run reporting.

Every command accepts both flags and a JSON config file (flags win), echoes
the fully resolved configuration into a run record next to its outputs, and
follows a fixed exit-code contract: 0 success, 1 verification failure,
2 usage or configuration error.

A config file is a JSON object whose keys are those of the run record's
``config`` object (``out``, ``max_iter``, ``m_list``, ``emit_images``...), one
per setting; keys a command does not take are ignored. Each entry passes the
same type and range check as its flag, and ``null`` is accepted only for a
setting whose default is none (``lam``, ``ridge``, ``emit_images``).
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
import time
from pathlib import Path

import click
import numpy as np
from click.core import ParameterSource

from . import bound_lab, dataset, metrics, model, sensing, solvers
from .errors import (
    CheckpointError,
    ContractError,
    DatasetError,
    DimensionError,
    EnumerationCapExceeded,
    ParameterError,
    SingularMatrixError,
)

_USAGE_ERRORS = (ParameterError, DatasetError, CheckpointError, DimensionError)

_LOSS_TOKENS = {"l2": "l2", "l2l1": "l2_l1", "l2ssim": "l2_ssim"}
_OPERATOR_TOKENS = {
    "gaussian": sensing.DENSE,
    "orthonormal": sensing.ORTHONORMAL_SQUARE,
    "fourier": sensing.FOURIER_MASKED,
    "identity": sensing.IDENTITY,
}


def _load_config_file(path: str | None) -> dict:
    if not path:
        return {}
    try:
        cfg = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise click.UsageError(f"cannot read config file {path}: {exc}")
    if not isinstance(cfg, dict):
        raise click.UsageError(f"config file {path} must hold a JSON object")
    return cfg


def _resolve(ctx: click.Context) -> dict:
    """Every setting of the command, keyed by its parameter name: the flag
    when given on the command line, else the config-file entry, else the
    default.

    A config-file entry passes the same type and range check as its flag;
    ``null`` is a usage error unless the setting's default is none, and so
    is an entry that names no setting of the command.
    """
    file_cfg = _load_config_file(ctx.params["config"])
    unknown = sorted(set(file_cfg) - {param.name for param in ctx.command.params})
    if unknown:
        raise click.UsageError(
            "config file entries name no setting of this command: "
            + ", ".join(repr(key) for key in unknown))
    resolved = {}
    for param in ctx.command.params:
        key = param.name
        if key == "config":
            continue
        if ctx.get_parameter_source(key) == ParameterSource.COMMANDLINE or key not in file_cfg:
            resolved[key] = ctx.params[key]
        elif file_cfg[key] is None and param.default is not None:
            raise click.UsageError(f"config file entry {key!r} must not be null")
        else:
            try:
                resolved[key] = param.type_cast_value(ctx, file_cfg[key])
            except click.BadParameter as exc:
                raise click.UsageError(f"config file entry {key!r}: {exc.message}")
    return resolved


def _make_out_dir(path) -> Path:
    """Create the output directory ``path``; a usage error naming it if that fails."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise click.UsageError(f"cannot create output directory {out}: {exc.strerror or exc}")
    return out


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def write_run_record(out_dir: Path, command: str, config: dict,
                     input_digests: dict, outputs: list[str], started: float,
                     exit_status: int = 0) -> None:
    record = {
        "command": command,
        "config": config,
        "input_hash": hashlib.sha256(
            (_canonical(config) + _canonical(input_digests)).encode()
        ).hexdigest(),
        "inputs": input_digests,
        "outputs": sorted(outputs),
        "duration_seconds": round(time.monotonic() - started, 3),
        "exit_status": exit_status,
    }
    (out_dir / "run_record.json").write_text(
        json.dumps(record, sort_keys=True, indent=2) + "\n"
    )


def _digest_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class _FiniteNonNegative(click.FloatRange):
    """A float >= 0 that is neither nan nor inf."""

    def convert(self, value, param, ctx):
        value = super().convert(value, param, ctx)
        if not math.isfinite(value):
            self.fail(f"{value} is not a finite number.", param, ctx)
        return value


# types and flags shared by several commands; an out-of-range value is a usage error (exit 2)
_NON_NEGATIVE = click.IntRange(min=0)
_FINITE = _FiniteNonNegative(min=0)
_config_option = click.option("--config", default=None, help="JSON config file; flags override.")
_seed_option = click.option("--seed", default=0, show_default=True, type=_NON_NEGATIVE)
_limit_option = click.option("--limit", default=0, show_default=True, type=_NON_NEGATIVE,
                             help="Use at most the first N samples of the split (0: all).")


@click.group()
def main() -> None:
    """Sparse-recovery toolkit: data generation, bound verification, classical
    solvers, model training/evaluation, and run comparison reports."""


# ---- gen-data -----------------------------------------------------------------


@main.command("gen-data")
@click.option("--out", default="data", show_default=True)
@_config_option
@click.option("--image-size", default=32, show_default=True)
@click.option("--train", default=2000, show_default=True)
@click.option("--val", default=400, show_default=True)
@click.option("--test", default=400, show_default=True)
@click.option("--operator", default="gaussian", show_default=True,
              type=click.Choice(list(_OPERATOR_TOKENS)))
@click.option("--keep", default=0.25, show_default=True, type=_FINITE,
              help="Kept-frequency fraction for the fourier operator.")
@click.option("--noise-sigma", default=0.0, show_default=True, type=_FINITE)
@_seed_option
@click.option("--dtype", default="f32", type=click.Choice(dataset.DTYPES), show_default=True)
@click.pass_context
def gen_data(ctx, **_):
    """Generate a synthetic observation-target dataset with a manifest."""
    started = time.monotonic()
    cfg = _resolve(ctx)
    try:
        spec = dataset.DatasetSpec(
            image_size=cfg["image_size"], train=cfg["train"], val=cfg["val"],
            test=cfg["test"], operator_kind=_OPERATOR_TOKENS[cfg["operator"]],
            operator_keep=cfg["keep"], noise_sigma=cfg["noise_sigma"],
            seed=cfg["seed"], dtype=cfg["dtype"],
        )
        out = _make_out_dir(cfg["out"])
        manifest = dataset.gen_dataset(spec, out)
    except _USAGE_ERRORS as exc:
        raise click.UsageError(str(exc))
    outputs = ["manifest.json"] + [
        name for info in manifest["splits"].values() for name in (info["pairs"], info["norm"])
    ]
    write_run_record(out, "gen-data", cfg, {}, outputs, started)
    click.echo(f"dataset written to {out}")


# ---- verify-bound --------------------------------------------------------------


def _distinct(values: list, flag: str) -> list:
    """``values``, refused when empty or when one repeats (it would run the
    same cells twice, from different draws)."""
    if not values:
        raise click.UsageError(f"--{flag} must name at least one value")
    for i, value in enumerate(values):
        if value in values[:i]:
            raise click.UsageError(f"--{flag} names {value} more than once")
    return values


def _int_list(text: str, flag: str) -> list[int]:
    try:
        values = [int(v) for v in text.split(",") if v != ""]
    except ValueError:
        raise click.UsageError(f"--{flag} must be a comma-separated integer list, got {text!r}")
    for value in values:
        if value < 1:
            raise click.UsageError(f"--{flag} values must be positive, got {value}")
    return _distinct(values, flag)


@main.command("verify-bound")
@click.option("--out", default="bound_run", show_default=True)
@_config_option
@click.option("--kinds", default="gaussian_fat,orthonormal_square", show_default=True)
@click.option("--m", "m_list", default="8,12", show_default=True)
@click.option("--n", "n_list", default="12", show_default=True)
@click.option("--k", "k_list", default="2", show_default=True)
@click.option("--trials", default=100, show_default=True)
@_seed_option
@click.option("--matrix", "emit_matrix", is_flag=True,
              help="Also emit a gnuplot-ready mean-deviation matrix per kind.")
@click.pass_context
def verify_bound(ctx, **_):
    """Sweep operator ensembles and check deviation <= delta on exact cells.

    An exactly-enumerated cell's delta is exact, the maximum over all
    C(n, 2k) supports. Exits 1 if any such cell violates the bound.
    """
    started = time.monotonic()
    cfg = _resolve(ctx)
    kind_names = _distinct([k.strip() for k in cfg["kinds"].split(",") if k.strip()], "kinds")
    grid = {key: _int_list(cfg[f"{key}_list"], key) for key in ("m", "n", "k")}
    out = _make_out_dir(cfg["out"])
    try:
        result = bound_lab.attention_similarity_sweep(
            kinds=kind_names, ms=grid["m"], ns=grid["n"], ks=grid["k"],
            trials=cfg["trials"], seed=cfg["seed"],
        )
    except (EnumerationCapExceeded, *_USAGE_ERRORS) as exc:
        raise click.UsageError(str(exc))
    if not result.cells:
        raise click.UsageError(
            "the grid has no cell: no kind has a member of any (m, n) with 2k <= min(m, n)"
        )
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


@main.command("solve")
@click.option("--dataset", required=True)
@click.option("--out", default="solve_run", show_default=True)
@_config_option
@click.option("--method", default="omp", type=click.Choice(["omp", "ista", "fista"]),
              show_default=True)
@click.option("--operator", default="known",
              type=click.Choice(["known", "estimated"]), show_default=True)
@click.option("--split", default="test", show_default=True)
@click.option("--sparsity", default=0, show_default=True,
              help="Greedy atom budget for omp; 0 means n // 4.")
@click.option("--lam", default=None, type=_FINITE,
              help="l1 weight for ista/fista; default 0.05 * |A^T y|_inf per problem.")
@click.option("--tol", default=1e-6, show_default=True, type=_FINITE)
@click.option("--max-iter", default=500, show_default=True, type=_NON_NEGATIVE)
@click.option("--ridge", default=None, type=_FINITE,
              help="Ridge for operator estimation; default trace-scaled.")
@_limit_option
@click.pass_context
def solve(ctx, **_):
    """Sparse-recover a dataset split with a classical solver and score it."""
    started = time.monotonic()
    cfg = _resolve(ctx)
    try:
        manifest = dataset.load_manifest(cfg["dataset"])
        data = dataset.load_split(manifest, cfg["split"]).head(cfg["limit"])
        out = _make_out_dir(cfg["out"])
        if cfg["operator"] == "known":
            op = dataset.operator_from_manifest(manifest)
        else:
            train = dataset.load_split(manifest, "train")
            op = solvers.estimate_operator(train.x.reshape(len(train), -1), train.raw(),
                                           ridge=cfg["ridge"])
        report, recon = _solve_split(op, data, cfg)
    except (SingularMatrixError, *_USAGE_ERRORS) as exc:
        raise click.UsageError(str(exc))
    report.save(out, stem="metrics")
    (out / "reconstructions.f64").write_bytes(recon.astype("<f8").tobytes())
    digests = {"dataset_manifest": _digest_file(Path(manifest["_dir"]) / "manifest.json")}
    write_run_record(out, "solve", cfg, digests,
                     ["metrics_per_image.csv", "metrics_aggregate.json", "reconstructions.f64"],
                     started)
    agg = report.aggregate()
    click.echo(
        f"{len(report.rows)} samples: psnr {agg['psnr']['mean']:.2f} dB, "
        f"ssim {agg['ssim']['mean']:.4f} -> {out}"
    )


def _solve_split(op, data, cfg):
    """Solve every sample of ``data`` and score the (N, S, S) reconstructions."""
    budget = cfg["sparsity"] if cfg["sparsity"] else max(1, op.n // 4)
    solver_cfg = solvers.SolverConfig(
        max_iterations=cfg["max_iter"], residual_tolerance=cfg["tol"],
        sparsity_budget=budget, lam=cfg["lam"],
    )
    method = getattr(solvers, cfg["method"])  # looked up per call, so a wrapped solver is seen
    recon = np.stack([method(op, y, solver_cfg).x_hat for y in data.raw()]).reshape(data.x.shape)
    report = metrics.MetricReport()
    report.extend(np.clip(recon, 0.0, 1.0), data.x)
    return report, recon


# ---- train ---------------------------------------------------------------------


def _parse_skips(mask: str, n_connections: int) -> tuple[bool, ...]:
    if mask == "all":
        return tuple([True] * n_connections)
    if mask == "none":
        return tuple([False] * n_connections)
    parts = mask.split(",")
    if len(parts) != n_connections or any(p not in ("0", "1") for p in parts):
        raise click.UsageError(
            f"--skips must be 'all', 'none', or {n_connections} comma-separated 0/1 flags"
        )
    return tuple(p == "1" for p in parts)


@main.command("train")
@click.option("--dataset", required=True)
@click.option("--out", default="train_run", show_default=True)
@_config_option
@click.option("--model", default=model.TRUST,
              type=click.Choice([model.TRUST, model.UNET]), show_default=True)
@click.option("--loss", default="l2ssim",
              type=click.Choice(sorted(_LOSS_TOKENS)), show_default=True)
@click.option("--skips", default="all", show_default=True,
              help="Skip-connection mask: all, none, or per-connection 0/1 list.")
@click.option("--epochs", default=20, show_default=True)
@click.option("--lr", default=1e-4, show_default=True, type=_FINITE)
@click.option("--batch", default=16, show_default=True)
@_seed_option
@click.option("--embed-dim", default=64, show_default=True)
@click.option("--depth", default=4, show_default=True)
@click.option("--heads", default=4, show_default=True)
@click.option("--base-channels", default=8, show_default=True, help="unet width")
@_limit_option
@click.pass_context
def train_cmd(ctx, **_):
    """Train a reconstruction model; writes checkpoints and an epoch log."""
    started = time.monotonic()
    cfg = _resolve(ctx)
    try:
        manifest = dataset.load_manifest(cfg["dataset"])
        size = manifest["image_size"]
        if manifest["observation_side"] != size:
            raise ParameterError(
                f"observation side {manifest['observation_side']} != image size {size}; "
                "training needs a square operator dataset"
            )
        if cfg["model"] == model.TRUST:
            model_cfg = model.TrustConfig(
                image_size=size, embed_dim=cfg["embed_dim"], num_heads=cfg["heads"],
                encoder_depth=cfg["depth"],
                skip_enabled=_parse_skips(cfg["skips"], 2),
                skip_sources=(min(4, cfg["depth"]), min(2, cfg["depth"])),
                seed=cfg["seed"],
            )
        else:
            model_cfg = model.UnetConfig(image_size=size,
                                         base_channels=cfg["base_channels"],
                                         seed=cfg["seed"])
        train_cfg = model.TrainConfig(
            loss_kind=_LOSS_TOKENS[cfg["loss"]], learning_rate=cfg["lr"],
            batch_size=cfg["batch"], epochs=cfg["epochs"], seed=cfg["seed"],
        )
        train = dataset.load_split(manifest, "train").head(cfg["limit"])
        val = dataset.load_split(manifest, "val")
    except _USAGE_ERRORS as exc:
        raise click.UsageError(str(exc))
    out = _make_out_dir(cfg["out"])
    try:
        result = model.train(cfg["model"], model_cfg, train_cfg, (train.x, train.y),
                             (val.x, val.y), out_dir=out)
    except ContractError as exc:  # non-finite loss: a failed run, not a usage error
        click.echo(f"Error: {exc}", err=True)
        sys.exit(1)
    digests = {"dataset_manifest": _digest_file(Path(manifest["_dir"]) / "manifest.json")}
    record_cfg = dict(cfg)
    record_cfg["param_count"] = model.param_count(cfg["model"], model_cfg)
    write_run_record(out, "train", record_cfg, digests,
                     ["ckpt_best.json", "ckpt_best.json.bin", "ckpt_last.json",
                      "ckpt_last.json.bin", "epochs.csv"], started)
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
              help="Write (y, x, x_hat) PGM triplets into this directory.")
@_limit_option
@click.pass_context
def eval_cmd(ctx, **_):
    """Score a checkpoint on a dataset split; optionally dump PGM images."""
    started = time.monotonic()
    cfg = _resolve(ctx)
    try:
        params, manifest_ckpt = model.checkpoint_load(cfg["checkpoint"])
        model_cfg = model.config_from_manifest(manifest_ckpt)
        model_kind = manifest_ckpt["model_kind"]
        data_manifest = dataset.load_manifest(cfg["dataset"])
        size, side = data_manifest["image_size"], data_manifest["observation_side"]
        if (size, side) != (model_cfg.image_size, model_cfg.image_size):
            raise ParameterError(
                f"dataset images are {size} px with {side} px observations; "
                f"the checkpoint's model takes {model_cfg.image_size} px"
            )
        data = dataset.load_split(data_manifest, cfg["split"]).head(cfg["limit"])
    except _USAGE_ERRORS as exc:
        raise click.UsageError(str(exc))
    out = _make_out_dir(cfg["out"])
    img_dir = _make_out_dir(cfg["emit_images"]) if cfg["emit_images"] else None

    report = metrics.MetricReport()
    preds = []
    for lo, pred in model.predict(model_kind, params, model_cfg, data.y):
        preds.extend(pred.data)
        report.extend(pred.data, data.x[lo : lo + len(pred.data)])

    report.save(out, stem="metrics")
    outputs = ["metrics_per_image.csv", "metrics_aggregate.json"]
    if img_dir is not None:
        for i, pred in enumerate(preds):
            dataset.write_pgm(img_dir / f"{i:04d}_y.pgm", data.y[i])
            dataset.write_pgm(img_dir / f"{i:04d}_x.pgm", data.x[i])
            dataset.write_pgm(img_dir / f"{i:04d}_xhat.pgm", pred)
    digests = {
        "checkpoint": _digest_file(Path(cfg["checkpoint"])),
        "dataset_manifest": _digest_file(Path(data_manifest["_dir"]) / "manifest.json"),
    }
    record_cfg = dict(cfg)
    record_cfg["param_count"] = model.param_count(model_kind, model_cfg)
    record_cfg["model"] = model_kind
    write_run_record(out, "eval", record_cfg, digests, outputs, started)
    agg = report.aggregate()
    click.echo(
        f"{len(report.rows)} samples: psnr {agg['psnr']['mean']:.2f} dB, "
        f"ssim {agg['ssim']['mean']:.4f} -> {out}"
    )


# ---- report --------------------------------------------------------------------


_REPORT_FIELDS = ("mse", "mae", "psnr", "ssim", "fpr")


def _run_file(path: Path) -> dict:
    """The JSON object a finished run wrote to ``path``; UsageError naming the
    file when it is not one."""
    try:
        value = json.loads(path.read_text())
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise click.UsageError(f"cannot read {path}: {exc}")
    if not isinstance(value, dict):
        raise click.UsageError(f"{path} does not hold a JSON object")
    return value


def _is_stat(cell) -> bool:
    """A {mean, std} pair of numbers, as ``MetricReport.aggregate`` writes it."""
    return isinstance(cell, dict) and all(type(cell.get(k)) in (int, float)
                                          for k in ("mean", "std"))


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
    rows = []
    for sub in sorted(p for p in runs.iterdir() if p.is_dir()):
        agg_file = sub / "metrics_aggregate.json"
        record_file = sub / "run_record.json"
        if not agg_file.exists() or not record_file.exists():
            continue
        agg = _run_file(agg_file).get("aggregate")
        if not isinstance(agg, dict) or not all(_is_stat(agg.get(f)) for f in _REPORT_FIELDS):
            raise click.UsageError(
                f"{agg_file} lacks a numeric mean and std under 'aggregate' for each of "
                + ", ".join(_REPORT_FIELDS)
            )
        record = _run_file(record_file)
        if "command" not in record or not isinstance(record.get("config"), dict):
            raise click.UsageError(f"{record_file} lacks its command or config object")
        label = record["config"].get("model") or record["config"].get("method") or "?"
        rows.append({
            "run": sub.name,
            "command": record["command"],
            "kind": label,
            "param_count": record["config"].get("param_count", ""),
            **{f: agg[f] for f in _REPORT_FIELDS},
        })
    if not rows:
        click.echo(f"no finished runs found under {runs_dir}", err=True)
        sys.exit(1)
    out = _make_out_dir(out_dir) if out_dir else runs

    def fmt(cell):
        return f"{cell['mean']:.4g} ± {cell['std']:.2g}"

    md = ["| run | kind | params | " + " | ".join(f.upper() for f in _REPORT_FIELDS) + " |",
          "|" + "---|" * (3 + len(_REPORT_FIELDS))]
    csv_lines = ["run,command,kind,param_count,"
                 + ",".join(f"{f}_mean,{f}_std" for f in _REPORT_FIELDS)]
    for r in rows:
        md.append(
            f"| {r['run']} | {r['kind']} | {r['param_count']} | "
            + " | ".join(fmt(r[f]) for f in _REPORT_FIELDS) + " |"
        )
        csv_lines.append(
            f"{r['run']},{r['command']},{r['kind']},{r['param_count']},"
            + ",".join(f"{r[f]['mean']!r},{r[f]['std']!r}" for f in _REPORT_FIELDS)
        )
    (out / "report.md").write_text("\n".join(md) + "\n")
    (out / "report.csv").write_text("\n".join(csv_lines) + "\n")
    click.echo(f"{len(rows)} runs -> {out / 'report.md'}")


if __name__ == "__main__":
    main()
