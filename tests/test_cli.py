import csv
import dataclasses
import json
import os
import re
from pathlib import Path

import click
import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trustkit import dataset, model, sensing, solvers
from trustkit.cli import _Owned, main
from trustkit.errors import (
    CheckpointError,
    ContractError,
    DatasetError,
    DimensionError,
    EnumerationCapExceeded,
    ParameterError,
    SingularMatrixError,
)


@pytest.fixture(scope="module")
def runner():
    return CliRunner()


def _gen(runner, out, extra=()):
    args = ["gen-data", "--out", str(out), "--image-size", "8",
            "--train", "16", "--val", "4", "--test", "4", "--seed", "7", *extra]
    res = runner.invoke(main, args, catch_exceptions=False)
    assert res.exit_code == 0, res.output
    return out


@pytest.fixture(scope="module")
def small_dataset(runner, tmp_path_factory):
    return _gen(runner, tmp_path_factory.mktemp("data") / "ds")


def test_gen_data_writes_everything(small_dataset):
    manifest = json.loads((small_dataset / "manifest.json").read_text())
    assert manifest["splits"]["train"]["count"] == 16
    for split in ("train", "val", "test"):
        assert (small_dataset / f"{split}.pairs.f32").exists()
        assert (small_dataset / f"{split}.norm.f64").exists()
    record = json.loads((small_dataset / "run_record.json").read_text())
    assert record["command"] == "gen-data"
    assert record["exit_status"] == 0
    assert record["config"]["seed"] == 7


def test_gen_data_deterministic(runner, tmp_path):
    a = _gen(runner, tmp_path / "a")
    b = _gen(runner, tmp_path / "b")
    for name in ("manifest.json", "train.pairs.f32", "test.norm.f64"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


@pytest.mark.parametrize("kind", sensing.KINDS)
def test_gen_data_operator_kind_names_the_manifest_the_sweep_and_the_solve(runner, tmp_path,
                                                                           kind):
    data = _gen(runner, tmp_path / "ds", extra=["--operator", kind])
    op = json.loads((data / "manifest.json").read_text())["operator"]
    assert op["kind"] == kind
    res = runner.invoke(main, ["verify-bound", "--out", str(tmp_path / "vb"), "--kinds", kind,
                               "--m", str(op["m"]), "--n", str(op["n"]), "--k", "1",
                               "--trials", "2"], catch_exceptions=False)
    assert res.exit_code == 0, res.output
    assert (tmp_path / "vb" / "sweep.csv").read_text().splitlines()[1].startswith(f"{kind},")
    res = runner.invoke(main, ["solve", "--dataset", str(data), "--out", str(tmp_path / "s"),
                               "--limit", "1"], catch_exceptions=False)
    assert res.exit_code == 0, res.output


@pytest.mark.parametrize("where", ["flags", "config"])
@pytest.mark.parametrize("token", ["gaussian", "orthonormal", "fourier"])
def test_gen_data_refuses_the_old_operator_tokens(runner, tmp_path, token, where):
    args = ["gen-data", "--out", str(tmp_path / "ds"), "--image-size", "8"]
    if where == "flags":
        args += ["--operator", token]
    else:
        (tmp_path / "cfg.json").write_text(json.dumps({"operator": token}))
        args += ["--config", str(tmp_path / "cfg.json")]
    res = runner.invoke(main, args)
    assert res.exit_code == 2, res.output
    assert f"Invalid value for '--operator': '{token}' is not one of 'dense', " in res.output
    assert not (tmp_path / "ds").exists()


def test_gen_data_invalid_spec_exits_2(runner, tmp_path):
    res = runner.invoke(main, ["gen-data", "--out", str(tmp_path / "x"), "--train", "0"])
    assert res.exit_code == 2


def test_gen_data_refuses_images_below_the_ssim_window(runner, tmp_path):
    res = runner.invoke(main, ["gen-data", "--out", str(tmp_path / "ds"), "--image-size", "6"])
    assert res.exit_code == 2, res.output
    assert "SSIM window" in res.output
    assert not (tmp_path / "ds").exists()


def test_gen_data_measurements_set_the_m_of_a_kind_with_another_default(runner, tmp_path):
    data = _gen(runner, tmp_path / "ds",
                extra=["--operator", "gaussian_fat", "--measurements", "16"])
    op = json.loads((data / "manifest.json").read_text())["operator"]
    assert (op["kind"], op["m"], op["n"]) == ("gaussian_fat", 16, 64)
    res = runner.invoke(main, ["solve", "--dataset", str(data), "--out", str(tmp_path / "s"),
                               "--method", "omp"], catch_exceptions=False)
    assert res.exit_code == 0, res.output


@pytest.mark.parametrize("flags, message", [
    (["--image-size", "256"], "may hold"), (["--noise-sigma", "1e308"], "overflows"),
    (["--operator", "fourier_masked", "--measurements", "33"],
     "fourier_masked requires even m with 0 < m <= 2n, got 33x1024"),
    (["--operator", "identity", "--measurements", "512"],
     "identity requires m == n, got 512x1024"),
    (["--operator", "gaussian_fat", "--measurements", "1024"],
     "gaussian_fat requires m < n, got 1024x1024"),
    (["--measurements", str(sensing.MAX_OPERATOR_ENTRIES // 1024 + 1)], "may hold"),
], ids=["operator-over-the-size-cap", "noise-overflows", "fourier-m-odd", "identity-m-not-n",
        "gaussian-fat-m-not-below-n", "measurements-over-the-size-cap"])
def test_gen_data_refuses_a_spec_before_making_out(runner, tmp_path, flags, message):
    # the operator and the splits are drawn before the directory is made
    res = runner.invoke(main, ["gen-data", "--out", str(tmp_path / "cap" / "ds"), *flags])
    assert res.exit_code == 2, res.output
    assert message in res.output
    assert "Traceback" not in res.output
    assert not (tmp_path / "cap").exists()


@pytest.mark.parametrize("where", ["flags", "config"])
def test_solve_refuses_a_negative_sparsity_before_making_out(runner, small_dataset, tmp_path,
                                                              where):
    args = ["solve", "--dataset", str(small_dataset), "--out", str(tmp_path / "r")]
    if where == "flags":
        args += ["--sparsity", "-1"]
    else:
        (tmp_path / "cfg.json").write_text(json.dumps({"sparsity": -1}))
        args += ["--config", str(tmp_path / "cfg.json")]
    res = runner.invoke(main, args)
    assert res.exit_code == 2, res.output
    assert "Invalid value for '--sparsity'" in res.output
    assert not (tmp_path / "r").exists()


def _edited_copy(data, dst, edit):
    """A copy of the dataset ``data`` at ``dst`` whose manifest ``edit`` changed."""
    dst.mkdir()
    for f in data.iterdir():
        (dst / f.name).write_bytes(f.read_bytes())
    manifest = json.loads((dst / "manifest.json").read_text())
    edit(manifest)
    (dst / "manifest.json").write_text(json.dumps(manifest))
    return dst


@pytest.mark.parametrize("key, value, message", [
    ("image_size", 6, "SSIM window"), ("version", 1, "'version' must be 2, got 1"),
])
def test_solve_refuses_a_manifest_before_writing(runner, small_dataset, tmp_path, key, value,
                                                  message):
    data = _edited_copy(small_dataset, tmp_path / "ds",
                        lambda manifest: manifest.update({key: value}))
    res = runner.invoke(main, ["solve", "--dataset", str(data), "--out", str(tmp_path / "r")])
    assert res.exit_code == 2, res.output
    assert message in res.output
    assert not (tmp_path / "r").exists()


def test_solve_refuses_an_operator_that_did_not_measure_the_pairs(runner, small_dataset,
                                                                  tmp_path):
    data = _edited_copy(small_dataset, tmp_path / "ds",
                        lambda manifest: manifest["operator"].update(
                            seed=manifest["operator"]["seed"] + 1))
    res = runner.invoke(main, ["solve", "--dataset", str(data), "--out", str(tmp_path / "r")])
    assert res.exit_code == 2, res.output
    assert "did not measure the stored pairs" in res.output
    assert "Traceback" not in res.output
    assert not (tmp_path / "r").exists()
    # an estimated operator reads no operator entry
    res = runner.invoke(main, ["solve", "--dataset", str(data), "--out", str(tmp_path / "e"),
                               "--operator", "estimated", "--limit", "1"])
    assert res.exit_code == 0, res.output


def test_seven_px_dataset_solves_end_to_end(runner, tmp_path):
    res = runner.invoke(main, ["gen-data", "--out", str(tmp_path / "ds"), "--image-size", "7",
                               "--train", "2", "--val", "1", "--test", "2"])
    assert res.exit_code == 0, res.output
    res = runner.invoke(main, ["solve", "--dataset", str(tmp_path / "ds"),
                               "--out", str(tmp_path / "r")], catch_exceptions=False)
    assert res.exit_code == 0, res.output
    assert res.output.startswith("2 samples")
    assert (tmp_path / "r" / "reconstructions.f64").stat().st_size == 2 * 49 * 8


def test_train_and_eval_refuse_a_non_square_dataset_before_making_out(runner, tmp_path):
    _assert_train_and_eval_refuse_before_making_out(runner, tmp_path, "fourier_masked")


def test_train_and_eval_refuse_a_fat_gaussian_dataset_before_making_out(runner, tmp_path):
    _assert_train_and_eval_refuse_before_making_out(runner, tmp_path, "gaussian_fat")


def _assert_train_and_eval_refuse_before_making_out(runner, tmp_path, kind):
    data = _gen(runner, tmp_path / "f", extra=["--operator", kind])
    cfg = model.UnetConfig(image_size=8)
    model.checkpoint_save(model.init_params(model.UNET, cfg), model.UNET, cfg, tmp_path / "c.json")
    for args in (_train_args(data, tmp_path / "tr"),
                 ["eval", "--checkpoint", str(tmp_path / "c.json"), "--dataset", str(data),
                  "--out", str(tmp_path / "ev"), "--emit-images", str(tmp_path / "img")]):
        res = runner.invoke(main, args)
        assert res.exit_code == 2, res.output
        assert "square operator dataset" in res.output
        assert "Traceback" not in res.output
    assert not any((tmp_path / name).exists() for name in ("tr", "ev", "img"))


def test_config_file_with_flag_override(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"train": 5, "seed": 3, "image_size": 8, "val": 2, "test": 2}))
    out = tmp_path / "ds"
    res = runner.invoke(main, ["gen-data", "--config", str(cfg), "--out", str(out),
                               "--seed", "9"], catch_exceptions=False)
    assert res.exit_code == 0, res.output
    record = json.loads((out / "run_record.json").read_text())
    assert record["config"]["train"] == 5  # from config file
    assert record["config"]["seed"] == 9  # flag wins


def test_verify_bound_orthonormal_exit_0(runner, tmp_path):
    out = tmp_path / "vb"
    res = runner.invoke(main, [
        "verify-bound", "--out", str(out), "--kinds", "orthonormal_square",
        "--m", "12", "--n", "12", "--k", "2,3", "--trials", "40",
    ], catch_exceptions=False)
    assert res.exit_code == 0, res.output
    text = (out / "sweep.csv").read_text()
    header, *lines = text.strip().splitlines()
    assert header.startswith("kind,m,n,k,mean_dev,max_dev,delta")
    assert len(lines) == 2
    for line in lines:
        assert float(line.split(",")[4]) < 1e-10


def test_verify_bound_exact_small_grid(runner, tmp_path):
    res = runner.invoke(main, [
        "verify-bound", "--out", str(tmp_path / "vb"), "--kinds", "gaussian_fat",
        "--m", "8", "--n", "12", "--k", "2", "--trials", "200",
    ], catch_exceptions=False)
    assert res.exit_code == 0, res.output
    csv = (tmp_path / "vb" / "sweep.csv").read_text().strip().splitlines()
    assert "exact_enumeration" in csv[1]


def test_verify_bound_deterministic_csv(runner, tmp_path):
    args = ["--kinds", "gaussian_fat", "--m", "8,10", "--n", "12", "--k", "2",
            "--trials", "30", "--seed", "5"]
    for name in ("a", "b"):
        res = runner.invoke(main, ["verify-bound", "--out", str(tmp_path / name),
                                   *args], catch_exceptions=False)
        assert res.exit_code == 0, res.output
    assert (tmp_path / "a" / "sweep.csv").read_bytes() == (tmp_path / "b" / "sweep.csv").read_bytes()


def test_verify_bound_malformed_grid_exit_2(runner, tmp_path):
    res = runner.invoke(main, ["verify-bound", "--out", str(tmp_path / "x"),
                               "--m", "8;9"])
    assert res.exit_code == 2


@pytest.mark.parametrize("flags,message", [
    (["--m", "8,8", "--n", "16", "--k", "1", "--kinds", "gaussian_fat"],
     "m names 8 more than once"),
    (["--kinds", "gaussian_fat,gaussian_fat"], "kinds names gaussian_fat more than once"),
    (["--m", "0"], "every m must be >= 1, got 0"),
    (["--n", "-12"], "every n must be >= 1, got -12"),
    (["--k", "0"], "every k must be >= 1, got 0"),
])
def test_verify_bound_names_the_bad_grid_value(runner, tmp_path, flags, message):
    # a repeated value would run its cells twice, from different draws
    res = runner.invoke(main, ["verify-bound", "--out", str(tmp_path / "x"), *flags])
    assert res.exit_code == 2
    assert message in res.output
    assert not (tmp_path / "x").exists()  # refused before the output directory is made


def test_verify_bound_matrix_output(runner, tmp_path):
    out = tmp_path / "vb"
    res = runner.invoke(main, [
        "verify-bound", "--out", str(out), "--kinds", "gaussian_fat",
        "--m", "8,10", "--n", "12", "--k", "2", "--trials", "10", "--matrix",
    ], catch_exceptions=False)
    assert res.exit_code == 0, res.output
    assert (out / "matrix_gaussian_fat.txt").exists()


def test_verify_bound_matrix_refuses_more_than_one_n(runner, tmp_path):
    # a matrix row per m would mix cells of different n
    out = tmp_path / "vb"
    res = runner.invoke(main, [
        "verify-bound", "--out", str(out), "--kinds", "gaussian_fat",
        "--m", "6,8", "--n", "8,12", "--k", "1,2", "--trials", "5", "--matrix",
    ])
    assert res.exit_code == 2, res.output
    assert [line for line in res.output.splitlines() if line.startswith("Error:")] == [
        "Error: --matrix takes one n, got --n 8,12"]
    assert not out.exists()
    assert "one n" in runner.invoke(main, ["verify-bound", "--help"]).output


def test_solve_identity_omp_psnr_capped(runner, tmp_path):
    data = _gen(runner, tmp_path / "ds", extra=["--operator", "identity"])
    out = tmp_path / "run"
    res = runner.invoke(main, [
        "solve", "--dataset", str(data), "--out", str(out), "--method", "omp",
        "--sparsity", "64", "--tol", "0",
    ], catch_exceptions=False)
    assert res.exit_code == 0, res.output
    agg = json.loads((out / "metrics_aggregate.json").read_text())["aggregate"]
    assert agg["psnr"]["mean"] == pytest.approx(240.0)
    assert agg["psnr"]["std"] == pytest.approx(0.0)


def test_solve_fista_computes_lipschitz_once(runner, small_dataset, tmp_path, monkeypatch):
    calls = []
    real = solvers.lipschitz_constant

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(solvers, "lipschitz_constant", counted)
    res = runner.invoke(main, [
        "solve", "--dataset", str(small_dataset), "--out", str(tmp_path / "r"),
        "--method", "fista", "--split", "train", "--limit", "5", "--max-iter", "50",
    ], catch_exceptions=False)
    assert res.exit_code == 0, res.output
    assert res.output.startswith("5 samples")
    assert len(calls) == 1


@pytest.mark.parametrize("method", ["omp", "ista", "fista"])
def test_solve_writes_one_solver_row_per_sample(runner, small_dataset, tmp_path, method):
    out = tmp_path / "r"
    res = runner.invoke(main, ["solve", "--dataset", str(small_dataset), "--out", str(out),
                               "--method", method, "--split", "train", "--limit", "5",
                               "--max-iter", "30"], catch_exceptions=False)
    assert res.exit_code == 0, res.output
    lines = (out / "solver_per_sample.csv").read_text().splitlines()
    assert lines[0] == "index,iterations,converged,rank_deficient,final_residual"
    rows = [line.split(",") for line in lines[1:]]
    assert [int(row[0]) for row in rows] == list(range(5))
    for row in rows:
        assert 1 <= int(row[1]) <= 30
        assert row[2] in ("0", "1") and row[3] in ("0", "1")
        assert float(row[4]) >= 0
    record = json.loads((out / "run_record.json").read_text())
    assert "solver_per_sample.csv" in record["outputs"]


def test_omp_without_a_config_solves_as_the_solve_command_does(runner, small_dataset, tmp_path):
    # SolverConfig holds each solve setting's one default: the atom budget,
    # 0 for max(1, n // 4), the iteration cap and the tolerance
    out = tmp_path / "r"
    res = runner.invoke(main, ["solve", "--dataset", str(small_dataset), "--out", str(out),
                               "--method", "omp"], catch_exceptions=False)
    assert res.exit_code == 0, res.output
    manifest = dataset.load_manifest(small_dataset)
    op = dataset.operator_from_manifest(manifest)
    x_hat = np.stack([solvers.omp(op, y).x_hat
                      for y in dataset.load_split(manifest, "test").raw()])
    assert (out / "reconstructions.f64").read_bytes() == x_hat.astype("<f8").tobytes()


def test_run_record_names_what_output_bytes_depend_on(small_dataset):
    env = json.loads((small_dataset / "run_record.json").read_text())["environment"]
    assert env["numpy"] == np.__version__
    assert set(env["blas"]) == {"name", "version"}
    assert set(env) == {"numpy", "blas", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"}


def test_solve_missing_dataset_exit_2(runner, tmp_path):
    res = runner.invoke(main, ["solve", "--dataset", str(tmp_path / "nope"),
                               "--out", str(tmp_path / "r")])
    assert res.exit_code == 2


def test_solve_estimated_matches_known_on_f64_data(runner, tmp_path):
    # exactly determined least squares: >= n noiseless f64 pairs
    data = tmp_path / "ds"
    res = runner.invoke(main, [
        "gen-data", "--out", str(data), "--image-size", "8", "--train", "96",
        "--val", "2", "--test", "6", "--seed", "3", "--dtype", "f64",
    ], catch_exceptions=False)
    assert res.exit_code == 0, res.output
    outs = {}
    for mode in ("known", "estimated"):
        out = tmp_path / mode
        res = runner.invoke(main, [
            "solve", "--dataset", str(data), "--out", str(out), "--method", "omp",
            "--operator", mode, "--sparsity", "24",
            *(["--ridge", "0"] if mode == "estimated" else []),
        ], catch_exceptions=False)
        assert res.exit_code == 0, res.output
        outs[mode] = (out / "metrics_per_image.csv").read_text().strip().splitlines()[1:]
    for row_known, row_est in zip(outs["known"], outs["estimated"]):
        vals_known = [float(v) for v in row_known.split(",")[1:]]
        vals_est = [float(v) for v in row_est.split(",")[1:]]
        for a, b in zip(vals_known, vals_est):
            assert abs(a - b) < 1e-6


def _train_args(data, out, extra=()):
    return ["train", "--dataset", str(data), "--out", str(out), "--model", "trust",
            "--loss", "l2", "--epochs", "2", "--lr", "1e-3", "--batch", "4",
            "--embed-dim", "8", "--depth", "1", "--heads", "2", "--limit", "8", *extra]


def test_train_writes_outputs_and_log(runner, small_dataset, tmp_path):
    out = tmp_path / "tr"
    res = runner.invoke(main, _train_args(small_dataset, out), catch_exceptions=False)
    assert res.exit_code == 0, res.output
    log = (out / "epochs.csv").read_text().strip().splitlines()
    assert log[0] == "epoch,train_loss,val_loss,val_ssim,val_psnr,val_fpr"
    assert len(log) == 3
    assert (out / "ckpt_best.json").exists() and (out / "ckpt_last.json.bin").exists()
    record = json.loads((out / "run_record.json").read_text())
    assert record["model"]["kind"] == "trust" and record["model"]["param_count"] > 0
    assert "param_count" not in record["config"]


def test_train_zero_lr_flat_log(runner, small_dataset, tmp_path):
    out = tmp_path / "tr0"
    res = runner.invoke(main, _train_args(small_dataset, out, ["--lr", "0"]),
                        catch_exceptions=False)
    assert res.exit_code == 0, res.output
    rows = (out / "epochs.csv").read_text().strip().splitlines()[1:]
    losses = {row.split(",")[1] for row in rows}
    assert len(losses) == 1  # identical formatted train loss every epoch


def test_train_skips_none_runs(runner, small_dataset, tmp_path):
    out = tmp_path / "trn"
    res = runner.invoke(main, _train_args(small_dataset, out, ["--skips", "none"]),
                        catch_exceptions=False)
    assert res.exit_code == 0, res.output


def test_train_reproducible_log_bytes(runner, small_dataset, tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        res = runner.invoke(main, _train_args(small_dataset, out), catch_exceptions=False)
        assert res.exit_code == 0, res.output
        outs.append(out)
    assert (outs[0] / "epochs.csv").read_bytes() == (outs[1] / "epochs.csv").read_bytes()
    assert (outs[0] / "ckpt_last.json.bin").read_bytes() == (outs[1] / "ckpt_last.json.bin").read_bytes()


def test_eval_identical_reports_and_images(runner, small_dataset, tmp_path):
    ckpt_dir = tmp_path / "tr"
    res = runner.invoke(main, _train_args(small_dataset, ckpt_dir), catch_exceptions=False)
    assert res.exit_code == 0, res.output
    reports = []
    for name in ("e1", "e2"):
        out = tmp_path / name
        res = runner.invoke(main, [
            "eval", "--checkpoint", str(ckpt_dir / "ckpt_best.json"),
            "--dataset", str(small_dataset), "--out", str(out),
            "--emit-images", str(out / "img"),
        ], catch_exceptions=False)
        assert res.exit_code == 0, res.output
        reports.append(out)
    assert (reports[0] / "metrics_per_image.csv").read_bytes() == \
        (reports[1] / "metrics_per_image.csv").read_bytes()
    imgs = sorted(p.name for p in (reports[0] / "img").iterdir())
    assert imgs[:3] == ["0000_x.pgm", "0000_xhat.pgm", "0000_y.pgm"]
    assert len(imgs) == 3 * 4  # test split has 4 samples


def test_eval_aggregate_matches_rows(runner, small_dataset, tmp_path):
    ckpt_dir = tmp_path / "tr"
    res = runner.invoke(main, _train_args(small_dataset, ckpt_dir), catch_exceptions=False)
    assert res.exit_code == 0, res.output
    out = tmp_path / "ev"
    res = runner.invoke(main, ["eval", "--checkpoint", str(ckpt_dir / "ckpt_best.json"),
                               "--dataset", str(small_dataset), "--out", str(out)],
                        catch_exceptions=False)
    assert res.exit_code == 0, res.output
    rows = (out / "metrics_per_image.csv").read_text().strip().splitlines()[1:]
    ssims = [float(r.split(",")[5]) for r in rows]
    agg = json.loads((out / "metrics_aggregate.json").read_text())["aggregate"]
    assert abs(agg["ssim"]["mean"] - sum(ssims) / len(ssims)) < 1e-12


def test_report_over_runs(runner, small_dataset, tmp_path):
    runs = tmp_path / "runs"
    ckpt_dir = tmp_path / "tr"
    res = runner.invoke(main, _train_args(small_dataset, ckpt_dir), catch_exceptions=False)
    assert res.exit_code == 0, res.output
    res = runner.invoke(main, ["eval", "--checkpoint", str(ckpt_dir / "ckpt_best.json"),
                               "--dataset", str(small_dataset),
                               "--out", str(runs / "eval_trust")],
                        catch_exceptions=False)
    assert res.exit_code == 0, res.output
    res = runner.invoke(main, ["solve", "--dataset", str(small_dataset),
                               "--out", str(runs / "solve_omp"), "--sparsity", "16"],
                        catch_exceptions=False)
    assert res.exit_code == 0, res.output
    res = runner.invoke(main, ["report", "--runs", str(runs)], catch_exceptions=False)
    assert res.exit_code == 0, res.output
    md = (runs / "report.md").read_text()
    assert "eval_trust" in md and "solve_omp" in md
    lines = (runs / "report.csv").read_text().strip().splitlines()
    assert lines[0].startswith("run,command,kind,param_count,mse_mean")
    assert len(lines) == 3
    # param_count column present for the model run
    eval_row = [r for r in lines[1:] if r.startswith("eval_trust")][0]
    assert eval_row.split(",")[3] != ""


def test_report_tables_keep_their_columns_when_a_run_name_holds_a_delimiter(
        runner, small_dataset, tmp_path):
    runs = tmp_path / "runs"
    names = ["a,b", "p|q", 'say "hi"', "plain"]
    for name in names:
        res = runner.invoke(main, ["solve", "--dataset", str(small_dataset),
                                   "--out", str(runs / name), "--sparsity", "4"],
                            catch_exceptions=False)
        assert res.exit_code == 0, res.output
    res = runner.invoke(main, ["report", "--runs", str(runs)], catch_exceptions=False)
    assert res.exit_code == 0, res.output
    with open(runs / "report.csv", newline="") as f:
        header, *rows = csv.reader(f)
    assert [len(row) for row in rows] == [len(header)] * len(names)
    assert sorted(row[0] for row in rows) == sorted(names)
    # a cell's pipe is escaped as \|, so only the unescaped pipes split a row
    header, rule, *rows = (runs / "report.md").read_text().splitlines()
    widths = [len(re.split(r"(?<!\\)\|", line)) for line in (header, *rows)]
    assert widths == [len(header.split("|"))] * (1 + len(names))
    assert any("| p\\|q |" in row for row in rows)


def test_report_empty_dir_exit_1(runner, tmp_path):
    (tmp_path / "runs").mkdir()
    res = runner.invoke(main, ["report", "--runs", str(tmp_path / "runs")])
    assert res.exit_code == 1


def test_train_nonfinite_abort_exit_1(runner, small_dataset, tmp_path):
    # the second run's one Adam step leaves finite parameters whose forward
    # overflows: only the validation loss shows it
    for name, extra, message in [
        ("tr", ["--lr", "1e300"], "first non-finite tensor is"),
        ("one_step", ["--lr", "1e300", "--epochs", "1", "--limit", "4"],
         "validation loss is nan after epoch 1"),
    ]:
        res = runner.invoke(main, _train_args(small_dataset, tmp_path / name, extra))
        assert res.exit_code == 1, res.output
        assert message in res.output
        assert "Traceback" not in res.output
        assert isinstance(res.exception, SystemExit)
        assert not (tmp_path / name / "run_record.json").exists()
        assert "RuntimeWarning" not in res.output
        assert not (tmp_path / name).exists()


def test_verify_bound_runs_dense_and_identity(runner, tmp_path):
    out = tmp_path / "vb"
    res = runner.invoke(main, [
        "verify-bound", "--out", str(out), "--kinds", "dense,identity",
        "--m", "8,12", "--n", "12", "--k", "2", "--trials", "5",
    ], catch_exceptions=False)
    assert res.exit_code == 0, res.output
    rows = (out / "sweep.csv").read_text().strip().splitlines()[1:]
    assert [r.split(",")[:2] for r in rows] == [["dense", "8"], ["dense", "12"],
                                                ["identity", "12"]]


def _missing_dataset(tmp, data):
    return ["solve", "--dataset", str(tmp / "nope"), "--out", str(tmp / "r")]


def _corrupt_manifest(blob):
    def args(tmp, data):
        (tmp / "ds").mkdir()
        (tmp / "ds" / "manifest.json").write_bytes(blob)
        return ["solve", "--dataset", str(tmp / "ds"), "--out", str(tmp / "r")]
    return args


def _checkpoint_without_blob(tmp, data):
    cfg = model.UnetConfig(image_size=8)
    model.checkpoint_save(model.init_params(model.UNET, cfg), model.UNET, cfg, tmp / "c.json")
    (tmp / "c.json.bin").unlink()
    return ["eval", "--checkpoint", str(tmp / "c.json"), "--dataset", str(data),
            "--out", str(tmp / "ev")]


def _manifest_without_splits(tmp, data):
    manifest = json.loads((data / "manifest.json").read_text())
    del manifest["splits"]
    (tmp / "ds").mkdir()
    (tmp / "ds" / "manifest.json").write_text(json.dumps(manifest))
    return ["solve", "--dataset", str(tmp / "ds"), "--out", str(tmp / "r")]


def _checkpoint_bad_tensor_entries(tmp, data):
    cfg = model.UnetConfig(image_size=8)
    model.checkpoint_save(model.init_params(model.UNET, cfg), model.UNET, cfg, tmp / "c.json")
    manifest = json.loads((tmp / "c.json").read_text())
    manifest["tensors"] = [1, 2]
    (tmp / "c.json").write_text(json.dumps(manifest))
    return ["eval", "--checkpoint", str(tmp / "c.json"), "--dataset", str(data),
            "--out", str(tmp / "ev")]


def _checkpoint_for_other_size(tmp, data):
    cfg = model.UnetConfig(image_size=8)
    model.checkpoint_save(model.init_params(model.UNET, cfg), model.UNET, cfg, tmp / "c.json")
    _gen(CliRunner(), tmp / "ds16", ["--image-size", "16", "--train", "2", "--val", "1",
                                     "--test", "1"])
    return ["eval", "--checkpoint", str(tmp / "c.json"), "--dataset", str(tmp / "ds16"),
            "--out", str(tmp / "ev")]


def _checkpoint_config(kind, **entries):
    """An eval of a checkpoint whose stored config also holds ``entries``."""
    def args(tmp, data):
        cfg = (model.TrustConfig(image_size=8, embed_dim=8, num_heads=2, encoder_depth=1)
               if kind == model.TRUST else model.UnetConfig(image_size=8))
        model.checkpoint_save(model.init_params(kind, cfg), kind, cfg, tmp / "c.json")
        manifest = json.loads((tmp / "c.json").read_text())
        manifest["config"].update(entries)
        (tmp / "c.json").write_text(json.dumps(manifest))
        return ["eval", "--checkpoint", str(tmp / "c.json"), "--dataset", str(data),
                "--out", str(tmp / "ev")]
    return args


def _bogus_kind(tmp, data):
    return ["verify-bound", "--out", str(tmp / "vb"), "--kinds", "bogus"]


def _oversized_sweep(tmp, data):
    return ["verify-bound", "--out", str(tmp / "vb"), "--kinds", "gaussian_fat",
            "--n", "100000000"]


def _sweep_without_cells(*flags):
    def args(tmp, data):
        return ["verify-bound", "--out", str(tmp / "vb"), *flags]
    return args


def _corrupt_run(corrupt):
    def args(tmp, data):
        run = tmp / "runs" / "solve_omp"
        res = CliRunner().invoke(main, ["solve", "--dataset", str(data), "--out", str(run),
                                        "--limit", "1"], catch_exceptions=False)
        assert res.exit_code == 0, res.output
        agg_file = run / "metrics_aggregate.json"
        agg_file.write_bytes(corrupt(agg_file.read_bytes()))
        return ["report", "--runs", str(tmp / "runs")]
    return args


def _without_ssim(blob):
    meta = json.loads(blob)
    del meta["aggregate"]["ssim"]
    return json.dumps(meta).encode()


def _sweep_k(k):
    def args(tmp, data):
        return ["verify-bound", "--out", str(tmp / "vb"), "--k", str(k)]
    return args


def _indivisible_heads(tmp, data):
    return _train_args(data, tmp / "tr", ["--embed-dim", "64", "--heads", "3"])


def _image_size(size):
    def args(tmp, data):
        return ["gen-data", "--out", str(tmp / "ds"), "--image-size", str(size)]
    return args


def _flags(command, *extra):
    def args(tmp, data):
        base = {
            "gen-data": ["gen-data", "--out", str(tmp / "ds"), "--image-size", "8"],
            "verify-bound": ["verify-bound", "--out", str(tmp / "vb")],
            "solve": ["solve", "--dataset", str(data), "--out", str(tmp / "r"), "--limit", "1"],
            "train": _train_args(data, tmp / "tr"),
            "eval": ["eval", "--checkpoint", str(tmp / "c.json"), "--dataset", str(data),
                     "--out", str(tmp / "ev")],
        }[command]
        return base + list(extra)
    return args


def _config_seed(tmp, data):
    (tmp / "cfg.json").write_text(json.dumps({"seed": -1}))
    return ["gen-data", "--out", str(tmp / "ds"), "--image-size", "8",
            "--config", str(tmp / "cfg.json")]


def _config_not_utf8(tmp, data):
    (tmp / "cfg.json").write_bytes(b"\xff")
    return ["gen-data", "--out", str(tmp / "ds"), "--image-size", "8",
            "--config", str(tmp / "cfg.json")]


def _config(command, entries):
    """The ``_flags(command)`` run with each of ``entries`` in a config file
    instead of on the command line."""
    def args(tmp, data):
        (tmp / "cfg.json").write_text(json.dumps(entries))
        base = _flags(command)(tmp, data)
        for key in entries:
            flag = "--" + key.replace("_", "-")
            if flag in base:
                del base[base.index(flag):base.index(flag) + 2]
        return base + ["--config", str(tmp / "cfg.json")]
    return args


def _config_digits(tmp, data):
    # more digits than Python turns into an int
    (tmp / "cfg.json").write_text('{"seed": 1' + "0" * 5000 + "}")
    return ["gen-data", "--out", str(tmp / "ds"), "--image-size", "8",
            "--config", str(tmp / "cfg.json")]


@pytest.mark.parametrize("make_args", [
    _missing_dataset, _corrupt_manifest(b"{not json"), _corrupt_manifest(b"[1, 2]"),
    _corrupt_manifest(b"\xff"),
    _manifest_without_splits, _checkpoint_without_blob, _checkpoint_bad_tensor_entries,
    _checkpoint_for_other_size,
    # the decoder settings a checkpoint stored before they were derived
    _checkpoint_config(model.TRUST, pool_grid=2, skip_sources=[1, 1]),
    *(_checkpoint_config(model.TRUST, **{key: value}) for key, value in (
        ("image_size", 8.0), ("patch_size", 4.0), ("embed_dim", 8.0), ("num_heads", 2.0),
        ("encoder_depth", 1.0), ("seed", 0.0))),
    _checkpoint_config(model.TRUST, decoder_channels=[64, 32.0, 16, 8]),
    _checkpoint_config(model.TRUST, skip_enabled=[1, "x"]),
    _checkpoint_config(model.UNET, image_size=8.0),
    _checkpoint_config(model.UNET, base_channels=8.0),
    _checkpoint_config(model.UNET, seed=True),
    _bogus_kind, _oversized_sweep, _sweep_k(0), _sweep_k(-1),
    _sweep_without_cells("--kinds", ","), _sweep_without_cells("--m", "40", "--n", "12"),
    _sweep_without_cells("--m", "8,8", "--n", "16", "--k", "1", "--kinds", "gaussian_fat"),
    _sweep_without_cells("--n", "12,12"), _sweep_without_cells("--k", "1,2,1"),
    _sweep_without_cells("--kinds", "gaussian_fat,orthonormal_square,gaussian_fat"),
    _sweep_without_cells("--m", "0"), _sweep_without_cells("--n", "-12"),
    _corrupt_run(lambda blob: blob[: len(blob) // 2]), _corrupt_run(lambda blob: b"\xff" + blob),
    _corrupt_run(_without_ssim),
    _indivisible_heads,
    _image_size(256), _image_size(0),
    _flags("gen-data", "--seed", "-1"), _flags("verify-bound", "--seed", "-1"),
    _flags("train", "--seed", "-1"), _config_seed,
    _flags("solve", "--max-iter", "-5"), _flags("solve", "--method", "fista", "--max-iter", "-5"),
    _flags("solve", "--limit", "-2"), _flags("train", "--limit", "-2"),
    _flags("eval", "--limit", "-2"), _flags("train", "--heads", "0"),
    _flags("train", "--embed-dim", "0"),
    _config("gen-data", {"seed": None}), _config("verify-bound", {"seed": None}),
    _config("train", {"seed": None}), _config("solve", {"out": None}),
    _config("solve", {"max_iter": None}), _config("train", {"epochs": None}),
    _config("verify-bound", {"emit_matrix": None}), _config("solve", {"max_iters": 3}),
    _flags("train", "--lr", "nan"), _flags("solve", "--method", "fista", "--lam", "nan"),
    _flags("solve", "--tol", "nan"), _flags("solve", "--operator", "estimated", "--ridge", "nan"),
    _flags("gen-data", "--noise-sigma", "inf"), _flags("gen-data", "--noise-sigma", "nan"),
    _flags("gen-data", "--operator", "fourier_masked", "--measurements", "inf"),
    _config("gen-data", {"noise_sigma": float("nan")}), _config("train", {"lr": float("inf")}),
    _flags("gen-data", "--noise-sigma", "1e308"), _flags("train", "--model", "unet",
                                                        "--skips", "bogus"),
    _config_not_utf8,
    _config("solve", {"max_iter": 2.7, "limit": 1.5}), _config("solve", {"sparsity": 4.0}),
    _config("train", {"epochs": 1.9}), _config("train", {"embed_dim": True}),
    _config("gen-data", {"image_size": 8.0}), _config("gen-data", {"seed": False}),
    _config("solve", {"method": "fista", "lam": [1]}), _config("solve", {"tol": {}}),
    _config("solve", {"operator": "estimated", "ridge": [1]}),
    _config("verify-bound", {"emit_matrix": 1}), _config("verify-bound", {"emit_matrix": "x"}),
    _config("gen-data", {"noise_sigma": 10**400}), _config("gen-data", {"noise_sigma": True}),
    _config("solve", {"tol": False}), _config_digits,
], ids=["missing-dataset", "manifest-not-json", "manifest-not-object", "manifest-not-utf8",
        "manifest-without-splits", "checkpoint-blob-deleted", "checkpoint-tensors-not-entries",
        "checkpoint-for-other-image-size", "checkpoint-holds-pool-grid",
        "checkpoint-trust-image-size-float", "checkpoint-trust-patch-size-float",
        "checkpoint-trust-embed-dim-float", "checkpoint-trust-num-heads-float",
        "checkpoint-trust-encoder-depth-float", "checkpoint-trust-seed-float",
        "checkpoint-trust-decoder-channel-float", "checkpoint-trust-skip-flag-not-bool",
        "checkpoint-unet-image-size-float", "checkpoint-unet-base-channels-float",
        "checkpoint-unet-seed-bool",
        "bogus-kind", "oversized-sweep", "k-0", "k-negative", "sweep-kinds-empty",
        "sweep-grid-without-cells", "sweep-m-repeated", "sweep-n-repeated", "sweep-k-repeated",
        "sweep-kinds-repeated", "sweep-m-0", "sweep-n-negative", "report-aggregate-not-json",
        "report-aggregate-not-utf8", "report-aggregate-without-ssim", "heads-3", "image-size-256",
        "image-size-0", "gen-data-seed-negative", "verify-bound-seed-negative",
        "train-seed-negative", "config-file-seed-negative", "omp-max-iter-negative",
        "fista-max-iter-negative", "solve-limit-negative", "train-limit-negative",
        "eval-limit-negative", "heads-0", "embed-dim-0",
        "config-gen-data-seed-null", "config-verify-bound-seed-null", "config-train-seed-null",
        "config-solve-out-null", "config-solve-max-iter-null", "config-train-epochs-null",
        "config-verify-bound-emit-matrix-null", "config-solve-max-iters-unknown",
        "train-lr-nan", "fista-lam-nan", "solve-tol-nan", "solve-ridge-nan",
        "gen-data-noise-sigma-inf", "gen-data-noise-sigma-nan", "gen-data-measurements-inf",
        "config-gen-data-noise-sigma-nan", "config-train-lr-inf",
        "gen-data-noise-sigma-overflows", "unet-skips-bogus", "config-file-not-utf8",
        "config-solve-max-iter-float", "config-solve-sparsity-integral-float",
        "config-train-epochs-float", "config-train-embed-dim-bool",
        "config-gen-data-image-size-float", "config-gen-data-seed-bool",
        "config-fista-lam-list", "config-solve-tol-object", "config-solve-ridge-list",
        "config-verify-bound-emit-matrix-number", "config-verify-bound-emit-matrix-string",
        "config-gen-data-noise-sigma-beyond-float", "config-gen-data-noise-sigma-bool",
        "config-solve-tol-bool", "config-file-integer-too-long"])
def test_bad_input_exits_2_without_traceback(runner, small_dataset, tmp_path, make_args):
    res = runner.invoke(main, make_args(tmp_path, small_dataset))
    assert res.exit_code == 2, res.output
    assert "Traceback" not in res.output
    assert res.exception is None or isinstance(res.exception, SystemExit)


@pytest.mark.parametrize("value", [2.7, 2.0, True])
def test_config_integer_is_refused_not_truncated(runner, small_dataset, tmp_path, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"max_iter": value}))
    out = tmp_path / "r"
    res = runner.invoke(main, ["solve", "--dataset", str(small_dataset), "--out", str(out),
                               "--limit", "1", "--config", str(cfg)])
    assert res.exit_code == 2, res.output
    assert [line for line in res.output.splitlines() if line.startswith("Error:")] == [
        f"Error: Invalid value for '--max-iter': {value!r} is not an integer >= 0."]
    assert not out.exists()


def test_command_line_integers_parse_as_before(runner, small_dataset, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"max_iter": 7}))
    out = tmp_path / "r"
    res = runner.invoke(main, ["solve", "--dataset", str(small_dataset), "--out", str(out),
                               "--limit", " 2", "--sparsity", "+3", "--config", str(cfg)],
                        catch_exceptions=False)
    assert res.exit_code == 0, res.output
    config = json.loads((out / "run_record.json").read_text())["config"]
    assert (config["max_iter"], config["limit"], config["sparsity"]) == (7, 2, 3)


def test_config_null_lam_means_default(runner, small_dataset, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lam": None}))
    out = tmp_path / "r"
    res = runner.invoke(main, ["solve", "--dataset", str(small_dataset), "--out", str(out),
                               "--method", "fista", "--limit", "1", "--config", str(cfg)],
                        catch_exceptions=False)
    assert res.exit_code == 0, res.output
    assert json.loads((out / "run_record.json").read_text())["config"]["lam"] is None


_TYPED_ERRORS = [(ParameterError, 2), (DatasetError, 2), (CheckpointError, 2),
                  (DimensionError, 2), (SingularMatrixError, 2), (EnumerationCapExceeded, 2),
                  (ContractError, 1)]


@pytest.mark.parametrize("command", ["solve", "eval"])
@pytest.mark.parametrize("error,code", _TYPED_ERRORS,
                         ids=[error.__name__ for error, _ in _TYPED_ERRORS])
def test_typed_error_exits_with_its_code_without_traceback(runner, small_dataset, tmp_path,
                                                           monkeypatch, command, error, code):
    def fail(*args, **kwargs):
        raise error("planted failure")

    monkeypatch.setattr(dataset, "load_split", fail)
    flags = _small_run(command, tmp_path, small_dataset)
    res = runner.invoke(main, [command, *(part for item in flags.items() for part in item)])
    assert res.exit_code == code, res.output
    assert "Error: planted failure" in res.output
    assert ("Usage: " in res.output) == (code == 2)
    assert "Traceback" not in res.output
    assert isinstance(res.exception, SystemExit)


@pytest.mark.parametrize("command,key", [("solve", "dataset"), ("eval", "checkpoint")])
def test_config_file_supplies_a_required_setting(runner, small_dataset, tmp_path, command, key):
    flags = _small_run(command, tmp_path, small_dataset)
    value = flags.pop("--" + key)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    res = runner.invoke(main, [command, *(part for item in flags.items() for part in item),
                               "--config", str(cfg)], catch_exceptions=False)
    assert res.exit_code == 0, res.output
    record = json.loads((Path(flags["--out"]) / "run_record.json").read_text())
    assert record["config"][key] == value


def _small_run(command, tmp, data):
    """Flags, keyed by flag, of a quick run of ``command``."""
    if command == "eval":
        cfg = model.UnetConfig(image_size=8)
        model.checkpoint_save(model.init_params(model.UNET, cfg), model.UNET, cfg,
                              tmp / "c.json")
    out = str(tmp / "out")
    return {
        "gen-data": {"--out": out, "--image-size": "8", "--train": "2", "--val": "1",
                     "--test": "1"},
        "verify-bound": {"--out": out, "--kinds": "identity", "--m": "8", "--n": "8",
                         "--k": "2", "--trials": "2"},
        "solve": {"--dataset": str(data), "--out": out, "--limit": "1"},
        "train": {"--dataset": str(data), "--out": out, "--model": "trust", "--loss": "l2",
                  "--epochs": "1", "--batch": "4", "--embed-dim": "8", "--depth": "1",
                  "--heads": "2", "--limit": "4"},
        "eval": {"--checkpoint": str(tmp / "c.json"), "--dataset": str(data), "--out": out,
                 "--limit": "1"},
    }[command]


_FLAG_BEATS_CONFIG = [
    ("gen-data", "out", "{tmp}/flag", "{tmp}/config"),
    ("verify-bound", "out", "{tmp}/flag", "{tmp}/config"),
    ("solve", "dataset", "{data}", "{tmp}/nope"),
    ("solve", "out", "{tmp}/flag", "{tmp}/config"),
    ("solve", "operator", "known", "estimated"),
    ("train", "dataset", "{data}", "{tmp}/nope"),
    ("train", "out", "{tmp}/flag", "{tmp}/config"),
    ("train", "model", "trust", "unet"),
    ("train", "loss", "l2", "l2ssim"),
    ("eval", "checkpoint", "{tmp}/c.json", "{tmp}/nope.json"),
    ("eval", "dataset", "{data}", "{tmp}/nope"),
    ("eval", "out", "{tmp}/flag", "{tmp}/config"),
    ("eval", "emit_images", "{tmp}/flag_imgs", "{tmp}/config_imgs"),
]


@pytest.mark.parametrize("command,key,flag_value,config_value", _FLAG_BEATS_CONFIG,
                         ids=[f"{row[0]}-{row[1]}" for row in _FLAG_BEATS_CONFIG])
def test_flag_beats_config_entry(runner, small_dataset, tmp_path, command, key, flag_value,
                                 config_value):
    flag_value = flag_value.format(tmp=tmp_path, data=small_dataset)
    config_value = config_value.format(tmp=tmp_path, data=small_dataset)
    flags = _small_run(command, tmp_path, small_dataset)
    flags["--" + key.replace("_", "-")] = flag_value
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: config_value}))
    args = [command, *(part for item in flags.items() for part in item), "--config", str(cfg)]
    res = runner.invoke(main, args, catch_exceptions=False)
    assert res.exit_code == 0, res.output
    record = json.loads((Path(flags["--out"]) / "run_record.json").read_text())
    assert record["config"][key] == flag_value
    assert not Path(config_value).exists()
    if key == "emit_images":
        assert (Path(flag_value) / "0000_xhat.pgm").exists()


@pytest.mark.parametrize("method", ["omp", "ista", "fista"])
def test_solve_calls_the_module_solver_once_per_sample(runner, small_dataset, tmp_path,
                                                       monkeypatch, method):
    calls = []
    real = getattr(solvers, method)

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(solvers, method, counted)
    res = runner.invoke(main, ["solve", "--dataset", str(small_dataset),
                               "--out", str(tmp_path / "r"), "--method", method,
                               "--limit", "3", "--max-iter", "20"], catch_exceptions=False)
    assert res.exit_code == 0, res.output
    assert len(calls) == 3


def _scipy_loaded_after(code: str, *args: str) -> bool:
    """Whether a fresh interpreter that runs ``code`` with ``args`` as its
    argv has scipy loaded."""
    import os
    import subprocess
    import sys

    import trustkit

    src = str(Path(trustkit.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code + "\nprint('scipy' in sys.modules)",
                           *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    return done.stdout.strip().splitlines()[-1] == "True"


def test_cli_import_leaves_scipy_unloaded():
    assert not _scipy_loaded_after("import sys, trustkit.cli")


@pytest.mark.parametrize("flags", [["--method", "omp"], ["--method", "ista"],
                                   ["--method", "fista"], ["--operator", "estimated"]],
                         ids=["omp", "ista", "fista", "estimated"])
def test_solve_leaves_scipy_unloaded(small_dataset, tmp_path, flags):
    code = ("import sys, trustkit.cli\n"
            "try:\n    trustkit.cli.main(sys.argv[1:])\n"
            "except SystemExit as exc:\n    assert not exc.code, exc.code")
    assert not _scipy_loaded_after(code, "solve", *flags, "--dataset", str(small_dataset),
                                   "--out", str(tmp_path / "r"), "--limit", "2",
                                   "--max-iter", "20")


_OUTPUT_FLAGS = [("gen-data", "--out"), ("verify-bound", "--out"), ("solve", "--out"),
                 ("train", "--out"), ("eval", "--out"), ("eval", "--emit-images"),
                 ("report", "--out")]


@pytest.mark.parametrize("command,flag", _OUTPUT_FLAGS,
                         ids=[f"{command}{flag}" for command, flag in _OUTPUT_FLAGS])
@pytest.mark.parametrize("where", ["is-a-file", "under-a-file"])
def test_output_path_that_cannot_be_a_directory_exits_2(runner, small_dataset, tmp_path,
                                                        command, flag, where):
    blocker = tmp_path / "afile"
    blocker.write_text("not a directory\n")
    target = blocker if where == "is-a-file" else blocker / "sub"
    if command == "report":
        flags = {"--runs": str(tmp_path / "runs")}
        solve_flags = _small_run("solve", tmp_path, small_dataset)
        solve_flags["--out"] = str(tmp_path / "runs" / "omp")
        res = runner.invoke(main, ["solve", *(p for item in solve_flags.items() for p in item)])
        assert res.exit_code == 0, res.output
    else:
        flags = _small_run(command, tmp_path, small_dataset)
    flags[flag] = str(target)
    res = runner.invoke(main, [command, *(part for item in flags.items() for part in item)])
    assert res.exit_code == 2, res.output
    assert f"cannot create output directory {target}" in res.output
    assert "Traceback" not in res.output
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert blocker.read_text() == "not a directory\n"
    if flag != "--out":  # a failing run leaves no new empty --out behind
        assert not Path(flags["--out"]).exists()


# a choice made, a setting that only another choice reads, a value for it,
# and that other choice
_FOREIGN_SETTINGS = [
    ("train", "--model unet", "skips", "none", "--model trust"),
    ("train", "--model unet", "embed_dim", 8, "--model trust"),
    ("train", "--model unet", "depth", 1, "--model trust"),
    ("train", "--model unet", "heads", 2, "--model trust"),
    ("train", "--model trust", "base_channels", 4, "--model unet"),
    ("solve", "--method omp", "lam", 0.3, "--method ista/fista"),
    ("solve", "--method fista", "sparsity", 3, "--method omp"),
    ("solve", "--operator known", "ridge", 5.0, "--operator estimated"),
]
_TRUST_FLAGS = ("--embed-dim", "--depth", "--heads")


def _run_choosing(command, choice, tmp, data):
    """The flags of ``_small_run(command)`` with ``choice`` made and no
    TRUST setting given."""
    flags = {flag: value for flag, value in _small_run(command, tmp, data).items()
             if flag not in _TRUST_FLAGS}
    option, value = choice.split()
    flags[option] = value
    return flags


@pytest.mark.parametrize("where", ["flags", "config", "choice-flag-setting-config"])
@pytest.mark.parametrize("command,choice,key,value,owner", _FOREIGN_SETTINGS,
                         ids=[f"{row[0]}-{row[1][2:].replace(' ', '-')}-{row[2]}"
                              for row in _FOREIGN_SETTINGS])
def test_setting_of_another_choice_exits_2(runner, small_dataset, tmp_path, command, choice,
                                           key, value, owner, where):
    flags = _run_choosing(command, choice, tmp_path, small_dataset)
    option, picked = choice.split()
    flag = "--" + key.replace("_", "-")
    entries = {"flags": {}, "config": {option[2:]: picked, key: value},
               "choice-flag-setting-config": {key: value}}[where]
    if where == "flags":
        flags[flag] = str(value)
    if where == "config":
        del flags[option]
    args = [command, *(part for item in flags.items() for part in item)]
    if entries:
        (tmp_path / "cfg.json").write_text(json.dumps(entries))
        args += ["--config", str(tmp_path / "cfg.json")]
    res = runner.invoke(main, args)
    assert res.exit_code == 2, res.output
    assert [line for line in res.output.splitlines() if line.startswith("Error:")] == [
        f"Error: {flag} is a setting of {owner}, not of {choice}"]
    assert "Traceback" not in res.output
    assert not Path(flags["--out"]).exists()


# a choice made, with the settings its run reads beyond the shared ones, and
# those it leaves at their defaults and out of its run record
_OWN_SETTINGS = [
    ("train", "--model unet", {"base_channels"}, {"embed_dim", "depth", "heads", "skips"}),
    ("train", "--model trust", {"embed_dim", "depth", "heads", "skips"}, {"base_channels"}),
    ("solve", "--method omp", {"sparsity"}, {"lam", "ridge"}),
    ("solve", "--method fista", {"lam"}, {"sparsity", "ridge"}),
    ("solve", "--operator estimated", {"sparsity", "ridge"}, {"lam"}),
]


@pytest.mark.parametrize("command,choice,read,unread", _OWN_SETTINGS,
                         ids=[f"{row[0]}-{row[1][2:].replace(' ', '-')}" for row in _OWN_SETTINGS])
def test_run_record_leaves_out_the_settings_its_choice_does_not_read(
        runner, small_dataset, tmp_path, command, choice, read, unread):
    flags = _run_choosing(command, choice, tmp_path, small_dataset)
    if choice == "--model trust":
        flags.update({"--embed-dim": "8", "--depth": "1", "--heads": "2"})
    res = runner.invoke(main, [command, *(part for item in flags.items() for part in item)],
                        catch_exceptions=False)
    assert res.exit_code == 0, res.output
    config = json.loads((Path(flags["--out"]) / "run_record.json").read_text())["config"]
    owned = {p.name for p in main.commands[command].params if isinstance(p, _Owned)}
    assert owned & set(config) == read
    assert not unread & set(config)


@pytest.mark.parametrize("command,choice", [("gen-data", "--operator dense"),
                                            ("solve", "--method fista"),
                                            ("solve", "--operator known"),
                                            ("train", "--model unet"),
                                            ("eval", "--split val")])
def test_run_record_config_reruns_as_a_config_file(runner, small_dataset, tmp_path, command,
                                                   choice):
    flags = _run_choosing(command, choice, tmp_path, small_dataset)
    res = runner.invoke(main, [command, *(part for item in flags.items() for part in item)],
                        catch_exceptions=False)
    assert res.exit_code == 0, res.output
    first, again = Path(flags["--out"]), tmp_path / "again"
    config = json.loads((first / "run_record.json").read_text())["config"]
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    res = runner.invoke(main, [command, "--config", str(tmp_path / "cfg.json"),
                               "--out", str(again)], catch_exceptions=False)
    assert res.exit_code == 0, res.output
    for out in (first, again):
        (out / "run_record.json").unlink()
    assert {p.name: p.read_bytes() for p in first.iterdir()} == \
        {p.name: p.read_bytes() for p in again.iterdir()}


# the options that every choice of each command reads
_SHARED = {
    "gen-data": {"out", "config", "image_size", "train", "val", "test", "operator",
                 "measurements", "noise_sigma", "seed", "dtype"},
    "solve": {"dataset", "out", "config", "method", "operator", "split", "tol", "max_iter",
              "limit"},
    "train": {"dataset", "out", "config", "model", "loss", "epochs", "lr", "batch", "seed",
              "limit"},
}


@pytest.mark.parametrize("command", sorted(_SHARED))
def test_every_option_is_shared_or_owned_by_a_declared_choice(command):
    params = {p.name: p for p in main.commands[command].params}
    owned = {name: p for name, p in params.items() if isinstance(p, _Owned)}
    assert set(params) - set(owned) == _SHARED[command]
    for p in owned.values():
        choices = params[p.owner].type.choices
        assert p.owner in _SHARED[command] and isinstance(params[p.owner].type, click.Choice)
        assert set(p.owners) < set(choices)  # some choice does not read it
        assert p.help.endswith(f"Only for --{p.owner} {'/'.join(p.owners)}.")


def test_model_settings_are_the_specs_and_name_their_config_fields():
    params = {p.name: p for p in main.commands["train"].params}
    assert tuple(params["model"].type.choices) == model.KINDS
    for kind in model.KINDS:
        spec = model.model_spec(kind)
        fields = {f.name for f in dataclasses.fields(spec.config_class)}
        assert set(spec.settings.values()) <= fields - {"image_size", "seed"}
        assert set(spec.settings) == {name for name, p in params.items()
                                      if isinstance(p, _Owned) and kind in p.owners}


# ---- the exit contract under any config-file entry ---------------------------------

# what a config-file entry is replaced by
_FUZZ_VALUES = (None, True, False, 0, 1, -1, 2.5, float("nan"), 1e308, -1e308, "", "x", [1], {})
# (command, setting) of every setting a config file may hold
_FUZZ_SETTINGS = [(name, param.name) for name, command in main.commands.items()
                  for param in command.params if name != "report" and param.name != "config"]


@pytest.fixture(scope="module")
def fuzz_configs(small_dataset, tmp_path_factory):
    """Per command, the config file entries of a quick run that exits 0."""
    checkpoint = tmp_path_factory.mktemp("fuzz") / "c.json"
    cfg = model.UnetConfig(image_size=8)
    model.checkpoint_save(model.init_params(model.UNET, cfg), model.UNET, cfg, checkpoint)
    data = str(small_dataset)
    return {
        "gen-data": {"out": "out", "image_size": 8, "train": 2, "val": 1, "test": 1},
        "verify-bound": {"out": "out", "kinds": "identity", "m_list": "8", "n_list": "8",
                         "k_list": "2", "trials": 2},
        "solve": {"dataset": data, "out": "out", "limit": 1, "max_iter": 20},
        "train": {"dataset": data, "out": "out", "model": "trust", "loss": "l2", "epochs": 1,
                  "batch": 4, "embed_dim": 8, "depth": 1, "heads": 2, "limit": 4},
        "eval": {"checkpoint": str(checkpoint), "dataset": data, "out": "out", "limit": 1},
    }


def test_fuzz_configs_run(runner, fuzz_configs):
    for command, entries in fuzz_configs.items():
        with runner.isolated_filesystem():
            Path("cfg.json").write_text(json.dumps(entries))
            res = runner.invoke(main, [command, "--config", "cfg.json"])
            assert res.exit_code == 0, (command, res.output)


@settings(max_examples=700)
@given(setting=st.sampled_from(_FUZZ_SETTINGS), value=st.sampled_from(_FUZZ_VALUES))
@example(setting=("verify-bound", "emit_matrix"), value=1)
def test_any_config_entry_keeps_the_exit_contract(runner, fuzz_configs, setting, value):
    # exit 0, 1 or 2, no traceback, and a failed run leaves no new empty directory
    command, key = setting
    with runner.isolated_filesystem() as cwd:
        Path("cfg.json").write_text(json.dumps(dict(fuzz_configs[command], **{key: value})))
        res = runner.invoke(main, [command, "--config", "cfg.json"])
        assert res.exit_code in (0, 1, 2), res.output
        assert "Traceback" not in res.output
        assert res.exception is None or isinstance(res.exception, SystemExit), res.exception
        if res.exit_code:
            empty = [path for path, dirs, files in os.walk(cwd) if not dirs and not files]
            assert empty == [], res.output
