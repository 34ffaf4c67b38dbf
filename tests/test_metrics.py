import json
import math

import numpy as np
import pytest

from trustkit import metrics, ndtensor as nd
from trustkit.errors import DimensionError, ParameterError

from gradcheck import finite_difference, rel_err

rng = np.random.default_rng(77)


def test_zero_error_cases():
    x = rng.random((8, 8))
    assert metrics.mse(x, x) == 0.0
    assert metrics.mae(x, x) == 0.0
    assert metrics.rmse(x, x) == 0.0


def test_constant_offset():
    x = rng.random((10, 10))
    y = x + 0.1
    assert abs(metrics.mae(y, x) - 0.1) < 1e-12
    assert abs(metrics.rmse(y, x) - 0.1) < 1e-12
    assert abs(metrics.mse(y, x) - 0.01) < 1e-12


def test_against_naive_double_loop():
    a = rng.random((6, 7))
    b = rng.random((6, 7))
    se = ae = 0.0
    for i in range(6):
        for j in range(7):
            d = a[i, j] - b[i, j]
            se += d * d
            ae += abs(d)
    n = 42
    assert abs(metrics.mse(a, b) - se / n) < 1e-14
    assert abs(metrics.mae(a, b) - ae / n) < 1e-14


def test_shape_mismatch():
    with pytest.raises(DimensionError):
        metrics.mse(np.zeros((2, 2)), np.zeros((2, 3)))


def test_psnr_formula():
    x = np.zeros((10, 10))
    assert abs(metrics.psnr(x + 0.1, x) - 20.0) < 1e-12
    assert abs(metrics.psnr(x + 0.01, x) - 40.0) < 1e-12


def test_psnr_cap_on_perfect_match():
    x = rng.random((5, 5))
    assert metrics.psnr(x, x) == pytest.approx(240.0)


def test_psnr_monotone_in_rmse():
    x = np.zeros((8, 8))
    values = [metrics.psnr(x + eps, x) for eps in (0.01, 0.02, 0.05, 0.2)]
    assert all(values[i] > values[i + 1] for i in range(len(values) - 1))


# ---- SSIM ---------------------------------------------------------------


def test_ssim_identical_images():
    x = rng.random((16, 16))
    assert abs(metrics.ssim(x, x) - 1.0) < 1e-9


def test_ssim_near_identical():
    x = np.full((12, 12), 0.5)
    assert metrics.ssim(x + 1e-6, x) > 0.999


def test_ssim_symmetry():
    a = rng.random((14, 14))
    b = rng.random((14, 14))
    assert abs(metrics.ssim(a, b) - metrics.ssim(b, a)) < 1e-12


def test_ssim_window_too_large():
    with pytest.raises(ParameterError):
        metrics.ssim(np.zeros((4, 4)), np.zeros((4, 4)))


def test_ssim_range():
    a = rng.random((10, 10))
    b = 1.0 - a
    val = metrics.ssim(a, b)
    assert -1.0 <= val <= 1.0


def test_ssim_gradient_vs_finite_differences():
    a0 = rng.random((9, 9))
    b0 = rng.random((9, 9))

    def loss_np(a):
        return 1.0 - metrics.ssim(a, b0)

    pred = nd.Tensor(a0[None].copy(), requires_grad=True)
    ssim = nd.reduce_sum(metrics.ssim_tensor(pred, nd.Tensor(b0[None])))
    nd.scalar_add(nd.scalar_mul(ssim, -1.0), 1.0).backward()
    numeric = finite_difference(loss_np, [a0.copy()])[0]
    assert rel_err(pred.grad[0], numeric) < 1e-4


@pytest.mark.parametrize("batch", [1, 3])
def test_ssim_batched_gradient_vs_finite_differences(batch):
    a0 = rng.random((batch, 9, 10))
    b0 = rng.random((batch, 9, 10))
    weights = rng.standard_normal(batch)

    def loss_np(a):
        return float(weights @ metrics.ssim_tensor(nd.Tensor(a), nd.Tensor(b0)).data)

    pred = nd.Tensor(a0.copy(), requires_grad=True)
    per_image = metrics.ssim_tensor(pred, nd.Tensor(b0))
    assert per_image.data.shape == (batch,)
    nd.reduce_sum(nd.mul(per_image, nd.Tensor(weights))).backward()
    numeric = finite_difference(loss_np, [a0.copy()])[0]
    assert rel_err(pred.grad, numeric) < 1e-4


def test_ssim_batch_equals_per_image():
    a = rng.random((4, 11, 12))
    b = rng.random((4, 11, 12))
    batched = metrics.ssim_tensor(nd.Tensor(a), nd.Tensor(b)).data
    for i in range(4):
        assert abs(batched[i] - metrics.ssim(a[i], b[i])) <= 1e-15


def test_ssim_rejects_other_ranks():
    for shape in ((8, 8), (1, 1, 8, 8), (8,)):
        with pytest.raises(DimensionError):
            metrics.ssim_tensor(nd.Tensor(np.zeros(shape)), nd.Tensor(np.zeros(shape)))


# ---- FPR ----------------------------------------------------------------


def test_fpr_identical_is_zero():
    x = rng.random((10, 10))
    assert metrics.fpr(x, x) == 0.0


def test_fpr_counting():
    target = np.zeros(100)
    pred = np.zeros(100)
    pred[:7] = 0.9
    assert metrics.fpr(pred, target) == pytest.approx(0.07)


def test_fpr_matches_naive_count():
    pred = rng.random((20, 20))
    target = rng.random((20, 20))
    count = 0
    for i in range(20):
        for j in range(20):
            if pred[i, j] > 0.5 and target[i, j] <= 0.1:
                count += 1
    assert count > 0
    assert metrics.fpr(pred, target) == count / 400


# ---- MetricReport ---------------------------------------------------------


def test_report_aggregate_matches_naive():
    report = metrics.MetricReport()
    report.extend(rng.random((9, 12, 12)), rng.random((9, 12, 12)))
    agg = report.aggregate()
    for name in ("mse", "mae", "rmse", "psnr", "ssim", "fpr"):
        vals = [getattr(r, name) for r in report.rows]
        naive_mean = sum(vals) / len(vals)
        naive_std = math.sqrt(sum((v - naive_mean) ** 2 for v in vals) / len(vals))
        assert abs(agg[name]["mean"] - naive_mean) < 1e-12
        assert abs(agg[name]["std"] - naive_std) < 1e-12
    assert sorted(agg) == sorted(("mse", "mae", "rmse", "psnr", "ssim", "fpr"))


def test_score_batch_rows_equal_single_image_metrics():
    preds = rng.random((5, 12, 13))
    targets = rng.random((5, 12, 13)) * 0.3
    rows = metrics.score_batch(preds, targets)
    for row, p, t in zip(rows, preds, targets):
        assert row.mse == metrics.mse(p, t)
        assert row.mae == metrics.mae(p, t)
        assert row.rmse == metrics.rmse(p, t)
        assert row.psnr == metrics.psnr(p, t)
        assert row.fpr == metrics.fpr(p, t)
        assert abs(row.ssim - metrics.ssim(p, t)) <= 1e-15
    report = metrics.MetricReport()
    report.extend(preds, targets)
    assert report.rows == rows
    with pytest.raises(DimensionError):
        metrics.score_batch(preds[0], targets[0])


def test_an_empty_stack_adds_no_rows():
    # a (0, H, W) stack reshapes by its explicit H * W: numpy infers no -1 there
    empty = np.empty((0, 8, 9))
    assert metrics.score_batch(empty, empty) == []
    assert metrics.ssim_tensor(nd.Tensor(empty), nd.Tensor(empty)).data.shape == (0,)
    report = metrics.MetricReport()
    report.extend(rng.random((1, 8, 9)), rng.random((1, 8, 9)))
    rows = list(report.rows)
    report.extend(empty, empty)
    assert report.rows == rows


def test_report_rmse_is_sqrt_mse():
    report = metrics.MetricReport()
    report.extend(rng.random((1, 8, 8)), rng.random((1, 8, 8)))
    [row] = report.rows
    assert abs(row.rmse - math.sqrt(row.mse)) < 1e-12


def test_report_serialization(tmp_path):
    report = metrics.MetricReport()
    report.extend(rng.random((1, 9, 9)), rng.random((1, 9, 9)))
    report.save(tmp_path, stem="m")
    csv_text = (tmp_path / "m_per_image.csv").read_text()
    assert csv_text.splitlines()[0] == "index,mse,mae,rmse,psnr,ssim,fpr"
    meta = json.loads((tmp_path / "m_aggregate.json").read_text())
    assert meta["count"] == 1
    assert meta["parameters"]["ssim_window"] == 7
    assert meta["parameters"]["t_high"] == 0.5
