"""Tests of the benchmark's own code.

    python3 -m pytest perfbench/tests -q

The smoke run drives all four workloads at tiny counts (32 px images, as
the benchmark itself uses) with tracing on, in this process.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, self_times  # noqa: E402

SEED = 3


def _trustkit_attributes() -> dict:
    """Every callable reachable as an attribute of a loaded trustkit module or
    of a class whose methods the tracer wraps."""
    snapshot = {}
    for name, mod in list(sys.modules.items()):
        if name == "trustkit" or name.startswith("trustkit."):
            for attr, value in vars(mod).items():
                if callable(value):
                    snapshot[(name, attr)] = value
    for modname, clsname in tracing.METHODS:
        cls = getattr(sys.modules[modname], clsname)
        for attr, value in vars(cls).items():
            snapshot[(modname, clsname, attr)] = value
    return snapshot


@pytest.fixture(scope="module")
def tiny():
    run.import_trustkit()
    before = _trustkit_attributes()
    results = {name: run.run_workload(name, SEED, 0, True, workloads.TINY)
               for name in workloads.WORKLOADS}
    return before, results


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("root", 0.0, 10.0, -1, "r"),
        Span("a", 1.0, 4.0, 0, "r"),
        Span("a.inner", 2.0, 3.5, 1, "r"),
        Span("b", 5.0, 9.0, 0, "r"),
        Span("other_root", 11.0, 12.0, -1, "s"),
    ]
    assert self_times(spans) == [3.0, 1.5, 1.5, 4.0, 1.0]


def test_tracer_records_parent_and_item():
    tracer = tracing.Tracer()
    tracer.set_item("0.cmd")
    with tracer.span("outer"):
        with tracer.sub_item(), tracer.span("inner"):
            pass
        with tracer.span("sibling"):
            pass
    outer, inner, sibling = tracer.spans
    assert (outer.parent, inner.parent, sibling.parent) == (-1, 0, 0)
    assert (outer.item, inner.item, sibling.item) == ("0.cmd", "0.cmd/1", "0.cmd")
    assert outer.start <= inner.start <= inner.end <= sibling.start <= sibling.end <= outer.end


def test_tiny_smoke_run_of_every_workload(tiny):
    _, results = tiny
    for name, result in results.items():
        assert result["correct"], (name, result["problems"])
        assert result["attempted"] > 0 and result["failed"] == 0
        line = json.loads(run.result_line(result))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert list(line["metrics"]) == [n for n, _ in tracing.PER_LAYER]
        e2e = result["end_to_end"]
        for metric, _ in run.END_TO_END:
            assert math.isfinite(e2e[metric]) and e2e[metric] > 0, (name, metric)
        per_layer = result["per_layer"]
        assert 0 < per_layer["trace.coverage_frac"] <= 1
        workload = workloads.WORKLOADS[name](workloads.TINY, SEED, None)
        for cmd in workload.commands(Path("in"), Path("out"), 0):
            assert per_layer[f"cli.{cmd.name}.s"] > 0, (name, cmd.name)
    assert results["train"]["per_layer"]["ndtensor.conv2d.bwd_s"] > 0
    assert results["train"]["per_layer"]["model.train_trust.step_ms_p50"] > \
        results["train"]["per_layer"]["model.train_unet.step_ms_p50"] > 0
    assert results["infer"]["per_layer"]["model.checkpoint_load.s"] > 0
    assert results["infer"]["per_layer"]["ndtensor.backward.s"] == 0
    assert results["solve"]["per_layer"]["solvers.omp.calls"] > 0
    assert results["solve"]["per_layer"]["solvers.fista.setup_share"] > 0
    assert results["bound"]["per_layer"]["sensing.estimate_rip.supports"] > 0
    assert math.isnan(results["bound"]["end_to_end"]["psnr_db"])


def test_every_wrapped_attribute_is_the_original_after_a_traced_run(tiny):
    before, results = tiny
    assert results["train"]["per_layer"]["ndtensor.matmul.calls"] > 0  # wrappers were live
    after = _trustkit_attributes()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []
    leftover = [key for key, value in after.items()
                if getattr(getattr(value, "__func__", value), "_perfbench", False)]
    assert leftover == []


def test_same_seed_gives_identical_quality(tiny):
    _, results = tiny
    for name in ("infer", "bound"):
        again = run.run_workload(name, SEED, 0, False, workloads.TINY)
        for metric in ("quality_db", "psnr_db", "ssim", "fdr"):
            a, b = results[name]["end_to_end"][metric], again["end_to_end"][metric]
            assert a == b or (math.isnan(a) and math.isnan(b)), (name, metric)


def test_checks_count_failed_items(tmp_path):
    cmd = workloads.Command("cmd", [], 3, tmp_path, workloads.check_eval)
    assert workloads.check_eval(cmd, 2).failed == 3
    assert workloads.check_eval(cmd, 0).failed == 3  # no output file
    (tmp_path / "metrics_per_image.csv").write_text(
        "index,mse,mae,rmse,psnr,ssim,fpr\n"
        "0,0.1,0.1,0.3,10.0,0.5,0.0\n"
        "1,nan,0.1,0.3,10.0,0.5,0.0\n"
        "2,0.1,0.1,0.3,12.0,0.7,0.5\n")
    out = workloads.check_eval(cmd, 0)
    assert out.failed == 1 and out.problems
    assert out.quality["psnr"] == (22.0, 2)

    (tmp_path / "sweep.csv").write_text(
        "kind,m,n,k,mean_dev,max_dev,delta,delta_method,trials,postsoftmax_mean_dev\n"
        "gaussian_fat,4,8,1,0.1,0.2,0.5,exact_enumeration,5,0.01\n"
        "gaussian_fat,4,8,2,0.1,0.6,0.5,exact_enumeration,5,0.01\n")
    out = workloads.check_bound(workloads.Command("b", [], 2, tmp_path, workloads.check_bound), 0)
    assert out.failed == 1 and "max_dev" in out.problems[0]
    assert out.quality["margin_db"] == pytest.approx((20 * math.log10(0.5 / 0.1), 1))
    short = workloads.Command("b", [], 3, tmp_path, workloads.check_bound)
    assert workloads.check_bound(short, 0).failed == 3


def test_expected_cells_of_the_full_grid():
    s = workloads.FULL
    ms = [int(m) for m in s.bound_ms.split(",")]
    ks = [int(k) for k in s.bound_ks.split(",")]
    assert workloads.expected_cells(workloads.BOUND_KINDS, ms, s.bound_n, ks) == 45


def test_benchmark_json_lists_what_the_benchmark_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "bound",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
