"""The shared writers of the files the commands write: the CSV cell rule,
the columns of the CSVs whose rows are dataclasses, and the JSON layout."""

import dataclasses
import json
import math
import struct

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from trustkit import bound_lab, metrics, model
from trustkit.errors import csv_text, digest, read_blob, write_blob, write_json


def _cell(value) -> str:
    """The one cell ``csv_text`` writes for ``value``."""
    header, row = csv_text(["v"], [[value]]).splitlines()
    assert header == "v"
    return row


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


@given(value=st.floats(allow_nan=True, allow_infinity=True))
@example(value=math.nan)
@example(value=math.inf)
@example(value=-math.inf)
@example(value=-0.0)
@example(value=5e-324)  # the least subnormal
@example(value=-2.2250738585072009e-308)  # the largest subnormal, negated
def test_a_float_cell_reads_back_bit_for_bit(value):
    for written in (value, np.float64(value)):
        read = float(_cell(written))
        if math.isnan(value):  # any nan is written "nan": its sign and payload are not kept
            assert math.isnan(read)
        else:
            assert _bits(read) == _bits(value)


@given(value=st.booleans())
def test_a_bool_cell_is_0_or_1(value):
    assert _cell(value) == _cell(np.bool_(value)) == str(int(value))


@given(value=st.integers())
def test_an_int_cell_is_its_str(value):
    assert _cell(value) == str(value)
    if -2**63 <= value < 2**63:
        assert _cell(np.int64(value)) == str(value)


def test_csv_text_writes_the_header_then_one_line_per_row():
    assert csv_text(("a", "b"), [(1, "x"), (0.5, True)]) == "a,b\n1,x\n0.5,1\n"
    assert csv_text(("a",), []) == "a\n"


def _header(text: str) -> list[str]:
    return text.splitlines()[0].split(",")


def _names(row_type) -> list[str]:
    return [f.name for f in dataclasses.fields(row_type)]


def test_the_dataclass_csv_headers_are_their_row_types_fields():
    sweep = bound_lab.attention_similarity_sweep(kinds=["identity"], ms=[8], ns=[8], ks=[2],
                                                 trials=2, seed=0)
    assert _header(sweep.to_csv()) == _names(bound_lab.SweepCell) == [
        "kind", "m", "n", "k", "mean_dev", "max_dev", "delta", "delta_method", "trials",
        "postsoftmax_mean_dev"]
    epochs = model.TrainResult(params={}, rows=[model.EpochRow(1, 0.5, 0.25, 0.9, 30.0, 0.0)])
    assert _header(epochs.log_csv()) == _names(model.EpochRow) == [
        "epoch", "train_loss", "val_loss", "val_ssim", "val_psnr", "val_fpr"]
    assert epochs.log_csv().splitlines()[1] == "1,0.5,0.25,0.9,30.0,0.0"
    report = metrics.MetricReport()
    report.extend(np.zeros((1, 7, 7)), np.zeros((1, 7, 7)))
    assert _header(report.to_csv()) == ["index", *_names(metrics.ImageMetrics)] == [
        "index", "mse", "mae", "rmse", "psnr", "ssim", "fpr"]


def test_write_json_sorts_keys_indents_by_two_and_ends_in_a_newline(tmp_path):
    write_json(tmp_path / "v.json", {"b": [1, 2.5], "a": {"c": None}})
    text = (tmp_path / "v.json").read_text()
    assert text == '{\n  "a": {\n    "c": null\n  },\n  "b": [\n    1,\n    2.5\n  ]\n}\n'
    assert json.loads(text) == {"a": {"c": None}, "b": [1, 2.5]}


def test_write_blob_returns_the_digest_read_blob_checks(tmp_path):
    blob = np.arange(4, dtype="<f8").tobytes()
    sha = write_blob(tmp_path / "b.bin", blob)
    assert sha == digest(blob) and len(sha) == 64
    assert read_blob(tmp_path / "b.bin", sha, ValueError, "blob") == blob
