"""Span tracer for the traced benchmark run.

Spans are recorded around the module-level public functions (and two
public methods) that each trustkit layer is called through. The wrappers
are installed from here, never from the package: `traced()` swaps every
alias of an original function in the loaded `trustkit` modules for a
timing wrapper and puts the originals back on exit. ndtensor ops also
wrap the VJP closure of the tensor they return, so backward time is
attributed to the op that recorded it.

A span holds name, start, end, parent and item id. Spans stay in memory
until the run ends; `write_spans` then dumps them and `layer_metrics`
reduces them to the per-layer metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import math
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in Tracer.spans; -1 at top level
    item: str


class Tracer:
    """In-memory span recorder; one per traced run, single-threaded."""

    def __init__(self):
        self.spans: list[Span] = []
        self.item = ""
        self.values: dict[str, list[float]] = defaultdict(list)
        self._stack: list[int] = []
        self._item_seq = 0

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), math.nan, parent, self.item))
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def set_item(self, item: str) -> None:
        self.item = item
        self._item_seq = 0

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx)

    @contextmanager
    def sub_item(self):
        """Give the enclosed spans their own item id under the current one."""
        outer = self.item
        self._item_seq += 1
        self.item = f"{outer}/{self._item_seq}"
        try:
            yield
        finally:
            self.item = outer


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the time its direct children cover.

    Spans of one thread nest, so children of a span are disjoint and lie
    inside it; the covered time is the sum of their durations.
    """
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, covered)]


def write_spans(spans: list[Span], path: Path) -> None:
    """One tab-separated line per span: index, parent, item, name, start, end."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt", compresslevel=1) as fh:
        fh.write("index\tparent\titem\tname\tstart\tend\n")
        for i, s in enumerate(spans):
            fh.write(f"{i}\t{s.parent}\t{s.item}\t{s.name}\t{s.start!r}\t{s.end!r}\n")


# ---- what gets wrapped ----------------------------------------------------------

ND_GROUPS = {
    "conv2d": ("conv2d",),
    "matmul": ("matmul",),
    "softmax": ("softmax",),
    "layernorm": ("layernorm",),
    "gelu": ("gelu",),
    "heads": ("narrow", "concat"),
    "resample": ("upsample_nearest", "resize_bilinear", "adaptive_avg_pool"),
    "elementwise": ("add", "sub", "mul", "div", "scalar_mul", "scalar_add", "absolute",
                    "relu", "sigmoid", "reshape", "transpose", "reduce_sum", "reduce_mean"),
}
_SPATIAL_OPS = ("conv2d", "upsample_nearest", "resize_bilinear", "adaptive_avg_pool")
_TENSOR_OPS = tuple(op for ops in ND_GROUPS.values() for op in ops if op not in _SPATIAL_OPS)

CLI_COMMANDS = ("gen_data", "train_trust", "train_unet", "eval_trust", "eval_unet",
                "solve_omp", "solve_fista", "verify_bound")

# spans whose call processes exactly one item get an item id of their own
_ITEM_ROOTS = {"model.forward_trust", "model.forward_unet", "solvers.omp", "solvers.fista"}


def _file_bytes(*paths: Path) -> int:
    return sum(p.stat().st_size for p in paths if p.exists())


def _op_hook(op: str):
    bwd_name = f"ndtensor.{op}.bwd"

    def hook(tracer, args, kwargs, out):
        vjp = out._vjp
        if vjp is not None and not getattr(vjp, "_perfbench", False):
            def timed_vjp(g):
                idx = tracer.open(bwd_name)
                try:
                    vjp(g)
                finally:
                    tracer.close(idx)

            timed_vjp._perfbench = True
            out._vjp = timed_vjp
        if op == "conv2d":
            _, oh, ow = out.data.shape
            tracer.values["ndtensor.conv2d.flop"].append(2.0 * args[1].data.size * oh * ow)
        elif op == "matmul":
            (m, k), n = args[0].data.shape, args[1].data.shape[1]
            tracer.values["ndtensor.matmul.flop"].append(2.0 * m * k * n)

    return hook


def _forward_hook(kind: str):
    def hook(tracer, args, kwargs, out):
        params_mod = sys.modules["trustkit.model.params"]
        cfg = args[1] if len(args) > 1 else kwargs["cfg"]
        macs = params_mod.flop_estimate(kind, cfg)
        tracer.values[f"model.forward_{kind}.flop"].append(2.0 * macs)

    return hook


def _solver_hook(method: str):
    def hook(tracer, args, kwargs, res):
        tracer.values[f"solvers.{method}.iterations"].append(res.iterations_used)
        tracer.values[f"solvers.{method}.converged"].append(float(res.converged))
        tracer.values[f"solvers.{method}.rank_deficient"].append(float(res.rank_deficient))

    return hook


def _rip_hook(tracer, args, kwargs, est):
    tracer.values["sensing.estimate_rip.supports"].append(est.count)


def _load_split_hook(tracer, args, kwargs, pairs):
    manifest, split = args[0], args[1]
    info, base = manifest["splits"][split], Path(manifest["_dir"])
    tracer.values["dataset.load_split.bytes"].append(
        _file_bytes(base / info["pairs"], base / info["norm"]))


def _checkpoint_hook(path_arg: int):
    def hook(tracer, args, kwargs, out):
        path = Path(args[path_arg] if len(args) > path_arg else kwargs["path"])
        tracer.values["model.checkpoint.bytes"].append(
            _file_bytes(path, path.with_name(path.name + ".bin")))

    return hook


def _tape_hook(tracer, args, kwargs, tape):
    tracer.values["ndtensor.graph_nodes"].append(len(tape.nodes))


# module -> (attribute, span name, after-call hook)
FUNCTIONS = {
    "trustkit.dataset": [
        ("gen_dataset", "dataset.gen_dataset", None),
        ("load_split", "dataset.load_split", _load_split_hook),
        ("operator_from_manifest", "dataset.operator_from_manifest", None),
    ],
    "trustkit.sensing": [
        ("sample_operator", "sensing.sample_operator", None),
        ("apply", "sensing.apply", None),
        ("estimate_rip", "sensing.estimate_rip", _rip_hook),
    ],
    "trustkit.bound_lab": [
        ("attention_similarity_sweep", "bound_lab.sweep", None),
        ("inner_product_deviation", "bound_lab.inner_product_deviation", None),
    ],
    "trustkit.solvers": [
        ("omp", "solvers.omp", _solver_hook("omp")),
        ("fista", "solvers.fista", _solver_hook("fista")),
        ("lipschitz_constant", "solvers.lipschitz_constant", None),
    ],
    "trustkit.model.forward": [
        ("forward_trust", "model.forward_trust", _forward_hook("trust")),
        ("forward_unet", "model.forward_unet", _forward_hook("unet")),
    ],
    "trustkit.model.losses": [("loss", "model.loss", None)],
    "trustkit.model.train": [
        ("train", "model.train", None),
        ("evaluate", "model.evaluate", None),
    ],
    "trustkit.model.params": [
        ("checkpoint_save", "model.checkpoint_save", _checkpoint_hook(3)),
        ("checkpoint_load", "model.checkpoint_load", _checkpoint_hook(0)),
    ],
    "trustkit.metrics": [
        ("score_image", "metrics.score_image", None),
        ("ssim_tensor", "metrics.ssim_tensor", None),
    ],
    "trustkit.ndtensor.tensor": [("backward", "ndtensor.backward", None)]
    + [(op, f"ndtensor.{op}", _op_hook(op)) for op in _TENSOR_OPS],
    "trustkit.ndtensor.spatial": [(op, f"ndtensor.{op}", _op_hook(op)) for op in _SPATIAL_OPS],
}

# (module, class) -> (attribute, span name, after-call hook)
METHODS = {
    ("trustkit.model.train", "Adam"): [
        ("zero_grad", "model.adam_zero_grad", None),
        ("step", "model.adam_step", None),
    ],
    ("trustkit.ndtensor.tensor", "Tape"): [("trace", "ndtensor.tape_trace", _tape_hook)],
}


def _wrap(tracer: Tracer, fn, name: str, hook):
    item_root = name in _ITEM_ROOTS

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if item_root:
            with tracer.sub_item(), tracer.span(name):
                out = fn(*args, **kwargs)
        else:
            with tracer.span(name):
                out = fn(*args, **kwargs)
        if hook is not None:
            hook(tracer, args, kwargs, out)
        return out

    wrapper._perfbench = True
    return wrapper


def _trustkit_modules():
    return [m for name, m in list(sys.modules.items())
            if (name == "trustkit" or name.startswith("trustkit.")) and m is not None]


@contextmanager
def traced(tracer: Tracer):
    """Install span wrappers on every alias of the layer functions; restore on exit."""
    wrappers = {}
    for modname, entries in FUNCTIONS.items():
        mod = importlib.import_module(modname)
        for attr, name, hook in entries:
            fn = getattr(mod, attr)
            wrappers[id(fn)] = (fn, _wrap(tracer, fn, name, hook))
    patched: list[tuple[object, str, object]] = []
    try:
        for mod in _trustkit_modules():
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    patched.append((mod, attr, value))
        for (modname, clsname), entries in METHODS.items():
            cls = getattr(importlib.import_module(modname), clsname)
            for attr, name, hook in entries:
                original = cls.__dict__[attr]
                if isinstance(original, classmethod):
                    replacement = classmethod(_wrap(tracer, original.__func__, name, hook))
                else:
                    replacement = _wrap(tracer, original, name, hook)
                setattr(cls, attr, replacement)
                patched.append((cls, attr, original))
        yield
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)


# ---- per-layer metrics ----------------------------------------------------------


def _per_layer_names() -> list[tuple[str, str]]:
    names = [(f"cli.{c}.s", "s") for c in CLI_COMMANDS] + [("cli.self_s", "s")]
    names += [
        ("dataset.gen_dataset.s", "s"), ("dataset.load_split.s", "s"),
        ("dataset.load_split.mb", "MB"), ("dataset.operator_from_manifest.s", "s"),
    ]
    for m in ("omp", "fista"):
        names += [
            (f"solvers.{m}.calls", "count"), (f"solvers.{m}.call_ms_p50", "ms"),
            (f"solvers.{m}.call_ms_p90", "ms"), (f"solvers.{m}.iterations_mean", "count"),
            (f"solvers.{m}.ms_per_iteration", "ms"), (f"solvers.{m}.converged_frac", "1"),
        ]
    names += [
        ("solvers.omp.rank_deficient_frac", "1"), ("solvers.lipschitz_constant.calls", "count"),
        ("solvers.lipschitz_constant.s", "s"), ("solvers.fista.setup_share", "1"),
        ("sensing.estimate_rip.s", "s"), ("sensing.estimate_rip.supports", "count"),
        ("sensing.estimate_rip.supports_per_s", "1/s"), ("sensing.apply.calls", "count"),
        ("sensing.apply.s", "s"), ("sensing.sample_operator.s", "s"),
        ("bound_lab.inner_product_deviation.calls", "count"),
        ("bound_lab.inner_product_deviation.s", "s"), ("bound_lab.sweep.self_s", "s"),
    ]
    for g in ND_GROUPS:
        names += [(f"ndtensor.{g}.fwd_s", "s"), (f"ndtensor.{g}.bwd_s", "s"),
                  (f"ndtensor.{g}.calls", "count")]
    for g in ("conv2d", "matmul"):
        names += [(f"ndtensor.{g}.gflop", "GFLOP"), (f"ndtensor.{g}.gflop_per_s", "GFLOP/s")]
    names += [
        ("ndtensor.backward.s", "s"), ("ndtensor.tape_trace.s", "s"),
        ("ndtensor.graph_nodes_per_step", "count"), ("ndtensor.op_calls_per_sample", "count"),
    ]
    for k in ("trust", "unet"):
        names += [
            (f"model.forward_{k}.calls", "count"), (f"model.forward_{k}.call_ms_p50", "ms"),
            (f"model.forward_{k}.call_ms_p90", "ms"), (f"model.forward_{k}.gflop_per_s", "GFLOP/s"),
        ]
    names += [
        ("model.train_trust.step_ms_p50", "ms"), ("model.train_unet.step_ms_p50", "ms"),
        ("model.loss.s", "s"), ("model.adam_step.s", "s"),
        ("model.evaluate.s", "s"), ("model.checkpoint_save.s", "s"),
        ("model.checkpoint_load.s", "s"), ("model.checkpoint.mb", "MB"),
        ("metrics.score_image.calls", "count"), ("metrics.score_image.s", "s"),
        ("metrics.ssim_tensor.s", "s"),
        ("trace.overhead_frac", "1"), ("trace.coverage_frac", "1"),
    ]
    return names


PER_LAYER = _per_layer_names()


def _command_of(spans: list[Span], span: Span) -> str:
    """Name of the top-level span that encloses `span`."""
    while span.parent >= 0:
        span = spans[span.parent]
    return span.name


def _pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _mean(values) -> float:
    return math.fsum(values) / len(values) if len(values) else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(tracer: Tracer, command_spans: list[int], timed_wall: float,
                  items: int, overhead_frac: float) -> dict[str, float]:
    """Reduce the recorded spans to the PER_LAYER metrics.

    `command_spans` are the indices of the timed CLI command spans,
    `timed_wall` their wall time as the untraced clock measured it, and
    `items` the items those commands completed. Layers a workload never
    calls read 0.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    durations: dict[str, list[float]] = defaultdict(list)
    self_sum: dict[str, float] = defaultdict(float)
    steps: dict[str, list[float]] = defaultdict(list)
    step_start = None
    lipschitz_in_fista = 0.0
    for s, own in zip(spans, selfs):
        d = s.end - s.start
        durations[s.name].append(d)
        self_sum[s.name] += own
        if s.name == "model.adam_zero_grad":
            step_start = s.start
        elif s.name == "model.adam_step" and step_start is not None:
            steps[_command_of(spans, s)].append(s.end - step_start)
            step_start = None
        elif s.name == "solvers.lipschitz_constant" and s.parent >= 0 \
                and spans[s.parent].name == "solvers.fista":
            lipschitz_in_fista += d

    def total(name):
        return math.fsum(durations.get(name, ()))

    def calls(name):
        return len(durations.get(name, ()))

    def ms(values):
        return [1e3 * v for v in values]

    v = tracer.values
    out: dict[str, float] = {}
    for c in CLI_COMMANDS:
        out[f"cli.{c}.s"] = total(f"cli.{c}")
    out["cli.self_s"] = math.fsum(t for n, t in self_sum.items() if n.startswith("cli."))
    out["dataset.gen_dataset.s"] = total("dataset.gen_dataset")
    out["dataset.load_split.s"] = total("dataset.load_split")
    out["dataset.load_split.mb"] = math.fsum(v["dataset.load_split.bytes"]) / 1e6
    out["dataset.operator_from_manifest.s"] = total("dataset.operator_from_manifest")
    for m in ("omp", "fista"):
        name = f"solvers.{m}"
        its = v[f"{name}.iterations"]
        solve_time = total(name) - (lipschitz_in_fista if m == "fista" else 0.0)
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.call_ms_p50"] = _pct(ms(durations[name]), 50)
        out[f"{name}.call_ms_p90"] = _pct(ms(durations[name]), 90)
        out[f"{name}.iterations_mean"] = _mean(its)
        out[f"{name}.ms_per_iteration"] = _ratio(1e3 * solve_time, sum(its))
        out[f"{name}.converged_frac"] = _mean(v[f"{name}.converged"])
    out["solvers.omp.rank_deficient_frac"] = _mean(v["solvers.omp.rank_deficient"])
    out["solvers.lipschitz_constant.calls"] = calls("solvers.lipschitz_constant")
    out["solvers.lipschitz_constant.s"] = total("solvers.lipschitz_constant")
    out["solvers.fista.setup_share"] = _ratio(lipschitz_in_fista, total("solvers.fista"))
    supports = sum(v["sensing.estimate_rip.supports"])
    out["sensing.estimate_rip.s"] = total("sensing.estimate_rip")
    out["sensing.estimate_rip.supports"] = supports
    out["sensing.estimate_rip.supports_per_s"] = _ratio(supports, total("sensing.estimate_rip"))
    out["sensing.apply.calls"] = calls("sensing.apply")
    out["sensing.apply.s"] = total("sensing.apply")
    out["sensing.sample_operator.s"] = total("sensing.sample_operator")
    out["bound_lab.inner_product_deviation.calls"] = calls("bound_lab.inner_product_deviation")
    out["bound_lab.inner_product_deviation.s"] = total("bound_lab.inner_product_deviation")
    out["bound_lab.sweep.self_s"] = self_sum.get("bound_lab.sweep", 0.0)
    op_calls = 0
    for g, ops in ND_GROUPS.items():
        out[f"ndtensor.{g}.fwd_s"] = math.fsum(self_sum.get(f"ndtensor.{op}", 0.0) for op in ops)
        out[f"ndtensor.{g}.bwd_s"] = math.fsum(self_sum.get(f"ndtensor.{op}.bwd", 0.0) for op in ops)
        out[f"ndtensor.{g}.calls"] = sum(calls(f"ndtensor.{op}") for op in ops)
        op_calls += out[f"ndtensor.{g}.calls"]
    for g in ("conv2d", "matmul"):
        gflop = math.fsum(v[f"ndtensor.{g}.flop"]) / 1e9
        out[f"ndtensor.{g}.gflop"] = gflop
        out[f"ndtensor.{g}.gflop_per_s"] = _ratio(gflop, out[f"ndtensor.{g}.fwd_s"])
    out["ndtensor.backward.s"] = total("ndtensor.backward")
    out["ndtensor.tape_trace.s"] = total("ndtensor.tape_trace")
    out["ndtensor.graph_nodes_per_step"] = _mean(v["ndtensor.graph_nodes"])
    out["ndtensor.op_calls_per_sample"] = _ratio(op_calls, items)
    for k in ("trust", "unet"):
        name = f"model.forward_{k}"
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.call_ms_p50"] = _pct(ms(durations[name]), 50)
        out[f"{name}.call_ms_p90"] = _pct(ms(durations[name]), 90)
        out[f"{name}.gflop_per_s"] = _ratio(math.fsum(v[f"{name}.flop"]) / 1e9, total(name))
    for k in ("trust", "unet"):
        out[f"model.train_{k}.step_ms_p50"] = _pct(ms(steps[f"cli.train_{k}"]), 50)
    out["model.loss.s"] = total("model.loss")
    out["model.adam_step.s"] = total("model.adam_step")
    out["model.evaluate.s"] = total("model.evaluate")
    out["model.checkpoint_save.s"] = total("model.checkpoint_save")
    out["model.checkpoint_load.s"] = total("model.checkpoint_load")
    out["model.checkpoint.mb"] = _mean(v["model.checkpoint.bytes"]) / 1e6
    out["metrics.score_image.calls"] = calls("metrics.score_image")
    out["metrics.score_image.s"] = total("metrics.score_image")
    out["metrics.ssim_tensor.s"] = total("metrics.ssim_tensor")
    out["trace.overhead_frac"] = overhead_frac
    covered = math.fsum(spans[i].end - spans[i].start - selfs[i] for i in command_spans)
    out["trace.coverage_frac"] = _ratio(covered, timed_wall)
    return {name: float(out[name]) for name, _ in PER_LAYER}
