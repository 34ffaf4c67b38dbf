"""The four benchmark workloads: their inputs, their CLI commands and the
checks on every command's outputs.

Each workload drives the public `trustkit` CLI. Its inputs come only from
the workload seed. A round is the workload's commands run once, one after
the other; rounds repeat with identical inputs, so every output after the
first doubles as a determinism check.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

IMAGE_SIZE = 32  # the CLI default and the ROADMAP baseline size


@dataclass(frozen=True)
class Sizes:
    """Counts behind each workload; FULL is what the benchmark measures."""

    train_samples: int = 32
    val_samples: int = 16
    epochs: int = 2
    infer_samples: int = 64
    solve_samples: int = 4
    solve_datasets: int = 3
    bound_n: int = 16
    bound_ms: str = "8,10,12,14,16,24,32"
    bound_ks: str = "1,2,3"
    bound_trials: int = 100


FULL = Sizes()
TINY = Sizes(train_samples=2, val_samples=2, epochs=2, infer_samples=2, solve_samples=1,
             solve_datasets=1, bound_n=8, bound_ms="4,8", bound_ks="1,2", bound_trials=5)

# orthonormal kinds are isometries: delta and deviation are rounding noise there
ISOMETRY_DELTA = 1e-8
BOUND_KINDS = ("gaussian_fat", "orthonormal_square", "tall_orthonormal", "fourier_masked")


@dataclass
class Outcome:
    """What the checks found in one command's outputs."""

    failed: int
    digest: str
    # quality name -> (sum over scored items, scored item count)
    quality: dict[str, tuple[float, int]] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


@dataclass
class Command:
    name: str  # metric name of the command, e.g. "train_trust"
    args: list[str]
    items: int
    out: Path
    check: Callable[["Command", int], Outcome]
    inputs: str = ""  # which input set, for matching repeats in the determinism check


def _sha256(*paths: Path) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.read_bytes())
    return h.hexdigest()


def _rows(path: Path) -> list[dict[str, str]]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def _floats(row: dict[str, str], names) -> list[float] | None:
    try:
        return [float(row[n]) for n in names]
    except (KeyError, TypeError, ValueError):
        return None


def _all_failed(cmd: Command, problem: str) -> Outcome:
    return Outcome(failed=cmd.items, digest="", problems=[f"{cmd.name}: {problem}"])


def _image_rows(cmd: Command, out: Outcome, bad: set[int]) -> Outcome:
    """Score per-image metric rows; a non-finite row fails its item."""
    names = ("psnr", "ssim", "fpr")
    sums = {n: 0.0 for n in names}
    rows = _rows(cmd.out / "metrics_per_image.csv")
    if len(rows) != cmd.items:
        return _all_failed(cmd, f"{len(rows)} metric rows for {cmd.items} items")
    for i, row in enumerate(rows):
        values = _floats(row, ("mse", "mae", "rmse") + names)
        if values is None or not all(math.isfinite(x) for x in values):
            bad.add(i)
            continue
        for n, x in zip(names, values[3:]):
            sums[n] += x
    scored = cmd.items - len(bad)
    out.quality = {n: (sums[n], scored) for n in names}
    out.failed = len(bad)
    if bad:
        out.problems.append(f"{cmd.name}: non-finite output for items {sorted(bad)}")
    return out


def check_eval(cmd: Command, code: int) -> Outcome:
    if code != 0:
        return _all_failed(cmd, f"exit code {code}")
    try:
        out = Outcome(failed=0, digest=_sha256(cmd.out / "metrics_per_image.csv"))
        return _image_rows(cmd, out, set())
    except OSError as exc:
        return _all_failed(cmd, f"missing output: {exc}")


def check_solve(cmd: Command, code: int) -> Outcome:
    if code != 0:
        return _all_failed(cmd, f"exit code {code}")
    recon_file = cmd.out / "reconstructions.f64"
    try:
        out = Outcome(failed=0, digest=_sha256(cmd.out / "metrics_per_image.csv", recon_file))
        recon = np.frombuffer(recon_file.read_bytes(), dtype="<f8")
    except OSError as exc:
        return _all_failed(cmd, f"missing output: {exc}")
    if recon.size != cmd.items * IMAGE_SIZE * IMAGE_SIZE:
        return _all_failed(cmd, f"reconstructions.f64 holds {recon.size} values")
    finite = np.isfinite(recon.reshape(cmd.items, -1)).all(axis=1)
    return _image_rows(cmd, out, {int(i) for i in np.flatnonzero(~finite)})


def check_train(cmd: Command, code: int, epochs: int, val_count: int) -> Outcome:
    if code != 0:
        return _all_failed(cmd, f"exit code {code}")
    try:
        rows = _rows(cmd.out / "epochs.csv")
        digest = _sha256(cmd.out / "epochs.csv", cmd.out / "ckpt_last.json.bin")
    except OSError as exc:
        return _all_failed(cmd, f"missing output: {exc}")
    if len(rows) != epochs:
        return _all_failed(cmd, f"epochs.csv has {len(rows)} rows for {epochs} epochs")
    names = ("train_loss", "val_loss", "val_psnr", "val_ssim", "val_fpr")
    parsed = [_floats(r, names) for r in rows]
    if any(p is None or not all(math.isfinite(x) for x in p) for p in parsed):
        return _all_failed(cmd, "non-finite value in epochs.csv")
    _, _, psnr, ssim, fpr = parsed[-1]
    quality = {"psnr": (psnr * val_count, val_count), "ssim": (ssim * val_count, val_count),
               "fpr": (fpr * val_count, val_count)}
    return Outcome(failed=0, digest=digest, quality=quality)


def expected_cells(kinds, ms, n: int, ks) -> int:
    """Sweep cells the grid yields under the operator kinds' shape rules."""
    shape_ok = {
        "gaussian_fat": lambda m: m < n,
        "orthonormal_square": lambda m: m == n,
        "tall_orthonormal": lambda m: m >= n,
        "fourier_masked": lambda m: m % 2 == 0 and 0 < m <= 2 * n,
    }
    return sum(1 for kind in kinds for m in ms for k in ks
               if shape_ok[kind](m) and 2 * k <= min(m, n))


def check_bound(cmd: Command, code: int) -> Outcome:
    if code != 0:
        return _all_failed(cmd, f"exit code {code}")
    try:
        rows = _rows(cmd.out / "sweep.csv")
        out = Outcome(failed=0, digest=_sha256(cmd.out / "sweep.csv"))
    except OSError as exc:
        return _all_failed(cmd, f"missing output: {exc}")
    if len(rows) != cmd.items:
        return _all_failed(cmd, f"sweep.csv has {len(rows)} cells, expected {cmd.items}")
    margin, scored = 0.0, 0
    for i, row in enumerate(rows):
        values = _floats(row, ("mean_dev", "max_dev", "delta", "postsoftmax_mean_dev"))
        if values is None or not all(math.isfinite(x) for x in values):
            out.failed += 1
            out.problems.append(f"{cmd.name}: non-finite values in cell {i}")
            continue
        mean_dev, max_dev, delta, _ = values
        if row["delta_method"] != "exact_enumeration":
            continue
        if max_dev > delta + 1e-9:
            out.failed += 1
            out.problems.append(f"{cmd.name}: cell {i} max_dev {max_dev!r} > delta {delta!r}")
        elif delta > ISOMETRY_DELTA and mean_dev > 0:
            margin += 20.0 * math.log10(delta / mean_dev)
            scored += 1
    out.quality = {"margin_db": (margin, scored)}
    return out


# ---- workloads ------------------------------------------------------------------


class Workload:
    """Inputs are made once by `setup`; `commands` lists the CLI calls of a round.

    Why each workload exists is recorded in BENCHMARK.json and README.md.
    """

    name = ""
    cycle = 1  # rounds before the inputs repeat

    def __init__(self, sizes: Sizes, seed: int, invoke):
        self.sizes = sizes
        self.seed = seed
        self.invoke = invoke

    def setup(self, inputs: Path) -> None:
        raise NotImplementedError

    def commands(self, inputs: Path, out: Path, round_index: int) -> list[Command]:
        raise NotImplementedError

    def _gen_data(self, out: Path, train: int, val: int, test: int) -> None:
        code = self.invoke(["gen-data", "--out", str(out), "--image-size", str(IMAGE_SIZE),
                            "--train", str(train), "--val", str(val), "--test", str(test),
                            "--seed", str(self.seed)], span="cli.gen_data")
        if code != 0:
            raise RuntimeError(f"gen-data exited {code}")


class Train(Workload):
    name = "train"

    def setup(self, inputs):
        s = self.sizes
        self._gen_data(inputs / "data", s.train_samples, s.val_samples, 1)

    def commands(self, inputs, out, round_index):
        s = self.sizes
        cmds = []
        for model in ("trust", "unet"):
            dest = out / f"train_{model}"
            args = ["train", "--dataset", str(inputs / "data"), "--out", str(dest),
                    "--model", model, "--epochs", str(s.epochs),
                    "--limit", str(s.train_samples)]
            cmds.append(Command(
                f"train_{model}", args, s.train_samples * s.epochs, dest,
                lambda c, code: check_train(c, code, s.epochs, s.val_samples)))
        return cmds


class Infer(Workload):
    name = "infer"

    def setup(self, inputs):
        from trustkit import model

        self._gen_data(inputs / "data", 1, 1, self.sizes.infer_samples)
        configs = {model.TRUST: model.TrustConfig(image_size=IMAGE_SIZE),
                   model.UNET: model.UnetConfig(image_size=IMAGE_SIZE)}
        for kind, cfg in configs.items():
            model.checkpoint_save(model.init_params(kind, cfg), kind, cfg,
                                  inputs / f"{kind}.json")

    def commands(self, inputs, out, round_index):
        cmds = []
        for kind in ("trust", "unet"):
            dest = out / f"eval_{kind}"
            args = ["eval", "--checkpoint", str(inputs / f"{kind}.json"),
                    "--dataset", str(inputs / "data"), "--out", str(dest)]
            cmds.append(Command(f"eval_{kind}", args, self.sizes.infer_samples, dest,
                                check_eval))
        return cmds


class Solve(Workload):
    """OMP then FISTA with the known operator.

    Both solvers' costs depend on the input draw far more than on the
    number of samples, so the seed draws only the target positions:
    - The operator is the one `gen-data` draws at its default seed 0. The
      Lipschitz power iteration in FISTA's set-up took 244 to 999
      iterations over eight 1024x1024 Gaussian draws.
    - Targets are six unit-amplitude blobs of sigma 0.6, support near 66
      pixels. OMP's cost grows with the cube of the support, and the CLI's
      default targets range from about 12 to 150 pixels.
    Rounds cycle through several input sets so that one run solves many
    distinct samples.
    """

    name = "solve"
    splits = ("train", "val", "test")
    operator_seed = 0

    @property
    def cycle(self):
        return len(self.splits) * self.sizes.solve_datasets

    def setup(self, inputs):
        from trustkit import dataset

        operator = dataset.DatasetSpec(image_size=IMAGE_SIZE, seed=self.operator_seed)

        class PinnedOperatorSpec(dataset.DatasetSpec):
            def build_operator(self):
                return operator.build_operator()

        target = dataset.TargetSpec(num_blobs=(6, 6), amplitude=(1.0, 1.0), sigma=(0.6, 0.6))
        n = self.sizes.solve_samples
        for d in range(self.sizes.solve_datasets):
            spec = PinnedOperatorSpec(image_size=IMAGE_SIZE, train=n, val=n, test=n,
                                      seed=self.seed * 1000 + d, target=target)
            dataset.gen_dataset(spec, inputs / f"data{d}")

    def commands(self, inputs, out, round_index):
        n = self.sizes.solve_samples
        d, split = divmod(round_index % self.cycle, len(self.splits))
        data = str(inputs / f"data{d}")
        cmds = []
        for method, extra in (("omp", []), ("fista", ["--max-iter", "200"])):
            dest = out / f"solve_{method}"
            args = ["solve", "--dataset", data, "--out", str(dest), "--method", method,
                    "--split", self.splits[split], "--limit", str(n)] + extra
            cmds.append(Command(f"solve_{method}", args, n, dest, check_solve,
                                inputs=f"data{d}/{self.splits[split]}"))
        return cmds


class Bound(Workload):
    """The sweep grid, one `verify-bound` command per operator kind and k.

    Many short commands give each run many timings to take medians over.
    """

    name = "bound"

    def setup(self, inputs):
        pass

    def commands(self, inputs, out, round_index):
        s = self.sizes
        ms = [int(m) for m in s.bound_ms.split(",")]
        cmds = []
        for kind in BOUND_KINDS:
            for k in (int(k) for k in s.bound_ks.split(",")):
                cells = expected_cells([kind], ms, s.bound_n, [k])
                if cells == 0:
                    continue
                dest = out / f"verify_bound_{kind}_k{k}"
                args = ["verify-bound", "--out", str(dest), "--kinds", kind,
                        "--m", s.bound_ms, "--n", str(s.bound_n), "--k", str(k),
                        "--trials", str(s.bound_trials), "--seed", str(self.seed)]
                cmds.append(Command("verify_bound", args, cells, dest, check_bound,
                                    inputs=f"{kind}/k{k}"))
        return cmds


WORKLOADS = {w.name: w for w in (Train, Infer, Solve, Bound)}
