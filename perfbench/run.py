"""trustkit benchmark.

    python3 perfbench/run.py --workload {train,infer,solve,bound} --seed N \
        --seconds S --trace {0,1}
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0

Run from the root of a source checkout: the program is imported from its
`src/` directory and nowhere else. One workload runs in this process as a
closed loop with one client: each CLI command (`trustkit.cli.main`, in
process) starts only after the previous one finished. `--trace 0` prints
the end-to-end metrics; `--trace 1` measures an untraced phase and then
one traced cycle, and prints the per-layer metrics. The last line of standard
output is the JSON result. The exit code is 0 only when every output
check passed. `--workload all` runs each workload in a fresh process and
prints one table.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (benchmark module, found next to this file)

SETUP_REPEATS = 3
END_TO_END = [("setup_s", "s"), ("items_per_s", "items/s"), ("quality_db", "dB"),
              ("ok_frac", "1"), ("peak_rss_mb", "MB")]
# printed for people, not part of the JSON result: undefined or 0 on some workloads
REPORT_ONLY = [("psnr_db", "dB"), ("ssim", "1"), ("fdr", "1"), ("failed_frac", "1")]

_IMPORT_PROBE = ("import time; t = time.perf_counter(); import trustkit.cli; "
                 "print(time.perf_counter() - t)")


def import_trustkit():
    """Import trustkit from this checkout's src/ only; raise ImportError otherwise."""
    if not (SRC / "trustkit").is_dir():
        raise ImportError(f"no trustkit package under {SRC}")
    sys.path.insert(0, str(SRC))
    import trustkit.cli

    if SRC.resolve() not in Path(trustkit.cli.__file__).resolve().parents:
        raise ImportError(f"trustkit was imported from {trustkit.cli.__file__}, not {SRC}")
    return trustkit.cli


class Runner:
    """Calls the CLI in process, optionally inside a span of the active tracer."""

    def __init__(self, cli):
        self.cli = cli
        self.tracer = None
        self.last_output = ""

    def __call__(self, args: list[str], span: str | None = None) -> int:
        if self.tracer is not None and span is not None:
            with self.tracer.span(span):
                return self._call(args)
        return self._call(args)

    def _call(self, args: list[str]) -> int:
        import click

        sink = io.StringIO()
        try:
            with redirect_stdout(sink), redirect_stderr(sink):
                self.cli.main.main(args=args, prog_name="trustkit", standalone_mode=False)
            code = 0
        except click.exceptions.Exit as exc:
            code = exc.exit_code
        except click.ClickException as exc:
            sink.write(exc.format_message())
            code = exc.exit_code
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash in the program is a failed command, not a benchmark crash
            sink.write(traceback.format_exc())
            code = 1
        self.last_output = sink.getvalue()
        return code


def environment(seed: int, trust_threads_at_start: str | None) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "TRUST_THREADS_at_start": trust_threads_at_start,
        "TRUST_THREADS_during_run": os.environ.get("TRUST_THREADS"),
        "git_commit": _git_commit(),
        "seed": seed,
    }


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def import_seconds() -> float:
    """Time `import trustkit.cli` takes in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def _tree_digest(root: Path) -> str:
    """Digest of every file under root except run records, which hold timings."""
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file() and p.name != "run_record.json":
            h.update(str(p.relative_to(root)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


@dataclass
class Phase:
    """Accumulated results of one phase: a warm-up round, then timed cycles."""

    rounds: int = 0
    cycle_rates: list[float] = field(default_factory=list)  # items/s of each timed cycle
    # (command, inputs) -> wall seconds and completed items of each timed run of it
    command_walls: dict[tuple[str, str], list[float]] = field(default_factory=dict)
    command_done: dict[tuple[str, str], list[int]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    wall: float = 0.0  # timed command wall, warm-up excluded
    quality: dict[str, tuple[float, int]] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    command_spans: list[int] = field(default_factory=list)

    @property
    def items_per_s(self) -> float:
        """Items of one cycle over the wall of a typical cycle.

        Each command of the cycle counts with its median wall over the run,
        so a burst of host load that slows some commands of a cycle is left
        out rather than spread over the whole cycle.
        """
        done = math.fsum(statistics.median(d) for d in self.command_done.values())
        wall = math.fsum(statistics.median(w) for w in self.command_walls.values())
        return done / wall

    def pooled(self, name: str) -> float:
        total, count = self.quality.get(name, (0.0, 0))
        return total / count if count else math.nan


def run_phase(workload, runner: Runner, inputs: Path, out: Path, seconds: float,
              digests: dict, warm_up: bool) -> Phase:
    """Closed loop over whole input cycles, as many as end nearest to `seconds`.

    The warm-up round runs the first input set untimed, so the first timed
    cycle repeats it and its outputs are checked against the warm-up's.
    Every command's outputs are checked, warm-up included.
    """
    phase = Phase()
    tracer = runner.tracer

    def run_round(index: int, timed: bool) -> tuple[int, float]:
        done, wall = 0, 0.0
        for cmd in workload.commands(inputs, out, index):
            shutil.rmtree(cmd.out, ignore_errors=True)
            # a CLI command normally starts in a fresh process: free what earlier ones left
            gc.collect()
            if tracer is not None:
                tracer.set_item(f"{phase.rounds}.{cmd.name}")
                span = tracer.open(f"cli.{cmd.name}")
            t0 = time.perf_counter()
            code = runner(cmd.args)
            elapsed = time.perf_counter() - t0
            if tracer is not None:
                tracer.close(span)
                if timed:
                    phase.command_spans.append(span)
            outcome = cmd.check(cmd, code)
            if code != 0:
                outcome.problems.append(runner.last_output[-2000:])
            if outcome.digest:
                first = digests.setdefault((cmd.name, cmd.inputs), outcome.digest)
                if first != outcome.digest:
                    outcome.failed = cmd.items
                    outcome.problems.append(
                        f"{cmd.name}: outputs differ from an earlier run on the same inputs")
            phase.attempted += cmd.items
            phase.failed += outcome.failed
            phase.problems += outcome.problems
            for name, (total, count) in outcome.quality.items():
                t, c = phase.quality.get(name, (0.0, 0))
                phase.quality[name] = (t + total, c + count)
            done += cmd.items - outcome.failed
            wall += elapsed
            if timed:
                key = (cmd.name, cmd.inputs)
                phase.command_walls.setdefault(key, []).append(elapsed)
                phase.command_done.setdefault(key, []).append(cmd.items - outcome.failed)
        phase.rounds += 1
        return done, wall

    if warm_up:
        run_round(0, timed=False)
    start = time.perf_counter()
    while True:
        done, wall = 0, 0.0
        for index in range(workload.cycle):
            d, w = run_round(index, timed=True)
            done, wall = done + d, wall + w
        phase.wall += wall
        phase.cycle_rates.append(done / wall)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(phase.cycle_rates) / 2 >= seconds:
            return phase  # another cycle would end farther from `seconds`


def measure_setup(workload, base: Path) -> tuple[float, Path, list[str]]:
    """Median of SETUP_REPEATS set-ups, each a fresh-process import plus the inputs."""
    times, problems = [], []
    for k in range(SETUP_REPEATS):
        t_import = import_seconds()
        (base / f"inputs{k}").mkdir(parents=True)
        t0 = time.perf_counter()
        workload.setup(base / f"inputs{k}")
        times.append(t_import + time.perf_counter() - t0)
    first = _tree_digest(base / "inputs0")
    for k in range(1, SETUP_REPEATS):
        if _tree_digest(base / f"inputs{k}") != first:
            problems.append(f"set-up {k} produced different inputs from set-up 0")
        shutil.rmtree(base / f"inputs{k}")
    return statistics.median(times), base / "inputs0", problems


def end_to_end(name: str, setup_s: float, phase: Phase) -> dict[str, float]:
    quality_key = "margin_db" if name == "bound" else "psnr"
    ok = phase.attempted - phase.failed
    return {
        "setup_s": setup_s,
        "items_per_s": phase.items_per_s,
        "quality_db": phase.pooled(quality_key),
        "ok_frac": ok / phase.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "psnr_db": phase.pooled("psnr"),
        "ssim": phase.pooled("ssim"),
        "fdr": phase.pooled("fpr"),
        "failed_frac": phase.failed / phase.attempted,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 sizes: workloads.Sizes = workloads.FULL) -> dict:
    """Set up and measure one workload in this process; returns the full result."""
    trust_threads = os.environ.pop("TRUST_THREADS", None)  # measure the default serial path
    cli = import_trustkit()
    runner = Runner(cli)
    workload = workloads.WORKLOADS[name](sizes, seed, runner)
    base = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(base, ignore_errors=True)
    digests: dict = {}
    try:
        setup_s, inputs, problems = measure_setup(workload, base)
        untraced = run_phase(workload, runner, inputs, base / "out", seconds, digests,
                             warm_up=True)
        phases = [untraced]
        result = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
                  "environment": environment(seed, trust_threads),
                  "end_to_end": end_to_end(name, setup_s, untraced)}
        if trace:
            from tracing import Tracer, layer_metrics, traced, write_spans

            tracer = Tracer()
            runner.tracer = tracer
            try:
                with traced(tracer):
                    tracer.set_item("setup")
                    workload.setup(base / "traced_inputs")
                    # exactly one cycle, so the traced counts repeat from run to run
                    traced_phase = run_phase(workload, runner, base / "traced_inputs",
                                             base / "out", 0, digests, warm_up=False)
            finally:
                runner.tracer = None
            phases.append(traced_phase)
            overhead = (1.0 - traced_phase.items_per_s / untraced.items_per_s
                        if untraced.items_per_s > 0 else math.nan)
            result["per_layer"] = layer_metrics(
                tracer, traced_phase.command_spans, traced_phase.wall,
                traced_phase.attempted - traced_phase.failed, overhead)
            spans_file = WORK / "results" / f"{name}-seed{seed}.spans.tsv.gz"
            write_spans(tracer.spans, spans_file)
            result["spans_file"] = str(spans_file.relative_to(ROOT))
        for p in phases:
            problems += p.problems
        result["rounds"] = [p.rounds for p in phases]
        result["cycle_rates"] = [p.cycle_rates for p in phases]
        result["command_walls"] = [{f"{n}:{i}": w for (n, i), w in p.command_walls.items()}
                                   for p in phases]
        result["attempted"] = sum(p.attempted for p in phases)
        result["failed"] = sum(p.failed for p in phases)
        result["problems"] = problems
        result["correct"] = not problems and result["failed"] == 0
        return result
    finally:
        shutil.rmtree(base, ignore_errors=True)


def _fmt(value: float) -> str:
    return "n/a" if isinstance(value, float) and math.isnan(value) else f"{value:.6g}"


def _print_report(result: dict) -> None:
    print(f"perfbench workload={result['workload']} seed={result['seed']} "
          f"seconds={result['seconds']} trace={result['trace']} rounds={result['rounds']} "
          f"attempted={result['attempted']} failed={result['failed']}")
    print("environment " + json.dumps(result["environment"], sort_keys=True))
    for name, unit in END_TO_END + REPORT_ONLY:
        print(f"  {name:<14} {_fmt(result['end_to_end'][name]):>14} {unit}")
    if "per_layer" in result:
        from tracing import PER_LAYER

        for name, unit in PER_LAYER:
            print(f"  {name:<44} {_fmt(result['per_layer'][name]):>14} {unit}")
    for problem in result["problems"]:
        print("PROBLEM " + problem.strip().replace("\n", "\n        "))


def result_line(result: dict) -> str:
    if result["trace"]:
        from tracing import PER_LAYER

        values, specs = result["per_layer"], PER_LAYER
    else:
        values, specs = result["end_to_end"], END_TO_END
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        # a quality with no scored item is NaN, which JSON cannot carry
        "metrics": {n: {"value": values[n] if math.isfinite(values[n]) else None, "unit": u}
                    for n, u in specs},
    })


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Each workload in a fresh process; one table of the end-to-end metrics."""
    results, status = {}, 0
    for name in workloads.WORKLOADS:
        path = WORK / "results" / f"{name}-seed{seed}-trace{trace}.json"
        path.unlink(missing_ok=True)
        done = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                               "--seed", str(seed), "--seconds", str(seconds),
                               "--trace", str(trace)], cwd=ROOT)
        status = status or done.returncode
        if path.exists():
            results[name] = json.loads(path.read_text())
    print("\n" + " " * 22 + "".join(f"{n:>14}" for n in results))
    for metric, unit in END_TO_END + REPORT_ONLY:
        cells = "".join(f"{_fmt(r['end_to_end'][metric]):>14}" for r in results.values())
        print(f"{metric:<14}{unit:>8}{cells}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    path = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    _print_report(result)
    print(result_line(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
