"""Benchmark volkit end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]

With ``--trace 0`` the workload's CLI commands run as real processes
(``python -m volkit.cli`` with the repository's ``src`` on the path), one
after another with ``--jobs 1``, in a closed loop with one client until
``--seconds`` have passed; the end-to-end metrics are medians over those
iterations. With ``--trace 1`` the same commands run in-process, alternately
untraced and with spans around each layer, for the per-layer metrics and the
tracing overhead. Input generation and output checks are never timed. Every
command's outputs are checked before a number is reported; the last line of
stdout is one JSON object (correct, attempted, failed, metrics), and the exit
code is 1 if any check failed. ``--all`` runs every workload in both modes and
writes ``perfbench/RESULTS.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import tracing
import workloads
from workloads import REQUIRED, ROOT, SRC, WORKLOADS

HERE = Path(__file__).resolve().parent
WORK = HERE / "_work"
RESULTS = HERE / "RESULTS.json"

# name: (unit, which way is better); the bounds are in BENCHMARK.json
END_TO_END = {"wall_s": ("s", "lower"), "setup_s": ("s", "lower"),
              "cases_per_s": ("cases/s", "higher"), "peak_rss_mb": ("MB", "lower")}
SETUP_SAMPLES = 5
# cases_per_s counts the cases of these commands over their wall time
CASE_COMMANDS = ("eval", "agree")
# Never used while the benchmark was tuned; re-check a claimed gain on it.
HELD_OUT_SEED = 7919


def spawn(args: list[str], stderr_path: Path) -> tuple[int, float, float]:
    """Run ``python args`` to exit; returns (exit code, wall s, peak RSS MB of that child)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    with open(stderr_path, "ab") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=env,
                                stdout=subprocess.DEVNULL, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024


class Tally:
    """Operations attempted and failed (cases plus commands), and what went wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def command(self, cmd: workloads.Command, code):
        try:
            check = cmd.check()
        except (KeyError, TypeError, ValueError) as exc:  # malformed output files
            check = workloads.Check(cmd.cases, [f"malformed output: {exc!r}"])
        bad_exit = code != 0
        if bad_exit:
            check.problems.append(f"{cmd.name} exited {code}")
        self.attempted += 1 + cmd.cases
        self.failed += int(bad_exit or bool(check.problems)) + min(check.failed_cases, cmd.cases)
        self.problems += [f"{cmd.name}: {p}" for p in check.problems]


def measure_processes(prepared, seconds: float, log: Path, tally: Tally) -> tuple[dict, dict]:
    def import_sample():
        code, wall, _ = spawn(["-c", "import volkit.cli"], log)
        if code != 0:
            tally.problems.append("import volkit.cli failed")
        setup.append(wall)

    setup, walls, cases, case_walls, rss = [], [], 0, 0.0, 0.0
    deadline = time.perf_counter() + seconds
    while not walls or time.perf_counter() < deadline:
        # set-up samples interleave with the iterations so both see the same machine
        import_sample()
        runs = [(cmd, *spawn(["-m", "volkit.cli", *cmd.argv], log)) for cmd in prepared.commands]
        for cmd, code, _, _ in runs:
            tally.command(cmd, code)
        walls.append(sum(wall for _, _, wall, _ in runs))
        cases += sum(cmd.cases for cmd, _, _, _ in runs if cmd.name in CASE_COMMANDS)
        case_walls += sum(wall for cmd, _, wall, _ in runs if cmd.name in CASE_COMMANDS)
        rss = max([rss] + [r for _, _, _, r in runs])
    while len(setup) < SETUP_SAMPLES:
        import_sample()
    # A shared machine's speed drifts in phases of seconds to tens of seconds;
    # totals over the whole loop average across them, where a median picks one.
    metrics = {
        "wall_s": sum(walls) / len(walls),
        "setup_s": statistics.median(setup),
        "cases_per_s": cases / case_walls,
        "peak_rss_mb": rss,
    }
    samples = {"wall_s": walls, "setup_s": setup, "iterations": len(walls),
               "peak_rss_mb": len(walls) * len(prepared.commands)}
    return metrics, samples


def run_in_process(main, commands, tracer=None) -> tuple[float, list]:
    """Run the commands through ``main``; returns the wall time and each command's exit code."""
    codes = []
    t0 = time.perf_counter()
    for cmd in commands:
        try:
            if tracer is None:
                codes.append(main(cmd.argv))
            else:
                with tracer.span(f"cli.{cmd.name}"):
                    codes.append(main(cmd.argv))
        except Exception as exc:  # a crash is a failed command, as a traceback would be
            codes.append(f"{type(exc).__name__}: {exc}")
    return time.perf_counter() - t0, codes


def measure_layers(prepared, seconds: float, log: Path, spans_path: Path, tally: Tally):
    setup = []
    for _ in range(SETUP_SAMPLES):
        err = log.with_suffix(".importtime")
        err.unlink(missing_ok=True)
        if spawn(["-X", "importtime", "-c", "import volkit.cli"], err)[0] != 0:
            tally.problems.append("import volkit.cli failed")
        setup.append(tracing.parse_importtime(err.read_text()))

    from volkit.cli import main

    passes, traced, untraced = [], [], []
    origin = time.perf_counter()
    deadline = origin + seconds
    while not passes or time.perf_counter() < deadline:
        tracer = tracing.Tracer()
        # alternate which pass goes first so warm caches favour neither
        order = (False, True) if len(passes) % 2 == 0 else (True, False)
        for trace in order:
            with tracing.installed(tracer) if trace else contextlib.nullcontext():
                wall, codes = run_in_process(main, prepared.commands, tracer if trace else None)
            (traced if trace else untraced).append(wall)
            for cmd, code in zip(prepared.commands, codes):
                tally.command(cmd, code)
        passes.append(tracer.spans)
    tracing.write_spans(spans_path, passes, origin)

    metrics = {name: statistics.median(s[name] for s in setup) for name in setup[0]}
    metrics.update(tracing.run_metrics(passes))
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1
    detail = {"passes": len(passes), "traced_wall_s": statistics.median(traced),
              "untraced_wall_s": statistics.median(untraced),
              "spans": str(spans_path.relative_to(ROOT)), "setup_samples": len(setup)}
    return metrics, detail


def flush_to_disk(root: Path):
    """fsync every generated file, so that their writeback does not land inside the timed loop."""
    for path in root.rglob("*"):
        if path.is_file():
            fd = os.open(path, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    tally = Tally()
    try:
        from volkit.cli import main

        attempted, failed, problems = workloads.golden_gate(work, main)
        tally.attempted, tally.failed, tally.problems = attempted, failed, problems
        prepared = WORKLOADS[name](seed, work)
        flush_to_disk(work)
        log = work / "stderr.log"
        if trace:
            metrics, detail = measure_layers(
                prepared, seconds, log, WORK / f"{name}-spans.jsonl", tally)
            units = tracing.PER_LAYER
        else:
            metrics, detail = measure_processes(prepared, seconds, log, tally)
            units = END_TO_END
        record = {
            "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
            "inputs": prepared.inputs, "software": software(),
            "metrics": {k: {"value": metrics[k], "unit": unit} for k, (unit, _) in units.items()},
            "samples": detail, "attempted": tally.attempted, "failed": tally.failed,
            "failed_frac": tally.failed / tally.attempted, "problems": tally.problems,
        }
        attn = [cmd for cmd in prepared.commands if cmd.name == "attn-bench"]
        if attn:
            record["attn_bench_rows"] = [row for cmd in attn for row in workloads.attn_rows(Path(cmd.argv[-1]))]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (WORK / f"{name}-trace{int(trace)}.json").write_text(json.dumps(record, indent=2) + "\n")

    print(f"{name} seed={seed} trace={int(trace)} inputs={json.dumps(prepared.inputs)}")
    print(f"samples: {json.dumps(detail)}")
    for problem in tally.problems:
        print(f"CHECK FAILED: {problem}")
    for key, m in record["metrics"].items():
        print(f"  {key:40s} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_frac':40s} {record['failed_frac']:.6g} ratio "
          f"({tally.failed} of {tally.attempted} cases and commands)")
    correct = tally.failed == 0 and not tally.problems
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": record["metrics"]}))
    return 0 if correct else 1


def software() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_pinned": importlib.util.find_spec("threadpoolctl") is not None,
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            return next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")),
                        platform.processor())
    except OSError:
        return platform.processor()


def run_all(seed: int, seconds: float) -> int:
    """Every workload in both modes, each in its own process; writes RESULTS.json."""
    status = 0
    results = {}
    why = {w["name"]: w["why"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run([sys.executable, str(Path(__file__)), "--workload", name,
                                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                                  cwd=ROOT, stdout=subprocess.PIPE, text=True)
            print(proc.stdout, end="")
            status = status or proc.returncode
            record = json.loads((WORK / f"{name}-trace{trace}.json").read_text())
            entry = results.setdefault(name, {"why": why[name], **{k: record[k] for k in ("seed", "seconds", "inputs")}})
            entry["end_to_end" if trace == 0 else "per_layer"] = record["metrics"]
            entry["samples" if trace == 0 else "trace"] = record["samples"]
            entry[f"failed_frac_trace{trace}"] = record["failed_frac"]
            if "attn_bench_rows" in record and trace == 0:
                entry["attn_bench_rows"] = record["attn_bench_rows"]
    machine = {"cpu": cpu_model(), **software()}
    if not machine["blas_pinned"]:
        machine["blas_note"] = ("threadpoolctl is absent: BLAS threads were not pinned, so "
                                "attention timings and acceptance test 04's slopes are measured "
                                "on unpinned BLAS")
    RESULTS.write_text(json.dumps({"machine": machine, "held_out_seed": HELD_OUT_SEED,
                                   "workloads": results}, indent=2) + "\n")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="every workload, both modes")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.exists()]
    if missing:
        print(f"error: not a volkit checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    if args.all:
        return run_all(args.seed, args.seconds)
    if args.workload is None:
        parser.error("give --workload NAME or --all")
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
