"""Batch command-line surface: eval, agree, bounds, attn-check, attn-bench, volume.

Exit codes: 0 success, 2 usage error, 3 I/O failure (including "no case
pairs found"), 4 verification/check failure, 5 dataset failure (at least one
case could not be loaded or measured, up to every case).

stderr carries progress and diagnostics; stdout stays silent unless a
single-file output is requested with ``--out -``. Every CSV cell is written
by one rule (``_fmt``): undefined is empty, a string or integer as it is, any
other number with 6 significant digits. JSON keeps full precision.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from .cohortstats import cohort_report, linear_fit, summarize_fields
from .volbounds import BOUND_CURVE_CSV_HEADER, VpeBounds, avpe_bound, bound_curve, vpe_bounds_from_dice

# Names from modules that import numpy (volgrid, segmetrics) bind lazily from the package's
# exports on first use (``_bind_array_layers``), so importing the CLI, or running ``bounds
# --audit`` or ``volume``, never loads numpy; the bounds and cohort layers are plain imports.
# No command calls ``cohen_kappa``; it stays because perfbench/tracing.py patches ``cli.cohen_kappa``.
_ARRAY_NAMES = (
    "BinaryMask", "UndefinedMetricError", "binarize", "cohen_kappa",
    "confusion", "evaluate_case", "load_nifti", "region_metrics",
)


def _bind_array_layers():
    """Bind every array-layer name that this module does not hold yet.

    A name that is already bound, e.g. replaced with ``setattr`` before the
    first command ran, is left as it is.
    """
    namespace = globals()
    for name in _ARRAY_NAMES:
        if name not in namespace:
            namespace[name] = getattr(sys.modules[__package__], name)


def __getattr__(name):
    if name in _ARRAY_NAMES:
        _bind_array_layers()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_CHECK = 4
EXIT_PARTIAL = 5

WORKER_MEM_ENV = "VOLKIT_WORKER_MEM_MB"

# ``VpeBounds.admits`` precision for eval CSV values: one unit in the 6th digit
# ``_fmt`` writes. Enough: a value read back is within 5e-6 of its size, and
# ``segmetrics._check_compatible`` lets the spacings differ by 1e-6 per axis.
_CSV_RTOL = 1e-5

# The most rows ``bounds --curve`` tabulates; a smaller STEP is a usage error.
_CURVE_MAX_ROWS = 10**5

# Eval CSV columns whose finite cells are further limited: (least, greatest, what a cell must be).
# A volume is a voxel count times a voxel volume, so neither volume is negative;
# a vpe below -1 would need a negative predicted volume.
_CELL_RANGES = {
    "dice": (0.0, 1.0, "a dice in [0, 1]"),
    "vpe": (-1.0, math.inf, "a finite vpe >= -1"),
    "pred_ml": (0.0, math.inf, "a finite volume >= 0"),
    "gt_ml": (0.0, math.inf, "a finite volume >= 0"),
}


def _fmt(x) -> str:
    """One CSV cell's text: None is empty, a ``str`` or ``int`` as it is, any other number ``.6g``."""
    if x is None:
        return ""
    return str(x) if isinstance(x, (str, int)) else f"{x:.6g}"


def _progress(msg: str):
    print(msg, file=sys.stderr)


class _Exit(Exception):
    """Ends a command: ``main`` prints the message as one ``error:`` line and returns ``code``."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _unwritable(path, exc: OSError) -> _Exit:
    return _Exit(EXIT_IO, f"cannot write {path}: {exc.strerror or exc}")


def _write(outputs: dict):
    """Write each ``{out: text}``, encoded as UTF-8 whatever the locale; ``-`` is
    stdout, and a None text removes ``out``.

    Regular or new files are replaced through temporary files beside them, and
    every temporary is written before the first replace, so a failure while
    writing leaves every earlier file whole and no temporary behind. If a
    replace fails after an earlier one succeeded, the files not yet replaced
    are removed, so the outputs never mix two runs. A target that exists and
    is not a regular file (``/dev/null``, a FIFO) is written in place, because
    replacing it would replace the device node.
    """
    staged = {}  # each target path and its temporary, None to remove the target
    out, replaced = None, 0
    try:
        for out, text in outputs.items():
            path = Path(out)
            if out == "-":
                sys.stdout.write(text)
            elif text is None:
                staged[path] = None
            elif path.exists() and not path.is_file():
                with open(path, "w", newline="", encoding="utf-8") as f:
                    f.write(text)
            else:
                tmp = staged[path] = path.with_name(f".{path.name}.{os.getpid()}.tmp")
                with open(tmp, "w", newline="", encoding="utf-8") as f:
                    f.write(text)
        for out, tmp in staged.items():
            if tmp is None:
                out.unlink(missing_ok=True)
            else:
                os.replace(tmp, out)
            replaced += 1
    except BaseException as exc:
        stale = list(staged)[replaced:] if replaced else []  # a later replace failed: leave no mix of two runs
        for path in [*filter(None, staged.values()), *stale]:
            path.unlink(missing_ok=True)
        if isinstance(exc, OSError):
            raise _unwritable(out, exc) from exc
        raise


def _csv_cell(text: str) -> str:
    """``text`` as a CSV cell: quoted, with ``"`` doubled, if it holds ``,``, ``"``, CR or LF.

    ``csv.writer`` with LF line ends would leave a CR bare, which the reader takes for a line end.
    """
    return '"' + text.replace('"', '""') + '"' if any(c in text for c in ',"\r\n') else text


def _csv(header, rows) -> str:
    """CSV text that ``_eval_rows`` reads back: the header, then one LF-ended
    line per row, each cell written by ``_fmt``."""
    return "".join(",".join(_csv_cell(_fmt(x)) for x in row) + "\n" for row in [header, *rows])


def _dump_json(obj) -> str:
    """``obj`` as JSON; raises ValueError on a NaN or infinite float."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _eval_rows(path, required, optional=()) -> list:
    """``[case_id, *required, *optional]`` for each row of eval CSV ``path``.

    The file is read as UTF-8, with or without a byte-order mark, whatever
    the locale. A ``required`` column missing from the header ends the
    command with exit 3. A row whose required cells are not all filled in is
    skipped; an empty or missing optional cell is undefined and reads as None.
    A cell that is not a finite number, a dice outside [0, 1], a negative
    volume or a vpe below -1 ends the command with exit 3 and a message naming
    the row (the header is row 1).
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as f:
            reader = csv.DictReader(f)
            header, table = reader.fieldnames or (), list(reader)
    except OSError as exc:
        raise _Exit(EXIT_IO, str(exc)) from exc
    except (UnicodeError, csv.Error) as exc:
        raise _Exit(EXIT_IO, f"{path} is not a readable CSV: {exc}") from exc
    for key in required:
        if key not in header:
            raise _Exit(EXIT_IO, f"{path} has no {key} column")
    rows = []
    for number, row in enumerate(table, start=2):
        if not all(row[key] for key in required):
            continue
        case_id = row.get("case_id", "?")
        values = [case_id]
        for key in (*required, *optional):
            cell = row.get(key)
            try:
                value = float(cell) if cell else None
            except ValueError:
                value = math.nan
            least, greatest, wanted = _CELL_RANGES.get(key, (-math.inf, math.inf, "a finite number"))
            if value is not None and not (math.isfinite(value) and least <= value <= greatest):
                raise _Exit(EXIT_IO, f"{path} row {number} (case {case_id}): {key}={cell!r} is not {wanted}")
            values.append(value)
        rows.append(values)
    return rows


# --- the dataset pipeline: eval and agree -------------------------------


def discover_pairs(pred_dir: str, gt_dir: str) -> dict[str, tuple[str, str]]:
    """Pair mask files across two directories by filename stem, in stem order.

    The stem, the case id, is the file name's bytes read as UTF-8 whatever the
    locale; a file whose name is not UTF-8 is skipped with a warning on stderr.
    So is a file with no partner. A stem naming two files in one directory
    (``c.nii``, ``c.nii.gz``) is skipped in both, with one.
    """
    ambiguous = set()

    def index(d):
        out = {}
        for p in sorted(Path(d).iterdir()):
            if p.name.endswith((".nii", ".nii.gz")):
                try:
                    stem = os.fsencode(p.name.removesuffix(".gz").removesuffix(".nii")).decode("utf-8")
                except UnicodeDecodeError:
                    _progress(f"warning: {os.fsencode(p)!r} is not a UTF-8 file name; skipped")
                    continue
                if stem in out:
                    ambiguous.add(stem)
                    _progress(f"warning: {out[stem]} and {p} share the stem {stem!r}; skipped")
                out[stem] = str(p)
        return out

    preds, gts = index(pred_dir), index(gt_dir)
    for files, other_dir, others in ((preds, gt_dir, gts), (gts, pred_dir, preds)):
        for stem in sorted(set(files) - set(others) - ambiguous):
            _progress(f"warning: {files[stem]} has no partner in {other_dir}; skipped")
    return {s: (preds[s], gts[s]) for s in sorted(set(preds) & set(gts) - ambiguous)}


def _load_mask(path: str, threshold: float):
    """The mask stored in ``path``: as it is if binary, else thresholded at > ``threshold``."""
    grid = load_nifti(path)
    try:
        return BinaryMask(grid.data, grid.spacing)
    except ValueError:
        mask = binarize(grid, threshold)  # raises first if a voxel is NaN
        _progress(f"warning: {path} is not binary; thresholded at > {threshold:g}")
        return mask


def _worker_mem_mb():
    """The per-worker address-space cap in MB from the environment, or None if unset.

    Exits 2 unless the value is a positive whole number of megabytes that
    ``setrlimit`` takes: at most ``sys.maxsize`` bytes and the hard limit.
    """
    value = os.environ.get(WORKER_MEM_ENV)
    if not value:
        return None
    try:
        mem_mb = int(value)
    except ValueError:
        mem_mb = 0
    if mem_mb <= 0:
        raise _Exit(EXIT_USAGE, f"{WORKER_MEM_ENV}={value!r} is not a positive whole number of megabytes")
    import resource

    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    most = sys.maxsize if hard == resource.RLIM_INFINITY else min(hard, sys.maxsize)
    if mem_mb << 20 > most:
        raise _Exit(EXIT_USAGE, f"{WORKER_MEM_ENV}={value!r} is above the address-space limit of {most >> 20} MB")
    return mem_mb


def _limit_worker_memory(command, mem_mb):
    """Cap this process's address space at ``mem_mb`` MB; None leaves it unlimited.

    The libraries a ``command`` case needs are loaded first: mapping numpy's
    and scipy's shared objects under the cap can fail, or hang in scipy's
    extension load. Only ``eval`` needs scipy, whose mapping takes ~130 MB.
    """
    if mem_mb is not None:
        import resource

        if command == "eval":
            from scipy import ndimage  # noqa: F401  (the surface and distance transform)

        _bind_array_layers()
        limit = mem_mb * 1024 * 1024
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


# The per-case measures run in the workers. They look the metric functions up
# in this module's globals when called, so a replaced ``cli.evaluate_case``
# (a test's monkeypatch, perfbench's tracer) is the one that runs.


def _evaluate(pred, gt):
    return evaluate_case(pred, gt)


@dataclass(frozen=True)
class _Agreement:
    """One ``agree`` case: Dice and Cohen's kappa of two raters' masks."""

    dice: float
    kappa: float | None  # None where undefined


def _agreement(a, b) -> _Agreement:
    counts = confusion(a, b)
    try:
        kappa = counts.kappa()
    except UndefinedMetricError:
        kappa = None
    return _Agreement(region_metrics(counts).dice, kappa)


def _eval_one(task):
    """One case: (case_id, measure's result, None), or (case_id, None, the error)."""
    _bind_array_layers()  # a spawned worker has run no command
    measure, case_id, path_a, path_b, threshold = task
    try:
        return case_id, measure(_load_mask(path_a, threshold), _load_mask(path_b, threshold)), None
    except (ValueError, OSError, MemoryError) as exc:  # a NiftiError is a ValueError
        return case_id, None, f"{type(exc).__name__}: {exc}"


def _pooled(tasks, jobs: int, initargs) -> list:
    """``_eval_one`` of each task, in a pool of ``jobs`` workers that each run
    ``_limit_worker_memory(*initargs)`` first.

    A worker that dies (a SIGKILL, the kernel's OOM killer) breaks the pool and
    every case it had not finished. Those cases run again in order, in one
    one-worker pool: a worker death most often means memory ran out with
    ``jobs`` cases in flight, and running them side by side again risks the
    same kill. The first case such a pool leaves unfinished runs again alone,
    in a fresh one-worker pool; if it kills that worker too it fails as
    "worker process died". The cases after it continue in another pool.
    """
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    def run(batch, workers):  # each outcome, or None where the pool broke first
        futures = []
        with ProcessPoolExecutor(workers, initializer=_limit_worker_memory, initargs=initargs) as pool:
            with contextlib.suppress(BrokenProcessPool):  # raised by a submit after the break
                for task in batch:
                    futures.append(pool.submit(_eval_one, task))
        outcomes = [None] * len(batch)
        for i, future in enumerate(futures):
            with contextlib.suppress(BrokenProcessPool):
                outcomes[i] = future.result()
        return outcomes

    outcomes = run(tasks, jobs)
    broken = [i for i, outcome in enumerate(outcomes) if outcome is None]
    while broken:
        for i, outcome in zip(broken, run([tasks[i] for i in broken], 1)):
            outcomes[i] = outcome
        broken = [i for i in broken if outcomes[i] is None]
        if broken:  # one worker runs the cases in order: the first unfinished one killed it
            i = broken.pop(0)
            outcomes[i] = run([tasks[i]], 1)[0] or (tasks[i][1], None, "worker process died")
    return outcomes


def _eval_summary(records) -> dict:
    # one cohort, but "group", "groups" and "comparisons" stay: they are part of the frozen summary.json format
    entry = cohort_report(records)
    return {"group": "all", "report": {"groups": {"all": entry}, "comparisons": []}}


@dataclass(frozen=True)
class _Dataset:
    """What a dataset command measures per case, and the files it writes.

    A case's result is a dataclass record. Its CSV row is the case id, then
    each field in order, written by ``_csv``, under ``header``.
    """

    measure: Callable  # (mask_a, mask_b) -> the case's record, in a worker
    csv_name: str
    header: tuple[str, ...]
    summary: Callable  # [record] -> summary.json's own keys


_DATASETS = {
    "eval": _Dataset(
        _evaluate, "cases.csv",
        ("case_id", "dice", "jaccard", "precision", "recall", "hd95_mm", "assd_mm", "pred_ml", "gt_ml", "vpe"),
        _eval_summary,
    ),
    "agree": _Dataset(_agreement, "agreement.csv", ("case_id", "dice", "kappa"), summarize_fields),
}


def cmd_dataset(args) -> int:
    """``eval`` or ``agree``: measure every case pair, write its CSV and summary.json."""
    dataset = _DATASETS[args.command]
    mem_mb = _worker_mem_mb()
    if not math.isfinite(args.threshold):
        raise _Exit(EXIT_USAGE, f"--threshold {args.threshold} is not a finite number")
    if args.jobs < 1:
        raise _Exit(EXIT_USAGE, f"--jobs {args.jobs} is not a positive number of processes")
    try:
        pairs = discover_pairs(args.dir_a, args.dir_b)
    except OSError as exc:
        raise _Exit(EXIT_IO, str(exc)) from exc
    if not pairs:
        raise _Exit(EXIT_IO, f"no case pairs found in {args.dir_a} and {args.dir_b}")
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _unwritable(out_dir, exc) from exc
    _progress(f"{args.command}: {len(pairs)} cases")

    _bind_array_layers()
    tasks = [(dataset.measure, cid, a, b, args.threshold) for cid, (a, b) in pairs.items()]
    if args.jobs > 1:
        outcomes = _pooled(tasks, min(args.jobs, len(tasks)), (args.command, mem_mb))
    else:
        _limit_worker_memory(args.command, mem_mb)
        outcomes = [_eval_one(t) for t in tasks]
    results, failed = [], []
    for cid, res, err in outcomes:
        if err is None:
            results.append((cid, res))
        else:
            failed.append(cid)
            _progress(f"error: case {cid}: {err}")

    table = _csv(dataset.header, ([cid, *vars(res).values()] for cid, res in results))
    summary_text = None
    if results:
        summary = {"n_cases": len(results), **dataset.summary([res for _, res in results])}
        if failed:
            summary["failed_cases"] = failed
        summary_text = _dump_json(summary)
    # a None summary_text removes an earlier run's summary, which would sit beside a CSV of no cases
    _write({out_dir / dataset.csv_name: table, out_dir / "summary.json": summary_text})
    _progress(f"wrote {out_dir / dataset.csv_name}" + (" and summary.json" if results else ""))
    return EXIT_PARTIAL if failed else EXIT_OK


# --- the other subcommands ----------------------------------------------


def cmd_bounds(args) -> int:
    if args.curve is not None:
        lo, hi, step = args.curve
        if not (0 < step < math.inf and 0 < lo <= hi <= 1):
            raise _Exit(EXIT_USAGE, "curve range must satisfy 0 < MIN <= MAX <= 1 with a finite STEP > 0")
        n_rows = (hi + step * 0.5 - lo) / step  # inf for a subnormal STEP, which ceil refuses
        if n_rows > _CURVE_MAX_ROWS:
            shown = math.ceil(n_rows) if n_rows < math.inf else n_rows
            raise _Exit(EXIT_USAGE, f"--curve STEP {step:g} gives {shown} rows, more than {_CURVE_MAX_ROWS}")
        n_rows = math.ceil(n_rows)
        # np.arange(lo, hi + step/2, step), value for value; those within
        # 1e-12 above 1.0 are rounding error and read as 1.0
        delta = (lo + step) - lo
        grid = (lo + i * delta for i in range(n_rows))
        rows = bound_curve([min(x, 1.0) for x in grid if x <= 1.0 + 1e-12])
        _write({args.out: _csv(BOUND_CURVE_CSV_HEADER.split(","), map(dict.values, rows))})
        return EXIT_OK

    # audit mode: re-check every eval CSV row's (dice, vpe) against its bounds
    violations = []
    checked = 0
    for case_id, dice, vpe in _eval_rows(args.audit, ("dice", "vpe")):
        if dice <= 0:
            continue
        b = vpe_bounds_from_dice(dice)
        checked += 1
        if not b.admits(vpe, _CSV_RTOL):
            violations.append({"case_id": case_id, "dice": dice, "vpe": vpe, **vars(b)})
    _write({args.out: _dump_json({"checked": checked, "violations": violations})})
    if violations:
        _progress(f"error: {len(violations)} bound violations (metric implementation bug)")
        return EXIT_CHECK
    _progress(f"audited {checked} rows, zero violations")
    return EXIT_OK


def cmd_attn_check(args) -> int:
    from . import linattn

    try:
        results = linattn.check_properties(args.n, args.d, args.seed, args.trials)
    except ValueError as exc:
        raise _Exit(EXIT_USAGE, str(exc)) from exc
    except MemoryError as exc:
        raise _Exit(EXIT_USAGE, f"out of memory checking n={args.n} at d={args.d}; "
                                "use smaller --n or --d") from exc
    failed = []
    for name, err, tol in results:
        status = "PASS" if err <= tol else "FAIL"
        _progress(f"{name}: max_error={err:.3e} tol={tol:.0e} {status}")
        if err > tol:
            failed.append(name)
    if failed:
        _progress(f"error: failing checks: {', '.join(failed)}")
        return EXIT_CHECK
    return EXIT_OK


def cmd_attn_bench(args) -> int:
    try:
        n_list = [int(s) for s in args.n_list.split(",") if s]
    except ValueError as exc:
        raise _Exit(EXIT_USAGE, f"--n-list must be comma-separated integers, got {args.n_list!r}") from exc
    from . import linattn

    variants = ("quadratic", "linear") if args.variant == "both" else (args.variant,)
    try:
        rows = linattn.bench_attention(n_list, args.d, args.repeats, seed=args.seed, variants=variants)
    except ValueError as exc:
        raise _Exit(EXIT_USAGE, str(exc)) from exc
    except MemoryError as exc:
        raise _Exit(EXIT_USAGE, f"out of memory benchmarking n up to {max(n_list)} at d={args.d}; "
                                "use smaller --n-list or --d") from exc
    header = ("n", "d", "variant", "median_seconds", "flops")
    lines = [[r[key] for key in header] for r in rows]
    for variant in ("quadratic", "linear"):
        sub = [r for r in rows if r["variant"] == variant]
        if len(sub) >= 2:
            slope = linattn.fit_loglog_slope([r["n"] for r in sub], [r["median_seconds"] for r in sub])
            lines.append(("slope", args.d, variant, slope, None))
    _write({args.out: _csv(header, lines)})
    return EXIT_OK


def cmd_volume(args) -> int:
    from statistics import fmean

    rows = _eval_rows(args.eval_csv, ("gt_ml", "pred_ml", "dice"), ("vpe",))
    if len(rows) < 2:
        raise _Exit(EXIT_IO, "need at least two cases with volume columns")
    _, gt, pred, dices, vpes = zip(*rows)
    abs_vpes = [abs(v) for v in vpes if v is not None]
    try:
        fit = linear_fit(gt, pred)
        mean_dice = fmean(dices)
        result = {**vars(fit), "mean_abs_vpe": fmean(abs_vpes) if abs_vpes else None, "mean_dice": mean_dice}
        if mean_dice > 0 and abs_vpes:
            bound = avpe_bound(mean_dice)
            result["avpe_bound"] = bound
            result["avpe_bound_satisfied"] = VpeBounds(-1.0, bound).admits(result["mean_abs_vpe"], _CSV_RTOL)
        text = _dump_json(result)  # squares of finite cells can overflow to inf, then NaN
    except (ValueError, ArithmeticError) as exc:  # an fsum overflow; an underflow to 0 in r2
        raise _Exit(EXIT_IO, str(exc)) from exc
    _write({args.out: text})
    return EXIT_OK


# --- argument parsing ---------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="volkit",
        description="Volumetric mask evaluation, Dice/volume-error bound auditing, "
        "and linear-attention verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for command, dirs, help_text in (
        ("eval", ("pred_dir", "gt_dir"), "evaluate predicted masks against ground truth"),
        ("agree", ("rater_a_dir", "rater_b_dir"), "inter-rater agreement (dice + Cohen's kappa)"),
    ):
        p = sub.add_parser(command, help=help_text)
        p.add_argument("dir_a", metavar=dirs[0])
        p.add_argument("dir_b", metavar=dirs[1])
        p.add_argument("--threshold", type=float, default=0.5,
                       help="binarization threshold for non-binary inputs (default 0.5)")
        p.add_argument("--jobs", type=int, default=1, help="worker processes (1 = serial)")
        p.add_argument("--out", required=True, help="output directory")
        p.set_defaults(func=cmd_dataset)

    p = sub.add_parser("bounds", help="vpe bound curve or eval-CSV audit")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--curve", nargs=3, type=float, metavar=("MIN", "MAX", "STEP"))
    mode.add_argument("--audit", metavar="EVAL_CSV")
    p.add_argument("--out", default="-", help="output file ('-' for stdout)")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("attn-check", help="attention kernel property verification")
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--d", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=20)
    p.set_defaults(func=cmd_attn_check)

    p = sub.add_parser("attn-bench", help="attention kernel scaling benchmark")
    p.add_argument("--n-list", default="256,1024,4096", help="comma-separated token counts")
    p.add_argument("--d", type=int, default=16)
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--variant", choices=("both", "linear", "quadratic"), default="both",
                   help="kernels to time")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="-", help="output CSV ('-' for stdout)")
    p.set_defaults(func=cmd_attn_bench)

    p = sub.add_parser("volume", help="volume regression report from an eval CSV")
    p.add_argument("eval_csv")
    p.add_argument("--out", default="-", help="output JSON ('-' for stdout)")
    p.set_defaults(func=cmd_volume)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _Exit as exc:
        _progress(f"error: {exc}")
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
