"""Batch command-line surface: eval, agree, bounds, attn-check, attn-bench, volume.

Exit codes: 0 success, 2 usage error, 3 I/O failure (including "no case
pairs found"), 4 verification/check failure, 5 partial dataset failure
(some cases evaluated, some unreadable).

stderr carries progress and diagnostics; stdout stays silent unless a
single-file output is requested with ``--out -``. CSV floats are printed
with 6 significant digits; JSON keeps full precision.
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
from importlib import import_module
from pathlib import Path
from typing import Callable

from .cohortstats import fsum_mean, linear_fit
from .volbounds import BOUND_CURVE_CSV_HEADER, avpe_bound, bound_curve, vpe_bounds_from_dice

# The array layers: each name here -> the module it comes from. They are bound
# into this module on first use (``_bind_array_layers``), so that importing the
# CLI, and running ``bounds --audit`` or ``volume``, never loads numpy.
_ARRAY_NAMES = {
    "cohort_report": ".cohortstats",
    **dict.fromkeys(
        ("CASE_METRIC_FIELDS", "UndefinedMetricError", "cohen_kappa", "confusion", "evaluate_case",
         "region_metrics"),
        ".segmetrics",
    ),
    **dict.fromkeys(("NiftiError", "binarize", "is_binary", "load_nifti"), ".volgrid"),
}


def _bind_array_layers():
    """Bind every array-layer name that this module does not hold yet.

    A name that is already bound, e.g. replaced with ``setattr`` before the
    first command ran, is left as it is.
    """
    namespace = globals()
    for name, source in _ARRAY_NAMES.items():
        if name not in namespace:
            namespace[name] = getattr(import_module(source, __package__), name)


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

# Audit tolerance absorbs the 6-significant-digit rounding of eval CSV rows.
_AUDIT_TOL = 1e-4


def _fmt(x) -> str:
    if x is None:
        return ""
    return f"{x:.6g}"


def _progress(msg: str):
    print(msg, file=sys.stderr)


@contextlib.contextmanager
def _replacing(path: Path):
    """``path`` for writing through a temporary file in the same directory.

    The temporary file replaces ``path`` only when the block completes, so a
    failure partway leaves any earlier ``path`` whole and no temporary behind.
    """
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline="") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


@contextlib.contextmanager
def _output(out: str):
    """The file named by ``--out`` for writing; ``-`` is stdout, left open."""
    if out == "-":
        yield sys.stdout
    else:
        with open(out, "w", newline="") as f:
            yield f


def _dump_json(obj) -> str:
    """``obj`` as JSON; raises ValueError on a NaN or infinite float."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _row_floats(path, number: int, row: dict, keys) -> list:
    """The named cells of CSV row ``number`` (the header is row 1) as floats.

    An empty or missing cell is undefined and reads as None. A cell that is
    not a finite number, or a dice outside [0, 1], raises ValueError naming
    the row.
    """
    out = []
    for key in keys:
        cell = row.get(key)
        try:
            value = float(cell) if cell else None
        except ValueError:
            value = math.nan
        if value is None or (math.isfinite(value) and (key != "dice" or 0.0 <= value <= 1.0)):
            out.append(value)
            continue
        wanted = "a dice in [0, 1]" if key == "dice" else "a finite number"
        raise ValueError(
            f"{path} row {number} (case {row.get('case_id', '?')}): {key}={cell!r} is not {wanted}"
        )
    return out


def _read_csv(path):
    """The header and rows of CSV ``path``, or None after reporting why it cannot be read."""
    try:
        with open(path, newline="") as f:
            reader = csv.DictReader(f)
            rows = list(reader)
        return reader.fieldnames, rows
    except OSError as exc:
        _progress(f"error: {exc}")
    except (UnicodeError, csv.Error) as exc:
        _progress(f"error: {path} is not a readable CSV: {exc}")
    return None


# --- the dataset pipeline: eval and agree -------------------------------


def discover_pairs(pred_dir: str, gt_dir: str) -> dict[str, tuple[str, str]]:
    """Pair mask files across two directories by filename stem, in stem order."""

    def index(d):
        out = {}
        for p in sorted(Path(d).iterdir()):
            if p.name.endswith((".nii", ".nii.gz")):
                out[p.name.removesuffix(".gz").removesuffix(".nii")] = str(p)
        return out

    preds, gts = index(pred_dir), index(gt_dir)
    return {s: (preds[s], gts[s]) for s in sorted(set(preds) & set(gts))}


def _load_mask(path: str, threshold: float):
    grid = load_nifti(path)
    if not is_binary(grid.data):
        _progress(f"warning: {path} is not binary; thresholding at > {threshold:g}")
    return binarize(grid, threshold)


def _worker_mem_mb():
    """The per-worker address-space cap in MB from the environment, or None if unset.

    Raises ValueError unless the value is a positive whole number.
    """
    value = os.environ.get(WORKER_MEM_ENV)
    if not value:
        return None
    try:
        mem_mb = int(value)
    except ValueError:
        mem_mb = 0
    if mem_mb <= 0:
        raise ValueError(f"{WORKER_MEM_ENV}={value!r} is not a positive whole number of megabytes")
    return mem_mb


def _limit_worker_memory(mem_mb):
    if mem_mb is not None:
        import resource

        limit = mem_mb * 1024 * 1024
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


# The per-case measures run in the workers. They look the metric functions up
# in this module's globals when called, so a replaced ``cli.evaluate_case``
# (a test's monkeypatch, perfbench's tracer) is the one that runs.


def _evaluate(pred, gt):
    return evaluate_case(pred, gt)


def _agreement(a, b):
    """Dice and Cohen's kappa of two raters' masks; kappa is None where undefined."""
    dice = region_metrics(confusion(a, b)).dice
    try:
        kappa = cohen_kappa(a, b)
    except UndefinedMetricError:
        kappa = None
    return dice, kappa


def _eval_one(task):
    """One case: (case_id, measure's result, None), or (case_id, None, the error)."""
    _bind_array_layers()  # a spawned worker has run no command
    measure, case_id, path_a, path_b, threshold = task
    try:
        return case_id, measure(_load_mask(path_a, threshold), _load_mask(path_b, threshold)), None
    except (NiftiError, ValueError, OSError, UndefinedMetricError, MemoryError) as exc:
        return case_id, None, f"{type(exc).__name__}: {exc}"


def _case_csv_row(case_id: str, m) -> str:
    return ",".join([case_id, *(_fmt(getattr(m, f)) for f in CASE_METRIC_FIELDS)])


def _agreement_csv_row(case_id: str, result) -> str:
    dice, kappa = result
    return f"{case_id},{_fmt(dice)},{_fmt(kappa)}"


def _eval_summary(args, results) -> dict:
    report = cohort_report(
        [m for _, m in results], [args.group] * len(results), case_ids=[cid for cid, _ in results]
    )
    return {"group": args.group, "report": report}


def _agreement_summary(args, results) -> dict:
    from .cohortstats import summarize

    kappas = [k for _, (_, k) in results if k is not None]
    return {
        "dice": vars(summarize([d for _, (d, _) in results])),
        "kappa": vars(summarize(kappas)) if kappas else None,
    }


@dataclass(frozen=True)
class _Dataset:
    """What a dataset command measures per case, and the files it writes."""

    measure: Callable  # (mask_a, mask_b) -> the case's result, in a worker
    csv_name: str
    header: str
    row: Callable  # (case_id, result) -> the case's CSV line
    summary: Callable  # (args, [(case_id, result)]) -> summary.json's own keys


_DATASETS = {
    "eval": _Dataset(
        _evaluate, "cases.csv",
        "case_id,dice,jaccard,precision,recall,hd95_mm,assd_mm,pred_ml,gt_ml,vpe",
        _case_csv_row, _eval_summary,
    ),
    "agree": _Dataset(
        _agreement, "agreement.csv", "case_id,dice,kappa", _agreement_csv_row, _agreement_summary
    ),
}


def cmd_dataset(args) -> int:
    """``eval`` or ``agree``: measure every case pair, write its CSV and summary.json."""
    dataset = _DATASETS[args.command]
    try:
        mem_mb = _worker_mem_mb()
        if not math.isfinite(args.threshold):
            raise ValueError(f"--threshold {args.threshold} is not a finite number")
        if args.jobs < 1:
            raise ValueError(f"--jobs {args.jobs} is not a positive number of processes")
    except ValueError as exc:
        _progress(f"error: {exc}")
        return EXIT_USAGE
    try:
        pairs = discover_pairs(args.dir_a, args.dir_b)
    except OSError as exc:
        _progress(f"error: {exc}")
        return EXIT_IO
    if not pairs:
        _progress(f"error: no case pairs found in {args.dir_a} and {args.dir_b}")
        return EXIT_IO
    _progress(f"{args.command}: {len(pairs)} cases")

    _bind_array_layers()
    tasks = [(dataset.measure, cid, a, b, args.threshold) for cid, (a, b) in pairs.items()]
    if args.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            max_workers=args.jobs, initializer=_limit_worker_memory, initargs=(mem_mb,)
        ) as pool:
            outcomes = list(pool.map(_eval_one, tasks))
    else:
        _limit_worker_memory(mem_mb)
        outcomes = [_eval_one(t) for t in tasks]
    results, failed = [], []
    for cid, res, err in outcomes:
        if err is None:
            results.append((cid, res))
        else:
            failed.append(cid)
            _progress(f"error: case {cid}: {err}")

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    with _replacing(out_dir / dataset.csv_name) as f:
        f.write(dataset.header + "\n")
        for cid, res in results:
            f.write(dataset.row(cid, res) + "\n")
    summary_path = out_dir / "summary.json"
    if results:
        summary = {"n_cases": len(results), **dataset.summary(args, results)}
        if failed:
            summary["failed_cases"] = failed
        with _replacing(summary_path) as f:
            f.write(_dump_json(summary))
    else:  # an earlier run's summary would sit beside a CSV of no cases
        summary_path.unlink(missing_ok=True)
    _progress(f"wrote {out_dir / dataset.csv_name}" + (" and summary.json" if results else ""))
    return EXIT_PARTIAL if failed else EXIT_OK


# --- the other subcommands ----------------------------------------------


def cmd_bounds(args) -> int:
    if args.curve is not None:
        lo, hi, step = args.curve
        if step <= 0 or not 0 < lo <= hi <= 1:
            _progress("error: curve range must satisfy 0 < MIN <= MAX <= 1 with STEP > 0")
            return EXIT_USAGE
        # np.arange(lo, hi + step/2, step), value for value; those within
        # 1e-12 above 1.0 are rounding error and read as 1.0
        delta = (lo + step) - lo
        grid = (lo + i * delta for i in range(math.ceil((hi + step * 0.5 - lo) / step)))
        rows = bound_curve([min(x, 1.0) for x in grid if x <= 1.0 + 1e-12])
        with _output(args.out) as f:
            f.write(BOUND_CURVE_CSV_HEADER + "\n")
            for r in rows:
                f.write(",".join(_fmt(r[key]) for key in BOUND_CURVE_CSV_HEADER.split(",")) + "\n")
        return EXIT_OK

    # audit mode: re-check every eval CSV row's (dice, vpe) against its bounds
    table = _read_csv(args.audit)
    if table is None:
        return EXIT_IO
    fieldnames, rows = table
    if fieldnames is None or "dice" not in fieldnames:
        _progress(f"error: {args.audit} is not an eval CSV")
        return EXIT_IO

    violations = []
    checked = 0
    for number, row in enumerate(rows, start=2):
        if not row.get("dice") or not row.get("vpe"):
            continue
        try:
            dice, vpe = _row_floats(args.audit, number, row, ("dice", "vpe"))
        except ValueError as exc:
            _progress(f"error: {exc}")
            return EXIT_IO
        if dice <= 0:
            continue
        b = vpe_bounds_from_dice(dice)
        checked += 1
        if vpe < b.lower - _AUDIT_TOL or vpe > b.upper + _AUDIT_TOL:
            violations.append(
                {"case_id": row.get("case_id", "?"), "dice": dice, "vpe": vpe,
                 "lower": b.lower, "upper": b.upper}
            )
    report = {"checked": checked, "violations": violations}
    with _output(args.out) as f:
        f.write(_dump_json(report))
    if violations:
        _progress(f"error: {len(violations)} bound violations (metric implementation bug)")
        return EXIT_CHECK
    _progress(f"audited {checked} rows, zero violations")
    return EXIT_OK


def cmd_attn_check(args) -> int:
    if min(args.n, args.d, args.trials) < 1:
        _progress("error: n, d and trials must be >= 1")
        return EXIT_USAGE
    if args.n > 4096:
        _progress("error: n capped at 4096 for unfactored comparisons")
        return EXIT_USAGE
    from . import linattn

    failed = []
    for name, err, tol in linattn.check_properties(args.n, args.d, args.seed, args.trials):
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
    except ValueError:
        n_list = []
    if not n_list or min(n_list) < 1 or args.d < 1 or args.repeats < 3:
        _progress(f"error: need --n-list of positive integers (got {args.n_list!r}), "
                  "d >= 1 and repeats >= 3")
        return EXIT_USAGE
    from . import linattn

    variants = ("quadratic", "linear") if args.variant == "both" else (args.variant,)
    rows = linattn.bench_attention(n_list, args.d, args.repeats, seed=args.seed, variants=variants)
    with _output(args.out) as f:
        f.write("n,d,variant,median_seconds,flops\n")
        for r in rows:
            f.write(f"{r['n']},{r['d']},{r['variant']},{_fmt(r['median_seconds'])},{r['flops']}\n")
        for variant in ("quadratic", "linear"):
            sub = [r for r in rows if r["variant"] == variant]
            if len(sub) >= 2:
                slope = linattn.fit_loglog_slope(
                    [r["n"] for r in sub], [r["median_seconds"] for r in sub]
                )
                f.write(f"slope,{args.d},{variant},{_fmt(slope)},\n")
    return EXIT_OK


def cmd_volume(args) -> int:
    table = _read_csv(args.eval_csv)
    if table is None:
        return EXIT_IO
    _, rows = table
    try:
        triples = [
            _row_floats(args.eval_csv, number, r, ("gt_ml", "pred_ml", "dice", "vpe"))
            for number, r in enumerate(rows, start=2)
            if r.get("gt_ml") and r.get("pred_ml") and r.get("dice")
        ]
    except ValueError as exc:
        _progress(f"error: {exc}")
        return EXIT_IO
    if len(triples) < 2:
        _progress("error: need at least two cases with volume columns")
        return EXIT_IO
    gt = [t[0] for t in triples]
    pred = [t[1] for t in triples]
    dices = [t[2] for t in triples]
    abs_vpes = [abs(t[3]) for t in triples if t[3] is not None]
    try:
        fit = linear_fit(gt, pred)
        mean_dice = fsum_mean(dices)
        result = {
            "n": fit.n,
            "slope": fit.slope,
            "intercept": fit.intercept,
            "r2": fit.r2,
            "mean_abs_vpe": fsum_mean(abs_vpes) if abs_vpes else None,
            "mean_dice": mean_dice,
        }
        if mean_dice > 0 and abs_vpes:
            bound = avpe_bound(mean_dice)
            result["avpe_bound"] = bound
            result["avpe_bound_satisfied"] = bool(result["mean_abs_vpe"] <= bound + _AUDIT_TOL)
        text = _dump_json(result)  # squares of finite cells can overflow to inf, then NaN
    except (ValueError, OverflowError) as exc:  # fsum overflows on sums beyond 1.8e308
        _progress(f"error: {exc}")
        return EXIT_IO
    with _output(args.out) as f:
        f.write(text)
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
        if command == "eval":
            p.add_argument("--group", default="all", help="cohort group label")
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
                   help="kernels to time (quadratic needs an n-by-n intermediate)")
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
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
