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
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import linattn
from .cohortstats import cohort_report, linear_fit
from .segmetrics import (
    CASE_CSV_HEADER,
    CaseMetrics,
    UndefinedMetricError,
    cohen_kappa,
    confusion,
    evaluate_case,
    region_metrics,
)
from .volbounds import BOUND_CURVE_CSV_HEADER, avpe_bound, bound_curve, vpe_bounds_from_dice
from .volgrid import NiftiError, binarize, is_binary, load_nifti

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
def _output(out: str):
    """The file named by ``--out`` for writing; ``-`` is stdout, left open."""
    if out == "-":
        yield sys.stdout
    else:
        with open(out, "w", newline="") as f:
            yield f


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _row_floats(path, number: int, row: dict, keys) -> list:
    """The named cells of CSV row ``number`` (the header is row 1) as floats.

    An empty or missing cell is undefined and reads as None; a cell that is
    not a number raises ValueError naming the row.
    """
    out = []
    for key in keys:
        try:
            out.append(float(row[key]) if row.get(key) else None)
        except ValueError:
            raise ValueError(
                f"{path} row {number} (case {row.get('case_id', '?')}): "
                f"{key}={row[key]!r} is not a number"
            ) from None
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


# --- dataset discovery and per-case evaluation --------------------------


def _stem(name: str) -> str:
    for suffix in (".nii.gz", ".nii"):
        if name.endswith(suffix):
            return name[: -len(suffix)]
    return name


def discover_pairs(pred_dir: str, gt_dir: str) -> dict[str, tuple[str, str]]:
    """Pair mask files across two directories by filename stem."""

    def index(d):
        out = {}
        for p in sorted(Path(d).iterdir()):
            if p.name.endswith((".nii", ".nii.gz")):
                out[_stem(p.name)] = str(p)
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


def _eval_one(args):
    case_id, pred_path, gt_path, threshold, mode = args
    try:
        pred = _load_mask(pred_path, threshold)
        gt = _load_mask(gt_path, threshold)
        if mode == "eval":
            return case_id, evaluate_case(pred, gt), None
        dice = region_metrics(confusion(pred, gt)).dice
        try:
            kappa = cohen_kappa(pred, gt)
        except UndefinedMetricError:
            kappa = None
        return case_id, (dice, kappa), None
    except (NiftiError, ValueError, OSError, UndefinedMetricError, MemoryError) as exc:
        return case_id, None, f"{type(exc).__name__}: {exc}"


def _run_cases(pairs, threshold, jobs, mode, mem_mb):
    tasks = [(cid, p, g, threshold, mode) for cid, (p, g) in sorted(pairs.items())]
    if jobs > 1:
        with ProcessPoolExecutor(
            max_workers=jobs, initializer=_limit_worker_memory, initargs=(mem_mb,)
        ) as pool:
            raw = list(pool.map(_eval_one, tasks))
    else:
        _limit_worker_memory(mem_mb)
        raw = [_eval_one(t) for t in tasks]
    results = [(cid, res) for cid, res, err in raw if err is None]
    errors = [(cid, err) for cid, _, err in raw if err is not None]
    return results, errors


def _case_csv_row(case_id: str, m: CaseMetrics) -> str:
    cells = [
        case_id,
        _fmt(m.dice),
        _fmt(m.jaccard),
        _fmt(m.precision),
        _fmt(m.recall),
        _fmt(m.hd95_mm),
        _fmt(m.assd_mm),
        _fmt(m.pred_volume_ml),
        _fmt(m.gt_volume_ml),
        _fmt(m.vpe),
    ]
    return ",".join(cells)


# --- subcommands --------------------------------------------------------


def cmd_eval(args) -> int:
    try:
        mem_mb = _worker_mem_mb()
    except ValueError as exc:
        _progress(f"error: {exc}")
        return EXIT_USAGE
    try:
        pairs = discover_pairs(args.pred_dir, args.gt_dir)
    except OSError as exc:
        _progress(f"error: {exc}")
        return EXIT_IO
    if not pairs:
        _progress("error: no prediction/ground-truth pairs found")
        return EXIT_IO
    _progress(f"evaluating {len(pairs)} cases")
    results, errors = _run_cases(pairs, args.threshold, args.jobs, "eval", mem_mb)
    for cid, err in errors:
        _progress(f"error: case {cid}: {err}")

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "cases.csv", "w", newline="") as f:
        f.write(CASE_CSV_HEADER + "\n")
        for cid, m in results:
            f.write(_case_csv_row(cid, m) + "\n")

    if results:
        report = cohort_report(
            [m for _, m in results],
            [args.group] * len(results),
            case_ids=[cid for cid, _ in results],
        )
        summary = {"group": args.group, "n_cases": len(results), "report": report}
        if errors:
            summary["failed_cases"] = sorted(cid for cid, _ in errors)
        (out_dir / "summary.json").write_text(_dump_json(summary))
    _progress(f"wrote {out_dir / 'cases.csv'}" + (" and summary.json" if results else ""))
    return EXIT_PARTIAL if errors else EXIT_OK


def cmd_agree(args) -> int:
    try:
        mem_mb = _worker_mem_mb()
    except ValueError as exc:
        _progress(f"error: {exc}")
        return EXIT_USAGE
    try:
        pairs = discover_pairs(args.rater_a_dir, args.rater_b_dir)
    except OSError as exc:
        _progress(f"error: {exc}")
        return EXIT_IO
    if not pairs:
        _progress("error: no rater pairs found")
        return EXIT_IO
    _progress(f"comparing {len(pairs)} cases")
    results, errors = _run_cases(pairs, args.threshold, args.jobs, "agree", mem_mb)
    for cid, err in errors:
        _progress(f"error: case {cid}: {err}")

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "agreement.csv", "w", newline="") as f:
        f.write("case_id,dice,kappa\n")
        for cid, (dice, kappa) in results:
            f.write(f"{cid},{_fmt(dice)},{_fmt(kappa)}\n")

    if results:
        dices = [d for _, (d, _) in results]
        kappas = [k for _, (_, k) in results if k is not None]
        from .cohortstats import summarize

        summary = {
            "n_cases": len(results),
            "dice": vars(summarize(dices)),
            "kappa": vars(summarize(kappas)) if kappas else None,
        }
        if errors:
            summary["failed_cases"] = sorted(cid for cid, _ in errors)
        (out_dir / "summary.json").write_text(_dump_json(summary))
    return EXIT_PARTIAL if errors else EXIT_OK


def cmd_bounds(args) -> int:
    if args.curve is not None:
        lo, hi, step = args.curve
        if step <= 0 or not 0 < lo <= hi <= 1:
            _progress("error: curve range must satisfy 0 < MIN <= MAX <= 1 with STEP > 0")
            return EXIT_USAGE
        grid = np.arange(lo, hi + step * 0.5, step)
        rows = bound_curve(grid[grid <= 1.0 + 1e-12])
        with _output(args.out) as f:
            f.write(BOUND_CURVE_CSV_HEADER + "\n")
            for r in rows:
                f.write(
                    f"{_fmt(r['dice'])},{_fmt(r['vpe_lower'])},{_fmt(r['vpe_upper'])},"
                    f"{_fmt(r['abs_lower'])},{_fmt(r['abs_upper'])}\n"
                )
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


def _attn_checks(n, d, seed, trials, inject_fault):
    """Run the attention property suite; yields (name, max_error, tolerance)."""
    rng = np.random.default_rng(seed)
    err_rowsum = err_factored = err_perm = err_hull = err_grad = 0.0
    for _ in range(trials):
        nn = int(rng.integers(1, n + 1))
        dd = int(rng.integers(1, d + 1))
        t = linattn.AttentionTensors(
            q=rng.standard_normal((nn, dd)),
            k=rng.standard_normal((nn, dd)),
            v=rng.standard_normal((nn, dd)),
        )
        weights = linattn.linear_attention_weights(t)
        err_rowsum = max(err_rowsum, float(np.abs(weights.sum(axis=1) - 1.0).max()))

        out = linattn.linear_attention(t).out
        err_factored = max(err_factored, float(np.abs(out - weights @ t.v).max()))

        perm = rng.permutation(nn)
        t_perm = linattn.AttentionTensors(q=t.q[perm], k=t.k[perm], v=t.v[perm])
        err_perm = max(
            err_perm, float(np.abs(linattn.linear_attention(t_perm).out - out[perm]).max())
        )

        for kernel in (linattn.linear_attention, linattn.quadratic_attention):
            o = kernel(t).out
            over = np.maximum(o - t.v.max(axis=0), 0).max()
            under = np.maximum(t.v.min(axis=0) - o, 0).max()
            err_hull = max(err_hull, float(over), float(under))

        # gradient check on a small sub-instance
        ng, dg = min(nn, 8), min(dd, 4)
        tg = linattn.AttentionTensors(q=t.q[:ng, :dg], k=t.k[:ng, :dg], v=t.v[:ng, :dg])
        upstream = rng.standard_normal((ng, dg))
        grads = linattn.linear_attention_backward(tg, upstream)
        dq = -grads.dq if inject_fault else grads.dq
        step = 1e-5
        for analytic, attr in ((dq, "q"), (grads.dk, "k"), (grads.dv, "v")):
            base = {"q": tg.q.copy(), "k": tg.k.copy(), "v": tg.v.copy()}
            numeric = np.zeros_like(analytic)
            for idx in np.ndindex(analytic.shape):
                for sign in (1, -1):
                    pert = {key: m.copy() for key, m in base.items()}
                    pert[attr][idx] += sign * step
                    val = float(
                        (upstream * linattn.linear_attention(
                            linattn.AttentionTensors(**pert)
                        ).out).sum()
                    )
                    numeric[idx] += sign * val
                numeric[idx] /= 2 * step
            scale = max(float(np.abs(numeric).max()), 1.0)
            err_grad = max(err_grad, float(np.abs(analytic - numeric).max()) / scale)

    yield "weight_rows_sum_to_one", err_rowsum, 1e-9
    yield "factored_equals_unfactored", err_factored, 1e-12
    yield "permutation_equivariance", err_perm, 1e-12
    yield "output_in_value_convex_hull", err_hull, 1e-9
    yield "analytic_gradient_vs_finite_difference", err_grad, 1e-5


def cmd_attn_check(args) -> int:
    if min(args.n, args.d, args.trials) < 1:
        _progress("error: n, d and trials must be >= 1")
        return EXIT_USAGE
    if args.n > 4096:
        _progress("error: n capped at 4096 for unfactored comparisons")
        return EXIT_USAGE
    failed = []
    for name, err, tol in _attn_checks(
        args.n, args.d, args.seed, args.trials, args.inject_gradient_fault
    ):
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
    except ValueError as exc:
        _progress(f"error: {exc}")
        return EXIT_IO
    mean_dice = float(np.mean(dices))
    result = {
        "n": fit.n,
        "slope": fit.slope,
        "intercept": fit.intercept,
        "r2": fit.r2,
        "mean_abs_vpe": float(np.mean(abs_vpes)) if abs_vpes else None,
        "mean_dice": mean_dice,
    }
    if mean_dice > 0 and abs_vpes:
        bound = avpe_bound(mean_dice)
        result["avpe_bound"] = bound
        result["avpe_bound_satisfied"] = bool(result["mean_abs_vpe"] <= bound + _AUDIT_TOL)
    with _output(args.out) as f:
        f.write(_dump_json(result))
    return EXIT_OK


# --- argument parsing ---------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="volkit",
        description="Volumetric mask evaluation, Dice/volume-error bound auditing, "
        "and linear-attention verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common_dataset_args(p):
        p.add_argument("--threshold", type=float, default=0.5,
                       help="binarization threshold for non-binary inputs (default 0.5)")
        p.add_argument("--jobs", type=int, default=1, help="worker processes (1 = serial)")
        p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("eval", help="evaluate predicted masks against ground truth")
    p.add_argument("pred_dir")
    p.add_argument("gt_dir")
    p.add_argument("--group", default="all", help="cohort group label")
    common_dataset_args(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("agree", help="inter-rater agreement (dice + Cohen's kappa)")
    p.add_argument("rater_a_dir")
    p.add_argument("rater_b_dir")
    common_dataset_args(p)
    p.set_defaults(func=cmd_agree)

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
    p.add_argument("--inject-gradient-fault", action="store_true",
                   help="test hook: flip the sign of dQ so the gradient check fails")
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
