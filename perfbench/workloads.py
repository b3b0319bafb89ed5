"""Seeded input generators, CLI command lists and output checks for each workload.

A workload is prepared once per benchmark run: its inputs are generated from
the seed (untimed), and every command it returns carries a check that
verifies that command's outputs against values this module computes on its
own, from the arrays it generated. volkit itself only ever sees the files.
"""

from __future__ import annotations

import csv
import gzip
import json
import math
import struct
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np
from scipy import ndimage
from scipy.spatial import cKDTree

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
GOLDEN_SUMMARY = TESTS / "golden" / "phantom_summary.json"
# The program, the phantom recipe, the brute-force oracles and the golden summary.
REQUIRED = (SRC / "volkit" / "cli.py", TESTS / "phantom.py", TESTS / "oracles.py", GOLDEN_SUMMARY)

for _p in (str(SRC), str(TESTS)):
    if _p not in sys.path:
        sys.path.insert(0, _p)

# CSV cells carry 6 significant digits (relative rounding error <= 5e-6). The references
# (brute-force pairs, cKDTree queries, exact counts) differ from volkit's own arithmetic
# by about 1e-13 relative, far inside both tolerances.
CSV_RTOL = 1e-5
# summary.json keeps full precision.
JSON_RTOL = 1e-9

CT_DIMS = (256, 256, 160)
# NIfTI stores pixdim as float32; the references use the spacing volkit reads back.
CT_SPACING = tuple(float(np.float32(s)) for s in (0.8, 0.8, 1.5))
CT_FG_FRAC = 0.02
ATTN_D = 64
ATTN_LINEAR_N = (16384, 65536, 262144)
ATTN_QUADRATIC_N = (1024, 2048, 4096)
ATTN_REPEATS = 3


@dataclass
class Check:
    """Outcome of one command's output check."""

    failed_cases: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, msg: str, case: bool = True):
        self.problems.append(msg)
        self.failed_cases += int(case)


@dataclass
class Command:
    """One volkit CLI invocation and the check of what it wrote."""

    argv: list[str]
    cases: int  # cases (attn-bench rows) it produces; 0 for commands that do not process cases
    check: Callable[[], Check]

    @property
    def name(self) -> str:
        return self.argv[0]


@dataclass
class Prepared:
    commands: list[Command]
    inputs: dict  # provenance of the generated inputs


# --- NIfTI files written and read without volkit --------------------------


def nifti_bytes(data: np.ndarray, spacing) -> bytes:
    """Single-file little-endian NIfTI-1: 348-byte header, 4 pad bytes, x-fastest voxels."""
    code, bitpix = {"uint8": (2, 8), "float32": (16, 32)}[data.dtype.name]
    header = bytearray(348)
    struct.pack_into("<i", header, 0, 348)
    struct.pack_into("<8h", header, 40, 3, *data.shape, 1, 1, 1, 1)
    struct.pack_into("<2h", header, 70, code, bitpix)
    struct.pack_into("<8f", header, 76, 1.0, *spacing, 0.0, 0.0, 0.0, 0.0)
    struct.pack_into("<f", header, 108, 352.0)
    struct.pack_into("<2f", header, 112, 1.0, 0.0)
    header[344:348] = b"n+1\x00"
    payload = data.astype(data.dtype.newbyteorder("<"), copy=False).tobytes(order="F")
    return bytes(header) + bytes(4) + payload


def read_uint8_nifti(path) -> np.ndarray:
    raw = Path(path).read_bytes()
    if raw[:2] == b"\x1f\x8b":
        raw = gzip.decompress(raw)
    dims = struct.unpack_from("<3h", raw, 42)
    return np.frombuffer(raw, dtype=np.uint8, offset=352).reshape(dims, order="F")


# --- independent reference values -----------------------------------------


def region_reference(pred: np.ndarray, gt: np.ndarray, spacing) -> dict:
    p, g = pred.astype(bool), gt.astype(bool)
    tp = int(np.count_nonzero(p & g))
    n_p, n_g = int(np.count_nonzero(p)), int(np.count_nonzero(g))
    voxel_ml = math.prod(spacing) / 1000.0
    return {
        "dice": 2 * tp / (n_p + n_g),
        "jaccard": tp / (n_p + n_g - tp),
        "pred_ml": n_p * voxel_ml,
        "gt_ml": n_g * voxel_ml,
    }


def kappa_reference(a: np.ndarray, b: np.ndarray) -> float:
    """Cohen's kappa from observed and chance agreement, in exact rationals."""
    a, b = a.astype(bool), b.astype(bool)
    n = a.size
    p_o = Fraction(int(np.count_nonzero(a == b)), n)
    pa, pb = Fraction(int(np.count_nonzero(a)), n), Fraction(int(np.count_nonzero(b)), n)
    p_e = pa * pb + (1 - pa) * (1 - pb)
    return float((p_o - p_e) / (1 - p_e))


def _bbox(mask: np.ndarray) -> list[tuple[int, int]]:
    """Per axis, the first and one-past-last index holding foreground."""
    box = []
    for ax in range(3):
        idx = np.flatnonzero(mask.any(axis=tuple(a for a in range(3) if a != ax)))
        box.append((int(idx[0]), int(idx[-1]) + 1))
    return box


def surface_points(mask: np.ndarray, spacing) -> np.ndarray:
    """Physical coordinates of 6-connectivity surface voxels (grid border = background)."""
    fg = mask.astype(bool)
    # Erode a crop with a one-voxel margin; where the crop meets the grid border,
    # border_value=0 makes the border count as background, as on the full grid.
    lo = [max(a - 1, 0) for a, _ in _bbox(fg)]
    hi = [b + 1 for _, b in _bbox(fg)]
    box = fg[lo[0]:hi[0], lo[1]:hi[1], lo[2]:hi[2]]
    cross = ndimage.generate_binary_structure(3, 1)
    surface = box & ~ndimage.binary_erosion(box, structure=cross, border_value=0)
    return (np.argwhere(surface) + lo) * np.asarray(spacing, dtype=np.float64)


def kdtree_boundary_reference(pred: np.ndarray, gt: np.ndarray, spacing) -> tuple[float, float]:
    """HD95 and ASSD from nearest-surface queries, pooled over both directions."""
    sp, sg = surface_points(pred, spacing), surface_points(gt, spacing)
    pooled = np.concatenate([cKDTree(sg).query(sp)[0], cKDTree(sp).query(sg)[0]])
    return float(np.percentile(pooled, 95)), float(pooled.mean())


def union_bbox_fraction(a: np.ndarray, b: np.ndarray) -> float:
    union = a.astype(bool) | b.astype(bool)
    return math.prod(hi - lo for lo, hi in _bbox(union)) / union.size


def _close(got: float, want: float, rtol: float) -> bool:
    return abs(got - want) <= rtol * abs(want) + 1e-12


def _cell(row: dict, key: str):
    try:
        return float(row.get(key) or "")
    except ValueError:
        return None


def _read_csv(path: Path) -> list[dict] | None:
    try:
        with open(path, newline="") as f:
            return list(csv.DictReader(f))
    except OSError:
        return None


def _read_json(path: Path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def _check_case_rows(check: Check, csv_path: Path, summary_path: Path, expected: dict):
    """Compare per-case CSV rows (and the summary's failed_cases) with reference values,
    column by column for every key of the references."""
    rows = _read_csv(csv_path)
    summary = _read_json(summary_path)
    if rows is None or summary is None:
        check.fail(f"missing or unreadable {csv_path.name}/{summary_path.name}", case=False)
        check.failed_cases += len(expected)
        return None
    by_id = {r.get("case_id"): r for r in rows}
    failed_listed = set(summary.get("failed_cases", []))
    for cid, ref in expected.items():
        row = by_id.get(cid)
        if row is None or cid in failed_listed:
            check.fail(f"case {cid} missing from {csv_path.name} or listed as failed")
            continue
        bad = [col for col, want in ref.items()
               if _cell(row, col) is None or not _close(_cell(row, col), want, CSV_RTOL)]
        if bad:
            check.fail(f"case {cid}: {', '.join(f'{c}={row.get(c)!r} want {ref[c]:.9g}' for c in bad)}")
    if summary.get("n_cases") != len(expected):
        check.fail(f"summary n_cases={summary.get('n_cases')} want {len(expected)}", case=False)
    return summary


def _check_means(check: Check, label: str, got, values: list[float]):
    want = float(np.mean(values))
    if not isinstance(got, (int, float)) or not _close(got, want, JSON_RTOL):
        check.fail(f"summary {label} mean {got!r} want {want!r}", case=False)


def eval_check(out: Path, expected: dict) -> Check:
    check = Check()
    summary = _check_case_rows(check, out / "cases.csv", out / "summary.json", expected)
    if summary is not None and not check.problems:
        metrics = summary["report"]["groups"]["all"]["metrics"]
        for key in ("dice", "hd95_mm", "assd_mm"):
            _check_means(check, key, metrics[key]["mean"], [ref[key] for ref in expected.values()])
    return check


def agree_check(out: Path, expected: dict) -> Check:
    check = Check()
    summary = _check_case_rows(check, out / "agreement.csv", out / "summary.json", expected)
    if summary is not None and not check.problems:
        for key in ("dice", "kappa"):
            _check_means(check, key, summary[key]["mean"], [ref[key] for ref in expected.values()])
    return check


def audit_check(path: Path, n_cases: int) -> Check:
    check = Check()
    audit = _read_json(path)
    if audit is None:
        check.fail(f"missing or unreadable {path.name}", case=False)
    elif audit.get("violations") != [] or audit.get("checked") != n_cases:
        check.fail(f"audit checked={audit.get('checked')} violations={audit.get('violations')!r}", case=False)
    return check


def volume_check(path: Path, cases_csv: Path, n_cases: int) -> Check:
    check = Check()
    result, rows = _read_json(path), _read_csv(cases_csv)
    if result is None or rows is None:
        check.fail(f"missing or unreadable {path.name}", case=False)
        return check
    gt = np.array([float(r["gt_ml"]) for r in rows])
    pred = np.array([float(r["pred_ml"]) for r in rows])
    slope, intercept = np.polyfit(gt, pred, 1)
    want = {"n": n_cases, "slope": slope, "intercept": intercept,
            "r2": float(np.corrcoef(gt, pred)[0, 1] ** 2),
            "mean_dice": float(np.mean([float(r["dice"]) for r in rows]))}
    for key, value in want.items():
        got = result.get(key)
        if not isinstance(got, (int, float)) or not _close(got, value, 1e-6):
            check.fail(f"volume {key}={got!r} want {value!r}", case=False)
    if result.get("avpe_bound_satisfied") is not True:
        check.fail("volume: cohort |vpe| above the Dice bound", case=False)
    return check


def attn_check(path: Path, variant: str, n_list) -> Check:
    from volkit.linattn import attention_cost

    check = Check()
    rows = _read_csv(path)
    if rows is None:
        check.fail(f"missing or unreadable {path.name}", case=False)
        check.failed_cases += len(n_list)
        return check
    for n in n_list:
        row = next((r for r in rows if r["n"] == str(n) and r["variant"] == variant), None)
        if row is None:
            check.fail(f"attn-bench row n={n} {variant} missing")
            continue
        want = attention_cost(n, ATTN_D, variant)
        seconds = float(row["median_seconds"])
        if row["d"] != str(ATTN_D) or row["flops"] != str(want) or not 0 < seconds < math.inf:
            check.fail(f"attn-bench row {row} (want flops {want})")
    slope = next((r for r in rows if r["n"] == "slope" and r["variant"] == variant), None)
    if slope is None or not math.isfinite(float(slope["median_seconds"])):
        check.fail(f"attn-bench slope row for {variant} missing", case=False)
    return check


def attn_rows(path: Path) -> list[dict]:
    """The attn-bench CSV as records (n, d, variant, median_seconds, flops; slope rows have no flops)."""
    out = []
    for r in _read_csv(path) or []:
        rec = {"n": r["n"] if r["n"] == "slope" else int(r["n"]), "d": int(r["d"]),
               "variant": r["variant"], "median_seconds": float(r["median_seconds"])}
        if r["flops"]:
            rec["flops"] = int(r["flops"])
        out.append(rec)
    return out


# --- generators -------------------------------------------------------------


def ellipsoid_pair(rng, dims, fg_frac):
    """Centre and radii (voxels) of a ground-truth ellipsoid holding about ``fg_frac``
    of the grid, and of a prediction shifted by up to 4 voxels and rescaled by up to 5%."""
    shape = np.asarray(dims, dtype=np.float64)
    radii = shape * (3 * fg_frac / (4 * np.pi)) ** (1 / 3) * rng.uniform(0.9, 1.1, 3)
    centre = shape / 2 + rng.uniform(-0.08, 0.08, 3) * shape
    pred = (centre + rng.uniform(-4, 4, 3), radii * rng.uniform(0.95, 1.05, 3))
    return (centre, radii), pred


def _radius2(dims, centre, radii, dtype):
    axes = np.ogrid[: dims[0], : dims[1], : dims[2]]
    return sum(((ax - c) / r).astype(dtype) ** 2 for ax, c, r in zip(axes, centre, radii))


def ellipsoid_mask(dims, centre, radii) -> np.ndarray:
    return (_radius2(dims, centre, radii, np.float64) <= 1.0).astype(np.uint8)


def ellipsoid_probability(dims, centre, radii) -> np.ndarray:
    """Sigmoid ramp across the boundary, about 1.5 voxels wide, as float32."""
    depth = (1 - np.sqrt(_radius2(dims, centre, radii, np.float32))) * np.float32(np.mean(radii))
    with np.errstate(over="ignore"):  # far outside, exp overflows to inf and the map to 0
        return (1 / (1 + np.exp(-depth / np.float32(1.5)))).astype(np.float32)


def _write(path: Path, data: np.ndarray, spacing, compress: bool):
    blob = nifti_bytes(data, spacing)
    path.write_bytes(gzip.compress(blob, compresslevel=6, mtime=0) if compress else blob)


def _pair_dirs(root: Path, a: str, b: str):
    dirs = (root / a, root / b)
    for d in dirs:
        d.mkdir(parents=True, exist_ok=True)
    return dirs


def _masks_provenance(pairs, dims, spacing, dtype, compression, seed) -> dict:
    return {
        "dims": list(dims),
        "spacing_mm": list(spacing),
        "dtype": dtype,
        "compression": compression,
        "seed": seed,
        "cases": len(pairs),
        "foreground_frac": float(np.mean([m.mean() for pair in pairs for m in pair])),
        "union_bbox_frac": float(np.mean([union_bbox_fraction(a, b) for a, b in pairs])),
    }


def small_cohort(seed: int, work: Path, n_cases: int = 400) -> Prepared:
    import oracles
    import phantom

    pred_dir, gt_dir = phantom.generate_phantom_dataset(work / "inputs", n_cases=n_cases, seed=seed)
    out = work / "out"
    expected, pairs = {}, []
    for gt_path in sorted(gt_dir.glob("*.nii")):
        pred, gt = read_uint8_nifti(pred_dir / gt_path.name), read_uint8_nifti(gt_path)
        hd95, assd = oracles.brute_boundary_metrics(pred, gt, phantom.SPACING)
        expected[gt_path.name[: -len(".nii")]] = {
            **region_reference(pred, gt, phantom.SPACING), "hd95_mm": hd95, "assd_mm": assd}
        pairs.append((pred, gt))
    cases_csv = out / "cases.csv"
    commands = [
        Command(["eval", str(pred_dir), str(gt_dir), "--out", str(out), "--jobs", "1"], n_cases,
                lambda: eval_check(out, expected)),
        Command(["bounds", "--audit", str(cases_csv), "--out", str(out / "audit.json")], 0,
                lambda: audit_check(out / "audit.json", n_cases)),
        Command(["volume", str(cases_csv), "--out", str(out / "volume.json")], 0,
                lambda: volume_check(out / "volume.json", cases_csv, n_cases)),
    ]
    inputs = _masks_provenance(pairs, phantom.DIMS, phantom.SPACING, "uint8", "none", seed)
    return Prepared(commands, inputs)


def ct_eval(seed: int, work: Path, n_cases: int = 1, dims=CT_DIMS) -> Prepared:
    pred_dir, gt_dir = _pair_dirs(work / "inputs", "pred", "gt")
    out = work / "out"
    rng = np.random.default_rng(seed)
    expected, pairs = {}, []
    for i in range(n_cases):
        (gc, gr), (pc, pr) = ellipsoid_pair(rng, dims, CT_FG_FRAC)
        gt, pred = ellipsoid_mask(dims, gc, gr), ellipsoid_mask(dims, pc, pr)
        cid = f"ct{i:03d}"
        _write(gt_dir / f"{cid}.nii.gz", gt, CT_SPACING, compress=True)
        _write(pred_dir / f"{cid}.nii.gz", pred, CT_SPACING, compress=True)
        hd95, assd = kdtree_boundary_reference(pred, gt, CT_SPACING)
        expected[cid] = {**region_reference(pred, gt, CT_SPACING), "hd95_mm": hd95, "assd_mm": assd}
        pairs.append((pred, gt))
    commands = [Command(["eval", str(pred_dir), str(gt_dir), "--out", str(out), "--jobs", "1"],
                        n_cases, lambda: eval_check(out, expected))]
    return Prepared(commands, _masks_provenance(pairs, dims, CT_SPACING, "uint8", "gzip", seed))


def prob_agree(seed: int, work: Path, n_cases: int = 3, dims=CT_DIMS) -> Prepared:
    a_dir, b_dir = _pair_dirs(work / "inputs", "rater_a", "rater_b")
    out = work / "out"
    rng = np.random.default_rng(seed)
    expected, pairs = {}, []
    for i in range(n_cases):
        (ac, ar), (bc, br) = ellipsoid_pair(rng, dims, CT_FG_FRAC)
        a, b = ellipsoid_probability(dims, ac, ar), ellipsoid_probability(dims, bc, br)
        cid = f"pa{i:03d}"
        _write(a_dir / f"{cid}.nii", a, CT_SPACING, compress=False)
        _write(b_dir / f"{cid}.nii", b, CT_SPACING, compress=False)
        ma, mb = a > 0.5, b > 0.5  # what `--threshold 0.5` keeps
        expected[cid] = {"dice": region_reference(ma, mb, CT_SPACING)["dice"], "kappa": kappa_reference(ma, mb)}
        pairs.append((ma, mb))
    commands = [Command(["agree", str(a_dir), str(b_dir), "--out", str(out), "--jobs", "1"],
                        n_cases, lambda: agree_check(out, expected))]
    return Prepared(commands, _masks_provenance(pairs, dims, CT_SPACING, "float32", "none", seed))


def attn_scaling(seed: int, work: Path, linear_n=ATTN_LINEAR_N, quadratic_n=ATTN_QUADRATIC_N) -> Prepared:
    out = work / "out"
    out.mkdir(parents=True, exist_ok=True)
    commands = []
    for variant, n_list in (("linear", linear_n), ("quadratic", quadratic_n)):
        path = out / f"attn_{variant}.csv"
        argv = ["attn-bench", "--variant", variant, "--n-list", ",".join(map(str, n_list)),
                "--d", str(ATTN_D), "--repeats", str(ATTN_REPEATS), "--seed", str(seed), "--out", str(path)]
        commands.append(Command(argv, len(n_list), lambda p=path, v=variant, ns=n_list: attn_check(p, v, ns)))
    inputs = {"d": ATTN_D, "linear_n": list(linear_n), "quadratic_n": list(quadratic_n),
              "repeats": ATTN_REPEATS, "dtype": "float32", "seed": seed}
    return Prepared(commands, inputs)


def ct_volume(seed: int, work: Path, dims=CT_DIMS, linear_n=ATTN_LINEAR_N,
              quadratic_n=ATTN_QUADRATIC_N) -> Prepared:
    """Large-array work in one loop: ``eval`` of a gzipped uint8 CT mask pair, ``agree`` of
    two float32 probability-map pairs with the same geometry, then ``attn-bench``."""
    parts = {"eval": ct_eval(seed, work / "eval", n_cases=1, dims=dims),
             "agree": prob_agree(seed, work / "agree", n_cases=2, dims=dims),
             "attn": attn_scaling(seed, work / "attn", linear_n, quadratic_n)}
    return Prepared([cmd for part in parts.values() for cmd in part.commands],
                    {key: part.inputs for key, part in parts.items()})


# The reason each workload was chosen is its "why" in BENCHMARK.json.
WORKLOADS = {"small-cohort": small_cohort, "ct-volume": ct_volume}


# --- the golden phantom gate ----------------------------------------------


def golden_gate(work: Path, main) -> tuple[int, int, list[str]]:
    """Seed-2024 phantom: summary.json byte-for-byte equal to the golden file, zero audit violations.

    ``main`` is the CLI entry point (run in-process). Returns (attempted, failed, problems),
    counting the 20 cases and the two commands as operations.
    """
    import phantom

    pred_dir, gt_dir = phantom.generate_phantom_dataset(work / "golden", n_cases=20, seed=2024)
    out = work / "golden" / "out"
    problems = []
    failed = 0
    summary = out / "summary.json"
    code = main(["eval", str(pred_dir), str(gt_dir), "--out", str(out), "--jobs", "1"])
    if code != 0 or not summary.exists() or summary.read_bytes() != GOLDEN_SUMMARY.read_bytes():
        problems.append("golden phantom summary.json differs from tests/golden/phantom_summary.json")
        failed += 1 + 20
    audit = out / "audit.json"
    code = main(["bounds", "--audit", str(out / "cases.csv"), "--out", str(audit)])
    if code != 0 or (_read_json(audit) or {}).get("violations") != []:
        problems.append("golden phantom bounds --audit reports violations")
        failed += 1
    return 22, failed, problems
