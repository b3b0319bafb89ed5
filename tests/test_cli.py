import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import make_mask
from phantom import generate_phantom_dataset
import volkit
from volkit.cli import EXIT_CHECK, EXIT_IO, EXIT_OK, EXIT_PARTIAL, EXIT_USAGE, WORKER_MEM_ENV, _fmt, main
from volkit.volbounds import BOUND_CURVE_CSV_HEADER, bound_curve
from volkit.volgrid import VolumeGrid, write_nifti


def write_mask_pair(tmp_path, name, pred_data, gt_data, spacing=(1.0, 1.0, 1.0)):
    pred_dir = tmp_path / "pred"
    gt_dir = tmp_path / "gt"
    pred_dir.mkdir(exist_ok=True)
    gt_dir.mkdir(exist_ok=True)
    write_nifti(VolumeGrid(data=np.asarray(pred_data, dtype=np.uint8), spacing=spacing), pred_dir / name)
    write_nifti(VolumeGrid(data=np.asarray(gt_data, dtype=np.uint8), spacing=spacing), gt_dir / name)
    return pred_dir, gt_dir


def two_case_dataset(tmp_path):
    """Two hand-checked cases: one perfect, one the tp=3/fp=3/fn=1 fixture."""
    perfect = np.zeros((3, 3, 1), dtype=np.uint8)
    perfect[1, :, 0] = 1
    pred2 = np.zeros((3, 3, 1), dtype=np.uint8)
    gt2 = np.zeros((3, 3, 1), dtype=np.uint8)
    pred2[0, :, 0] = 1
    pred2[1, :, 0] = 1
    gt2[1, :, 0] = 1
    gt2[2, 0, 0] = 1
    pred_dir, gt_dir = write_mask_pair(tmp_path, "alpha.nii", perfect, perfect)
    write_mask_pair(tmp_path, "beta.nii", pred2, gt2)
    return pred_dir, gt_dir


class TestEval:
    def test_perfect_dataset_summary(self, tmp_path):
        data = np.zeros((4, 4, 4), dtype=np.uint8)
        data[1:3, 1:3, 1:3] = 1
        pred_dir, gt_dir = write_mask_pair(tmp_path, "a.nii", data, data)
        write_mask_pair(tmp_path, "b.nii", data, data)
        out = tmp_path / "out"
        assert main(["eval", str(pred_dir), str(gt_dir), "--out", str(out)]) == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        metrics = summary["report"]["groups"]["all"]["metrics"]
        assert metrics["dice"]["mean"] == 1.0
        assert metrics["hd95_mm"]["mean"] == 0.0

    def test_two_case_golden_csv(self, tmp_path):
        pred_dir, gt_dir = two_case_dataset(tmp_path)
        out = tmp_path / "out"
        assert main(["eval", str(pred_dir), str(gt_dir), "--out", str(out)]) == EXIT_OK
        lines = (out / "cases.csv").read_text().splitlines()
        assert lines[0] == "case_id,dice,jaccard,precision,recall,hd95_mm,assd_mm,pred_ml,gt_ml,vpe"
        assert lines[1] == "alpha,1,1,1,1,0,0,0.003,0.003,0"
        assert lines[2] == "beta,0.6,0.428571,0.5,0.75,1,0.4,0.006,0.004,0.5"

    @pytest.mark.parametrize("command,csv_name", [("eval", "cases.csv"), ("agree", "agreement.csv")])
    def test_no_pairs_exit_code(self, tmp_path, command, csv_name):
        (tmp_path / "pred").mkdir()
        (tmp_path / "gt").mkdir()
        out = tmp_path / "out"
        assert main([command, str(tmp_path / "pred"), str(tmp_path / "gt"), "--out", str(out)]) == EXIT_IO
        assert not (out / csv_name).exists()

    @pytest.mark.parametrize("command", ["eval", "agree"])
    def test_partial_failure(self, tmp_path, command):
        pred_dir, gt_dir = two_case_dataset(tmp_path)
        (pred_dir / "broken.nii").write_bytes(b"not a nifti file at all")
        (gt_dir / "broken.nii").write_bytes(b"not a nifti file at all")
        out = tmp_path / "out"
        assert main([command, str(pred_dir), str(gt_dir), "--out", str(out)]) == EXIT_PARTIAL
        summary = json.loads((out / "summary.json").read_text())
        assert summary["failed_cases"] == ["broken"]
        assert summary["n_cases"] == 2

    @pytest.mark.parametrize("command,csv_name", [("eval", "cases.csv"), ("agree", "agreement.csv")])
    def test_parallel_matches_serial(self, tmp_path, command, csv_name):
        generate_phantom_dataset(tmp_path / "data", n_cases=6, seed=7)
        out1, out2 = tmp_path / "serial", tmp_path / "parallel"
        base = [str(tmp_path / "data" / "pred"), str(tmp_path / "data" / "gt")]
        assert main([command, *base, "--out", str(out1), "--jobs", "1"]) == EXIT_OK
        assert main([command, *base, "--out", str(out2), "--jobs", "3"]) == EXIT_OK
        assert (out1 / csv_name).read_bytes() == (out2 / csv_name).read_bytes()
        assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()

    @pytest.mark.parametrize("command,csv_name", [("eval", "cases.csv"), ("agree", "agreement.csv")])
    def test_rerun_where_every_case_fails_removes_old_summary(self, tmp_path, command, csv_name):
        pred_dir, gt_dir = two_case_dataset(tmp_path)
        out = tmp_path / "out"
        argv = [command, str(pred_dir), str(gt_dir), "--out", str(out)]
        assert main(argv) == EXIT_OK
        assert (out / "summary.json").exists()
        for path in (*pred_dir.iterdir(), *gt_dir.iterdir()):
            path.write_bytes(b"junk")
        assert main(argv) == EXIT_PARTIAL
        assert sorted(p.name for p in out.iterdir()) == [csv_name]
        assert len((out / csv_name).read_text().splitlines()) == 1

    def test_threshold_on_probability_maps(self, tmp_path):
        prob = np.full((3, 3, 3), 0.4, dtype=np.float32)
        prob[1, 1, 1] = 0.9
        gt = np.zeros((3, 3, 3), dtype=np.uint8)
        gt[1, 1, 1] = 1
        pred_dir = tmp_path / "pred"
        gt_dir = tmp_path / "gt"
        pred_dir.mkdir()
        gt_dir.mkdir()
        write_nifti(VolumeGrid(data=prob, spacing=(1, 1, 1)), pred_dir / "c.nii")
        write_nifti(VolumeGrid(data=gt, spacing=(1, 1, 1)), gt_dir / "c.nii")
        out = tmp_path / "out"
        assert main(["eval", str(pred_dir), str(gt_dir), "--out", str(out)]) == EXIT_OK
        with open(out / "cases.csv") as f:
            row = next(csv.DictReader(f))
        assert row["dice"] == "1"

    @pytest.mark.parametrize("command", ["eval", "agree"])
    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("value", ["lots", "1.5", "0"])
    def test_bad_worker_mem_is_usage_error(self, tmp_path, monkeypatch, capsys, command, jobs, value):
        pred_dir, gt_dir = two_case_dataset(tmp_path)
        monkeypatch.setenv(WORKER_MEM_ENV, value)
        out = tmp_path / "out"
        assert main([command, str(pred_dir), str(gt_dir), "--out", str(out), "--jobs", jobs]) == EXIT_USAGE
        assert WORKER_MEM_ENV in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "agree"])
    @pytest.mark.parametrize("flag,value", [
        ("--threshold", "nan"), ("--threshold", "inf"), ("--jobs", "0"), ("--jobs", "-3"),
    ])
    def test_bad_threshold_or_jobs_is_usage_error(self, tmp_path, capsys, command, flag, value):
        pred_dir, gt_dir = two_case_dataset(tmp_path)
        out = tmp_path / "out"
        assert main([command, str(pred_dir), str(gt_dir), "--out", str(out), flag, value]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert flag in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command,target", [("eval", "evaluate_case"), ("agree", "cohen_kappa")])
    def test_worker_memory_error_fails_only_that_case(self, tmp_path, monkeypatch, capsys, command, target):
        import volkit.cli as cli

        real = getattr(cli, target)
        calls = []

        def first_call_runs_out_of_memory(*args):
            calls.append(1)
            if len(calls) == 1:
                raise MemoryError("Unable to allocate 630. MiB")
            return real(*args)

        monkeypatch.setattr(cli, target, first_call_runs_out_of_memory)
        pred_dir, gt_dir = two_case_dataset(tmp_path)
        out = tmp_path / "out"
        assert main([command, str(pred_dir), str(gt_dir), "--out", str(out), "--jobs", "1"]) == EXIT_PARTIAL
        assert "case alpha: MemoryError" in capsys.readouterr().err
        summary = json.loads((out / "summary.json").read_text())
        assert summary["failed_cases"] == ["alpha"]
        assert summary["n_cases"] == 1
        csv_name = "cases.csv" if command == "eval" else "agreement.csv"
        rows = (out / csv_name).read_text().splitlines()
        assert [r.split(",")[0] for r in rows[1:]] == ["beta"]


class TestAgree:
    def test_identical_raters(self, tmp_path):
        data = np.zeros((4, 4, 4), dtype=np.uint8)
        data[1:3, 1:3, 1:3] = 1
        a_dir, b_dir = write_mask_pair(tmp_path, "r.nii", data, data)
        out = tmp_path / "out"
        assert main(["agree", str(a_dir), str(b_dir), "--out", str(out)]) == EXIT_OK
        lines = (out / "agreement.csv").read_text().splitlines()
        assert lines[1] == "r,1,1"

    def test_kappa_fixture_row(self, tmp_path):
        a = np.array([1, 1, 1, 1, 1, 0, 0, 0, 0, 0], dtype=np.uint8).reshape(10, 1, 1)
        b = np.array([1, 1, 1, 1, 0, 1, 0, 0, 0, 0], dtype=np.uint8).reshape(10, 1, 1)
        a_dir, b_dir = write_mask_pair(tmp_path, "k.nii", a, b)
        out = tmp_path / "out"
        assert main(["agree", str(a_dir), str(b_dir), "--out", str(out)]) == EXIT_OK
        with open(out / "agreement.csv") as f:
            row = next(csv.DictReader(f))
        assert float(row["kappa"]) == pytest.approx(0.6)
        assert float(row["dice"]) == pytest.approx(0.8, abs=1e-5)

    def test_complement_raters_kappa_near_minus_one(self, tmp_path):
        data = np.zeros((10, 10, 10), dtype=np.uint8)
        data[:5] = 1
        a_dir, b_dir = write_mask_pair(tmp_path, "c.nii", data, 1 - data)
        out = tmp_path / "out"
        assert main(["agree", str(a_dir), str(b_dir), "--out", str(out)]) == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["kappa"]["mean"] == pytest.approx(-1.0)


class TestBounds:
    def test_curve_anchor_row(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        assert main(["bounds", "--curve", "0.94", "0.94", "0.01", "--out", str(out)]) == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "dice,vpe_lower,vpe_upper,abs_lower,abs_upper"
        cells = lines[1].split(",")
        assert float(cells[2]) == pytest.approx(0.12766, abs=1e-5)
        assert float(cells[1]) == pytest.approx(-0.11321, abs=1e-5)

    def test_curve_to_stdout_leaves_it_open(self, tmp_path, capsys):
        path = tmp_path / "curve.csv"
        args = ["bounds", "--curve", "0.5", "0.9", "0.1"]
        assert main([*args, "--out", str(path)]) == EXIT_OK
        assert main([*args, "--out", "-"]) == EXIT_OK
        assert not sys.stdout.closed
        assert capsys.readouterr().out == path.read_text()
        assert path.read_text().startswith("dice,vpe_lower,")

    def test_curve_grid_is_numpy_arange(self, monkeypatch, capsys):
        import volkit.cli as cli

        grids = []
        monkeypatch.setattr(cli, "bound_curve", lambda grid: grids.append(grid) or bound_curve(grid))
        rng = np.random.default_rng(23)
        lows = rng.uniform(1e-3, 1.0, 150)
        triples = [(lo, rng.uniform(lo, 1.0), rng.uniform(1e-3, 0.3)) for lo in lows.tolist()]
        triples += [(0.05, 1.0, 0.01), (0.1, 1.0, 0.1), (0.5, 1.0, 0.25), (0.3, 0.9, 0.7),
                    (1.0, 1.0, 0.5), (0.001, 1.0, 0.003), (0.94, 0.94, 0.01)]
        for lo, hi, step in triples:
            # values within 1e-12 above 1.0 (0.05..1 by 0.01 ends at 1.0000000000000002) read as 1.0
            want = [min(x, 1.0) for x in np.arange(lo, hi + step * 0.5, step).tolist() if x <= 1.0 + 1e-12]
            argv = ["bounds", "--curve", *(repr(float(x)) for x in (lo, hi, step)), "--out", "-"]
            assert main(argv) == EXIT_OK
            assert grids.pop() == want, (lo, hi, step)
            assert capsys.readouterr().out == BOUND_CURVE_CSV_HEADER + "\n" + "".join(
                f"{_fmt(r['dice'])},{_fmt(r['vpe_lower'])},{_fmt(r['vpe_upper'])},"
                f"{_fmt(r['abs_lower'])},{_fmt(r['abs_upper'])}\n"
                for r in bound_curve(want)
            )

    def test_bad_step_usage_error(self, tmp_path):
        assert main(["bounds", "--curve", "0.5", "0.9", "0"]) == EXIT_USAGE

    def test_audit_of_eval_output(self, tmp_path):
        pred_dir, gt_dir = two_case_dataset(tmp_path)
        out = tmp_path / "out"
        assert main(["eval", str(pred_dir), str(gt_dir), "--out", str(out)]) == EXIT_OK
        report_path = tmp_path / "audit.json"
        code = main(["bounds", "--audit", str(out / "cases.csv"), "--out", str(report_path)])
        assert code == EXIT_OK
        report = json.loads(report_path.read_text())
        assert report["violations"] == []
        assert report["checked"] == 2

    def test_audit_flags_inconsistent_rows(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text(
            "case_id,dice,jaccard,precision,recall,hd95_mm,assd_mm,pred_ml,gt_ml,vpe\n"
            "x,0.9,0.81,1,1,0,0,5,1,4\n"
        )
        assert main(["bounds", "--audit", str(bad), "--out", str(tmp_path / "a.json")]) == EXIT_CHECK

    def test_audit_malformed_csv(self, tmp_path):
        bad = tmp_path / "junk.csv"
        bad.write_text("foo,bar\n1,2\n")
        assert main(["bounds", "--audit", str(bad), "--out", "-"]) == EXIT_IO

    def test_audit_non_numeric_cell(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text(
            "case_id,dice,jaccard,precision,recall,hd95_mm,assd_mm,pred_ml,gt_ml,vpe\n"
            "ok,0.9,0.81,1,1,0,0,1.1,1,0.1\n"
            "broken,0.9x,0.81,1,1,0,0,1.1,1,0.1\n"
        )
        report = tmp_path / "a.json"
        assert main(["bounds", "--audit", str(bad), "--out", str(report)]) == EXIT_IO
        err = capsys.readouterr().err
        assert "row 3" in err and "broken" in err and "Traceback" not in err
        assert not report.exists()

    @pytest.mark.parametrize("dice,vpe", [
        ("nan", "0.1"), ("1.5", "0.1"), ("-0.2", "0.1"), ("inf", "0.1"), ("0.9", "nan"), ("0.9", "-inf"),
    ])
    def test_audit_non_finite_or_out_of_range_cell(self, tmp_path, capsys, dice, vpe):
        bad = tmp_path / "bad.csv"
        bad.write_text(
            "case_id,dice,jaccard,precision,recall,hd95_mm,assd_mm,pred_ml,gt_ml,vpe\n"
            "ok,0.9,0.81,1,1,0,0,1.1,1,0.1\n"
            f"hostile,{dice},0.81,1,1,0,0,1.1,1,{vpe}\n"
        )
        report = tmp_path / "a.json"
        assert main(["bounds", "--audit", str(bad), "--out", str(report)]) == EXIT_IO
        err = capsys.readouterr().err
        assert "row 3" in err and "hostile" in err and "Traceback" not in err
        assert not report.exists()

    def test_audit_csv_not_utf8(self, tmp_path, capsys):
        bad = tmp_path / "latin1.csv"
        bad.write_bytes(
            b"case_id,dice,jaccard,precision,recall,hd95_mm,assd_mm,pred_ml,gt_ml,vpe\n"
            b"caf\xff,0.9,0.81,1,1,0,0,1.1,1,0.1\n"
        )
        report = tmp_path / "a.json"
        assert main(["bounds", "--audit", str(bad), "--out", str(report)]) == EXIT_IO
        err = capsys.readouterr().err
        assert str(bad) in err and "Traceback" not in err
        assert not report.exists()


class TestAttnCheck:
    def test_default_run_passes(self):
        assert main(["attn-check", "--n", "16", "--d", "6", "--trials", "3"]) == EXIT_OK

    def test_n_equals_one(self):
        assert main(["attn-check", "--n", "1", "--d", "1", "--trials", "2"]) == EXIT_OK

    def test_injected_fault_fails_gradient_check(self, monkeypatch, capsys):
        from volkit import linattn

        real = linattn.linear_attention_backward

        def negated_dq(t, upstream):
            grads = real(t, upstream)
            return linattn.AttentionGradients(dq=-grads.dq, dk=grads.dk, dv=grads.dv)

        monkeypatch.setattr(linattn, "linear_attention_backward", negated_dq)
        assert main(["attn-check", "--n", "8", "--d", "4", "--trials", "2"]) == EXIT_CHECK
        assert "failing checks: analytic_gradient_vs_finite_difference\n" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--n", "--d", "--trials"])
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_non_positive_size_is_usage_error(self, capsys, flag, value):
        # --trials 0 used to report every check as PASS after checking nothing
        assert main(["attn-check", "--n", "8", "--d", "4", "--trials", "2", flag, value]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert flag.lstrip("-") in err and "PASS" not in err and "Traceback" not in err


class TestAttnBench:
    def test_csv_shape_and_flops(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert main(
            ["attn-bench", "--n-list", "64,128", "--d", "8", "--repeats", "3", "--out", str(out)]
        ) == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "n,d,variant,median_seconds,flops"
        data_rows = [l for l in lines[1:] if not l.startswith("slope")]
        slope_rows = [l for l in lines[1:] if l.startswith("slope")]
        assert len(data_rows) == 4
        assert len(slope_rows) == 2
        from volkit.linattn import attention_cost

        for row in data_rows:
            n, d, variant, _, flops = row.split(",")
            assert int(flops) == attention_cost(int(n), int(d), variant)

    @pytest.mark.parametrize("args", [
        ["--n-list", "64,abc"],
        ["--n-list", "0"],
        ["--n-list", "64,-8"],
        ["--n-list", ","],
        ["--d", "0"],
    ])
    def test_bad_size_is_usage_error(self, tmp_path, capsys, args):
        out = tmp_path / "bench.csv"
        assert main(["attn-bench", "--n-list", "64", "--d", "8", *args, "--out", str(out)]) == EXIT_USAGE
        assert "Traceback" not in capsys.readouterr().err
        assert not out.exists()


class TestVolume:
    @pytest.mark.parametrize("n", [2, 7, 9, 400])
    def test_agrees_with_numpy_expressions(self, tmp_path, n):
        rng = np.random.default_rng(100 + n)
        gt = rng.uniform(20.0, 120.0, n)
        pred = 0.9 * gt + 4.0 + rng.normal(0.0, 6.0, n)
        dice = rng.uniform(0.6, 0.95, n)
        rows = ["case_id,dice,jaccard,precision,recall,hd95_mm,assd_mm,pred_ml,gt_ml,vpe"]
        rows += [f"c{i},{d:.6g},,,,,,{p:.6g},{g:.6g},{p / g - 1:.6g}"
                 for i, (d, p, g) in enumerate(zip(dice, pred, gt))]
        path = tmp_path / "cases.csv"
        path.write_text("\n".join(rows) + "\n")
        out = tmp_path / "vol.json"
        assert main(["volume", str(path), "--out", str(out)]) == EXIT_OK
        result = json.loads(out.read_text())

        with open(path, newline="") as f:
            cells = list(csv.DictReader(f))
        x = np.array([float(r["gt_ml"]) for r in cells])
        y = np.array([float(r["pred_ml"]) for r in cells])
        xm, ym = x.mean(), y.mean()
        sxx, syy, sxy = ((x - xm) ** 2).sum(), ((y - ym) ** 2).sum(), ((x - xm) * (y - ym)).sum()
        slope = sxy / sxx
        want = {
            "slope": slope,
            "intercept": ym - slope * xm,
            "r2": sxy * sxy / (sxx * syy),
            "mean_dice": np.mean([float(r["dice"]) for r in cells]),
            "mean_abs_vpe": np.mean([abs(float(r["vpe"])) for r in cells]),
        }
        assert result["n"] == n
        for key, value in want.items():
            assert result[key] == pytest.approx(float(value), rel=1e-12), key

    def test_scaled_cohort(self, tmp_path):
        rows = ["case_id,dice,jaccard,precision,recall,hd95_mm,assd_mm,pred_ml,gt_ml,vpe"]
        for i, gt in enumerate((10.0, 20.0, 30.0)):
            rows.append(f"c{i},0.95,0.9,1,1,0,0,{gt * 1.1},{gt},0.1")
        path = tmp_path / "cases.csv"
        path.write_text("\n".join(rows) + "\n")
        out = tmp_path / "vol.json"
        assert main(["volume", str(path), "--out", str(out)]) == EXIT_OK
        result = json.loads(out.read_text())
        assert result["slope"] == pytest.approx(1.1)
        assert result["r2"] == pytest.approx(1.0)
        assert result["mean_abs_vpe"] == pytest.approx(0.1)
        assert result["avpe_bound_satisfied"]

    def test_sum_beyond_float_range_is_io_error(self, tmp_path, capsys):
        path = tmp_path / "cases.csv"
        path.write_text(
            "case_id,dice,jaccard,precision,recall,hd95_mm,assd_mm,pred_ml,gt_ml,vpe\n"
            "c0,0.9,,,,,,1e308,1e308,0\n"
            "c1,0.9,,,,,,1.5e308,1e308,0.5\n"
            "c2,0.9,,,,,,1e308,1.5e308,-0.333333\n"
        )
        out = tmp_path / "vol.json"
        assert main(["volume", str(path), "--out", str(out)]) == EXIT_IO
        err = capsys.readouterr().err
        assert "overflow" in err and "Traceback" not in err
        assert not out.exists()

    def test_single_case_error(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text(
            "case_id,dice,jaccard,precision,recall,hd95_mm,assd_mm,pred_ml,gt_ml,vpe\n"
            "c0,1,1,1,1,0,0,1,1,0\n"
        )
        assert main(["volume", str(path), "--out", "-"]) == EXIT_IO

    def test_non_numeric_cell(self, tmp_path, capsys):
        path = tmp_path / "cases.csv"
        path.write_text(
            "case_id,dice,jaccard,precision,recall,hd95_mm,assd_mm,pred_ml,gt_ml,vpe\n"
            "c0,1,1,1,1,0,0,1,1,0\n"
            "c1,1,1,1,1,0,0,2,2,0\n"
            "c2,1,1,1,1,0,0,3,n/a,0\n"
        )
        out = tmp_path / "vol.json"
        assert main(["volume", str(path), "--out", str(out)]) == EXIT_IO
        err = capsys.readouterr().err
        assert "row 4" in err and "c2" in err
        assert not out.exists()

    def test_non_numeric_vpe(self, tmp_path, capsys):
        path = tmp_path / "cases.csv"
        path.write_text(
            "case_id,dice,jaccard,precision,recall,hd95_mm,assd_mm,pred_ml,gt_ml,vpe\n"
            "c0,1,1,1,1,0,0,1,1,0\n"
            "c1,1,1,1,1,0,0,2,2,zero\n"
        )
        assert main(["volume", str(path), "--out", "-"]) == EXIT_IO
        assert "row 3" in capsys.readouterr().err

    @pytest.mark.parametrize("column,value", [
        ("gt_ml", "nan"), ("pred_ml", "inf"), ("vpe", "-inf"), ("dice", "NaN"), ("dice", "1.5"),
    ])
    def test_non_finite_or_out_of_range_cell(self, tmp_path, capsys, column, value):
        header = "case_id,dice,jaccard,precision,recall,hd95_mm,assd_mm,pred_ml,gt_ml,vpe"
        cells = dict(zip(header.split(","), "c2,0.9,,,,,,3,3,0".split(",")), **{column: value})
        path = tmp_path / "cases.csv"
        path.write_text(
            f"{header}\n"
            "c0,0.9,,,,,,1,1.1,-0.0909091\n"
            "c1,0.9,,,,,,2,2.1,-0.047619\n"
            + ",".join(cells.values()) + "\n"
        )
        out = tmp_path / "vol.json"
        assert main(["volume", str(path), "--out", str(out)]) == EXIT_IO
        err = capsys.readouterr().err
        assert "row 4" in err and "c2" in err and "Traceback" not in err
        assert not out.exists()

    def test_values_beyond_float_range_are_io_error(self, tmp_path, capsys):
        # finite cells whose squared deviations overflow to inf: no NaN may reach volume.json
        path = tmp_path / "cases.csv"
        path.write_text(
            "case_id,dice,jaccard,precision,recall,hd95_mm,assd_mm,pred_ml,gt_ml,vpe\n"
            "c0,0.9,,,,,,1e200,-1e200,0\n"
            "c1,0.9,,,,,,-1e200,1e200,0\n"
        )
        out = tmp_path / "vol.json"
        assert main(["volume", str(path), "--out", str(out)]) == EXIT_IO
        assert "Traceback" not in capsys.readouterr().err
        assert not out.exists()

    def test_csv_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "cases.csv"
        path.write_bytes(
            b"case_id,dice,jaccard,precision,recall,hd95_mm,assd_mm,pred_ml,gt_ml,vpe\n"
            b"c0,1,1,1,1,0,0,1,1,0\n"
            b"c\xff,1,1,1,1,0,0,2,2,0\n"
        )
        out = tmp_path / "vol.json"
        assert main(["volume", str(path), "--out", str(out)]) == EXIT_IO
        err = capsys.readouterr().err
        assert str(path) in err and "Traceback" not in err
        assert not out.exists()


def run_fresh(code, *args):
    """Run ``code`` in a new interpreter with this checkout's ``src`` first on the path."""
    src = str(Path(volkit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env,
                          capture_output=True, text=True)


class TestStartup:
    def test_import_leaves_scipy_ndimage_unloaded(self):
        code = (
            "import sys\n"
            "import volkit.cli\n"
            "assert 'scipy.ndimage' not in sys.modules, 'scipy.ndimage imported eagerly'\n"
            "from volkit import segmetrics\n"
            "assert callable(segmetrics.ndimage.distance_transform_edt)\n"
            "assert 'scipy.ndimage' in sys.modules\n"
        )
        result = run_fresh(code)
        assert result.returncode == 0, result.stderr

    def test_unknown_module_attribute_still_raises(self):
        from volkit import segmetrics

        with pytest.raises(AttributeError):
            segmetrics.no_such_name

    def test_import_leaves_numpy_and_scipy_unloaded(self):
        code = (
            "import sys\n"
            "import volkit.cli\n"
            "loaded = sorted(m for m in ('numpy', 'scipy') if m in sys.modules)\n"
            "assert not loaded, f'imported eagerly: {loaded}'\n"
        )
        result = run_fresh(code)
        assert result.returncode == 0, result.stderr

    def test_bounds_audit_and_volume_run_without_numpy(self, tmp_path):
        path = tmp_path / "cases.csv"
        path.write_text(
            "case_id,dice,jaccard,precision,recall,hd95_mm,assd_mm,pred_ml,gt_ml,vpe\n"
            "c0,0.9,0.818182,0.9,0.9,1,0.5,10,10,0\n"
            "c1,0.8,0.666667,0.75,0.857143,2,0.7,12,10.5,0.142857\n"
            "c2,0.85,0.739130,0.85,0.85,1.5,0.6,8,8.2,-0.0243902\n"
        )
        code = (
            "import sys\n"
            "from volkit.cli import main\n"
            "csv_path, audit, volume, curve = sys.argv[1:]\n"
            "assert main(['bounds', '--audit', csv_path, '--out', audit]) == 0\n"
            "assert main(['volume', csv_path, '--out', volume]) == 0\n"
            "assert main(['bounds', '--curve', '0.05', '1', '0.01', '--out', curve]) == 0\n"
            "assert 'numpy' not in sys.modules, 'numpy imported'\n"
        )
        result = run_fresh(code, path, *(tmp_path / f for f in ("audit.json", "volume.json", "curve.csv")))
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "curve.csv").read_text().splitlines()[-1] == "1,0,0,0,0"
        assert json.loads((tmp_path / "audit.json").read_text()) == {"checked": 3, "violations": []}
        assert json.loads((tmp_path / "volume.json").read_text())["n"] == 3

    @pytest.mark.parametrize("mode", ["eval", "agree"])
    def test_eval_one_in_fresh_worker(self, tmp_path, mode):
        from volkit.cli import _DATASETS, _eval_one

        pred_dir, gt_dir = two_case_dataset(tmp_path)
        task = (_DATASETS[mode].measure, "beta", str(pred_dir / "beta.nii"), str(gt_dir / "beta.nii"), 0.5)
        code = (
            "import sys\n"
            "from volkit.cli import _DATASETS, _eval_one\n"
            "print(repr(_eval_one((_DATASETS[sys.argv[1]].measure, *sys.argv[2:5], 0.5))))\n"
        )
        want = _eval_one(task)
        assert want[2] is None
        result = run_fresh(code, mode, *task[1:4])
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == repr(want)

    def test_patch_made_before_first_command_sees_every_load(self, tmp_path):
        pred_dir, gt_dir = two_case_dataset(tmp_path)
        code = (
            "import sys\n"
            "import volkit.cli as cli\n"
            "from volkit.volgrid import load_nifti\n"
            "seen = []\n"
            "def counting(path):\n"
            "    seen.append(path)\n"
            "    return load_nifti(path)\n"
            "cli.load_nifti = counting\n"
            "assert cli.main(['eval', sys.argv[1], sys.argv[2], '--out', sys.argv[3]]) == 0\n"
            "assert len(seen) == 4, seen\n"
        )
        result = run_fresh(code, pred_dir, gt_dir, tmp_path / "out")
        assert result.returncode == 0, result.stderr

    def test_monkeypatched_load_nifti_sees_every_load(self, tmp_path, monkeypatch):
        import volkit.cli as cli

        real = cli.load_nifti
        seen = []

        def counting(path):
            seen.append(Path(path).name)
            return real(path)

        monkeypatch.setattr(cli, "load_nifti", counting)
        pred_dir, gt_dir = two_case_dataset(tmp_path)
        assert main(["eval", str(pred_dir), str(gt_dir), "--out", str(tmp_path / "out")]) == EXIT_OK
        assert sorted(seen) == ["alpha.nii", "alpha.nii", "beta.nii", "beta.nii"]

    def test_array_names_resolve_before_any_command(self):
        code = (
            "import volkit.cli as cli\n"
            "from volkit import segmetrics, volgrid\n"
            "assert cli.evaluate_case is segmetrics.evaluate_case\n"
            "assert cli.load_nifti is volgrid.load_nifti\n"
            "assert cli.CASE_METRIC_FIELDS is segmetrics.CASE_METRIC_FIELDS\n"
            "try:\n"
            "    cli.no_such_name\n"
            "except AttributeError:\n"
            "    pass\n"
            "else:\n"
            "    raise AssertionError('cli.no_such_name resolved')\n"
        )
        result = run_fresh(code)
        assert result.returncode == 0, result.stderr


class TestAtomicOutputs:
    @pytest.mark.parametrize("command,row_writer,fail_at", [
        ("eval", "_fmt", 10),  # first cell of the second case row
        ("agree", "_fmt", 3),  # first cell of the second case row
    ])
    def test_failed_rewrite_keeps_previous_outputs(self, tmp_path, monkeypatch, command, row_writer, fail_at):
        import volkit.cli as cli

        pred_dir, gt_dir = two_case_dataset(tmp_path)
        out = tmp_path / "out"
        argv = [command, str(pred_dir), str(gt_dir), "--out", str(out)]
        assert main(argv) == EXIT_OK
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert len(before) == 2

        real = getattr(cli, row_writer)
        calls = []

        def crashes_partway(*args):
            calls.append(1)
            if len(calls) == fail_at:
                raise RuntimeError("crash while writing rows")
            return real(*args)

        monkeypatch.setattr(cli, row_writer, crashes_partway)
        with pytest.raises(RuntimeError, match="crash while writing rows"):
            main(argv)
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before


class TestDeterminism:
    def test_eval_outputs_byte_identical_across_runs(self, tmp_path):
        generate_phantom_dataset(tmp_path / "data", n_cases=4, seed=11)
        base = [str(tmp_path / "data" / "pred"), str(tmp_path / "data" / "gt")]
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["eval", *base, "--out", str(out1)]) == EXIT_OK
        assert main(["eval", *base, "--out", str(out2)]) == EXIT_OK
        assert (out1 / "cases.csv").read_bytes() == (out2 / "cases.csv").read_bytes()
        assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()
