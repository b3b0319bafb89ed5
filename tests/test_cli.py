import csv
import gzip
import json
import math
import os
import re
import stat
import struct
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import HOSTILE_KINDS, build_nifti1_bytes, hostile_nifti_bytes, make_mask, run_fresh
from phantom import generate_phantom_dataset
from volkit.cli import EXIT_CHECK, EXIT_IO, EXIT_OK, EXIT_PARTIAL, EXIT_USAGE, WORKER_MEM_ENV, _fmt, main
from volkit.volbounds import BOUND_CURVE_CSV_HEADER, bound_curve
from volkit.volgrid import VolumeGrid, load_nifti, write_nifti


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
        assert sorted(summary) == ["group", "n_cases", "report"] and summary["group"] == "all"
        report = summary["report"]
        assert sorted(report) == ["comparisons", "groups"] and report["comparisons"] == []
        assert list(report["groups"]) == ["all"]
        assert sorted(report["groups"]["all"]) == ["avpe", "metrics", "n_cases"]
        metrics = report["groups"]["all"]["metrics"]
        assert metrics["dice"]["mean"] == 1.0
        assert metrics["hd95_mm"]["mean"] == 0.0

    def test_group_option_is_gone(self, tmp_path, capsys):
        pred_dir, gt_dir = two_case_dataset(tmp_path)
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["eval", str(pred_dir), str(gt_dir), "--out", str(out), "--group", "x"])
        assert exc.value.code == EXIT_USAGE
        assert "--group" in capsys.readouterr().err
        assert not out.exists()

    def test_eval_and_agree_take_the_same_options(self, capsys):
        options = {}
        for command in ("eval", "agree"):
            with pytest.raises(SystemExit):
                main([command, "--help"])
            options[command] = sorted(set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out)))
        assert options["eval"] == options["agree"] == ["--help", "--jobs", "--out", "--threshold"]

    def test_two_case_golden_csv(self, tmp_path):
        pred_dir, gt_dir = two_case_dataset(tmp_path)
        out = tmp_path / "out"
        assert main(["eval", str(pred_dir), str(gt_dir), "--out", str(out)]) == EXIT_OK
        lines = (out / "cases.csv").read_text().splitlines()
        assert lines[0] == "case_id,dice,jaccard,precision,recall,hd95_mm,assd_mm,pred_ml,gt_ml,vpe"
        assert lines[1] == "alpha,1,1,1,1,0,0,0.003,0.003,0"
        assert lines[2] == "beta,0.6,0.428571,0.5,0.75,1,0.4,0.006,0.004,0.5"

    @pytest.mark.parametrize("command", ["eval", "agree"])
    def test_csv_columns_are_record_fields_in_order(self, tmp_path, command):
        from dataclasses import fields

        from volkit import cli
        from volkit.segmetrics import CaseMetrics, evaluate_case
        from volkit.volgrid import BinaryMask

        record_type, csv_name, measure = {
            "eval": (CaseMetrics, "cases.csv", evaluate_case),
            "agree": (cli._Agreement, "agreement.csv", cli._agreement),
        }[command]
        pred_dir, gt_dir = two_case_dataset(tmp_path)
        out = tmp_path / "out"
        assert main([command, str(pred_dir), str(gt_dir), "--out", str(out)]) == EXIT_OK
        with open(out / csv_name, newline="") as f:
            reader = csv.reader(f)
            header = next(reader)
            rows = list(reader)
        names = [f.name for f in fields(record_type)]
        assert header == ["case_id", *(n.replace("_volume_ml", "_ml") for n in names)]
        assert [row[0] for row in rows] == ["alpha", "beta"]
        for row in rows:
            grids = [load_nifti(Path(d) / f"{row[0]}.nii") for d in (pred_dir, gt_dir)]
            record = measure(*(BinaryMask(g.data, g.spacing) for g in grids))
            assert type(record) is record_type
            assert row[1:] == [_fmt(getattr(record, n)) for n in names]

    @pytest.mark.parametrize("command,csv_name", [("eval", "cases.csv"), ("agree", "agreement.csv")])
    def test_no_pairs_exit_code(self, tmp_path, command, csv_name):
        (tmp_path / "pred").mkdir()
        (tmp_path / "gt").mkdir()
        out = tmp_path / "out"
        assert main([command, str(tmp_path / "pred"), str(tmp_path / "gt"), "--out", str(out)]) == EXIT_IO
        assert not (out / csv_name).exists()

    @pytest.mark.parametrize("command", ["eval", "agree"])
    def test_missing_input_dir_is_io_error(self, tmp_path, capsys, command):
        (tmp_path / "gt").mkdir()
        missing, out = tmp_path / "missing", tmp_path / "out"
        assert main([command, str(missing), str(tmp_path / "gt"), "--out", str(out)]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(missing) in err and "Traceback" not in err
        assert not out.exists()

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

    @pytest.mark.parametrize("command,csv_name", [("eval", "cases.csv"), ("agree", "agreement.csv")])
    @pytest.mark.parametrize("dtype", ["uint8", "float32"])
    @pytest.mark.parametrize("threshold", ["1", "2.5", "-1"])
    def test_threshold_leaves_binary_masks_as_stored(self, tmp_path, capsys, command, csv_name, dtype, threshold):
        pred_dir, gt_dir = two_case_dataset(tmp_path)
        for path in (*pred_dir.iterdir(), *gt_dir.iterdir()):
            grid = load_nifti(path)
            write_nifti(VolumeGrid(data=grid.data.astype(dtype), spacing=grid.spacing), path)
        base = [command, str(pred_dir), str(gt_dir)]
        default, thresholded = tmp_path / "default", tmp_path / "thresholded"
        assert main([*base, "--out", str(default)]) == EXIT_OK
        assert main([*base, "--out", str(thresholded), "--threshold", threshold]) == EXIT_OK
        for name in (csv_name, "summary.json"):
            assert (thresholded / name).read_bytes() == (default / name).read_bytes()
        assert "warning" not in capsys.readouterr().err

    @pytest.mark.parametrize("dtype", ["int8", "uint16", "int32", "uint32", "int64", "uint64"])
    def test_integer_label_maps_score_like_uint8(self, tmp_path, capsys, dtype):
        pred_dir, gt_dir = two_case_dataset(tmp_path)
        wide = {side: tmp_path / f"{side}_{dtype}" for side in ("pred", "gt")}
        for side, d in (("pred", pred_dir), ("gt", gt_dir)):
            wide[side].mkdir()
            for path in d.iterdir():
                grid = load_nifti(path)
                (wide[side] / path.name).write_bytes(build_nifti1_bytes(grid.data.astype(dtype), grid.spacing))
        narrow = tmp_path / "uint8"
        assert main(["eval", str(pred_dir), str(gt_dir), "--out", str(narrow)]) == EXIT_OK
        for pred in (pred_dir, wide["pred"]):  # the wide ground truth alone, then both wide
            out = tmp_path / f"{dtype}_{pred.name}"
            assert main(["eval", str(pred), str(wide["gt"]), "--out", str(out)]) == EXIT_OK
            for name in ("cases.csv", "summary.json"):
                assert (out / name).read_bytes() == (narrow / name).read_bytes()
        assert "error" not in capsys.readouterr().err

    @pytest.mark.parametrize("command,csv_name", [("eval", "cases.csv"), ("agree", "agreement.csv")])
    def test_case_ids_holding_csv_syntax_read_back(self, tmp_path, command, csv_name):
        pred_dir, gt_dir = two_case_dataset(tmp_path)
        stems = ["a,b", 'say "hi"', "two\nlines", "cr\rhere"]
        gt = np.zeros((3, 3, 1), dtype=np.uint8)
        gt[1:, :, 0] = 1
        for stem in stems:
            write_mask_pair(tmp_path, f"{stem}.nii", np.ones((3, 3, 1)), gt)
        out = tmp_path / "out"
        assert main([command, str(pred_dir), str(gt_dir), "--out", str(out)]) == EXIT_OK
        with open(out / csv_name, newline="", encoding="utf-8") as f:
            header, *rows = csv.reader(f)
        assert [row[0] for row in rows] == sorted(["alpha", "beta", *stems])
        assert all(len(row) == len(header) for row in rows)
        if command == "eval":
            audit, volume = tmp_path / "audit.json", tmp_path / "volume.json"
            assert main(["bounds", "--audit", str(out / csv_name), "--out", str(audit)]) == EXIT_OK
            assert main(["volume", str(out / csv_name), "--out", str(volume)]) == EXIT_OK
            assert json.loads(audit.read_text()) == {"checked": 6, "violations": []}
            assert json.loads(volume.read_text())["n"] == 6

    @pytest.mark.parametrize("command", ["eval", "agree"])
    def test_nan_voxels_fail_the_case(self, tmp_path, capsys, command):
        pred_dir, gt_dir = two_case_dataset(tmp_path)
        prob = np.full((8, 8, 8), 0.2, dtype=np.float32)
        prob[2:5, 2:5, 2:5] = 0.9
        prob[0, 0, 0] = np.nan
        write_nifti(VolumeGrid(data=prob, spacing=(1, 1, 1)), pred_dir / "gamma.nii")
        write_nifti(VolumeGrid(data=(prob > 0.5).astype(np.uint8), spacing=(1, 1, 1)), gt_dir / "gamma.nii")
        out = tmp_path / "out"
        assert main([command, str(pred_dir), str(gt_dir), "--out", str(out)]) == EXIT_PARTIAL
        err = capsys.readouterr().err
        assert "case gamma: ValueError" in err and "1 NaN voxel" in err
        assert "gamma.nii is not binary" not in err
        summary = json.loads((out / "summary.json").read_text())
        assert summary["failed_cases"] == ["gamma"]
        assert summary["n_cases"] == 2

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("kind", HOSTILE_KINDS)
    def test_hostile_nifti_fails_only_its_case(self, tmp_path, capsys, kind, jobs):
        mask = np.zeros((4, 3, 2), dtype=np.uint8)
        mask[1:3, 1, :] = 1
        pred_dir, gt_dir = write_mask_pair(tmp_path, "good.nii", mask, mask)
        (pred_dir / "hostile.nii.gz").write_bytes(hostile_nifti_bytes(kind, mask))
        write_nifti(VolumeGrid(data=mask, spacing=(1, 1, 1)), gt_dir / "hostile.nii")
        out = tmp_path / "out"
        assert main(["eval", str(pred_dir), str(gt_dir), "--out", str(out), "--jobs", jobs]) == EXIT_PARTIAL
        err = capsys.readouterr().err
        assert "error: case hostile: NiftiError" in err and "Traceback" not in err
        rows = (out / "cases.csv").read_text().splitlines()
        assert [r.split(",")[0] for r in rows[1:]] == ["good"]
        assert json.loads((out / "summary.json").read_text())["failed_cases"] == ["hostile"]

    def test_gzip_out_of_memory_fails_its_case_as_memory_error(self, tmp_path, monkeypatch, capsys):
        import zlib

        mask = np.zeros((4, 3, 2), dtype=np.uint8)
        mask[1:3, 1, :] = 1
        pred_dir, gt_dir = write_mask_pair(tmp_path, "good.nii", mask, mask)
        write_nifti(VolumeGrid(data=mask, spacing=(1, 1, 1)), gt_dir / "packed.nii")
        (pred_dir / "packed.nii.gz").write_bytes(gzip.compress((gt_dir / "packed.nii").read_bytes()))

        def out_of_memory(raw):
            raise zlib.error("Error -4 while decompressing data")

        monkeypatch.setattr(gzip, "decompress", out_of_memory)
        out = tmp_path / "out"
        assert main(["eval", str(pred_dir), str(gt_dir), "--out", str(out), "--jobs", "1"]) == EXIT_PARTIAL
        err = capsys.readouterr().err
        assert "error: case packed: MemoryError" in err and "corrupt" not in err
        assert json.loads((out / "summary.json").read_text())["failed_cases"] == ["packed"]

    @pytest.mark.parametrize("command", ["eval", "agree"])
    def test_out_that_is_a_file_fails_before_any_case(self, tmp_path, monkeypatch, capsys, command):
        import volkit.cli as cli

        real = cli.load_nifti
        loads = []
        monkeypatch.setattr(cli, "load_nifti", lambda path: loads.append(path) or real(path))
        pred_dir, gt_dir = two_case_dataset(tmp_path)
        out = tmp_path / "out"
        out.write_text("not a directory")
        assert main([command, str(pred_dir), str(gt_dir), "--out", str(out)]) == EXIT_IO
        err = capsys.readouterr().err
        assert str(out) in err and "Traceback" not in err
        assert loads == []
        assert out.read_text() == "not a directory"

    @pytest.mark.parametrize("command,csv_name", [("eval", "cases.csv"), ("agree", "agreement.csv")])
    def test_unmatched_files_are_reported(self, tmp_path, capsys, command, csv_name):
        pred_dir, gt_dir = two_case_dataset(tmp_path)
        (gt_dir / "alpha.nii").unlink()
        (gt_dir / "beta.nii").rename(gt_dir / "gamma.nii.gz")
        write_mask_pair(tmp_path, "delta.nii", np.ones((2, 2, 2)), np.ones((2, 2, 2)))
        out = tmp_path / "out"
        assert main([command, str(pred_dir), str(gt_dir), "--out", str(out)]) == EXIT_OK
        warnings = [line for line in capsys.readouterr().err.splitlines() if line.startswith("warning:")]
        assert len(warnings) == 3
        for lone in (pred_dir / "alpha.nii", pred_dir / "beta.nii", gt_dir / "gamma.nii.gz"):
            assert sum(str(lone) in w for w in warnings) == 1, lone
        rows = (out / csv_name).read_text().splitlines()
        assert [r.split(",")[0] for r in rows[1:]] == ["delta"]

    @pytest.mark.parametrize("side", ["a", "b"])
    @pytest.mark.parametrize("command,csv_name", [("eval", "cases.csv"), ("agree", "agreement.csv")])
    def test_ambiguous_stem_is_skipped_in_both_dirs(self, tmp_path, capsys, command, csv_name, side):
        pred_dir, gt_dir = two_case_dataset(tmp_path)
        crowded = pred_dir if side == "a" else gt_dir
        (crowded / "alpha.nii.gz").write_bytes(gzip.compress(build_nifti1_bytes(np.ones((3, 3, 1), np.uint8), (1, 1, 1))))
        out = tmp_path / "out"
        assert main([command, str(pred_dir), str(gt_dir), "--out", str(out)]) == EXIT_OK
        warnings = [line for line in capsys.readouterr().err.splitlines() if line.startswith("warning:")]
        assert len(warnings) == 1
        assert str(crowded / "alpha.nii") in warnings[0] and str(crowded / "alpha.nii.gz") in warnings[0]
        rows = (out / csv_name).read_text().splitlines()
        assert [r.split(",")[0] for r in rows[1:]] == ["beta"]

    @pytest.mark.parametrize("command,csv_name", [("eval", "cases.csv"), ("agree", "agreement.csv")])
    def test_non_utf8_file_name_is_skipped_in_both_dirs(self, tmp_path, capsys, command, csv_name):
        pred_dir, gt_dir = two_case_dataset(tmp_path)
        name = os.fsdecode(b"caf\xff.nii")
        try:
            for d in (pred_dir, gt_dir):
                (d / name).write_bytes((d / "alpha.nii").read_bytes())
        except OSError:
            pytest.skip("the filesystem refuses a file name that is not UTF-8")
        out = tmp_path / "out"
        assert main([command, str(pred_dir), str(gt_dir), "--out", str(out)]) == EXIT_OK
        warnings = [line for line in capsys.readouterr().err.splitlines() if line.startswith("warning:")]
        assert len(warnings) == 2
        for d, warning in zip((pred_dir, gt_dir), warnings):
            assert repr(os.fsencode(d / name)) in warning and "no partner" not in warning
        rows = (out / csv_name).read_text(encoding="utf-8").splitlines()
        assert [r.split(",")[0] for r in rows[1:]] == ["alpha", "beta"]
        assert (out / "summary.json").exists()

    def test_ascii_locale_reads_back_a_non_ascii_case_id(self, tmp_path):
        pred_dir, gt_dir = two_case_dataset(tmp_path)
        gt = np.zeros((3, 3, 1), dtype=np.uint8)
        gt[1:, 1:, 0] = 1
        gt[0, 0, 0] = 1
        write_mask_pair(tmp_path, "café.nii", np.ones((3, 3, 1)), gt)
        out = tmp_path / "out"
        code = (
            "import sys\n"
            "from volkit.cli import main\n"
            "pred, gt, out = sys.argv[1:]\n"
            "assert main(['eval', pred, gt, '--out', out]) == 0\n"
            "assert main(['bounds', '--audit', out + '/cases.csv', '--out', out + '/audit.json']) == 0\n"
            "assert main(['volume', out + '/cases.csv', '--out', out + '/volume.json']) == 0\n"
        )
        result = run_fresh(code, pred_dir, gt_dir, out, env={"LC_ALL": "C", "PYTHONUTF8": "0"}, timeout=120)
        assert result.returncode == 0, result.stderr
        rows = (out / "cases.csv").read_text(encoding="utf-8").splitlines()
        assert [r.split(",")[0] for r in rows[1:]] == ["alpha", "beta", "café"]
        assert json.loads((out / "audit.json").read_text())["checked"] == 3
        assert json.loads((out / "volume.json").read_text())["n"] == 3

    @pytest.mark.parametrize("slope,inter", [(np.nan, 0.0), (np.inf, 0.0), (np.nan, np.nan)])
    def test_non_finite_scl_slope_scores_like_the_clean_file(self, tmp_path, capsys, slope, inter):
        mask = np.zeros((4, 3, 2), dtype=np.uint8)
        mask[1:3, 1, :] = 1
        gt = mask.copy()
        gt[0, 0, 0] = 1
        pred_dir, gt_dir = write_mask_pair(tmp_path, "clean.nii", mask, gt)
        write_mask_pair(tmp_path, "scl.nii", mask, gt)
        raw = bytearray(build_nifti1_bytes(mask, (1, 1, 1)))
        struct.pack_into("<2f", raw, 112, slope, inter)
        (pred_dir / "scl.nii").write_bytes(bytes(raw))
        out = tmp_path / "out"
        assert main(["eval", str(pred_dir), str(gt_dir), "--out", str(out)]) == EXIT_OK
        assert "warning:" not in capsys.readouterr().err
        clean, scl = (row.split(",", 1) for row in (out / "cases.csv").read_text().splitlines()[1:])
        assert (clean[0], scl[0]) == ("clean", "scl") and clean[1] == scl[1]

    @pytest.mark.parametrize("command", ["eval", "agree"])
    @pytest.mark.parametrize("jobs", ["1", "2"])
    # 99999999999999999999 MB is more bytes than setrlimit takes (a C long)
    @pytest.mark.parametrize("value", ["lots", "1.5", "0", "99999999999999999999", str((sys.maxsize >> 20) + 1)])
    def test_bad_worker_mem_is_usage_error(self, tmp_path, monkeypatch, capsys, command, jobs, value):
        pred_dir, gt_dir = two_case_dataset(tmp_path)
        monkeypatch.setenv(WORKER_MEM_ENV, value)
        out = tmp_path / "out"
        assert main([command, str(pred_dir), str(gt_dir), "--out", str(out), "--jobs", jobs]) == EXIT_USAGE
        assert WORKER_MEM_ENV in capsys.readouterr().err
        assert not out.exists()

    def test_worker_mem_above_the_hard_limit_is_usage_error(self, tmp_path):
        # setrlimit may not raise the hard limit: ValueError in every worker
        import resource

        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (4000 << 20, 4000 << 20))

        pred_dir, gt_dir = two_case_dataset(tmp_path)
        out = tmp_path / "out"
        result = run_fresh(CLI, "eval", pred_dir, gt_dir, "--out", out,
                           env={WORKER_MEM_ENV: "8000"}, timeout=120, preexec_fn=cap)
        assert result.returncode == EXIT_USAGE, result.stderr
        assert result.stderr.startswith(f"error: {WORKER_MEM_ENV}='8000' ") and "4000 MB" in result.stderr
        assert not out.exists()
        result = run_fresh(CLI, "eval", pred_dir, gt_dir, "--out", out,
                           env={WORKER_MEM_ENV: "4000"}, timeout=120, preexec_fn=cap)
        assert result.returncode == EXIT_OK, result.stderr

    @pytest.mark.parametrize("command", ["eval", "agree"])
    def test_worker_memory_cap_is_set_after_the_libraries_load(self, command):
        # Loading numpy's and scipy's shared objects under the cap failed (ImportError)
        # or hung in scipy's extension load. No agree case uses scipy, whose
        # mapping alone took about 130 MB of a capped agree worker's address space.
        code = (
            "import resource, sys\n"
            "calls = []\n"
            "def record(which, limits):\n"
            "    assert 'numpy' in sys.modules, 'address space capped before numpy loaded'\n"
            f"    assert ('scipy.ndimage' in sys.modules) == {command == 'eval'}, 'scipy.ndimage'\n"
            "    calls.append((which, limits))\n"
            "resource.setrlimit = record\n"
            "from volkit import cli\n"
            f"cli._limit_worker_memory({command!r}, 64)\n"
            "assert calls == [(resource.RLIMIT_AS, (64 << 20, 64 << 20))], calls\n"
        )
        result = run_fresh(code)
        assert result.returncode == 0, result.stderr

    def test_capped_serial_run_completes(self, tmp_path):
        pred_dir, gt_dir = two_case_dataset(tmp_path)
        out = tmp_path / "out"
        result = run_fresh(CLI, "eval", pred_dir, gt_dir, "--out", out,
                           env={WORKER_MEM_ENV: "200"}, timeout=120)
        assert result.returncode == EXIT_OK, result.stderr
        assert len((out / "cases.csv").read_text().splitlines()) == 3

    @pytest.mark.parametrize("command", ["eval", "agree"])
    def test_jobs_never_exceed_the_case_count(self, tmp_path, monkeypatch, command):
        import concurrent.futures

        started = []

        class RecordingPool:
            def __init__(self, max_workers, initializer, initargs):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, task):
                future = concurrent.futures.Future()
                future.set_result(fn(task))
                return future

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        pred_dir, gt_dir = two_case_dataset(tmp_path)
        for jobs, want in (("5000", 2), ("2", 2), ("3", 2)):
            out = tmp_path / f"out{jobs}"
            assert main([command, str(pred_dir), str(gt_dir), "--out", str(out), "--jobs", jobs]) == EXIT_OK
            assert started.pop() == want

    @pytest.mark.parametrize("command,csv_name", [("eval", "cases.csv"), ("agree", "agreement.csv")])
    @pytest.mark.parametrize("victims", [["a"], ["c"], ["a", "c"]], ids=["first-case", "last-case", "first-and-last"])
    def test_a_dead_worker_fails_only_its_case(self, tmp_path, monkeypatch, capsys, command, csv_name, victims):
        # A SIGKILLed worker (the kernel's OOM killer) breaks the pool. The worker
        # forked from this process inherits the patched loader.
        import signal

        import volkit.cli as cli

        mask = np.zeros((4, 3, 2), dtype=np.uint8)
        mask[1:3, 1, :] = 1
        other = mask.copy()
        other[0, 0, 0] = 1
        for case in "abc":
            pred_dir, gt_dir = write_mask_pair(tmp_path, f"{case}.nii", other if case == "b" else mask, mask)
        serial = tmp_path / "serial"
        assert main([command, str(pred_dir), str(gt_dir), "--out", str(serial), "--jobs", "1"]) == EXIT_OK
        want = [row for row in (serial / csv_name).read_text().splitlines() if row.split(",")[0] not in victims]

        real, parent = cli._load_mask, os.getpid()

        def load(path, threshold):
            if Path(path).stem in victims and os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return real(path, threshold)

        monkeypatch.setattr(cli, "_load_mask", load)
        capsys.readouterr()
        out = tmp_path / "out"
        assert main([command, str(pred_dir), str(gt_dir), "--out", str(out), "--jobs", "2"]) == EXIT_PARTIAL
        err = capsys.readouterr().err
        assert all(f"error: case {victim}: worker process died" in err for victim in victims)
        assert err.count("worker process died") == len(victims) and "Traceback" not in err
        assert (out / csv_name).read_text().splitlines() == want
        summary = json.loads((out / "summary.json").read_text())
        assert summary["failed_cases"] == victims and summary["n_cases"] == 3 - len(victims)

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

    def test_undefined_kappa_is_null_beside_the_dice_summary(self, tmp_path):
        empty = np.zeros((3, 3, 2), dtype=np.uint8)
        a_dir, b_dir = write_mask_pair(tmp_path, "c0.nii", empty, empty)
        write_mask_pair(tmp_path, "c1.nii", empty, empty)
        out = tmp_path / "out"
        assert main(["agree", str(a_dir), str(b_dir), "--out", str(out)]) == EXIT_OK
        assert (out / "agreement.csv").read_text().splitlines() == ["case_id,dice,kappa", "c0,1,", "c1,1,"]
        summary = json.loads((out / "summary.json").read_text())
        assert summary == {
            "n_cases": 2, "dice": {"mean": 1.0, "std": 0.0, "median": 1.0, "n": 2}, "kappa": None
        }
        assert '"kappa": null' in (out / "summary.json").read_text()


class TestSpatialUnits:
    """A pair stored in microns or meters scores as its millimeter twin does."""

    @staticmethod
    def cube_pair(size, shift):
        pred = np.zeros((10, 10, 10), dtype=np.uint8)
        gt = np.zeros_like(pred)
        pred[2:2 + size, 2:2 + size, 2:2 + size] = 1
        gt[2 + shift:2 + shift + size, 2:2 + size, 2:2 + size] = 1
        return pred, gt

    @staticmethod
    def write_units(path, data, pixdim, units, byte_order="<"):
        raw = bytearray(build_nifti1_bytes(data, pixdim, byte_order=byte_order))
        raw[123] = units
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(bytes(raw))

    def mm_twin(self, tmp_path, cases):
        """Evaluate ``cases`` (name -> (pred, gt)) stored in mm; returns the out dir."""
        mm = tmp_path / "mm"
        mm.mkdir()
        for name, (pred, gt) in cases.items():
            write_mask_pair(mm, f"{name}.nii", pred, gt)
        assert main(["eval", str(mm / "pred"), str(mm / "gt"), "--out", str(mm / "out")]) == EXIT_OK
        return mm / "out"

    @pytest.mark.parametrize("byte_order", ["<", ">"])
    def test_micron_pair_scores_in_mm_through_eval_and_volume(self, tmp_path, byte_order):
        cases = {"c5": self.cube_pair(5, 1), "c4": self.cube_pair(4, 1)}
        pred_dir, gt_dir = tmp_path / "um" / "pred", tmp_path / "um" / "gt"
        for name, (pred, gt) in cases.items():
            self.write_units(pred_dir / f"{name}.nii", pred, (1000, 1000, 1000), 3, byte_order)
            self.write_units(gt_dir / f"{name}.nii", gt, (1000, 1000, 1000), 3, byte_order)
        out = tmp_path / "um" / "out"
        assert main(["eval", str(pred_dir), str(gt_dir), "--out", str(out)]) == EXIT_OK
        with open(out / "cases.csv", newline="") as f:
            row = {r["case_id"]: r for r in csv.DictReader(f)}["c5"]
        assert [row[k] for k in ("hd95_mm", "assd_mm", "pred_ml", "gt_ml")] == ["1", "0.346939", "0.125", "0.125"]
        twin = self.mm_twin(tmp_path, cases)
        for name in ("cases.csv", "summary.json"):
            assert (out / name).read_bytes() == (twin / name).read_bytes(), name
        assert main(["volume", str(out / "cases.csv"), "--out", str(out / "volume.json")]) == EXIT_OK
        assert main(["volume", str(twin / "cases.csv"), "--out", str(twin / "volume.json")]) == EXIT_OK
        assert (out / "volume.json").read_bytes() == (twin / "volume.json").read_bytes()
        assert json.loads((out / "volume.json").read_text())["slope"] == pytest.approx(1.0)

    @pytest.mark.parametrize("pred_pixdim,pred_units", [
        ((1, 1, 1), 2),  # mm beside a micron ground truth
        ((0.001, 0.001, 0.001), 1),  # meter
    ])
    def test_mixed_units_pass_the_spacing_check(self, tmp_path, pred_pixdim, pred_units):
        pred, gt = self.cube_pair(5, 1)
        pred_dir, gt_dir = tmp_path / "pred", tmp_path / "gt"
        self.write_units(pred_dir / "c5.nii", pred, pred_pixdim, pred_units)
        self.write_units(gt_dir / "c5.nii", gt, (1000, 1000, 1000), 3)
        out = tmp_path / "out"
        assert main(["eval", str(pred_dir), str(gt_dir), "--out", str(out)]) == EXIT_OK
        twin = self.mm_twin(tmp_path, {"c5": (pred, gt)})
        got, want = ((d / "cases.csv").read_text().splitlines() for d in (out, twin))
        assert got[0] == want[0] and got[1].startswith("c5,")
        # a float32 pixdim of 0.001 m is 1.00000005 mm
        assert [float(c) for c in got[1].split(",")[1:]] == pytest.approx(
            [float(c) for c in want[1].split(",")[1:]], abs=1e-6)

    def test_unknown_spatial_code_fails_the_case(self, tmp_path, capsys):
        pred, gt = self.cube_pair(5, 1)
        pred_dir, gt_dir = write_mask_pair(tmp_path, "good.nii", pred, gt)
        write_mask_pair(tmp_path, "bad.nii", pred, gt)
        self.write_units(pred_dir / "bad.nii", pred, (1, 1, 1), 5)
        out = tmp_path / "out"
        assert main(["eval", str(pred_dir), str(gt_dir), "--out", str(out)]) == EXIT_PARTIAL
        err = capsys.readouterr().err
        assert "error: case bad: NiftiError:" in err and "spatial units code 5" in err
        assert json.loads((out / "summary.json").read_text())["failed_cases"] == ["bad"]


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

    # 1e-320 is finite, but (MAX - MIN) / STEP is not
    @pytest.mark.parametrize("step", ["inf", "nan", "1e-320"])
    def test_non_finite_step_is_usage_error(self, tmp_path, capsys, step):
        out = tmp_path / "curve.csv"
        assert main(["bounds", "--curve", "0.1", "1", step, "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "STEP" in err and "Traceback" not in err
        assert not out.exists()

    def test_row_cap(self, monkeypatch, capsys):
        import volkit.cli as cli

        monkeypatch.setattr(cli, "_CURVE_MAX_ROWS", 5)
        assert main(["bounds", "--curve", "0.5", "0.9", "0.1", "--out", "-"]) == EXIT_OK
        assert len(capsys.readouterr().out.splitlines()) == 6
        assert main(["bounds", "--curve", "0.5", "0.9", "0.05", "--out", "-"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and "9 rows, more than 5" in captured.err

    def test_long_grid_is_refused_before_it_is_built(self, tmp_path):
        # About 10^12 values: building them ran out of memory or time. The child is
        # capped so that a build fails it quickly instead of filling the machine.
        import resource

        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))

        argv = ["bounds", "--curve", "1e-12", "1", "1e-12", "--out", tmp_path / "curve.csv"]
        result = run_fresh(CLI, *argv, timeout=60, preexec_fn=cap)
        assert result.returncode == EXIT_USAGE, result.stderr
        assert result.stderr.startswith("error: --curve STEP 1e-12 gives ")
        assert not (tmp_path / "curve.csv").exists()

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

    def test_audit_of_a_nested_low_dice_eval_pair(self, tmp_path):
        # 1-voxel gt inside a 161-voxel prediction: read back as dice 0.0123457 and
        # vpe 160, against a recomputed upper bound of 159.99972
        pred = np.ones((7, 23, 1), dtype=np.uint8)
        gt = np.zeros_like(pred)
        gt[3, 11, 0] = 1
        pred_dir, gt_dir = write_mask_pair(tmp_path, "nested.nii", pred, gt)
        out = tmp_path / "out"
        assert main(["eval", str(pred_dir), str(gt_dir), "--out", str(out)]) == EXIT_OK
        row = (out / "cases.csv").read_text().splitlines()[1].split(",")
        assert (row[1], row[-1]) == ("0.0123457", "160")
        report = tmp_path / "audit.json"
        assert main(["bounds", "--audit", str(out / "cases.csv"), "--out", str(report)]) == EXIT_OK
        assert json.loads(report.read_text()) == {"checked": 1, "violations": []}

    def test_audit_of_realisable_rows_flags_none(self, tmp_path):
        # Count triples with pred/gt ratios up to 10^7 either way, written as eval
        # writes them: the masks may be any, so every row is realisable and any
        # violation is a false alarm. Each axis of the pred spacing may differ from
        # the gt's by up to the 1e-6 that evaluate_case accepts.
        import random

        rng = random.Random(2217)
        spacings = ((1.0, 1.0, 1.0), (0.7, 0.7, 2.5), (0.8125, 0.8125, 5.0), (1.5, 1.5, 1.5), (0.3, 0.45, 3.3))
        rows = []
        for i in range(20_000):
            n_pred, n_gt = (int(10 ** rng.uniform(0, 7)) for _ in range(2))
            overlap = rng.choice((1, min(n_pred, n_gt), rng.randint(1, min(n_pred, n_gt))))
            gt_spacing = rng.choice(spacings)
            pred_spacing = [s * (1 + rng.choice((-1, 0, 1)) * 0.99e-6) for s in gt_spacing]
            pred_ml, gt_ml = (n * math.prod(s) / 1000.0 for n, s in ((n_pred, pred_spacing), (n_gt, gt_spacing)))
            rows.append([f"c{i}", _fmt(2 * overlap / (n_pred + n_gt)), _fmt(pred_ml / gt_ml - 1.0)])
        path = tmp_path / "cases.csv"
        path.write_text("".join(",".join(r) + "\n" for r in [["case_id", "dice", "vpe"], *rows]))
        report = tmp_path / "audit.json"
        assert main(["bounds", "--audit", str(path), "--out", str(report)]) == EXIT_OK
        assert json.loads(report.read_text()) == {"checked": len(rows), "violations": []}

    def test_audit_flags_a_row_a_few_units_of_its_last_digit_above_the_bound(self, tmp_path):
        # dice 0.0196078 bounds vpe by 100.000224; 100.003 is 3 units of its 6th digit above
        path = tmp_path / "cases.csv"
        path.write_text("case_id,dice,vpe\nat,0.0196078,100\nabove,0.0196078,100.003\n")
        report = tmp_path / "audit.json"
        assert main(["bounds", "--audit", str(path), "--out", str(report)]) == EXIT_CHECK
        (violation,) = json.loads(report.read_text())["violations"]
        assert violation == {"case_id": "above", "dice": 0.0196078, "vpe": 100.003,
                             "lower": 2 / (2 - 0.0196078) - 2, "upper": 2 / 0.0196078 - 2}

    def test_audit_flags_inconsistent_rows(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text(
            "case_id,dice,jaccard,precision,recall,hd95_mm,assd_mm,pred_ml,gt_ml,vpe\n"
            "x,0.9,0.81,1,1,0,0,5,1,4\n"
        )
        assert main(["bounds", "--audit", str(bad), "--out", str(tmp_path / "a.json")]) == EXIT_CHECK

    def test_audit_skips_rows_without_vpe_and_leaves_dice_zero_unchecked(self, tmp_path):
        # no vpe: the gt is empty; dice 0: vpe_bounds_from_dice has no interval
        path = tmp_path / "cases.csv"
        path.write_text(
            "case_id,dice,jaccard,precision,recall,hd95_mm,assd_mm,pred_ml,gt_ml,vpe\n"
            "ok,0.9,0.81,1,1,0,0,1.1,1,0.1\n"
            "no-gt,0.9,0.81,1,1,0,0,1.1,0,\n"
            "no-pred,0,0,,0,,,0,1,-1\n"
        )
        report = tmp_path / "a.json"
        assert main(["bounds", "--audit", str(path), "--out", str(report)]) == EXIT_OK
        assert json.loads(report.read_text()) == {"checked": 1, "violations": []}

    @pytest.mark.parametrize("argv", [["bounds", "--audit"], ["volume"]])
    def test_missing_csv_is_io_error(self, tmp_path, capsys, argv):
        missing, out = tmp_path / "missing.csv", tmp_path / "out.json"
        assert main([*argv, str(missing), "--out", str(out)]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(missing) in err and "Traceback" not in err
        assert not out.exists()

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
        ("1e-310", "-2"), ("0.9", "-1.5"),
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

    @pytest.mark.parametrize("text,column", [
        ("case_id,dice,kappa\nc0,0.9,0.8\n", "vpe"),  # an agree CSV
        ("case_id,vpe\nc0,0.1\n", "dice"),
        ("", "dice"),
    ], ids=["agree-csv", "no-dice", "empty-file"])
    def test_audit_missing_column_is_io_error(self, tmp_path, capsys, text, column):
        path = tmp_path / "in.csv"
        path.write_text(text)
        report = tmp_path / "a.json"
        assert main(["bounds", "--audit", str(path), "--out", str(report)]) == EXIT_IO
        err = capsys.readouterr().err
        assert f"no {column} column" in err and "Traceback" not in err
        assert not report.exists()

    @pytest.mark.parametrize("encoding", ["utf-8", "utf-8-sig"])
    def test_audit_violations_keep_case_ids(self, tmp_path, encoding):
        path = tmp_path / "cases.csv"
        path.write_text(
            "case_id,dice,jaccard,precision,recall,hd95_mm,assd_mm,pred_ml,gt_ml,vpe\n"
            "ok,0.9,0.81,1,1,0,0,1.1,1,0.1\n"
            "café,0.9,0.81,1,1,0,0,5,1,4\n",
            encoding=encoding,
        )
        report = tmp_path / "a.json"
        assert main(["bounds", "--audit", str(path), "--out", str(report)]) == EXIT_CHECK
        result = json.loads(report.read_text())
        assert result["checked"] == 2
        assert [v["case_id"] for v in result["violations"]] == ["café"]


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


    def test_out_of_memory_is_usage_error(self, capsys, monkeypatch):
        from volkit import linattn

        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 3.05 GiB")

        monkeypatch.setattr(linattn, "check_properties", no_memory)
        assert main(["attn-check", "--n", "4096", "--d", "100000", "--trials", "1"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            "error: out of memory checking n=4096 at d=100000; use smaller --n or --d"
        ]


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
        ["--n-list", "64,64"],
        ["--n-list", "64,128,64"],
    ])
    def test_bad_size_is_usage_error(self, tmp_path, capsys, args):
        out = tmp_path / "bench.csv"
        assert main(["attn-bench", "--n-list", "64", "--d", "8", *args, "--out", str(out)]) == EXIT_USAGE
        assert "Traceback" not in capsys.readouterr().err
        assert not out.exists()

    def test_out_of_memory_is_usage_error(self, tmp_path, capsys, monkeypatch):
        from volkit import linattn

        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 298. GiB")

        monkeypatch.setattr(linattn, "bench_attention", no_memory)
        out = tmp_path / "bench.csv"
        argv = ["attn-bench", "--variant", "quadratic", "--n-list", "200000", "--d", "4", "--repeats", "3"]
        assert main([*argv, "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            "error: out of memory benchmarking n up to 200000 at d=4; use smaller --n-list or --d"
        ]
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
        ("gt_ml", "nan"), ("pred_ml", "inf"), ("vpe", "-inf"), ("vpe", "-1.5"), ("dice", "NaN"), ("dice", "1.5"),
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

    @pytest.mark.parametrize("column", ["gt_ml", "pred_ml", "dice"])
    def test_missing_column_is_io_error(self, tmp_path, capsys, column):
        lines = ["case_id,dice,pred_ml,gt_ml,vpe", "c0,0.9,1,1.1,-0.0909091", "c1,0.8,2,2.1,-0.047619"]
        drop = lines[0].split(",").index(column)
        path = tmp_path / "cases.csv"
        path.write_text("".join(",".join(c for i, c in enumerate(line.split(",")) if i != drop) + "\n"
                                for line in lines))
        out = tmp_path / "vol.json"
        assert main(["volume", str(path), "--out", str(out)]) == EXIT_IO
        err = capsys.readouterr().err
        assert f"no {column} column" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("header,cells", [
        ("case_id,dice,pred_ml,gt_ml", ["c0,0.9,11,10", "c1,0.8,18,20", "c2,0.85,33,30"]),
        ("case_id,dice,pred_ml,gt_ml,vpe", ["c0,0.9,11,10,", "c1,0.8,18,20,", "c2,0.85,33,30,"]),
    ], ids=["no-vpe-column", "empty-vpe-cells"])
    def test_without_vpe_still_reports(self, tmp_path, header, cells):
        path = tmp_path / "cases.csv"
        path.write_text("\n".join([header, *cells]) + "\n")
        out = tmp_path / "vol.json"
        assert main(["volume", str(path), "--out", str(out)]) == EXIT_OK
        result = json.loads(out.read_text())
        assert result["n"] == 3 and result["mean_abs_vpe"] is None
        assert result["mean_dice"] == pytest.approx(0.85)
        assert "avpe_bound" not in result


class TestUnwritableOutput:
    @pytest.mark.parametrize("argv", [
        ["bounds", "--curve", "0.5", "0.9", "0.1"],
        ["bounds", "--audit", "CASES"],
        ["volume", "CASES"],
        ["attn-bench", "--n-list", "8", "--d", "2", "--repeats", "3"],
    ])
    def test_missing_directory_is_io_error(self, tmp_path, capsys, argv):
        cases = tmp_path / "cases.csv"
        cases.write_text(
            "case_id,dice,jaccard,precision,recall,hd95_mm,assd_mm,pred_ml,gt_ml,vpe\n"
            "c0,0.9,0.818182,0.9,0.9,1,0.5,10,10,0\n"
            "c1,0.8,0.666667,0.75,0.857143,2,0.7,12,10.5,0.142857\n"
        )
        out = tmp_path / "missing" / "out"
        argv = [str(cases) if a == "CASES" else a for a in argv]
        assert main([*argv, "--out", str(out)]) == EXIT_IO
        err = capsys.readouterr().err
        assert f"error: cannot write {out}" in err and "Traceback" not in err
        assert not out.parent.exists()


# ``volkit ARGS`` in a new interpreter, through run_fresh.
CLI = "import sys; from volkit.cli import main; sys.exit(main(sys.argv[1:]))"


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

    def test_paired_t_test_leaves_numpy_unloaded(self):
        code = (
            "import sys\n"
            "from volkit.cohortstats import paired_t_test\n"
            "r = paired_t_test([1.0, 2.0, 3.0, 4.0, 5.0], [0.0] * 5)\n"
            "assert 'numpy' not in sys.modules, 'numpy imported'\n"
            "print(r.t, r.df, r.p)\n"
        )
        result = run_fresh(code)
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["4.242640687119285", "4", "0.01323559956368269"]

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
            "try:\n"
            "    cli.no_such_name\n"
            "except AttributeError:\n"
            "    pass\n"
            "else:\n"
            "    raise AssertionError('cli.no_such_name resolved')\n"
        )
        result = run_fresh(code)
        assert result.returncode == 0, result.stderr


EVAL_CSV = (
    "case_id,dice,jaccard,precision,recall,hd95_mm,assd_mm,pred_ml,gt_ml,vpe\n"
    "c0,0.9,0.818182,0.9,0.9,1,0.5,10,10,0\n"
    "c1,0.8,0.666667,0.75,0.857143,2,0.7,12,10.5,0.142857\n"
)

# Each command's arguments before ``--out``: PRED, GT and CASES stand for the
# mask directories and an eval CSV; a single-file output is named OUT/<file>.
_OUTPUT_COMMANDS = {
    "eval": (["eval", "PRED", "GT"], None),
    "agree": (["agree", "PRED", "GT"], None),
    "bounds-curve": (["bounds", "--curve", "0.5", "0.9", "0.1"], "curve.csv"),
    "bounds-audit": (["bounds", "--audit", "CASES"], "audit.json"),
    "volume": (["volume", "CASES"], "volume.json"),
    "attn-bench": (["attn-bench", "--n-list", "8,16", "--d", "2", "--repeats", "3"], "bench.csv"),
}


class TestAtomicOutputs:
    def argv(self, tmp_path, command, out):
        pred_dir, gt_dir = two_case_dataset(tmp_path)
        cases = tmp_path / "cases.csv"
        cases.write_text(EVAL_CSV)
        args, file_name = _OUTPUT_COMMANDS[command]
        names = {"PRED": str(pred_dir), "GT": str(gt_dir), "CASES": str(cases)}
        return [names.get(a, a) for a in args] + ["--out", str(out if file_name is None else out / file_name)]

    @pytest.mark.parametrize("command,row_writer,fail_at", [
        ("eval", "_fmt", 10),  # first cell of the second case row
        ("agree", "_fmt", 3),  # first cell of the second case row
        ("bounds-curve", "_fmt", 6),  # first cell of the second curve row
        ("bounds-audit", "_dump_json", 1),
        ("volume", "_dump_json", 1),
        ("attn-bench", "_fmt", 2),  # the second timing row
    ])
    def test_failed_rewrite_keeps_previous_outputs(self, tmp_path, monkeypatch, command, row_writer, fail_at):
        import volkit.cli as cli

        out = tmp_path / "out"
        out.mkdir()
        argv = self.argv(tmp_path, command, out)
        assert main(argv) == EXIT_OK
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert len(before) == (2 if command in ("eval", "agree") else 1)

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
        assert not [p for p in out.iterdir() if p.name.endswith(".tmp")]

    @pytest.mark.parametrize("command", ["bounds-curve", "bounds-audit", "volume", "attn-bench"])
    def test_out_to_a_device_is_written_in_place(self, tmp_path, command):
        argv = self.argv(tmp_path, command, tmp_path)
        assert main([*argv[:-1], os.devnull]) == EXIT_OK
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)


class TestDeterminism:
    def test_eval_outputs_byte_identical_across_runs(self, tmp_path):
        generate_phantom_dataset(tmp_path / "data", n_cases=4, seed=11)
        base = [str(tmp_path / "data" / "pred"), str(tmp_path / "data" / "gt")]
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["eval", *base, "--out", str(out1)]) == EXIT_OK
        assert main(["eval", *base, "--out", str(out2)]) == EXIT_OK
        assert (out1 / "cases.csv").read_bytes() == (out2 / "cases.csv").read_bytes()
        assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()
