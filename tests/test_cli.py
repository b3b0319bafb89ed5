import ast
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
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_nifti1_bytes, fixture_3x3x1, hostile_nifti_bytes, run_fresh, run_python
from phantom import generate_phantom_dataset
from volkit.cli import (EXIT_CHECK, EXIT_IO, EXIT_OK, EXIT_PARTIAL, EXIT_USAGE, WORKER_MEM_ENV, _DATASETS, _csv,
                        _eval_one, _fmt, main)
from volkit.volbounds import BOUND_CURVE_CSV_HEADER, bound_curve
from volkit.volgrid import VolumeGrid, load_nifti, write_nifti


EVAL_CSV = (
    "case_id,dice,jaccard,precision,recall,hd95_mm,assd_mm,pred_ml,gt_ml,vpe\n"
    "c0,0.9,0.818182,0.9,0.9,1,0.5,10,10,0\n"
    "c1,0.8,0.666667,0.75,0.857143,2,0.7,12,10.5,0.142857\n"
)


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
    pred_dir, gt_dir = write_mask_pair(tmp_path, "alpha.nii", perfect, perfect)
    write_mask_pair(tmp_path, "beta.nii", *fixture_3x3x1())
    return pred_dir, gt_dir


def three_case_dataset(tmp_path):
    """Cases a, b and c; b's prediction has one false-positive voxel."""
    mask = np.zeros((4, 3, 2), dtype=np.uint8)
    mask[1:3, 1, :] = 1
    other = mask.copy()
    other[0, 0, 0] = 1
    for case in "abc":
        pred_dir, gt_dir = write_mask_pair(tmp_path, f"{case}.nii", other if case == "b" else mask, mask)
    return pred_dir, gt_dir


def run_cli(*argv, **kwargs):
    """``python -m volkit.cli ARGV`` in a new interpreter: the path perfbench times."""
    return run_python("-m", "volkit.cli", *argv, **kwargs)


class TestEval:
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

    def test_threshold_on_probability_maps(self, tmp_path, capsys):
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
        assert f"warning: {pred_dir / 'c.nii'} is not binary; thresholded at > 0.5\n" in capsys.readouterr().err
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
    # which files are hostile is test_volgrid's business; one that cannot be opened is an OSError
    @pytest.mark.parametrize("kind,error", [("cut-gzip", "NiftiError"), ("directory", "IsADirectoryError")],
                             ids=["cut-gzip", "directory"])
    def test_hostile_nifti_fails_only_its_case(self, tmp_path, capsys, kind, error, jobs):
        mask = np.zeros((4, 3, 2), dtype=np.uint8)
        mask[1:3, 1, :] = 1
        pred_dir, gt_dir = write_mask_pair(tmp_path, "good.nii", mask, mask)
        if kind == "directory":
            (pred_dir / "hostile.nii").mkdir()
        else:
            (pred_dir / "hostile.nii.gz").write_bytes(hostile_nifti_bytes(kind, mask))
        write_nifti(VolumeGrid(data=mask, spacing=(1, 1, 1)), gt_dir / "hostile.nii")
        out = tmp_path / "out"
        assert main(["eval", str(pred_dir), str(gt_dir), "--out", str(out), "--jobs", jobs]) == EXIT_PARTIAL
        err = capsys.readouterr().err
        assert f"error: case hostile: {error}" in err and "Traceback" not in err
        rows = (out / "cases.csv").read_text().splitlines()
        assert [r.split(",")[0] for r in rows[1:]] == ["good"]
        assert json.loads((out / "summary.json").read_text())["failed_cases"] == ["hostile"]

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
        result = run_cli("eval", pred_dir, gt_dir, "--out", out,
                         env={WORKER_MEM_ENV: "8000"}, timeout=120, preexec_fn=cap)
        assert result.returncode == EXIT_USAGE, result.stderr
        assert result.stderr.startswith(f"error: {WORKER_MEM_ENV}='8000' ") and "4000 MB" in result.stderr
        assert not out.exists()
        result = run_cli("eval", pred_dir, gt_dir, "--out", out,
                         env={WORKER_MEM_ENV: "4000"}, timeout=120, preexec_fn=cap)
        assert result.returncode == EXIT_OK, result.stderr

    @pytest.mark.parametrize("command,jobs", [("eval", "1"), ("agree", "1"), ("eval", "2"), ("agree", "2")],
                             ids=["eval", "agree", "eval-jobs-2", "agree-jobs-2"])
    def test_worker_memory_cap_is_set_after_the_libraries_load(self, tmp_path, command, jobs):
        # Loading numpy's and scipy's shared objects under the cap failed (ImportError)
        # or hung in scipy's extension load. No agree case uses scipy, whose
        # mapping alone took about 130 MB of a capped agree worker's address space.
        # Forked workers inherit the recording setrlimit, so each call is a line in a file.
        pred_dir, gt_dir = two_case_dataset(tmp_path)
        calls = tmp_path / "setrlimit-calls"
        code = (
            "import os, resource, sys\n"
            "def record(which, limits):\n"
            "    with open(sys.argv[1], 'a') as f:\n"
            "        loaded = 'numpy' in sys.modules, 'scipy.ndimage' in sys.modules\n"
            "        f.write(repr((os.getpid(), which, limits, *loaded)) + '\\n')\n"
            "resource.setrlimit = record\n"
            "from volkit.cli import main\n"
            "assert main(sys.argv[2:]) == 0\n"
            "print(os.getpid(), resource.RLIMIT_AS, 'scipy.ndimage' in sys.modules)\n"
        )
        result = run_fresh(code, calls, command, pred_dir, gt_dir, "--out", tmp_path / "out", "--jobs", jobs,
                           env={WORKER_MEM_ENV: "64"})
        assert result.returncode == 0, result.stderr
        parent, rlimit_as, parent_loaded_ndimage = map(ast.literal_eval, result.stdout.split())
        lines = [ast.literal_eval(line) for line in calls.read_text().splitlines()]
        pids = [pid for pid, *_ in lines]
        if jobs == "1":
            assert pids == [parent]
        else:  # one line per worker of the two, none from the parent
            assert len(set(pids)) == len(pids) == 2 and parent not in pids
        assert all(line[1:] == (rlimit_as, (64 << 20, 64 << 20), True, command == "eval") for line in lines)
        assert parent_loaded_ndimage == (command == "eval" and jobs == "1")

    @pytest.mark.parametrize("command,kind", [("eval", None), ("eval", "cut-gzip"), ("agree", None)],
                             ids=["eval-clean", "eval-cut-gzip", "agree-clean"])
    def test_capped_serial_run_completes(self, tmp_path, command, kind):
        # a cut .nii.gz fails only its own case under the cap too, where zlib may
        # also run out of memory
        pred_dir, gt_dir = two_case_dataset(tmp_path)
        if kind is not None:
            mask = np.ones((3, 3, 1), dtype=np.uint8)
            (pred_dir / "cut.nii.gz").write_bytes(hostile_nifti_bytes(kind, mask))
            write_nifti(VolumeGrid(data=mask, spacing=(1, 1, 1)), gt_dir / "cut.nii")
        out = tmp_path / "out"
        result = run_cli(command, pred_dir, gt_dir, "--out", out, env={WORKER_MEM_ENV: "200"}, timeout=120)
        assert result.returncode == (EXIT_OK if kind is None else EXIT_PARTIAL), result.stderr
        rows = (out / ("cases.csv" if command == "eval" else "agreement.csv")).read_text().splitlines()
        assert [r.split(",")[0] for r in rows[1:]] == ["alpha", "beta"]

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

        pred_dir, gt_dir = three_case_dataset(tmp_path)
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

    @pytest.mark.parametrize("command,csv_name", [("eval", "cases.csv"), ("agree", "agreement.csv")])
    # Killed twice, a case is scored on its third run, the one it gets alone.
    @pytest.mark.parametrize("victim,kills", [("a", 1), ("c", 1), ("a", 2), ("c", 2)],
                             ids=["first-case", "last-case", "first-case-killed-twice", "last-case-killed-twice"])
    def test_a_worker_killed_once_gets_a_second_run(self, tmp_path, monkeypatch, capsys, command, csv_name, victim,
                                                    kills):
        import signal

        import volkit.cli as cli

        pred_dir, gt_dir = three_case_dataset(tmp_path)
        serial, out, killed = tmp_path / "serial", tmp_path / "out", tmp_path / "killed"
        assert main([command, str(pred_dir), str(gt_dir), "--out", str(serial), "--jobs", "1"]) == EXIT_OK
        real, parent = cli._load_mask, os.getpid()
        killed.touch()

        def load(path, threshold):
            if Path(path).stem == victim and os.getpid() != parent and killed.stat().st_size < kills:
                with open(killed, "ab") as f:  # one byte per kill, counted before it, so the next run sees it
                    f.write(b"k")
                os.kill(os.getpid(), signal.SIGKILL)
            return real(path, threshold)

        monkeypatch.setattr(cli, "_load_mask", load)
        assert main([command, str(pred_dir), str(gt_dir), "--out", str(out), "--jobs", "2"]) == EXIT_OK
        assert killed.stat().st_size == kills and "worker process died" not in capsys.readouterr().err
        assert (out / csv_name).read_bytes() == (serial / csv_name).read_bytes()

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

    @pytest.mark.parametrize("command,target", [("eval", "evaluate_case"), ("agree", "confusion")])
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

    def test_each_pair_is_counted_once(self, tmp_path, monkeypatch):
        # Dice and kappa come from one confusion count per pair, wherever it is called from
        import volkit.cli as cli
        from volkit import segmetrics

        real = segmetrics.confusion
        calls = []

        def counted(a, b):
            calls.append(1)
            return real(a, b)

        monkeypatch.setattr(cli, "confusion", counted)
        monkeypatch.setattr(segmetrics, "confusion", counted)
        a_dir, b_dir = two_case_dataset(tmp_path)
        out = tmp_path / "out"
        assert main(["agree", str(a_dir), str(b_dir), "--out", str(out), "--jobs", "1"]) == EXIT_OK
        assert len(calls) == 2

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
    """A pair stored in mixed units scores as its millimeter twin does."""

    @pytest.mark.parametrize("pred_pixdim,pred_units", [
        ((1, 1, 1), 2),  # mm beside a micron ground truth
        ((0.001, 0.001, 0.001), 1),  # meter
    ])
    def test_mixed_units_pass_the_spacing_check(self, tmp_path, pred_pixdim, pred_units):
        pred = np.zeros((10, 10, 10), dtype=np.uint8)
        gt = np.zeros_like(pred)
        pred[2:7, 2:7, 2:7] = 1
        gt[3:8, 2:7, 2:7] = 1
        twin = tmp_path / "mm"
        twin.mkdir()
        mm_dirs = write_mask_pair(twin, "c5.nii", pred, gt)
        pred_dir, gt_dir = tmp_path / "pred", tmp_path / "gt"
        for path, data, pixdim, units in [(pred_dir / "c5.nii", pred, pred_pixdim, pred_units),
                                          (gt_dir / "c5.nii", gt, (1000, 1000, 1000), 3)]:  # 3: micron
            raw = bytearray(build_nifti1_bytes(data, pixdim))
            raw[123] = units  # xyzt_units
            path.parent.mkdir()
            path.write_bytes(bytes(raw))
        out = tmp_path / "out"
        assert main(["eval", str(pred_dir), str(gt_dir), "--out", str(out)]) == EXIT_OK
        assert main(["eval", *map(str, mm_dirs), "--out", str(twin / "out")]) == EXIT_OK
        got, want = ((d / "cases.csv").read_text().splitlines() for d in (out, twin / "out"))
        assert got[0] == want[0] and got[1].startswith("c5,")
        # a float32 pixdim of 0.001 m is 1.00000005 mm
        assert [float(c) for c in got[1].split(",")[1:]] == pytest.approx(
            [float(c) for c in want[1].split(",")[1:]], abs=1e-6)


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

    # 0 and 1e-320 are finite, but (MAX - MIN) / STEP is not
    @pytest.mark.parametrize("step", ["0", "inf", "nan", "1e-320"])
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
        result = run_cli(*argv, timeout=60, preexec_fn=cap)
        assert result.returncode == EXIT_USAGE, result.stderr
        assert result.stderr.startswith("error: --curve STEP 1e-12 gives ")
        assert not (tmp_path / "curve.csv").exists()

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
        # check_properties' absolute tolerances must hold at the default n 64 and d 16 too
        assert main(["attn-check", "--trials", "3"]) == EXIT_OK

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

    @pytest.mark.parametrize("value,flag", [
        *((value, flag) for value in ("0", "-3") for flag in ("--n", "--d", "--trials")),
        ("4097", "--n"),  # above the n the unfactored comparison takes
        ("-1", "--seed"),  # default_rng's own error names no flag
    ])
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
        for row in slope_rows:
            _, d, _, _, flops = row.split(",")
            assert (d, flops) == ("8", "")

    @pytest.mark.parametrize("args", [
        ["--n-list", "64,abc"],
        ["--n-list", "0"],
        ["--n-list", "64,-8"],
        ["--n-list", ","],
        ["--d", "0"],
        ["--n-list", "64,64"],
        ["--n-list", "64,128,64"],
        ["--seed", "-1"],
    ])
    def test_bad_size_is_usage_error(self, tmp_path, capsys, args):
        out = tmp_path / "bench.csv"
        assert main(["attn-bench", "--n-list", "64", "--d", "8", *args, "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "--seed" not in args or "seed" in err
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

    @pytest.mark.parametrize("rows,want", [
        # each vpe within its own Dice's bounds, the mean |vpe| of 9 above the bound at mean Dice 0.55
        (["c0,1,10,10,0", "c1,0.1,380,20,18"], {"avpe_bound": 2 / 0.55 - 2, "avpe_bound_satisfied": False}),
        (["c0,0,0,10,-1", "c1,0,60,20,2"], {}),  # no bound at mean Dice 0
    ], ids=["heterogeneous", "every-dice-0"])
    def test_avpe_bound_keys(self, tmp_path, rows, want):
        path = tmp_path / "cases.csv"
        path.write_text("\n".join(["case_id,dice,pred_ml,gt_ml,vpe", *rows]) + "\n")
        out = tmp_path / "vol.json"
        assert main(["volume", str(path), "--out", str(out)]) == EXIT_OK
        result = json.loads(out.read_text())
        assert {k: v for k, v in result.items() if k.startswith("avpe_bound")} == pytest.approx(want)

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

    def test_values_beyond_float_range_are_io_error(self, tmp_path, capsys):
        # finite volumes >= 0 whose squared deviations overflow to inf, so the slope is NaN (no NaN
        # may reach volume.json), or so small that the product of their sums underflows to 0
        path = tmp_path / "cases.csv"
        out = tmp_path / "vol.json"
        for rows, message in (("c0,0.9,,,,,,1e200,1e-200,0\nc1,0.9,,,,,,1e-200,1e200,0\n", "not JSON compliant"),
                              ("c0,0.9,,,,,,1e-160,1e-160,0\nc1,0.9,,,,,,3e-160,2e-160,0.5\n", "division by zero")):
            path.write_text("case_id,dice,jaccard,precision,recall,hd95_mm,assd_mm,pred_ml,gt_ml,vpe\n" + rows)
            assert main(["volume", str(path), "--out", str(out)]) == EXIT_IO
            assert re.fullmatch(rf"error: \S.*{message}.*\n", capsys.readouterr().err)
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


# Each command that reads an eval CSV through cli._eval_rows: its argv before the CSV's path, the
# columns it needs and the columns it may lack.
CSV_READERS = {
    "bounds-audit": (("bounds", "--audit"), ("dice", "vpe"), ()),
    "volume": (("volume",), ("gt_ml", "pred_ml", "dice"), ("vpe",)),
}
ROW_4 = "c2,0.9,,,,,,3,3,0"  # in every range, until a test spoils its cells
# Cells spoiled in row 4; the last one is refused (a subnormal dice is in range).
HOSTILE_CELLS = [
    {"dice": "0.9x"}, {"dice": "nan"}, {"dice": "NaN"}, {"dice": "inf"}, {"dice": "1.5"}, {"dice": "-0.2"},
    {"dice": "1e-310", "vpe": "-2"}, {"vpe": "zero"}, {"vpe": "nan"}, {"vpe": "inf"}, {"vpe": "-inf"},
    {"vpe": "-1.5"}, {"gt_ml": "NA"}, {"gt_ml": "nan"}, {"gt_ml": "-inf"}, {"gt_ml": "-3"},
    {"pred_ml": "inf"}, {"pred_ml": "-5"},
]
# CSVs without a column the commands need: text, then the column bounds --audit names and the one volume names.
FOREIGN_CSVS = {
    "agree-csv": ("case_id,dice,kappa\nc0,0.9,0.8\n", "vpe", "gt_ml"),
    "empty-file": ("", "dice", "gt_ml"),
    "other-csv": ("foo,bar\n1,2\n", "dice", "gt_ml"),
}


def without_column(text, column):
    rows = [line.split(",") for line in text.splitlines()]
    drop = rows[0].index(column)
    return "".join(",".join(cells[:drop] + cells[drop + 1:]) + "\n" for cells in rows)


class TestEvalCsvReader:
    """Each rule of the reader ``bounds --audit`` and ``volume`` share, through every command that reads
    the column a hostile input spoils. A refusal exits 3 with one ``error:`` line naming the row and
    case (or the file, or the column), and writes no output."""

    @staticmethod
    def refused(capsys, command, path, named):
        out = path.parent / "out.json"
        assert main([*CSV_READERS[command][0], str(path), "--out", str(out)]) == EXIT_IO
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: [^\n]+\n", err) and named in err, err
        assert not out.exists()

    @pytest.mark.parametrize("command", CSV_READERS)
    def test_missing_file(self, tmp_path, capsys, command):
        missing = tmp_path / "missing.csv"
        self.refused(capsys, command, missing, str(missing))

    @pytest.mark.parametrize("command,cells", [
        pytest.param(command, cells, id="-".join([command, *(f"{k}-{v}" for k, v in cells.items())]))
        for cells in HOSTILE_CELLS for command, (_, required, optional) in CSV_READERS.items()
        if set(cells) <= {*required, *optional}
    ])
    def test_cell_outside_its_rule(self, tmp_path, capsys, command, cells):
        header = EVAL_CSV.split("\n", 1)[0].split(",")
        row = {**dict(zip(header, ROW_4.split(","))), **cells}
        path = tmp_path / "cases.csv"
        path.write_text(EVAL_CSV + ",".join(row.values()) + "\n")
        column, value = [*cells.items()][-1]
        self.refused(capsys, command, path, f"row 4 (case c2): {column}={value!r}")

    @pytest.mark.parametrize("command", CSV_READERS)
    def test_file_not_utf8(self, tmp_path, capsys, command):
        path = tmp_path / "cases.csv"
        path.write_bytes(EVAL_CSV.encode() + b"c\xff,0.9,,,,,,3,3,0\n")
        self.refused(capsys, command, path, str(path))

    @pytest.mark.parametrize("command,text,column", [
        pytest.param(command, without_column(EVAL_CSV, column), column, id=f"{command}-without-{column}")
        for command, (_, required, _) in CSV_READERS.items() for column in required
    ] + [
        pytest.param(command, text, column, id=f"{command}-{name}")
        for name, (text, *columns) in FOREIGN_CSVS.items() for command, column in zip(CSV_READERS, columns)
    ])
    def test_missing_column(self, tmp_path, capsys, command, text, column):
        path = tmp_path / "cases.csv"
        path.write_text(text)
        self.refused(capsys, command, path, f"{path} has no {column} column")


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


class TestStartup:
    def test_unknown_module_attribute_still_raises(self):
        from volkit import segmetrics

        with pytest.raises(AttributeError):
            segmetrics.no_such_name

    def test_python_m_volkit_cli_exits_with_mains_code(self, tmp_path, capsys):
        argv = ["bounds", "--curve", "0.5", "0.9", "0.1", "--out", "-"]
        assert main(argv) == EXIT_OK
        result = run_cli(*argv)
        assert result.returncode == EXIT_OK, result.stderr
        assert result.stdout == capsys.readouterr().out
        result = run_cli("bounds", "--curve", "0.1", "1", "inf", "--out", "-")
        assert result.returncode == EXIT_USAGE
        assert [line for line in result.stderr.splitlines() if line.startswith("error:")] == [
            "error: curve range must satisfy 0 < MIN <= MAX <= 1 with a finite STEP > 0"
        ]
        assert run_cli("volume", tmp_path / "missing.csv").returncode == EXIT_IO

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


class TestCsvCells:
    def test_every_cell_passes_the_one_rule(self):
        text = _csv(("id", "n", "flops", "x", "y"), [("a,b", 3, 2181038080, 0.1234567, None)])
        assert text == 'id,n,flops,x,y\n"a,b",3,2181038080,0.123457,\n'


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
        ("eval", "_fmt", 21),  # first cell of the second case row, after 10 header and 10 first-row cells
        ("agree", "_fmt", 7),  # first cell of the second case row
        ("bounds-curve", "_fmt", 11),  # first cell of the second curve row
        ("bounds-audit", "_dump_json", 1),
        ("volume", "_dump_json", 1),
        ("attn-bench", "_fmt", 14),  # the second timing row's median_seconds
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

    def test_failed_replace_leaves_no_temporary_file(self, tmp_path, monkeypatch, capsys):
        # the temporary file is written whole, then its rename fails
        import errno

        import volkit.cli as cli

        out = tmp_path / "out"
        argv = self.argv(tmp_path, "eval", out)
        assert main(argv) == EXIT_OK
        before = {p.name: p.read_bytes() for p in out.iterdir()}

        def no_space(src, dst):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(cli.os, "replace", no_space)
        capsys.readouterr()
        assert main(argv) == EXIT_IO
        assert f"error: cannot write {out / 'cases.csv'}: {os.strerror(errno.ENOSPC)}" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    @pytest.mark.parametrize("command", ["eval", "agree"])
    def test_failed_summary_replace_leaves_no_mismatched_pair(self, tmp_path, monkeypatch, capsys, command):
        # the CSV is replaced, then summary.json's rename fails: the earlier run's summary must not stay
        import errno

        import volkit.cli as cli

        out, fresh = tmp_path / "out", tmp_path / "fresh"
        argv = self.argv(tmp_path, command, out)
        assert main(argv) == EXIT_OK
        (Path(argv[1]) / "beta.nii").unlink()  # the next run scores one case of the two
        assert main([*argv[:-1], str(fresh)]) == EXIT_OK
        (csv_file,) = fresh.glob("*.csv")
        real_replace = os.replace

        def no_space_for_summary(src, dst):
            if Path(dst).name == "summary.json":
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            real_replace(src, dst)

        monkeypatch.setattr(cli.os, "replace", no_space_for_summary)
        capsys.readouterr()
        assert main(argv) == EXIT_IO
        assert f"error: cannot write {out / 'summary.json'}: {os.strerror(errno.ENOSPC)}" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == {csv_file.name: csv_file.read_bytes()}

    @pytest.mark.parametrize("command", ["bounds-curve", "bounds-audit", "volume", "attn-bench"])
    def test_out_to_a_device_is_written_in_place(self, tmp_path, command):
        # a FIFO takes the branch /dev/null takes, and a regression replaces only it
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            argv = self.argv(tmp_path, command, tmp_path)
            assert main([*argv[:-1], str(fifo)]) == EXIT_OK
            assert stat.S_ISFIFO(os.stat(fifo).st_mode)
            assert os.read(reader, 1 << 16).endswith(b"\n")
        finally:
            os.close(reader)


class TestHostileInputsProperty:
    """Fixed-seed mutations of valid inputs: every outcome is a defined one, never an escape."""

    # (offset, struct format) of each header field the field edits overwrite;
    # ``dim`` and ``pixdim`` entries are overwritten one at a time.
    INT_FIELDS = [(0, "i"), *((40 + 2 * i, "h") for i in range(8)), (70, "h"), (72, "h")]
    FLOAT_FIELDS = [*((76 + 4 * i, "f") for i in range(8)), (108, "f"), (112, "f"), (116, "f")]

    @staticmethod
    def packed(field, value):
        offset, fmt = field
        return offset, struct.pack("<" + fmt, value)

    edits = st.one_of(
        st.builds(packed.__func__, st.sampled_from(INT_FIELDS[:1]), st.integers(-2**31, 2**31 - 1)),
        st.builds(packed.__func__, st.sampled_from(INT_FIELDS[1:]), st.integers(-2**15, 2**15 - 1)),
        st.builds(packed.__func__, st.sampled_from(FLOAT_FIELDS), st.floats(width=32)),
        st.builds(lambda magic: (344, magic), st.binary(min_size=4, max_size=4)),
    )

    def test_mutated_nifti_is_scored_or_fails_with_a_message(self, tmp_path):
        """The one NIfTI fuzzer: every mutant goes through ``_eval_one`` for eval and agree
        beside a valid partner, and is scored or fails as a NiftiError or ValueError."""
        data = np.zeros((8, 8, 8), dtype=np.uint8)
        data[2:6, 3:7, 1:5] = 1
        valid = build_nifti1_bytes(data, (0.8, 0.8, 1.5))
        partner, path = tmp_path / "partner.nii", tmp_path / "mutant.nii"
        partner.write_bytes(valid)
        outcomes = {"scored": 0, "failed": 0}

        def check(raw, mutant_first):
            path.write_bytes(raw)
            pair = (path, partner) if mutant_first else (partner, path)
            for command in ("eval", "agree"):
                task = (_DATASETS[command].measure, "c", str(pair[0]), str(pair[1]), 0.5)
                case_id, result, error = _eval_one(task)
                assert case_id == "c" and (result is None) != (error is None), (command, raw)
                if error is None:
                    outcomes["scored"] += 1
                else:
                    assert re.fullmatch(r"(NiftiError|ValueError): \S.*", error, re.S), (command, error, raw)
                    outcomes["failed"] += 1

        rng = np.random.default_rng(14)
        for i in range(1000):
            raw = bytearray(valid)
            if i % 3 == 2:  # truncation
                del raw[int(rng.integers(0, len(raw))):]
            else:  # 1-4 byte flips, in the header (352 bytes with the pad) or in the payload
                lo, hi = (0, 352) if i % 3 == 0 else (352, len(raw))
                for at in rng.integers(lo, hi, size=int(rng.integers(1, 5))):
                    raw[at] ^= int(rng.integers(1, 256))
            if rng.random() < 0.3:  # gzip-wrapped, half of those cut off
                raw = gzip.compress(bytes(raw), mtime=0)
                if rng.random() < 0.5:
                    raw = raw[: int(rng.integers(0, len(raw)))]
            check(bytes(raw), i % 2)

        # one header field set to any value its type holds, then maybe gzip-wrapped, then maybe cut
        @settings(max_examples=400)
        @given(edit=st.one_of(st.none(), self.edits), gzipped=st.booleans(),
               cut=st.one_of(st.none(), st.integers(min_value=0)), mutant_first=st.booleans())
        def field_edits(edit, gzipped, cut, mutant_first):
            raw = bytearray(valid)
            if edit is not None:
                offset, value = edit
                raw[offset:offset + len(value)] = value
            raw = gzip.compress(bytes(raw), mtime=0) if gzipped else bytes(raw)
            if cut is not None:
                raw = raw[: cut % (len(raw) + 1)]
            check(raw, mutant_first)

        field_edits()
        assert min(outcomes.values()) > 0, outcomes

    def test_mutated_eval_csv_exits_0_3_or_4_with_an_error_line(self, tmp_path, capsys):
        rng = np.random.default_rng(14)
        tokens = ["", "nan", "inf", "-inf", "1e400", "-1e400", "abc", "1e308", "-2", "2", "0", "-0",
                  " 0.5", "0x10", "1_0", "\u0661", "\x00", '"', '""', "1,5", "\r", "\n", "\ufeff"]
        inserts = ['"', ",", "\r", "\n", "\x00", "\ufeff", "\u00e9"]
        encodings = ["utf-8"] * 6 + ["utf-8-sig", "utf-16", "utf-16-le", "latin-1", "cp1252"]
        path = tmp_path / "cases.csv"
        codes = set()
        for i in range(500):
            text = EVAL_CSV
            for _ in range(int(rng.integers(1, 4))):
                op = int(rng.integers(0, 4))
                if op == 0:  # one cell, the header's included, replaced by a hostile token
                    lines = text.split("\n")
                    row = int(rng.integers(0, len(lines)))
                    cells = lines[row].split(",")
                    cells[int(rng.integers(0, len(cells)))] = tokens[int(rng.integers(0, len(tokens)))]
                    lines[row] = ",".join(cells)
                    text = "\n".join(lines)
                elif op == 1:  # a quote, separator, line break, NUL, BOM or non-ASCII letter inserted
                    at = int(rng.integers(0, len(text) + 1))
                    text = text[:at] + inserts[int(rng.integers(0, len(inserts)))] + text[at:]
                elif op == 2 and text:  # a character deleted
                    at = int(rng.integers(0, len(text)))
                    text = text[:at] + text[at + 1:]
                else:  # CRLF or bare CR line ends
                    text = text.replace("\n", ["\r\n", "\r"][int(rng.integers(0, 2))])
            raw = text.encode(encodings[int(rng.integers(0, len(encodings)))], errors="replace")
            if rng.random() < 0.2:  # cut off, possibly inside a multi-byte character
                raw = raw[: int(rng.integers(0, len(raw) + 1))]
            path.write_bytes(raw)
            for argv in (["bounds", "--audit", str(path)], ["volume", str(path)]):
                code = main(argv)
                err = capsys.readouterr().err
                assert code in (EXIT_OK, EXIT_IO, EXIT_CHECK), (i, argv[0], code, raw)
                if code != EXIT_OK:
                    assert re.search(r"^error: \S", err, re.M), (i, argv[0], err, raw)
                codes.add(code)
        assert codes == {EXIT_OK, EXIT_IO, EXIT_CHECK}
