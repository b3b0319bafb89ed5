"""Tests of the benchmark itself: seeded inputs, span accounting, metric names
and the output checks. They run the generators and the CLI at reduced sizes."""

import json
import re
from pathlib import Path

import pytest

import run
import tracing
import workloads
from volkit import cli

SMALL_DIMS = (40, 36, 24)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def small(name, seed, work):
    """Each workload at a size that runs in well under a second."""
    if name == "small-cohort":
        return workloads.small_cohort(seed, work, n_cases=3)
    return workloads.ct_volume(seed, work, dims=SMALL_DIMS, linear_n=(256, 512), quadratic_n=(64, 128))


def input_bytes(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*.nii*"))}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(tmp_path, name):
    small(name, 5, tmp_path / "a")
    small(name, 5, tmp_path / "b")
    small(name, 6, tmp_path / "c")
    a, b, c = (input_bytes(tmp_path / d) for d in "abc")
    assert a and a == b
    assert a != c


def test_attn_inputs_come_from_the_seed(tmp_path):
    attn = [cmd for cmd in small("ct-volume", 5, tmp_path).commands if cmd.name == "attn-bench"]
    assert len(attn) == 2
    for cmd in attn:
        assert cmd.argv[cmd.argv.index("--seed") + 1] == "5"


def traced_pass(prepared):
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        wall, codes = run.run_in_process(cli.main, prepared.commands, tracer)
    return tracer.spans, wall, codes


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_spans_nest_and_self_times_add_up_to_traced_wall(tmp_path, name):
    prepared = small(name, 2, tmp_path)
    spans, wall, codes = traced_pass(prepared)
    assert codes == [0] * len(prepared.commands)
    assert all(not cmd.check().problems for cmd in prepared.commands)
    from volkit import linattn, segmetrics

    unwrapped = (cli.load_nifti, segmetrics.ndimage.distance_transform_edt, linattn._KERNELS["linear"])
    assert not any(hasattr(fn, "__wrapped__") for fn in unwrapped)

    for s in spans:
        assert s.start <= s.end
        if s.parent >= 0:
            parent = spans[s.parent]
            assert parent.start <= s.start and s.end <= parent.end
    own = tracing.self_times(spans)
    assert min(own) >= 0
    roots_total = sum(s.end - s.start for s in spans if s.parent < 0)
    assert sum(own) == pytest.approx(roots_total, rel=1e-9)
    # the traced wall also holds the loop between commands: 1% + 2 ms
    assert roots_total <= wall <= roots_total * 1.01 + 2e-3

    metrics = tracing.iteration_metrics(spans)
    layer_self = sum(t for s, t in zip(spans, own) if s.parent >= 0)
    assert metrics["cli.self_s"] + layer_self == pytest.approx(roots_total, rel=1e-9)


def test_edt_counts_match_reference_surfaces(tmp_path):
    prepared = workloads.ct_eval(3, tmp_path, n_cases=1, dims=SMALL_DIMS)
    spans, _, _ = traced_pass(prepared)
    metrics = tracing.iteration_metrics(spans)
    pred = workloads.read_uint8_nifti(tmp_path / "inputs" / "pred" / "ct000.nii.gz")
    gt = workloads.read_uint8_nifti(tmp_path / "inputs" / "gt" / "ct000.nii.gz")
    surfaces = sum(len(workloads.surface_points(m, (1, 1, 1))) for m in (pred, gt))
    assert metrics["segmetrics.pooled_distances"] == surfaces
    assert metrics["segmetrics.edt_calls"] == 2
    assert metrics["segmetrics.edt_voxels"] == 2 * pred.size


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    for group, ours in (("end_to_end", run.END_TO_END), ("per_layer", tracing.PER_LAYER)):
        assert {m["name"]: (m["unit"], m["better"]) for m in spec[group]} == ours
        for name, (unit, _) in ours.items():
            assert NAME.match(name), name
            assert UNIT.match(unit), unit
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_checks_reject_wrong_outputs(tmp_path):
    prepared = small("small-cohort", 4, tmp_path)
    assert run.run_in_process(cli.main, prepared.commands)[1] == [0, 0, 0]
    eval_cmd = prepared.commands[0]
    assert eval_cmd.check().problems == []
    cases = tmp_path / "out" / "cases.csv"
    lines = cases.read_text().splitlines()
    cells = lines[1].split(",")
    cells[5] = str(float(cells[5]) * 1.001)  # hd95_mm of the first case
    cases.write_text("\n".join([lines[0], ",".join(cells), *lines[2:]]) + "\n")
    check = eval_cmd.check()
    assert check.failed_cases == 1 and "hd95_mm" in check.problems[0]

    attn = workloads.attn_scaling(4, tmp_path / "attn", linear_n=(256, 512), quadratic_n=(64, 128))
    assert run.run_in_process(cli.main, attn.commands)[1] == [0, 0]
    out = Path(attn.commands[0].argv[-1])
    header, first, *rest = out.read_text().splitlines()
    cells = first.split(",")
    cells[4] = str(int(cells[4]) + 1)  # flops of the first row
    out.write_text("\n".join([header, ",".join(cells), *rest]) + "\n")
    assert attn.commands[0].check().failed_cases == 1


def test_importtime_parse_handles_lazy_packages():
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        300 |     numpy.core",
        "import time:       200 |        500 |   numpy",
        "import time:        50 |         50 |     scipy.ndimage._a",
        "import time:        70 |        170 |     scipy.ndimage._b",
        "import time:        30 |        250 |   volkit.segmetrics",
        "import time:        10 |        760 | volkit",
    ])
    got = tracing.parse_importtime(log)
    assert got["setup.import_numpy_s"] == pytest.approx(500e-6)
    assert got["setup.import_scipy_ndimage_s"] == pytest.approx(220e-6)
    assert got["setup.import_volkit_self_s"] == pytest.approx(40e-6)
    assert got["setup.import_volkit_total_s"] == pytest.approx(760e-6)
