from importlib import import_module

import pytest

import volkit
from conftest import run_fresh

# Every public name of ``volkit``, with the module that defines it.
PUBLIC = {
    "volgrid": "BinaryMask NiftiError VolumeGrid binarize load_nifti write_nifti",
    "segmetrics": "CaseMetrics ConfusionCounts UndefinedMetricError boundary_metrics cohen_kappa "
                  "confusion edt evaluate_case extract_surface region_metrics",
    "volbounds": "VpeBounds avpe_bound bound_curve verify_bounds_exhaustive vpe vpe_bounds_from_dice",
    "cohortstats": "MetricSummary RegressionFit TTestResult cohort_report linear_fit "
                   "paired_t_test summarize",
    "linattn": "AttentionGradients AttentionOutput AttentionTensors attention_cost bench_attention "
               "linear_attention linear_attention_backward quadratic_attention softmax_cols "
               "softmax_rows",
}
EXPORTS = {name: module for module, names in PUBLIC.items() for name in names.split()}


def test_every_public_name_resolves_to_its_definition():
    for name, module in EXPORTS.items():
        assert getattr(volkit, name) is getattr(import_module(f"volkit.{module}"), name), name
    assert volkit.__version__ == "0.1.0"


def test_star_import_gives_every_public_name():
    namespace = {}
    exec("from volkit import *", namespace)
    assert set(EXPORTS) <= set(namespace)
    assert set(volkit.__all__) == set(EXPORTS)
    for name, module in EXPORTS.items():
        assert namespace[name] is getattr(import_module(f"volkit.{module}"), name), name


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        volkit.no_such_name


def test_submodules_import_from_the_package_in_a_fresh_interpreter():
    code = "from volkit import cli, segmetrics; assert callable(segmetrics.confusion) and callable(cli.main)"
    result = run_fresh(code)
    assert result.returncode == 0, result.stderr


def test_dir_lists_every_public_name_before_any_is_used():
    code = (
        "import sys, volkit\n"
        "missing = set(volkit.__all__) - set(dir(volkit))\n"
        "assert not missing, sorted(missing)\n"
        "assert 'numpy' not in sys.modules, 'numpy imported'\n"
    )
    result = run_fresh(code)
    assert result.returncode == 0, result.stderr
