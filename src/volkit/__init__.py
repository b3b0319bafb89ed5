"""Volumetric segmentation evaluation toolkit.

Core pieces: 3D volumes and NIfTI-1 I/O (:mod:`volkit.volgrid`), region and
boundary metrics (:mod:`volkit.segmetrics`), Dice-derived volume-error
bounds (:mod:`volkit.volbounds`), cohort statistics
(:mod:`volkit.cohortstats`), the linear-attention kernel
(:mod:`volkit.linattn`), and the batch CLI (:mod:`volkit.cli`).

The public names below, listed with what reaches each one in the README's
"Public API" table, are imported from their modules on first access, so that
importing :mod:`volkit.cli` (which imports this package first) does not load
numpy.
"""

from importlib import import_module

# public name -> the module that defines it
_EXPORTS = {
    **dict.fromkeys(
        ("BinaryMask", "NiftiError", "VolumeGrid", "binarize", "load_nifti", "write_nifti"),
        "volgrid",
    ),
    **dict.fromkeys(
        ("CaseMetrics", "ConfusionCounts", "UndefinedMetricError", "boundary_metrics",
         "cohen_kappa", "confusion", "edt", "evaluate_case", "region_metrics"),
        "segmetrics",
    ),
    **dict.fromkeys(
        ("VpeBounds", "avpe_bound", "bound_curve", "verify_bounds_exhaustive", "vpe",
         "vpe_bounds_from_dice"),
        "volbounds",
    ),
    **dict.fromkeys(
        ("MetricSummary", "RegressionFit", "TTestResult", "cohort_report", "linear_fit",
         "paired_t_test", "summarize"),
        "cohortstats",
    ),
    **dict.fromkeys(
        ("AttentionGradients", "AttentionOutput", "AttentionTensors", "attention_cost",
         "bench_attention", "linear_attention", "linear_attention_backward", "quadratic_attention"),
        "linattn",
    ),
}

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
