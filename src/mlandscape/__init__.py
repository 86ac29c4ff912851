"""Landscape-based localization bounds for symmetric banded matrices.

``import mlandscape`` imports no submodule. Each public name below is bound
the first time it is read: the submodule that defines it is imported then
(with whatever it imports itself), and the value is stored in this
namespace, so later reads are plain attribute lookups (PEP 562). Drawing and
writing a matrix thus loads ``matrices`` and ``_lapack`` alone, not the
checks, the metric or the figures. ``from mlandscape import agmon`` imports
the submodule itself, as it would without this table.
"""

_EXPORTS = {
    "matrices": (
        "EnsembleConfig",
        "MatrixClass",
        "MatrixFormatError",
        "NonPositiveLandscapeError",
        "NotPositiveDefiniteError",
        "SparseSymMatrix",
        "classify",
        "connectivity",
        "generate_band_ensemble",
        "read_matrix",
        "restrict",
        "shift_to_epsilon",
        "smallest_eigenvalue",
        "write_matrix",
    ),
    "landscape": (
        "LandscapeData",
        "ShiftedPotential",
        "landscape_from_vector",
        "shift_potential",
        "solve_landscape",
        "write_landscape_csv",
    ),
    "agmon": (
        "AgmonMetric",
        "DistanceField",
        "ThresholdFields",
        "band_lower_bound",
        "build_metric",
        "distance_from_set",
        "inner_boundary",
        "pairwise_distance",
        "threshold_fields",
    ),
    "spectral": (
        "EigenDecomposition",
        "LocalEigenData",
        "counting_global",
        "counting_local",
        "eig_sym",
        "global_projector",
        "local_eig",
        "local_projector",
        "project",
        "write_eigenvalues_csv",
    ),
    "partition": (
        "WellPartition",
        "build_partition",
        "merge_close_wells",
        "partition_report_dict",
        "verify_separation",
        "voronoi_regions",
        "well_components",
        "write_partition_json",
    ),
    "checks": (
        "CountingReport",
        "DecouplingReport",
        "EmptyWellSetError",
        "LocalizationReport",
        "LocalizationReports",
        "ScatterData",
        "agmon_scatter",
        "check_commutator_identity",
        "check_counting",
        "check_dc_corollary",
        "check_decoupling_global",
        "check_decoupling_local",
        "check_double_commutator_lemma",
        "check_general_localization",
        "check_landscape_localization",
        "write_scatter_csv",
    ),
    "experiment": (
        "ExperimentConfig",
        "dump_config",
        "load_config",
        "run_verification",
    ),
    "figures": (
        "render_lines_svg",
        "render_partition_svg",
        "render_scatter_svg",
        "write_overlay_csv",
        "write_potential_csv",
    ),
}
__all__ = [name for names in _EXPORTS.values() for name in names]
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # ``from .<module> import <name>``: the import statement's own path, which
    # ``-X importtime`` reports (``importlib.import_module`` is not reported)
    value = getattr(__import__(_HOME[name], globals(), None, (name,), 1), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
