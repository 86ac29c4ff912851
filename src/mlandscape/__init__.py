"""Landscape-based localization bounds for symmetric banded matrices."""

from .matrices import (
    EnsembleConfig,
    MatrixClass,
    MatrixFormatError,
    NonPositiveLandscapeError,
    NotPositiveDefiniteError,
    SparseSymMatrix,
    classify,
    connectivity,
    generate_band_ensemble,
    read_matrix,
    restrict,
    shift_to_epsilon,
    smallest_eigenvalue,
    write_matrix,
)
from .landscape import (
    LandscapeData,
    ShiftedPotential,
    landscape_from_vector,
    shift_potential,
    solve_landscape,
    write_landscape_csv,
)
from .agmon import (
    AgmonMetric,
    DistanceField,
    ThresholdFields,
    band_lower_bound,
    build_metric,
    distance_from_set,
    inner_boundary,
    pairwise_distance,
    threshold_fields,
)
from .spectral import (
    EigenDecomposition,
    LocalEigenData,
    counting_global,
    counting_local,
    eig_sym,
    global_projector,
    local_eig,
    local_projector,
    project,
    write_eigenvalues_csv,
)
from .partition import (
    WellPartition,
    build_partition,
    merge_close_wells,
    partition_report_dict,
    verify_separation,
    voronoi_regions,
    well_components,
    write_partition_json,
)
from .checks import (
    CountingReport,
    DecouplingReport,
    EmptyWellSetError,
    LocalizationReport,
    LocalizationReports,
    ScatterData,
    agmon_scatter,
    check_commutator_identity,
    check_counting,
    check_dc_corollary,
    check_decoupling_global,
    check_decoupling_local,
    check_double_commutator_lemma,
    check_general_localization,
    check_landscape_localization,
    write_scatter_csv,
)
from .experiment import (
    ExperimentConfig,
    dump_config,
    load_config,
    run_verification,
)
from .figures import (
    render_lines_svg,
    render_partition_svg,
    render_scatter_svg,
    write_overlay_csv,
    write_potential_csv,
)

__version__ = "0.1.0"
