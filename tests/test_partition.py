"""Well components, merging, Voronoi regions, and the separation audit."""

import json
import math

import numpy as np
import pytest

from mlandscape import (
    AgmonMetric,
    ShiftedPotential,
    SparseSymMatrix,
    build_metric,
    build_partition,
    merge_close_wells,
    partition_report_dict,
    shift_potential,
    solve_landscape,
    verify_separation,
    voronoi_regions,
    well_components,
    write_partition_json,
    EnsembleConfig,
    generate_band_ensemble,
)

INF = float("inf")


def chain(n, weight=-1.0, diag=0.0):
    return SparseSymMatrix(n, [diag] * n, [(i, i + 1, weight) for i in range(1, n)])


def metric_for(A, weights, wells=frozenset()):
    """Metric on A's edge set with prescribed weights (keyed by (i, j), i < j)."""
    off_i, off_j, _ = A.off_arrays()
    w = np.array([weights[(int(i), int(j))] for i, j in zip(off_i, off_j)])
    sp = ShiftedPotential(threshold=0.0, v=np.zeros(A.n), wells=frozenset(wells))
    return AgmonMetric(matrix=A, edge_w=w, provenance=sp)


def uniform_metric(A, w=1.0, wells=frozenset()):
    off_i, off_j, _ = A.off_arrays()
    return metric_for(A, {(int(i), int(j)): w for i, j in zip(off_i, off_j)}, wells)


# ---------------------------------------------------------------- components


def test_components_on_a_chain():
    comps = well_components(chain(10), {2, 3, 7, 8})
    assert comps == [frozenset({2, 3}), frozenset({7, 8})]


def test_components_empty_and_isolated():
    assert well_components(chain(5), set()) == []
    diag_only = SparseSymMatrix(4, [1.0] * 4)
    assert well_components(diag_only, {3, 1}) == [frozenset({1}), frozenset({3})]


def test_components_validate_indices():
    with pytest.raises(ValueError, match="outside"):
        well_components(chain(3), {4})


# ---------------------------------------------------------------- merging


def test_merge_keeps_separated_wells():
    A = chain(9)
    m = uniform_metric(A)
    comps = [frozenset({1}), frozenset({9})]  # distance 8
    assert merge_close_wells(comps, m, 3.0) == comps


def test_merge_joins_close_wells():
    A = chain(5)
    m = uniform_metric(A)
    merged = merge_close_wells([frozenset({1}), frozenset({3})], m, 2.5)
    assert merged == [frozenset({1, 3})]


def test_merge_is_transitive():
    # 1 and 7 are 4 apart (>= min_sep) but chained through 4
    A = chain(7)
    m = metric_for(
        A,
        {(1, 2): 1.0, (2, 3): 1.0, (3, 4): 0.0, (4, 5): 0.0, (5, 6): 1.0, (6, 7): 1.0},
    )
    comps = [frozenset({1}), frozenset({4}), frozenset({7})]
    assert merge_close_wells(comps, m, 2.5) == [frozenset({1, 4, 7})]


def test_merge_empty():
    assert merge_close_wells([], uniform_metric(chain(2)), 1.0) == []


# ---------------------------------------------------------------- voronoi


def test_voronoi_single_well_takes_everything():
    A = chain(4)
    regions = voronoi_regions(A, [frozenset({2})], uniform_metric(A))
    assert regions == [frozenset({1, 2, 3, 4})]


def test_voronoi_tie_goes_to_the_lower_well():
    A = chain(5)
    regions = voronoi_regions(
        A, [frozenset({1}), frozenset({5})], uniform_metric(A)
    )
    # site 3 sits at distance 2 from both wells
    assert regions == [frozenset({1, 2, 3}), frozenset({4, 5})]


def test_voronoi_blocks():
    A = SparseSymMatrix(4, [0.0] * 4, [(1, 2, -1.0), (3, 4, -1.0)])
    regions = voronoi_regions(A, [frozenset({1}), frozenset({4})], uniform_metric(A))
    assert regions == [frozenset({1, 2}), frozenset({3, 4})]


# ---------------------------------------------------------------- audit


def test_audit_block_diagonal_is_infinitely_separated():
    A = SparseSymMatrix(
        8,
        [2.0] * 4 + [5.0] * 4,
        [(1, 2, -1.0), (2, 3, -1.0), (3, 4, -1.0), (5, 6, -1.0), (6, 7, -1.0), (7, 8, -1.0)],
    )
    m = uniform_metric(A, wells=frozenset({2, 6}))
    part = build_partition(A, m, s_requested=1e9)
    assert part.wells == (frozenset({2}), frozenset({6}))
    assert part.regions == (frozenset({1, 2, 3, 4}), frozenset({5, 6, 7, 8}))
    assert part.s_achieved == INF
    assert part.well_separation == INF
    assert part.axioms_hold
    assert part.unassigned == frozenset()


def test_audit_boundary_axiom_is_stricter_than_complement():
    # region shrunk to its well: the inner boundary touches the well itself
    A = chain(3)
    m = metric_for(A, {(1, 2): 0.8, (2, 3): 0.8}, wells=frozenset({1}))
    part = verify_separation(A, [frozenset({1})], [frozenset({1})], m, 0.5)
    assert part.axiom_disjoint
    assert part.axiom_complement  # complement {2, 3} is 0.8 away
    assert not part.axiom_boundary  # the boundary {1} is the well: distance 0
    assert part.boundary_well_distances == (0.0,)
    assert part.complement_well_distances == (pytest.approx(0.8),)
    assert not part.axioms_hold


def test_audit_detects_overlap():
    A = chain(3)
    m = uniform_metric(A)
    part = verify_separation(
        A, [frozenset({1}), frozenset({3})],
        [frozenset({1, 2}), frozenset({2, 3})], m, 0.1,
    )
    assert not part.axiom_disjoint


def test_audit_length_mismatch():
    A = chain(3)
    with pytest.raises(ValueError, match="wells but"):
        verify_separation(A, [frozenset({1})], [], uniform_metric(A), 1.0)


def test_unreachable_sites_are_parked_and_reported():
    A = SparseSymMatrix(3, [0.0] * 3, [(1, 2, -1.0)])
    m = uniform_metric(A, wells=frozenset({1}))
    part = build_partition(A, m, s_requested=0.5)
    assert part.unassigned == frozenset({3})
    assert 3 in part.regions[0]


def test_boundary_distance_never_exceeds_complement_distance():
    """Leaving a region crosses its inner boundary first."""
    rng = np.random.default_rng(99)
    for _ in range(15):
        n = int(rng.integers(6, 30))
        w = int(rng.integers(1, 3))
        A, _ = generate_band_ensemble(EnsembleConfig(n=n, half_bandwidth=w, seed=int(rng.integers(1, 1000))))
        L = solve_landscape(A)
        ebar = float(np.quantile(L.vbar, 0.3))
        sp = shift_potential(L, ebar)
        if not sp.wells:
            continue
        part = build_partition(A, build_metric(A, sp), s_requested=1.0)
        for b, c in zip(part.boundary_well_distances, part.complement_well_distances):
            assert c >= b - 1e-12
        if part.axiom_boundary:
            assert part.axiom_complement


def test_build_partition_covers_every_index():
    A, _ = generate_band_ensemble(EnsembleConfig(n=80, half_bandwidth=1, seed=3))
    L = solve_landscape(A)
    ebar = float(np.quantile(L.vbar, 0.2))
    sp = shift_potential(L, ebar)
    part = build_partition(A, build_metric(A, sp), s_requested=2.0)
    assert part.axiom_disjoint
    union = set()
    for reg in part.regions:
        union |= reg
    assert union | part.unassigned == set(range(1, 81))
    for well, reg in zip(part.wells, part.regions):
        assert well <= reg  # a well is distance 0 from itself


# ---------------------------------------------------------------- report


def test_report_dict_layout():
    A = SparseSymMatrix(4, [0.0] * 4, [(1, 2, -1.0), (3, 4, -1.0)])
    m = uniform_metric(A, wells=frozenset({1, 4}))
    part = build_partition(A, m, s_requested=2.0)
    rep = partition_report_dict(part)
    assert rep["wells"] == [[1], [4]]
    assert rep["regions"] == [[1, 2], [3, 4]]
    assert rep["s_achieved"] == "inf"
    assert rep["well_separation"] == "inf"
    assert rep["axioms"] == {"disjoint": True, "complement": True, "boundary": True}
    assert rep["unassigned"] == []


def test_report_json_round_trips(tmp_path):
    A = chain(5)
    m = uniform_metric(A, wells=frozenset({3}))
    part = build_partition(A, m, s_requested=0.5)
    p = tmp_path / "partition.json"
    write_partition_json(p, part)
    data = json.loads(p.read_text())
    assert data["regions"] == [[1, 2, 3, 4, 5]]
    assert data["s_requested"] == 0.5
    # the lone region has no inner boundary, so separation is infinite
    assert data["s_achieved"] == "inf"
