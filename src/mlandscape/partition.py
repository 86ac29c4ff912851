"""Well components, merging, Voronoi-type regions, and separation axioms.

A "well" here is a connected component of the well set of a shifted potential
(components taken in the adjacency graph of the matrix).  Wells closer than a
minimum separation are merged transitively; every index is then assigned to
the region of its nearest well.  ``verify_separation`` evaluates the three
separation axioms and records the achieved margins; failures are reported in
the result, never raised.  Each step reads one distance field per well,
stacked as rows: ``build_partition`` runs one ``distance_from_set`` per
component, and a merged well's row is the least of its components' rows.

Both connectivity decisions, which well sites form a component and which
components merge, are one rule at every bandwidth: ``_components`` labels the
nodes of a graph given by its edges, the stored couplings between well sites
for the first and the pairs of components closer than the minimum separation
for the second.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

import numpy as np

from .agmon import AgmonMetric, INF, distance_from_set, inner_boundary
from .matrices import SparseSymMatrix, _index_mask, _pairs_inside, _write_json

__all__ = [
    "WellPartition",
    "well_components",
    "merge_close_wells",
    "voronoi_regions",
    "verify_separation",
    "build_partition",
    "write_partition_json",
    "partition_report_dict",
]


@dataclass(frozen=True, eq=False)
class WellPartition:
    """Wells, their Voronoi regions, and the separation audit.

    ``s_achieved`` is the smallest distance from a region's inner boundary to
    its own well; ``well_separation`` is the smallest well-to-well distance.
    ``unassigned`` lists indices unreachable from every well, always derived
    from the wells' distance fields; they are parked in region 0 and flagged
    here.
    """

    wells: tuple[frozenset[int], ...]
    regions: tuple[frozenset[int], ...]
    s_requested: float
    s_achieved: float
    well_separation: float
    axiom_disjoint: bool
    axiom_complement: bool
    axiom_boundary: bool
    boundary_well_distances: tuple[float, ...]
    complement_well_distances: tuple[float, ...]
    unassigned: frozenset[int]

    @property
    def axioms_hold(self) -> bool:
        return self.axiom_disjoint and self.axiom_complement and self.axiom_boundary


def _components(n: int, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Label of every node 0..n-1: the smallest node of its component in the graph of edges (i, j).

    Each round hooks the larger of an edge's two root labels onto the smaller,
    then shortcuts label = label[label] until every label is a root
    (Shiloach-Vishkin style); labels only fall, and each stays in its component.
    """
    label = np.arange(n)
    while True:
        a, b = label[i], label[j]
        if np.array_equal(a, b):
            return label
        np.minimum.at(label, np.maximum(a, b), np.minimum(a, b))  # a root hooked to itself stays
        jumped = label[label]
        while not np.array_equal(jumped, label):
            label, jumped = jumped, jumped[jumped]


def well_components(A: SparseSymMatrix, wells) -> list[frozenset[int]]:
    """Connected components of the well set in the graph of A.

    Components are ordered by their smallest member.
    """
    inside = _index_mask(A.n, wells)
    site = np.flatnonzero(inside)
    root = _components(A.n, *_pairs_inside(A, inside)[:2])[site]  # a component's smallest site
    return [frozenset((site[root == r] + 1).tolist()) for r in np.unique(root)]


def _rows(m: AgmonMetric, sets) -> np.ndarray:
    """Row l is the distance field from sets[l]: one ``distance_from_set`` per set."""
    if not all(sets):
        raise ValueError(f"well {next(k for k, s in enumerate(sets) if not s)} is empty")
    return np.reshape([distance_from_set(m, s).dist for s in sets], (len(sets), m.matrix.n))


def _masks(n: int, sets) -> np.ndarray:
    """Row l is the boolean mask of the 1-based sets[l]."""
    return np.reshape(np.array([_index_mask(n, s) for s in sets], dtype=bool), (len(sets), n))


def _least(rows: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """least[a, b] is the smallest of rows[a] where masks[b] holds; +inf where it holds nowhere.

    One gather of the masked columns and one segmented minimum: the cost is
    k times the masked sites, not k x k x n.
    """
    b, site = np.nonzero(masks)  # the sites of masks[0], then those of masks[1], ...
    gathered = np.concatenate([rows[:, site], np.full((len(rows), 1), INF)], axis=1)
    least = np.minimum.reduceat(gathered, np.searchsorted(b, np.arange(len(masks))), axis=1)
    return np.where(masks.any(axis=1), least, INF)  # reduceat reads an empty segment as one entry


def _merge(components, rows: np.ndarray, min_sep: float):
    """Merged wells and their rows: float addition is monotone, so the least of the
    components' rows is, bit for bit, the field of a Dijkstra from their union.
    """
    # rho(a, b) is read from a's row for a < b only: reversed sums can differ in the last bit
    close = np.triu(_least(rows, _masks(rows.shape[1], components)) < min_sep, 1)
    group = _components(len(components), *np.nonzero(close))
    wells = {r: frozenset().union(*compress(components, group == r)) for r in np.unique(group)}
    order = sorted(wells, key=lambda r: min(wells[r]))
    merged = [rows[group == r].min(axis=0) for r in order]
    return [wells[r] for r in order], np.reshape(merged, (len(order), rows.shape[1]))


def merge_close_wells(
    components: list[frozenset[int]],
    m: AgmonMetric,
    min_sep: float,
) -> list[frozenset[int]]:
    """Merge components transitively until all pairwise distances are >= min_sep.

    Since rho(K1 u K2, K3) = min(rho(K1, K3), rho(K2, K3)), merging never
    increases a distance, so the transitive closure over the "closer than
    min_sep" relation is exactly what is needed.  Results keep the order of
    their smallest member.
    """
    return _merge(components, _rows(m, components), min_sep)[0]


def _voronoi(rows: np.ndarray) -> list[frozenset[int]]:
    best = rows.argmin(axis=0) if len(rows) else None  # ties go to the lowest well id
    return [frozenset((np.flatnonzero(best == ell) + 1).tolist()) for ell in range(len(rows))]


def voronoi_regions(
    A: SparseSymMatrix,
    wells: list[frozenset[int]],
    m: AgmonMetric,
) -> list[frozenset[int]]:
    """Assign every index to its nearest well; ties go to the lowest well id.

    Indices at infinite distance from every well fall back to region 0.
    """
    return _voronoi(_rows(m, wells))


def _audit(A, wells, regions, rows: np.ndarray, s_requested) -> WellPartition:
    if len(wells) != len(regions):
        raise ValueError(f"{len(wells)} wells but {len(regions)} regions")
    inside = _masks(A.n, regions)
    boundaries = _masks(A.n, [inner_boundary(A, r) for r in regions])
    boundary_d = rows.min(axis=1, where=boundaries, initial=INF)
    complement_d = rows.min(axis=1, where=~inside, initial=INF)
    between = _least(rows, _masks(A.n, wells))
    np.fill_diagonal(between, INF)
    far = np.isinf(rows.min(axis=0, initial=INF)) if wells else np.zeros(A.n, dtype=bool)
    return WellPartition(
        wells=tuple(wells),
        regions=tuple(regions),
        s_requested=float(s_requested),
        s_achieved=float(boundary_d.min(initial=INF)),
        well_separation=float(between.min(initial=INF)),
        axiom_disjoint=bool(np.all(inside.sum(axis=0) <= 1)),
        axiom_complement=bool(np.all(complement_d >= s_requested)),
        axiom_boundary=bool(np.all(boundary_d >= s_requested)),
        boundary_well_distances=tuple(boundary_d.tolist()),
        complement_well_distances=tuple(complement_d.tolist()),
        unassigned=frozenset((np.flatnonzero(far) + 1).tolist()),
    )


def verify_separation(
    A: SparseSymMatrix,
    wells: list[frozenset[int]],
    regions: list[frozenset[int]],
    m: AgmonMetric,
    s_requested: float,
) -> WellPartition:
    """Evaluate the separation axioms at s_requested; never raises on failure.

    (disjoint)    regions are pairwise disjoint;
    (complement)  rho(complement of region, its well) >= S for every region;
    (boundary)    rho(inner boundary of region, its well) >= S for every region.
    The boundary axiom strengthens the complement one: leaving a region means
    stepping through its inner boundary first.  ``unassigned`` is derived:
    the sites at +inf from every well.
    """
    return _audit(A, wells, regions, _rows(m, wells), s_requested)


def build_partition(
    A: SparseSymMatrix,
    m: AgmonMetric,
    s_requested: float,
) -> WellPartition:
    """Full recipe: components, merge, Voronoi assignment, separation audit.

    One distance field per component; the merge, assignment and audit all read
    them.  The merge threshold 2 * s_requested + 1e-9 guarantees no two
    surviving wells could both claim an index within s_requested of each.
    """
    comps = well_components(A, m.provenance.wells)
    min_sep = 2.0 * float(s_requested) + 1e-9
    wells, rows = _merge(comps, _rows(m, comps), min_sep)
    return _audit(A, wells, _voronoi(rows), rows, s_requested)


def partition_report_dict(p: WellPartition) -> dict:
    """The partition's report fields as a plain dict; ``_write_json`` encodes it."""
    return {
        "wells": p.wells,
        "regions": p.regions,
        "s_requested": p.s_requested,
        "s_achieved": p.s_achieved,
        "well_separation": p.well_separation,
        "axioms": {
            "disjoint": p.axiom_disjoint,
            "complement": p.axiom_complement,
            "boundary": p.axiom_boundary,
        },
        "boundary_well_distances": p.boundary_well_distances,
        "complement_well_distances": p.complement_well_distances,
        "unassigned": p.unassigned,
    }


def write_partition_json(path, p: WellPartition) -> None:
    _write_json(path, partition_report_dict(p))
