"""Well components, merging, Voronoi-type regions, and separation axioms.

A "well" here is a connected component of the well set of a shifted potential
(components taken in the adjacency graph of the matrix).  Wells closer than a
minimum separation are merged transitively; every index is then assigned to
the region of its nearest well.  ``verify_separation`` evaluates the three
separation axioms and records the achieved margins; failures are reported in
the result, never raised.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .agmon import AgmonMetric, INF, distance_from_set, inner_boundary
from .matrices import SparseSymMatrix, _index_mask, _submatrix, _write_json

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
    ``unassigned`` lists indices unreachable from every well; they are parked
    in region 0 and flagged here.
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


def well_components(A: SparseSymMatrix, wells) -> list[frozenset[int]]:
    """Connected components of the well set in the graph of A.

    Components are ordered by their smallest member.
    """
    from scipy.sparse.csgraph import connected_components  # deferred, see matrices

    inside = _index_mask(A.n, wells)
    if not inside.any():
        return []
    sub = _submatrix(A, inside)
    _, label = connected_components(sub.pattern.values(np.ones(sub.off_count)), directed=False)
    groups: dict[int, list[int]] = {}
    for k, lab in zip(np.flatnonzero(inside).tolist(), label.tolist()):
        groups.setdefault(lab, []).append(k + 1)
    return [frozenset(g) for g in groups.values()]


def _min_over(dist, members) -> float:
    """Smallest of dist at the 1-based members; +inf for an empty set."""
    return float(np.min(dist[_index_mask(dist.size, members)], initial=INF))


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
    from scipy.sparse.csgraph import connected_components  # deferred, as above

    count = len(components)
    if count == 0:
        return []
    # one distance field per component serves all pairwise queries
    fields = [distance_from_set(m, comp) for comp in components]
    close = np.zeros((count, count), dtype=bool)
    for a in range(count):
        for b in range(a + 1, count):
            close[a, b] = _min_over(fields[a].dist, components[b]) < min_sep
    _, group = connected_components(close, directed=False)
    grouped: dict[int, set[int]] = {}
    for g, comp in zip(group.tolist(), components):
        grouped.setdefault(g, set()).update(comp)
    return sorted((frozenset(v) for v in grouped.values()), key=min)


def voronoi_regions(
    A: SparseSymMatrix,
    wells: list[frozenset[int]],
    m: AgmonMetric,
) -> list[frozenset[int]]:
    """Assign every index to its nearest well; ties go to the lowest well id.

    Indices at infinite distance from every well fall back to region 0.
    """
    regions, _ = _assign_regions(A, wells, m)
    return regions


def _assign_regions(A, wells, m):
    if not wells:
        return [], frozenset()
    dist = np.vstack([distance_from_set(m, w).dist for w in wells])
    best = np.argmin(dist, axis=0)  # first minimum: ties go to the lowest well id
    regions = [frozenset((np.flatnonzero(best == ell) + 1).tolist()) for ell in range(len(wells))]
    unassigned = np.flatnonzero(np.isinf(dist.min(axis=0))) + 1
    return regions, frozenset(unassigned.tolist())


def verify_separation(
    A: SparseSymMatrix,
    wells: list[frozenset[int]],
    regions: list[frozenset[int]],
    m: AgmonMetric,
    s_requested: float,
    unassigned: frozenset[int] = frozenset(),
) -> WellPartition:
    """Evaluate the separation axioms at s_requested; never raises on failure.

    (disjoint)    regions are pairwise disjoint;
    (complement)  rho(complement of region, its well) >= S for every region;
    (boundary)    rho(inner boundary of region, its well) >= S for every region.
    The boundary axiom strengthens the complement one: leaving a region means
    stepping through its inner boundary first.
    """
    if len(wells) != len(regions):
        raise ValueError(f"{len(wells)} wells but {len(regions)} regions")
    disjoint = True
    seen: set[int] = set()
    for reg in regions:
        if seen & reg:
            disjoint = False
            break
        seen |= reg

    boundary_d: list[float] = []
    complement_d: list[float] = []
    well_sep = INF
    fields = [distance_from_set(m, w) for w in wells]
    for ell, (well, reg) in enumerate(zip(wells, regions)):
        dist = fields[ell].dist
        boundary_d.append(_min_over(dist, inner_boundary(A, reg)))
        complement_d.append(float(np.min(dist[~_index_mask(A.n, reg)], initial=INF)))
        for other in range(len(wells)):
            if other != ell:
                well_sep = min(well_sep, _min_over(dist, wells[other]))

    s_achieved = min(boundary_d, default=INF)
    ax_boundary = all(d >= s_requested for d in boundary_d)
    ax_complement = all(d >= s_requested for d in complement_d)
    return WellPartition(
        wells=tuple(wells),
        regions=tuple(regions),
        s_requested=float(s_requested),
        s_achieved=s_achieved,
        well_separation=well_sep,
        axiom_disjoint=disjoint,
        axiom_complement=ax_complement,
        axiom_boundary=ax_boundary,
        boundary_well_distances=tuple(boundary_d),
        complement_well_distances=tuple(complement_d),
        unassigned=unassigned,
    )


def build_partition(
    A: SparseSymMatrix,
    m: AgmonMetric,
    s_requested: float,
) -> WellPartition:
    """Full recipe: components, merge, Voronoi assignment, separation audit.

    The merge threshold 2 * s_requested + 1e-9 guarantees no two surviving
    wells could both claim an index within s_requested of each.
    """
    comps = well_components(A, m.provenance.wells)
    wells = merge_close_wells(comps, m, 2.0 * float(s_requested) + 1e-9)
    regions, unassigned = _assign_regions(A, wells, m)
    return verify_separation(A, wells, regions, m, s_requested, unassigned)


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
