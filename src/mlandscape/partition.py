"""Well components, merging, Voronoi-type regions, and separation axioms.

A "well" here is a connected component of the well set of a shifted potential
(components taken in the adjacency graph of the matrix).  Wells closer than a
minimum separation are merged transitively; every index is then assigned to
the region of its nearest well.  ``verify_separation`` evaluates the three
separation axioms and records the achieved margins; failures are reported in
the result, never raised.  Each step reads one distance field per well,
stacked as rows: ``build_partition`` runs one ``distance_from_set`` per
component, and a merged well's row is the least of its components' rows.

On a chain (bandwidth <= 1) no graph routine runs: a component is a run of
consecutive coupled well sites, and the wells to merge are runs of
consecutive close components (see ``_merge``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

import numpy as np

from .agmon import AgmonMetric, INF, _chain_runs, distance_from_set, inner_boundary
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


def well_components(A: SparseSymMatrix, wells) -> list[frozenset[int]]:
    """Connected components of the well set in the graph of A.

    Components are ordered by their smallest member.  On a chain a component
    is a run of consecutive well sites joined by stored couplings.
    """
    inside = _index_mask(A.n, wells)
    if not inside.any():
        return []
    if A.bandwidth() <= 1:
        site = np.flatnonzero(inside)
        return [frozenset(run.tolist()) for run in np.split(site + 1, _chain_runs(A, site)[0][1:])]
    from scipy.sparse.csgraph import connected_components  # deferred, see matrices

    sub = _submatrix(A, inside)
    # labels count up from the lowest site, so label order is smallest-member order
    count, label = connected_components(sub.pattern.values(np.ones(sub.off_count)), directed=False)
    sites = np.flatnonzero(inside) + 1
    return [frozenset(sites[label == k].tolist()) for k in range(count)]


def _rows(m: AgmonMetric, sets) -> np.ndarray:
    """Row l is the distance field from sets[l]: one ``distance_from_set`` per set."""
    return np.reshape([distance_from_set(m, s).dist for s in sets], (len(sets), m.matrix.n))


def _masks(n: int, sets) -> np.ndarray:
    """Row l is the boolean mask of the 1-based sets[l]."""
    return np.reshape(np.array([_index_mask(n, s) for s in sets], dtype=bool), (len(sets), n))


def _least(rows: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """least[a, b] is the smallest of rows[a] where masks[b] holds; +inf where it holds nowhere."""
    shape = (len(rows), len(masks), rows.shape[1])
    return np.min(np.broadcast_to(rows[:, None, :], shape), axis=2, where=masks[None], initial=INF)


def _in_chain_order(m: AgmonMetric, components) -> bool:
    """The metric is a chain's and each component lies wholly left of the next."""
    if m.matrix.bandwidth() > 1:
        return False
    return all(a and b and max(a) < min(b) for a, b in zip(components, components[1:]))


def _merge(components, rows: np.ndarray, min_sep: float, chain: bool = False):
    """Merged wells and their rows: float addition is monotone, so the least of the
    components' rows is, bit for bit, the field of a Dijkstra from their union.

    With ``chain`` (``_in_chain_order``) the groups are runs of consecutive
    components each closer than min_sep to the next.  For components a < b < c
    the path from a to c crosses b, and with non-negative weights a monotone
    sum gives rho(a, c) >= max(rho(a, b), rho(b, c)) in floats, so a close
    pair (a, c) has every pair between it close too.
    """
    # rho(a, b) is read from a's row for a < b only: reversed sums can differ in the last bit
    if chain:  # a's row grows to its right, so rho(a, b) is its value at b's first site
        near = np.array([row[min(b) - 1] for row, b in zip(rows, components[1:])])
        group = np.concatenate([[0], np.cumsum(near >= min_sep)])
        count = int(group[-1]) + 1 if components else 0
    else:
        from scipy.sparse.csgraph import connected_components  # deferred, as above

        close = np.triu(_least(rows, _masks(rows.shape[1], components)) < min_sep, 1)
        count, group = connected_components(close, directed=False)
    wells = [frozenset().union(*compress(components, group == k)) for k in range(count)]
    order = sorted(range(count), key=lambda k: min(wells[k]))
    merged = [rows[group == k].min(axis=0) for k in order]
    return [wells[k] for k in order], np.reshape(merged, (count, rows.shape[1]))


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
    return _merge(components, _rows(m, components), min_sep, _in_chain_order(m, components))[0]


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
    wells, rows = _merge(comps, _rows(m, comps), min_sep, _in_chain_order(m, comps))
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
