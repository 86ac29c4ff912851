"""Agmon-type graph pseudo-metric built from a shifted potential.

Edges follow the non-zero off-diagonal pattern of the matrix; the weight of
edge {i, j} is ln(1 + sqrt(sqrt(v_i v_j) / |a_ij|)).  Distances are shortest
path sums (a pseudo-metric: weights vanish wherever the potential does), with
+inf for unreachable targets and for distances to an empty set.

A metric is its matrix plus one weight per stored off-diagonal pair, in the
order of ``off_arrays()``.  Its graph is the matrix's cached ``CsrPattern``
with those weights, so a metric costs one vector of weights.  Distances come
from ``scipy.sparse.csgraph.dijkstra`` on that graph (directed, since the
pattern stores both orientations of every edge, with ``min_only`` over the
source set); explicit zero weights stay edges.

``threshold_fields`` gives the distances to the wells of many thresholds at
once.  An edge at a well weighs exactly 0, so each field is decided on the
barrier sites {vbar > t}; the sweep copies those sites and their edges once
per threshold and runs one Dijkstra per block of consecutive thresholds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from .landscape import ShiftedPotential, _shift
from .matrices import CsrPattern, SparseSymMatrix, _frozen, _index_mask, _is_integer

__all__ = [
    "AgmonMetric",
    "DistanceField",
    "ThresholdFields",
    "build_metric",
    "distance_from_set",
    "threshold_fields",
    "pairwise_distance",
    "inner_boundary",
    "band_lower_bound",
]

INF = float("inf")


@dataclass(frozen=True, eq=False)
class AgmonMetric:
    """Weighted graph of the pseudo-metric; provenance records the potential.

    ``edge_w[k]`` is the weight of pair k of ``matrix.off_arrays()``.
    """

    matrix: SparseSymMatrix
    edge_w: np.ndarray
    provenance: ShiftedPotential
    _graph: "scipy.sparse.csr_array" = field(init=False, repr=False)

    def __post_init__(self):
        if self.edge_w.shape != (self.matrix.off_count,):
            raise ValueError(f"{self.edge_w.size} weights for {self.matrix.off_count} pairs")
        _frozen(self.edge_w)
        object.__setattr__(self, "_graph", self.matrix.pattern.values(self.edge_w))

    def edges(self) -> Iterator[tuple[int, int, float]]:
        """Yield (i, j, weight) with i < j, lexicographic."""
        off_i, off_j, _ = self.matrix.off_arrays()
        for i, j, w in zip(off_i, off_j, self.edge_w):
            yield int(i), int(j), float(w)


@dataclass(frozen=True, eq=False)
class DistanceField:
    """Distances from a source set; dist[k] is the distance of index k+1."""

    source: frozenset[int]
    dist: np.ndarray

    def __post_init__(self):
        _frozen(self.dist)


def _weight(v_i: np.ndarray, v_j: np.ndarray, a: np.ndarray) -> np.ndarray:
    """ln(1 + sqrt(sqrt(v_i v_j)/|a|)) elementwise: the one Agmon edge weight formula."""
    return np.log1p(np.sqrt(np.sqrt(v_i * v_j) / np.abs(a)))


def edge_weights(A: SparseSymMatrix, v: np.ndarray) -> np.ndarray:
    """Weight ln(1 + sqrt(sqrt(v_i v_j)/|a_ij|)) of each pair of ``A.off_arrays()``."""
    off_i, off_j, off_v = A.off_arrays()
    return _weight(v[off_i - 1], v[off_j - 1], off_v)


def build_metric(A: SparseSymMatrix, sp: ShiftedPotential) -> AgmonMetric:
    """Agmon metric of (A, v): weight(i,j) = ln(1 + sqrt(sqrt(v_i v_j)/|a_ij|))."""
    if sp.v.shape != (A.n,):
        raise ValueError(f"potential has length {sp.v.shape[0]}, matrix has n = {A.n}")
    return AgmonMetric(matrix=A, edge_w=edge_weights(A, sp.v), provenance=sp)


def _dijkstra(graph, in_source: np.ndarray) -> np.ndarray:
    """Distances to the nearest source of the boolean mask; all +inf when it is empty."""
    from scipy.sparse.csgraph import dijkstra  # deferred, see the matrices module docstring

    sources = np.flatnonzero(in_source)
    if not sources.size:
        return np.full(graph.shape[0], INF)
    return dijkstra(graph, directed=True, indices=sources, min_only=True)


def distance_from_set(m: AgmonMetric, sources: Iterable[int]) -> DistanceField:
    """Multi-source shortest-path distances; an empty source set gives all +inf."""
    in_source = _index_mask(m.matrix.n, sources)
    src = frozenset((np.flatnonzero(in_source) + 1).tolist())
    return DistanceField(source=src, dist=_dijkstra(m._graph, in_source))


# Most graph nodes one Dijkstra of a threshold sweep runs on: consecutive
# thresholds share a Dijkstra up to this many copy nodes, which bounds the
# sweep's graph and workspace (a lone threshold has at most n nodes).  Larger
# blocks are no faster, and at n = 2000, W = 3 a sweep in blocks of 2^18
# nodes peaks at about 100 MB of temporaries against 8 MB at this size.
SWEEP_NODES = 1 << 13


@dataclass(frozen=True, eq=False)
class ThresholdFields:
    """Distance fields of one matrix and potential at sorted distinct thresholds.

    ``fields[t]`` is the triple (v, well mask, dist) at threshold t: v =
    (vbar - t)_+, the wells vbar <= t and the distances to the wells outside
    the excluded set D, bit for bit those of ``distance_from_set`` on
    ``build_metric``'s metric.  Site k is a non-source at threshold j when
    vbar_k > t_j or k is in D; ``copies[k]`` counts those thresholds, which
    are the first ones, and its distance at j < copies[k] is
    ``dist[base[k] + j]``.  Fields are assembled on lookup, one threshold by
    ``fields[t]`` or many as rows by ``rows``; only the copies' distances are
    kept.
    """

    matrix: SparseSymMatrix
    vbar: np.ndarray
    thresholds: np.ndarray
    copies: np.ndarray
    base: np.ndarray
    dist: np.ndarray

    def rows(self, thresholds) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(v, well mask, dist) at each of ``thresholds``, stacked as rows.

        Row i holds the field at thresholds[i]; any order and repeats are
        allowed.  KeyError names a threshold the sweep does not hold.
        """
        t = np.asarray(thresholds, dtype=float)
        j = np.searchsorted(self.thresholds, t)
        held = j < self.thresholds.size
        held[held] = self.thresholds[j[held]] == t[held]
        if not held.all():
            raise KeyError(f"no field at threshold {float(t[~held][0])!r}")
        v, in_wells = _shift(self.vbar, t[:, None])
        copy = self.copies > j[:, None]
        dist = np.zeros(copy.shape)
        dist[copy] = self.dist[(self.base + j[:, None])[copy]]
        return v, in_wells, dist

    def __getitem__(self, t) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return tuple(rows[0] for rows in self.rows([t]))


def threshold_fields(
    A: SparseSymMatrix, vbar: np.ndarray, thresholds, excluded: Iterable[int] = ()
) -> ThresholdFields:
    """Distance fields to the wells {vbar <= t} minus ``excluded`` for each t in ``thresholds``.

    ``thresholds`` is a sequence or array of numbers, in any order and with
    repeats allowed; ``excluded`` holds 1-based indices.

    Every edge at a source weighs +0.0, so a field is decided on its non-sources
    alone.  The graph holds a copy of each non-source site and of each pair of
    them per threshold, with the pair's weight at that threshold; a copy with
    a source neighbour starts at 0.0.  Float addition is monotone, so the
    shortest path sums equal those of the whole graph bit for bit.  Copies of
    consecutive thresholds share one Dijkstra, up to ``SWEEP_NODES`` nodes.
    """
    vbar = np.asarray(vbar, dtype=float)
    if vbar.shape != (A.n,):
        raise ValueError(f"potential has length {vbar.size}, matrix has n = {A.n}")
    t = np.unique(np.asarray(thresholds, dtype=float))
    if np.isnan(t).any():
        raise ValueError("thresholds must not be NaN")
    q = t.size
    copies = np.searchsorted(t, vbar)  # the thresholds below vbar_k
    copies[_index_mask(A.n, excluded)] = q
    base = np.cumsum(copies) - copies
    off_i, off_j, off_v = A.off_arrays()
    lo, hi = off_i - 1, off_j - 1
    pair_copies = np.minimum(copies[lo], copies[hi])
    seed_from = np.full(A.n, q)  # first threshold at which a neighbour is a source
    np.minimum.at(seed_from, lo, copies[hi])
    np.minimum.at(seed_from, hi, copies[lo])
    dist = np.empty(int(copies.sum()))
    nodes_at = A.n - np.cumsum(np.bincount(copies, minlength=q + 1))[:q]  # copies at threshold j
    nodes_to = np.cumsum(nodes_at)
    j0 = 0
    while j0 < q:  # block [j0, j1): the most thresholds within SWEEP_NODES nodes, at least one
        done = int(nodes_to[j0 - 1]) if j0 else 0
        j1 = max(int(np.searchsorted(nodes_to, done + SWEEP_NODES, side="right")), j0 + 1)
        site_copies = np.clip(np.minimum(copies, j1) - j0, 0, None)
        if site_copies.any():
            first = np.cumsum(site_copies) - site_copies  # block node of each site's first copy
            site = np.repeat(np.arange(A.n), site_copies)
            j = j0 + np.arange(site.size) - first[site]
            pair_n = np.clip(np.minimum(pair_copies, j1) - j0, 0, None)
            p = np.repeat(np.arange(lo.size), pair_n)
            dj = np.arange(p.size) - (np.cumsum(pair_n) - pair_n)[p]  # copy p is at j0 + dj
            v_lo, _ = _shift(vbar[lo[p]], t[j0 + dj])
            v_hi, _ = _shift(vbar[hi[p]], t[j0 + dj])
            pattern = CsrPattern.build(site.size, first[lo[p]] + dj + 1, first[hi[p]] + dj + 1)
            graph = pattern.values(_weight(v_lo, v_hi, off_v[p]))
            dist[base[site] + j] = _dijkstra(graph, j >= seed_from[site])
        j0 = j1
    return ThresholdFields(A, vbar, _frozen(t), _frozen(copies), _frozen(base), _frozen(dist))


def pairwise_distance(m: AgmonMetric, i: int, j: int) -> float:
    """rho(i, j); 0 on the diagonal, +inf when j is unreachable from i."""
    at_j = _index_mask(m.matrix.n, [j])
    return float(distance_from_set(m, [i]).dist[at_j][0])


def inner_boundary(A: SparseSymMatrix, omega: Iterable[int]) -> frozenset[int]:
    """Members of omega with at least one neighbor outside omega."""
    inside = _index_mask(A.n, omega)
    off_i, off_j, _ = A.off_arrays()
    ends = np.concatenate([off_i, off_j])
    crossing = np.tile(inside[off_i - 1] != inside[off_j - 1], 2)
    return frozenset(ends[crossing & inside[ends - 1]].tolist())


def band_lower_bound(w: int, i1: int, iq: int, v_min: float, a_max: float) -> float:
    """Distance lower bound across an interval where the potential stays >= v_min.

    For a matrix of half-bandwidth w and an interval [i1, iq] on which
    v >= v_min, every path crossing the interval uses at least
    floor((iq - i1 + 1 - w)/w) edges of weight >= ln(1 + sqrt(v_min/a_max)),
    so rho(i1 - 1, iq + 1) is at least that multiple.  Clamped below at 0.
    """
    if not _is_integer(w) or w < 1:
        raise ValueError(f"half-bandwidth must be a positive integer, got {w!r}")
    for name, end in (("i1", i1), ("iq", iq)):
        if not _is_integer(end):
            raise ValueError(f"interval end {name} must be an integer, got {end!r}")
    if iq < i1:
        raise ValueError(f"empty interval [{i1}, {iq}]")
    if not (float(v_min) > 0.0):
        raise ValueError(f"v_min must be positive, got {v_min!r}")
    if not (float(a_max) > 0.0):
        raise ValueError(f"a_max must be positive, got {a_max!r}")
    steps = (iq - i1 + 1 - w) // w
    if steps <= 0:
        return 0.0
    return steps * math.log1p(math.sqrt(float(v_min) / float(a_max)))

