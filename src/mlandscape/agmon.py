"""Agmon-type graph pseudo-metric built from a shifted potential.

Edges follow the non-zero off-diagonal pattern of the matrix; the weight of
edge {i, j} is ln(1 + sqrt(sqrt(v_i v_j) / |a_ij|)).  Distances are shortest
path sums (a pseudo-metric: weights vanish wherever the potential does), with
+inf for unreachable targets and for distances to an empty set.

A metric is a weight vector over a ``CsrPattern``: ``build_metric`` reuses the
matrix's cached pattern, so a metric per eigenpair costs one vector of
weights.  Distances come from ``scipy.sparse.csgraph.dijkstra`` on that graph
(directed, since the pattern stores both orientations of every edge, with
``min_only`` over the source set); explicit zero weights stay edges.

Witness paths follow canonical predecessors, derived from the final distances
only when a path is asked for.  An edge u -> k is tight when
dist[u] + w(u, k) == dist[k]; hop counts are taken from the source set in the
subgraph of tight edges, and the predecessor of k is its smallest-index tight
neighbour with one hop fewer.  Hops fall by one per step, so a witness path
reaches a source in at most n - 1 steps and its weights, added from the
source, give the distance exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np

from .landscape import ShiftedPotential
from .matrices import CsrPattern, SparseSymMatrix, _frozen, _index_mask, _write_csv

__all__ = [
    "AgmonMetric",
    "DistanceField",
    "build_metric",
    "distance_from_set",
    "pairwise_distance",
    "set_distance",
    "inner_boundary",
    "outer_boundary",
    "band_lower_bound",
    "write_distance_csv",
    "write_edges_csv",
]

INF = float("inf")


@dataclass(frozen=True, eq=False)
class AgmonMetric:
    """Weighted graph of the pseudo-metric; provenance records the potential.

    ``pattern`` is the CSR layout of the edge arrays; when omitted it is
    built from them.
    """

    n: int
    threshold: float
    edge_i: np.ndarray
    edge_j: np.ndarray
    edge_w: np.ndarray
    provenance: ShiftedPotential
    pattern: CsrPattern | None = field(default=None, repr=False)
    _graph: "scipy.sparse.csr_array" = field(init=False, repr=False)

    def __post_init__(self):
        _frozen(self.edge_i)
        _frozen(self.edge_j)
        _frozen(self.edge_w)
        if self.pattern is None:
            object.__setattr__(self, "pattern", CsrPattern.build(self.n, self.edge_i, self.edge_j))
        object.__setattr__(self, "_graph", self.pattern.values(self.edge_w))

    def edges(self) -> Iterator[tuple[int, int, float]]:
        """Yield (i, j, weight) with i < j, lexicographic."""
        for i, j, w in zip(self.edge_i, self.edge_j, self.edge_w):
            yield int(i), int(j), float(w)

    def edge_weight(self, i: int, j: int) -> float:
        k = self.pattern.slot(i, j) if i != j else -1
        if k < 0:
            raise KeyError(f"no edge between {i} and {j}")
        return float(self._graph.data[k])


@dataclass(frozen=True, eq=False)
class DistanceField:
    """Distances from a source set; dist[k] is the distance of index k+1.

    ``witness_path(i)`` reconstructs a realizing shortest path (source first)
    from the canonical predecessors (module docstring).
    """

    source: frozenset[int]
    dist: np.ndarray
    metric: AgmonMetric = field(repr=False)

    def __post_init__(self):
        _frozen(self.dist)

    @cached_property
    def predecessor(self) -> np.ndarray:
        """0-based canonical predecessor of each index; -1 at sources and unreachable ones."""
        g, dist, n = self.metric._graph, self.dist, self.dist.size
        tail = self.metric.pattern.rows
        head = g.indices
        tight = (tail != head) & np.isfinite(dist[tail]) & (dist[tail] + g.data == dist[head])
        hop_graph = g.copy()
        hop_graph.data = np.where(tight, 1.0, INF)  # hop counts along tight edges only
        hops = _dijkstra(hop_graph, _index_mask(n, self.source))
        step = tight & (hops[tail] + 1 == hops[head])
        pred = np.full(n, n, dtype=np.int64)
        np.minimum.at(pred, head[step], tail[step])
        pred[pred == n] = -1
        return _frozen(pred)

    def witness_path(self, i: int) -> list[int]:
        k = i - 1
        if not (0 <= k < self.dist.size):
            raise ValueError(f"index {i} outside [1, {self.dist.size}]")
        if not math.isfinite(self.dist[k]):
            raise ValueError(f"index {i} is unreachable from the source set")
        path = [i]
        while self.predecessor[k] >= 0:
            k = int(self.predecessor[k])
            path.append(k + 1)
        path.reverse()
        return path


def edge_weights(A: SparseSymMatrix, v: np.ndarray) -> np.ndarray:
    """Weight ln(1 + sqrt(sqrt(v_i v_j)/|a_ij|)) of each pair of ``A.off_arrays()``."""
    off_i, off_j, off_v = A.off_arrays()
    return np.log1p(np.sqrt(np.sqrt(v[off_i - 1] * v[off_j - 1]) / np.abs(off_v)))


def build_metric(A: SparseSymMatrix, sp: ShiftedPotential) -> AgmonMetric:
    """Agmon metric of (A, v): weight(i,j) = ln(1 + sqrt(sqrt(v_i v_j)/|a_ij|))."""
    if sp.v.shape != (A.n,):
        raise ValueError(f"potential has length {sp.v.shape[0]}, matrix has n = {A.n}")
    off_i, off_j, _ = A.off_arrays()
    return AgmonMetric(
        n=A.n,
        threshold=sp.threshold,
        edge_i=off_i,
        edge_j=off_j,
        edge_w=edge_weights(A, sp.v),
        provenance=sp,
        pattern=A.pattern,
    )


def _dijkstra(graph, in_source: np.ndarray) -> np.ndarray:
    """Distances to the nearest source of the boolean mask; all +inf when it is empty."""
    from scipy.sparse.csgraph import dijkstra  # deferred, see the matrices module docstring

    sources = np.flatnonzero(in_source)
    if not sources.size:
        return np.full(graph.shape[0], INF)
    return dijkstra(graph, directed=True, indices=sources, min_only=True)


def distance_from_set(m: AgmonMetric, sources: Iterable[int]) -> DistanceField:
    """Multi-source shortest-path distances; an empty source set gives all +inf."""
    in_source = _index_mask(m.n, sources)
    src = frozenset((np.flatnonzero(in_source) + 1).tolist())
    return DistanceField(source=src, dist=_dijkstra(m._graph, in_source), metric=m)


def pairwise_distance(m: AgmonMetric, i: int, j: int) -> float:
    """rho(i, j); 0 on the diagonal, +inf when j is unreachable from i."""
    _index_mask(m.n, [i, j])
    return float(distance_from_set(m, [i]).dist[j - 1])


def set_distance(m: AgmonMetric, K: Iterable[int], M: Iterable[int]) -> float:
    """rho(K, M) = inf over pairs; +inf when either set is empty."""
    in_k = _index_mask(m.n, K)
    in_m = _index_mask(m.n, M)
    if not in_k.any() or not in_m.any():
        return INF
    return float(distance_from_set(m, np.flatnonzero(in_m) + 1).dist[in_k].min())


def _crossing(A: SparseSymMatrix, omega: Iterable[int]):
    """Mask of omega, both ends of every edge, and which of them lie on an edge leaving omega."""
    inside = _index_mask(A.n, omega)
    off_i, off_j, _ = A.off_arrays()
    ends = np.concatenate([off_i, off_j])
    crossing = np.tile(inside[off_i - 1] != inside[off_j - 1], 2)
    return inside, ends, crossing


def inner_boundary(A: SparseSymMatrix, omega: Iterable[int]) -> frozenset[int]:
    """Members of omega with at least one neighbor outside omega."""
    inside, ends, crossing = _crossing(A, omega)
    return frozenset(ends[crossing & inside[ends - 1]].tolist())


def outer_boundary(A: SparseSymMatrix, omega: Iterable[int]) -> frozenset[int]:
    """Non-members of omega with at least one neighbor inside omega."""
    inside, ends, crossing = _crossing(A, omega)
    return frozenset(ends[crossing & ~inside[ends - 1]].tolist())


def band_lower_bound(w: int, i1: int, iq: int, v_min: float, a_max: float) -> float:
    """Distance lower bound across an interval where the potential stays >= v_min.

    For a matrix of half-bandwidth w and an interval [i1, iq] on which
    v >= v_min, every path crossing the interval uses at least
    floor((iq - i1 + 1 - w)/w) edges of weight >= ln(1 + sqrt(v_min/a_max)),
    so rho(i1 - 1, iq + 1) is at least that multiple.  Clamped below at 0.
    """
    if not isinstance(w, (int, np.integer)) or w < 1:
        raise ValueError(f"half-bandwidth must be a positive integer, got {w!r}")
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


def write_distance_csv(path, field_: DistanceField) -> None:
    """CSV with header index,dist; infinite distances serialize as 'inf'."""
    _write_csv(path, ["index", "dist"], np.arange(1, field_.dist.size + 1), field_.dist)


def write_edges_csv(path, m: AgmonMetric) -> None:
    """CSV with header i,j,weight listing each edge once (i < j)."""
    _write_csv(path, ["i", "j", "weight"], m.edge_i, m.edge_j, m.edge_w)
