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
barrier sites {vbar > t}; the sweep stores one row per threshold, those
sites in ascending order with their distances.  On a chain (bandwidth <= 1)
two sequential passes over each run of coupled barrier sites fill a row,
exactly as Dijkstra would (see ``ThresholdFields``); wider bands run one
Dijkstra per block of consecutive thresholds.
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
    """ln(1 + sqrt(sqrt(v_i v_j)/|a|)) elementwise: the one Agmon edge weight formula.

    Where that expression leaves the float range (v_i v_j or the quotient
    overflows, or underflows to 0 while v_i and v_j are positive) the weight
    is ln(1 + e^y) with y = (ln v_i + ln v_j)/4 - ln|a|/2, so every finite
    v >= 0 and non-zero finite a give a finite weight, positive where v_i and
    v_j are; every other weight keeps the bits of the expression.
    """
    with np.errstate(over="ignore"):
        w = np.log1p(np.sqrt(np.sqrt(v_i * v_j) / np.abs(a)))
    far = ~np.isfinite(w)
    lost = w == 0.0
    if lost.any():
        far |= lost & (v_i > 0.0) & (v_j > 0.0)
    if far.any():
        y = 0.25 * (np.log(v_i[far]) + np.log(v_j[far])) - 0.5 * np.log(np.abs(a[far]))
        w[far] = np.logaddexp(0.0, y)
    return w


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


# Most nodes one block of a threshold sweep holds: consecutive thresholds
# share a block while that many rows as long as the block's first (its
# longest) fit, which bounds the block's graph or passes and their
# workspace (a lone threshold has at most n nodes).  Larger blocks are no
# faster, and at n = 2000, W = 3 a sweep in blocks of 2^18 nodes peaks at
# about 100 MB of temporaries against 8 MB at this size.
SWEEP_NODES = 1 << 13


@dataclass(frozen=True, eq=False)
class ThresholdFields:
    """Distance fields of one matrix and potential at sorted distinct thresholds.

    ``fields[t]`` is the triple (v, well mask, dist) at threshold t: v =
    (vbar - t)_+, the wells vbar <= t and the distances to the wells outside
    the excluded set D, bit for bit those of ``distance_from_set`` on
    ``build_metric``'s metric.  Site k (0-based) is a non-source at threshold
    j when vbar_k > t_j or k is in D; ``copies[k]`` counts those thresholds,
    which are the first ones, so the sources at j are the sites with
    ``copies[k] <= j``.  Row j lists the non-sources at j in ascending order,
    ``sites[indptr[j]:indptr[j + 1]]``, and the same slice of ``dist`` holds
    their distances; every source is at distance 0.  ``slices`` reads rows as
    stored; ``fields[t]`` and ``rows`` spread them into dense n-vectors for
    lookups.

    On a chain (bandwidth <= 1) a row's distances come from two passes over
    each run of consecutive coupled non-sources.  The forward pass starts at
    +0.0 when the site left of the run is a coupled source (the weight of an
    edge at a source is +0.0) and at +inf otherwise, and adds the run's edge
    weights left to right; the backward pass does the same from the right end.
    The distance is the smaller of the two.  A shortest path to a site of the
    run enters it from one of its two ends, the weights are non-negative and
    float addition is monotone, so a detour never gives a smaller sum and the
    two passes are exactly the left-fold path sums Dijkstra returns.  Wider
    bands run one Dijkstra per block of rows, whose distances do not depend
    on the numbering of the nodes.
    """

    matrix: SparseSymMatrix
    vbar: np.ndarray
    thresholds: np.ndarray
    copies: np.ndarray
    indptr: np.ndarray
    sites: np.ndarray
    dist: np.ndarray

    def index(self, thresholds) -> np.ndarray:
        """The row of each of ``thresholds``; KeyError names one the sweep does not hold."""
        t = np.asarray(thresholds, dtype=float)
        j = np.searchsorted(self.thresholds, t)
        held = j < self.thresholds.size
        held[held] = self.thresholds[j[held]] == t[held]
        if not held.all():
            raise KeyError(f"no field at threshold {float(t[~held][0])!r}")
        return j

    def slices(self, j) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(lengths, sites, v, dist) of rows ``j`` (from ``index``), concatenated in that order.

        Row i takes ``lengths[i]`` consecutive entries: its non-sources in
        ascending order, v = (vbar - t)_+ there and their distances.
        """
        start = self.indptr[j]
        lengths = self.indptr[j + 1] - start
        at = np.arange(lengths.sum()) + np.repeat(start - (np.cumsum(lengths) - lengths), lengths)
        sites = self.sites[at]
        v, _ = _shift(self.vbar[sites], np.repeat(self.thresholds[j], lengths))
        return lengths, sites, v, self.dist[at]

    def rows(self, thresholds) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(v, well mask, dist) at each of ``thresholds``, stacked as dense rows.

        Row i holds the field at thresholds[i]; any order and repeats are
        allowed.  KeyError names a threshold the sweep does not hold.
        """
        j = self.index(thresholds)
        v, in_wells = _shift(self.vbar, self.thresholds[j][:, None])
        lengths, sites, _, d = self.slices(j)
        dist = np.zeros(v.shape)
        dist[np.repeat(np.arange(j.size), lengths), sites] = d
        return v, in_wells, dist

    def __getitem__(self, t) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return tuple(rows[0] for rows in self.rows([t]))


def threshold_fields(
    A: SparseSymMatrix, vbar: np.ndarray, thresholds, excluded: Iterable[int] = ()
) -> ThresholdFields:
    """Distance fields to the wells {vbar <= t} minus ``excluded`` for each t in ``thresholds``.

    ``thresholds`` is a sequence or array of numbers, in any order and with
    repeats allowed; ``excluded`` holds 1-based indices.

    Every edge at a source weighs +0.0, so a field is decided on its
    non-sources alone: a non-source with a coupled source neighbour starts at
    +0.0.  Rows of consecutive thresholds are filled in blocks of at most
    ``SWEEP_NODES`` nodes, by two passes per row on a chain and by one
    Dijkstra per block on wider bands (see ``ThresholdFields``).
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
    row_len = A.n - np.cumsum(np.bincount(copies, minlength=q + 1))[:q]  # non-increasing
    indptr = np.zeros(q + 1, dtype=np.int64)
    np.cumsum(row_len, out=indptr[1:])
    sites = np.empty(indptr[-1], dtype=np.int32)  # half the memory of int64 for a site index
    dist = np.empty(indptr[-1])
    fill = _chain_passes(A) if A.bandwidth() <= 1 else _block_dijkstra(A, copies, q)
    j0 = 0
    while j0 < q:  # block [j0, j1): the most rows as long as row j0 in SWEEP_NODES, at least one
        longest = int(row_len[j0])
        if not longest:  # every later row is empty too
            break
        j1 = min(q, j0 + max(1, SWEEP_NODES // longest))
        cols = np.flatnonzero(copies > j0)
        row, c = np.nonzero(copies[cols] > np.arange(j0, j1)[:, None])
        j, site = j0 + row, cols[c]  # the block's nodes, row by row, each row ascending
        v, _ = _shift(vbar[site], t[j])
        block = slice(int(indptr[j0]), int(indptr[j1]))
        sites[block] = site
        dist[block] = fill(j0, j1, j, site, v)
        j0 = j1
    return ThresholdFields(
        A, vbar, _frozen(t), _frozen(copies), _frozen(indptr), _frozen(sites), _frozen(dist)
    )


def _chain_passes(A: SparseSymMatrix):
    """The distances of a block of rows of a matrix of bandwidth <= 1, by two passes per run."""
    off_i, _, off_v = A.off_arrays()
    a = np.zeros(A.n)  # a[k]: the coupling of sites k and k + 1, 0.0 where there is none
    a[off_i - 1] = off_v
    coupled = a != 0.0
    coupled_left = np.concatenate([[False], coupled[:-1]])

    def fill(j0, j1, j, site, v):
        n = site.size
        linked = np.zeros(n, dtype=bool)  # node p continues the run of node p - 1
        linked[1:] = (np.diff(site) == 1) & coupled[site[:-1]]  # rows shrink: never across rows
        link = np.flatnonzero(linked)
        first = np.flatnonzero(~linked)
        size = np.diff(np.append(first, n))
        # step k of a pass adds the k-th edge of every run longer than k: in
        # runs ranked by decreasing size those are the first active[k], and
        # their sums after step k are rows at[k] to at[k] + active[k] of `sums`
        rank = np.empty(first.size, dtype=np.int64)
        rank[np.argsort(-size)] = np.arange(first.size)
        active = first.size - np.cumsum(np.bincount(size))[:-1]
        at = np.cumsum(active) - active
        k = np.arange(n) - np.repeat(first, size)  # node p is at step k of its forward pass
        r = np.repeat(rank, size)
        fwd, bwd = at[k] + r, at[np.repeat(size - 1, size) - k] + r
        sums = np.empty((n, 2))  # column 0 the forward pass, column 1 the backward one
        sums[rank, 0] = np.where(coupled_left[site[first]], 0.0, INF)
        sums[rank, 1] = np.where(coupled[site[first + size - 1]], 0.0, INF)
        w = _weight(v[link - 1], v[link], a[site[link - 1]])
        sums[fwd[link], 0] = w
        sums[bwd[link - 1], 1] = w
        add = np.add
        for prev, now, count in zip(at.tolist(), at[1:].tolist(), active[1:].tolist()):
            step = sums[now : now + count]
            add(sums[prev : prev + count], step, out=step)
        return np.minimum(sums[fwd, 0], sums[bwd, 1])

    return fill


def _block_dijkstra(A: SparseSymMatrix, copies: np.ndarray, q: int):
    """The distances of a block of rows: one Dijkstra on a copy of each row's sites and edges."""
    off_i, off_j, off_v = A.off_arrays()
    lo, hi = off_i - 1, off_j - 1
    pair_copies = np.minimum(copies[lo], copies[hi])
    seed_from = np.full(A.n, q)  # first threshold at which a neighbour is a source
    np.minimum.at(seed_from, lo, copies[hi])
    np.minimum.at(seed_from, hi, copies[lo])

    def fill(j0, j1, j, site, v):
        cols = site[: np.searchsorted(j, j0, side="right")]  # row j0 holds every site of the block
        column = np.empty(A.n, dtype=np.int64)
        column[cols] = np.arange(cols.size)
        node = np.empty((j1 - j0, cols.size), dtype=np.int64)  # node of (j, k) at [j - j0, column[k]]
        node[j - j0, column[site]] = np.arange(site.size)
        live = np.flatnonzero(pair_copies > j0)
        row, pc = np.nonzero(pair_copies[live] > np.arange(j0, j1)[:, None])  # in node order
        p = live[pc]
        node_lo = node[row, column[lo[p]]]
        node_hi = node[row, column[hi[p]]]
        pattern = CsrPattern.build(site.size, node_lo + 1, node_hi + 1)
        graph = pattern.values(_weight(v[node_lo], v[node_hi], off_v[p]))
        return _dijkstra(graph, j >= seed_from[site])

    return fill


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

