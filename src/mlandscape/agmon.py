"""Agmon-type graph pseudo-metric built from a shifted potential.

Edges follow the non-zero off-diagonal pattern of the matrix; the weight of
edge {i, j} is ln(1 + sqrt(sqrt(v_i v_j) / |a_ij|)).  Distances are shortest
path sums (a pseudo-metric: weights vanish wherever the potential does), with
+inf for unreachable targets and for distances to an empty set.

A metric is its matrix plus one weight per stored off-diagonal pair, in the
order of ``off_arrays()``.  On a chain (bandwidth <= 1) the distance between
two sites is the sum of the weights along the one path between them, so
``distance_from_set`` and the threshold sweep fold each run of coupled
non-sources from both ends with one kernel, ``_folds``, and no graph is
built.  On wider bands distances come from ``scipy.sparse.csgraph.dijkstra``
on the matrix's cached ``CsrPattern`` with the weights, built at the first
Dijkstra (directed, since the pattern stores both orientations of every
edge, with ``min_only`` over the source set); explicit zero weights stay
edges.

``threshold_fields`` gives the distances to the wells of many thresholds at
once.  An edge at a well weighs exactly 0, so each field is decided on the
barrier sites {vbar > t}; the sweep stores one row per threshold, those
sites in ascending order with their distances.  On a chain ``_folds`` fills
the rows; wider bands run one Dijkstra per block of consecutive thresholds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
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

    ``edge_w[k]`` is the weight of pair k of ``matrix.off_arrays()``; a
    negative or NaN weight is a ValueError (Dijkstra never returns on one).
    """

    matrix: SparseSymMatrix
    edge_w: np.ndarray
    provenance: ShiftedPotential

    def __post_init__(self):
        if self.edge_w.shape != (self.matrix.off_count,):
            raise ValueError(f"{self.edge_w.size} weights for {self.matrix.off_count} pairs")
        if not (self.edge_w >= 0.0).all():
            k = int(np.flatnonzero(~(self.edge_w >= 0.0))[0])
            off_i, off_j, _ = self.matrix.off_arrays()
            raise ValueError(
                f"weight {float(self.edge_w[k])!r} of pair ({off_i[k]}, {off_j[k]}) is negative or NaN"
            )
        _frozen(self.edge_w)

    @cached_property
    def _graph(self) -> "scipy.sparse.csr_array":
        """The weighted graph a Dijkstra reads, built at its first use."""
        return self.matrix.pattern.values(self.edge_w)

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

    Where v_i and v_j are positive but v_i v_j or the quotient sqrt(v_i v_j)/|a|
    falls below the normal range (a subnormal keeps too few bits, and 0 none)
    the argument is formed as v_i^(1/4) v_j^(1/4) / |a|^(1/2) instead, whose
    factors are normal.  Where the argument still leaves the float range (an
    overflow, or that form below the normal range) the weight is ln(1 + e^y)
    with y = (ln v_i + ln v_j)/4 - ln|a|/2.  So every finite v >= 0 and
    non-zero finite a give a finite weight, positive where v_i and v_j are;
    every other weight keeps the bits of the expression.
    """
    tiny = np.finfo(float).tiny
    with np.errstate(over="ignore"):
        product = v_i * v_j
        quotient = np.sqrt(product) / np.abs(a)
        w = np.log1p(np.sqrt(quotient))
    far = ~np.isfinite(w)
    small = (product < tiny) | (quotient < tiny)
    if small.any():
        small &= (v_i > 0.0) & (v_j > 0.0)
        x = np.sqrt(np.sqrt(v_i[small])) * np.sqrt(np.sqrt(v_j[small])) / np.sqrt(np.abs(a[small]))
        w[small] = np.log1p(x)
        far[small] = x < tiny
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


def _chain_runs(A: SparseSymMatrix, site: np.ndarray):
    """(first, size, link) of the runs of ``site`` on a chain: sites joined by a stored coupling.

    ``site`` holds 0-based sites, ascending within each stretch that may
    form runs; a step that is not +1 ends a run.  Run r is the nodes
    ``first[r]`` to ``first[r] + size[r] - 1`` of ``site``, and ``link``
    lists the nodes that continue the run of the node before them.
    """
    coupled = np.zeros(A.n, dtype=bool)  # coupled[k]: sites k and k + 1 are coupled
    coupled[A.off_arrays()[0] - 1] = True
    linked = np.zeros(site.size, dtype=bool)
    linked[1:] = (np.diff(site) == 1) & coupled[site[:-1]]
    first = np.flatnonzero(~linked)
    return first, np.diff(np.append(first, site.size)), np.flatnonzero(linked)


def _folds(first, size, enter_fwd, enter_bwd, link, w) -> np.ndarray:
    """The smaller of a forward and a backward left fold at each node of runs laid end to end.

    Run r (nodes ``first[r]`` to ``first[r] + size[r] - 1``) folds forward
    from ``enter_fwd[r]`` at its first node, adding the weight of each edge
    inside the run left to right, and backward from ``enter_bwd[r]`` at its
    last node, adding them right to left; ``w[i]`` is the weight of the edge
    between nodes ``link[i] - 1`` and ``link[i]``.

    On a chain these are Dijkstra's distances bit for bit when a run is a
    stretch of coupled non-sources and each start is the distance its end
    takes from beyond the run (+inf where nothing lies there): a path into
    the run enters it from one of its two ends, the weights are non-negative
    and float addition is monotone, so a detour never gives a smaller sum
    and the two folds are the left-fold path sums Dijkstra returns.

    Runs are ranked by decreasing size, so step k of every run longer than
    k fills one contiguous slice of the (node, direction) table.  While the
    same runs stay active their steps form one (steps, runs, 2) slab, folded
    by one ``np.add.accumulate`` after the previous step is added into its
    first row (a slab of one step is just the add): one loop step per
    distinct run size, not per step or per run.
    """
    rank = np.empty(first.size, dtype=np.int64)
    rank[np.argsort(-size)] = np.arange(first.size)
    active = first.size - np.cumsum(np.bincount(size))[:-1]  # active[k]: the runs longer than k
    at = np.cumsum(active) - active  # step k fills rows at[k] to at[k] + active[k]
    k = np.arange(link.size + first.size) - np.repeat(first, size)  # step of the forward fold
    r = np.repeat(rank, size)
    fwd, bwd = at[k] + r, at[np.repeat(size - 1, size) - k] + r
    sums = np.empty((k.size, 2))  # column 0 the forward fold, column 1 the backward one
    sums[rank, 0] = enter_fwd
    sums[rank, 1] = enter_bwd
    sums[fwd[link], 0] = w
    sums[bwd[link - 1], 1] = w
    ends = (np.flatnonzero(np.diff(active, append=0)) + 1).tolist()  # the slabs: steps [s, e)
    at, active = at.tolist(), active.tolist()
    for s, e in zip([0, *ends], ends):
        slab = sums[at[s] : at[s] + (e - s) * active[s]].reshape(e - s, active[s], 2)
        if s:
            np.add(sums[at[s - 1] : at[s - 1] + active[s]], slab[0], out=slab[0])
        if e - s > 1:
            np.add.accumulate(slab, axis=0, out=slab)
    return np.minimum(sums[fwd, 0], sums[bwd, 1])


def distance_from_set(m: AgmonMetric, sources: Iterable[int]) -> DistanceField:
    """Multi-source shortest-path distances; an empty source set gives all +inf.

    A chain folds each run of coupled non-sources from both ends (``_folds``),
    each end starting at the weight of its edge to a source beyond it; a
    wider band runs one Dijkstra.
    """
    in_source = _index_mask(m.matrix.n, sources)
    src = frozenset((np.flatnonzero(in_source) + 1).tolist())
    if m.matrix.bandwidth() > 1:
        return DistanceField(source=src, dist=_dijkstra(m._graph, in_source))
    # step[k]: the weight of edge {k, k + 1}, +inf where it is missing (step[n - 1]
    # closes both ends); a stored -0.0 reads +0.0, the 0.0 + w a path sum starts with
    step = np.full(in_source.size, INF)
    step[m.matrix.off_arrays()[0] - 1] = m.edge_w + 0.0
    site = np.flatnonzero(~in_source)
    first, size, link = _chain_runs(m.matrix, site)
    out = step[site[first] - 1], step[site[first + size - 1]]  # the edges out of each run
    dist = np.zeros(in_source.size)
    dist[site] = _folds(first, size, *out, link, step[site[link] - 1])
    return DistanceField(source=src, dist=dist)


# Most nodes one block of a threshold sweep holds: consecutive thresholds
# share a block while that many rows as long as the block's first (its
# longest) fit, which bounds the block's graph or folds and their
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

    On a chain (bandwidth <= 1) ``_folds`` fills the rows, each run of
    coupled non-sources starting at +0.0 next to a coupled source; wider
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
    ``SWEEP_NODES`` nodes, by ``_folds`` on a chain and by one Dijkstra per
    block on wider bands.
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
    """The distances of a block of rows of a matrix of bandwidth <= 1, by ``_folds``.

    A fold starts at +0.0 where a coupled source lies beyond its end (the
    weight of an edge at a source) and at +inf otherwise.
    """
    off_i, _, off_v = A.off_arrays()
    a = np.zeros(A.n)  # a[k]: the coupling of sites k and k + 1, 0.0 where there is none
    a[off_i - 1] = off_v  # a[n - 1] = 0.0 closes both ends

    def fill(j0, j1, j, site, v):
        first, size, link = _chain_runs(A, site)  # rows shrink, so no run crosses two rows
        out = (a[site[first] - 1], a[site[first + size - 1]])  # the couplings out of each run
        start = [np.where(c != 0.0, 0.0, INF) for c in out]
        w = _weight(v[link - 1], v[link], a[site[link - 1]])
        return _folds(first, size, *start, link, w)

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

