"""Agmon metric construction, multi-source Dijkstra, and the band bound.

The Dijkstra oracle here is exhaustive simple-path enumeration, feasible for
the small graphs used; the full-size sweep lives in the acceptance suite.
"""

import csv
import math

import numpy as np
import pytest

from mlandscape import (
    AgmonMetric,
    EnsembleConfig,
    ShiftedPotential,
    SparseSymMatrix,
    agmon,
    band_lower_bound,
    build_metric,
    distance_from_set,
    generate_band_ensemble,
    inner_boundary,
    outer_boundary,
    pairwise_distance,
    set_distance,
    shift_potential,
    solve_landscape,
    threshold_fields,
    write_distance_csv,
    write_edges_csv,
)

INF = float("inf")


def make_metric(n, edges):
    """Metric with prescribed weights on the matrix of the edge set; provenance
    is a dummy empty potential."""
    A = SparseSymMatrix(n, np.zeros(n), [(i, j, -1.0) for i, j, _ in edges])
    weight = {(min(i, j), max(i, j)): w for i, j, w in edges}
    w = np.array([weight[(i, j)] for i, j, _ in A.off_entries()], dtype=float)
    sp = ShiftedPotential(threshold=0.0, v=np.zeros(n), wells=frozenset())
    return AgmonMetric(matrix=A, edge_w=w, provenance=sp)


def random_metric(rng, n, p=0.5, p_zero=0.15):
    edges = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if rng.random() < p:
                w = 0.0 if rng.random() < p_zero else float(rng.uniform(0.0, 2.0))
                edges.append((i, j, w))
    return make_metric(n, edges)


def enum_distance(m, sources, target):
    """Minimum weight over all simple paths, by exhaustive search."""
    adj = {i: [] for i in range(1, m.matrix.n + 1)}
    for i, j, w in m.edges():
        adj[i].append((j, w))
        adj[j].append((i, w))

    def walk(node, visited, acc, best):
        if node == target:
            return min(best, acc)
        for nb, w in adj[node]:
            if nb not in visited and acc + w < best:
                visited.add(nb)
                best = walk(nb, visited, acc + w, best)
                visited.remove(nb)
        return best

    best = INF
    for s in sources:
        best = min(best, walk(s, {s}, 0.0, best))
    return best


# ---------------------------------------------------------------- weights


def test_edge_weight_formula():
    A = SparseSymMatrix(2, [0.0, 0.0], [(1, 2, -1.0)])
    sp = ShiftedPotential(threshold=0.0, v=np.array([1.0, 1.0]), wells=frozenset())
    m = build_metric(A, sp)
    assert m.edge_weight(1, 2) == pytest.approx(math.log(2.0), abs=1e-15)

    sp = ShiftedPotential(threshold=0.0, v=np.array([0.0, 7.0]), wells=frozenset({1}))
    assert build_metric(A, sp).edge_weight(1, 2) == 0.0

    A3 = SparseSymMatrix(2, [0.0, 0.0], [(1, 2, 3.0)])
    sp = ShiftedPotential(threshold=0.0, v=np.array([4.0, 9.0]), wells=frozenset())
    assert build_metric(A3, sp).edge_weight(1, 2) == pytest.approx(
        math.log(1.0 + math.sqrt(2.0)), abs=1e-15
    )


def test_build_metric_from_shift():
    A = SparseSymMatrix(3, [0.0] * 3, [(1, 2, -1.0), (2, 3, -1.0)])
    sp = shift_potential(np.array([3.0, 1.0, 3.0]), 1.0)
    m = build_metric(A, sp)
    assert m.provenance.threshold == 1.0
    assert m.provenance is sp
    # v = (2, 0, 2): both edges touch the zero at the middle site
    assert m.edge_weight(1, 2) == 0.0
    assert m.edge_weight(2, 3) == 0.0


def test_build_metric_length_mismatch():
    A = SparseSymMatrix(3, [0.0] * 3, [(1, 2, -1.0)])
    sp = ShiftedPotential(threshold=0.0, v=np.zeros(2), wells=frozenset())
    with pytest.raises(ValueError, match="length"):
        build_metric(A, sp)
    sp = ShiftedPotential(threshold=0.0, v=np.zeros(3), wells=frozenset())
    with pytest.raises(ValueError, match="2 weights for 1 pairs"):
        AgmonMetric(matrix=A, edge_w=np.zeros(2), provenance=sp)


def test_weights_monotone_in_potential():
    A = SparseSymMatrix(2, [0.0, 0.0], [(1, 2, -0.7)])
    lo = build_metric(A, ShiftedPotential(0.0, np.array([1.0, 2.0]), frozenset()))
    hi = build_metric(A, ShiftedPotential(0.0, np.array([1.5, 2.0]), frozenset()))
    assert hi.edge_weight(1, 2) > lo.edge_weight(1, 2)


# ---------------------------------------------------------------- dijkstra


def test_prescribed_path_distances():
    m = make_metric(3, [(1, 2, 0.5), (2, 3, 0.7)])
    f = distance_from_set(m, [1])
    assert np.allclose(f.dist, [0.0, 0.5, 1.2], atol=1e-15)
    assert f.witness_path(3) == [1, 2, 3]


def test_empty_source_set():
    m = make_metric(3, [(1, 2, 0.5)])
    f = distance_from_set(m, [])
    assert np.all(np.isinf(f.dist))
    with pytest.raises(ValueError, match="unreachable"):
        f.witness_path(1)


def test_unreachable_component():
    m = make_metric(4, [(1, 2, 1.0), (3, 4, 1.0)])
    f = distance_from_set(m, [1])
    assert f.dist[2] == INF and f.dist[3] == INF
    assert pairwise_distance(m, 1, 3) == INF
    assert pairwise_distance(m, 2, 2) == 0.0


def test_tie_breaks_toward_smallest_predecessor():
    # two equal-length routes to 4; the witness must run through node 2
    m = make_metric(4, [(1, 2, 1.5), (1, 3, 1.0), (2, 4, 0.5), (3, 4, 1.0)])
    f = distance_from_set(m, [1])
    assert f.dist[3] == pytest.approx(2.0, abs=1e-15)
    assert f.witness_path(4) == [1, 2, 4]


def test_multi_source_takes_nearest():
    m = make_metric(5, [(1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (4, 5, 1.0)])
    f = distance_from_set(m, [1, 5])
    assert np.allclose(f.dist, [0.0, 1.0, 2.0, 1.0, 0.0], atol=1e-15)
    assert f.source == frozenset({1, 5})


def test_dijkstra_matches_path_enumeration():
    rng = np.random.default_rng(1234)
    for _ in range(40):
        n = int(rng.integers(2, 8))
        m = random_metric(rng, n)
        k = int(rng.integers(1, n + 1))
        sources = list(rng.choice(np.arange(1, n + 1), size=k, replace=False))
        f = distance_from_set(m, sources)
        for t in range(1, n + 1):
            ref = enum_distance(m, sources, t)
            if math.isinf(ref):
                assert math.isinf(f.dist[t - 1])
            else:
                assert abs(f.dist[t - 1] - ref) <= 1e-12


def test_witness_paths_realize_the_distance():
    rng = np.random.default_rng(77)
    for _ in range(20):
        m = random_metric(rng, int(rng.integers(3, 8)))
        f = distance_from_set(m, [1])
        for t in range(1, m.matrix.n + 1):
            if math.isinf(f.dist[t - 1]):
                continue
            path = f.witness_path(t)
            assert path[0] == 1 and path[-1] == t
            total = sum(m.edge_weight(a, b) for a, b in zip(path, path[1:]))
            assert abs(total - f.dist[t - 1]) <= 1e-12


def test_witness_paths_terminate_across_zero_weight_ties():
    # v = 0 on the chain 1-2-3 zeroes every weight, so all neighbours tie
    A = SparseSymMatrix(3, [0.0] * 3, [(1, 2, -1.0), (2, 3, -1.0)])
    chain = build_metric(A, ShiftedPotential(0.0, np.zeros(3), frozenset({1, 2, 3})))
    cases = [(chain, [3])]
    rng = np.random.default_rng(4096)
    for _ in range(30):
        m = random_metric(rng, int(rng.integers(3, 9)), p_zero=0.6)
        k = int(rng.integers(1, 3))
        cases.append((m, list(rng.choice(np.arange(1, m.matrix.n + 1), size=k, replace=False))))
    for m, sources in cases:
        f = distance_from_set(m, sources)
        for t in range(1, m.matrix.n + 1):
            if math.isinf(f.dist[t - 1]):
                continue
            # walk the predecessors with a step budget, so a cycle fails instead of hanging
            k, steps = t - 1, 0
            while f.predecessor[k] >= 0:
                k, steps = int(f.predecessor[k]), steps + 1
                assert steps < m.matrix.n, f"predecessor cycle through {t}"
            path = f.witness_path(t)
            assert len(path) <= m.matrix.n
            assert path[0] in sources and path[-1] == t
            total = 0.0
            for a, b in zip(path, path[1:]):
                total += m.edge_weight(a, b)
            assert total == f.dist[t - 1]


def test_pseudo_metric_axioms():
    rng = np.random.default_rng(5150)
    for _ in range(25):
        n = int(rng.integers(3, 8))
        m = random_metric(rng, n)
        d = np.vstack([distance_from_set(m, [i]).dist for i in range(1, n + 1)])
        assert np.all(d >= 0.0)
        assert np.all(np.diagonal(d) == 0.0)
        # path sums accumulate in opposite orders, so symmetry is up to rounding
        finite = np.isfinite(d)
        assert np.array_equal(finite, finite.T)
        with np.errstate(invalid="ignore"):
            gap = np.abs(np.where(finite & finite.T, d - d.T, 0.0))
        assert float(gap.max()) <= 1e-12
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if math.isfinite(d[i, j]) and math.isfinite(d[j, k]):
                        assert d[i, k] <= d[i, j] + d[j, k] + 1e-12


def test_set_distance():
    m = make_metric(4, [(1, 2, 1.0), (2, 3, 2.0), (3, 4, 1.0)])
    assert set_distance(m, {1, 2}, {2, 4}) == 0.0  # overlap
    assert set_distance(m, {1}, {4}) == pytest.approx(4.0, abs=1e-15)
    assert set_distance(m, {1}, {4}) == pairwise_distance(m, 1, 4)
    assert set_distance(m, set(), {1}) == INF
    assert set_distance(m, {1}, set()) == INF


def test_index_validation():
    m = make_metric(3, [(1, 2, 1.0)])
    with pytest.raises(ValueError, match="outside"):
        distance_from_set(m, [4])
    with pytest.raises(ValueError, match="outside"):
        pairwise_distance(m, 0, 1)


# ---------------------------------------------------------------- threshold sweep


def _draw(w, n=70):
    A, _ = generate_band_ensemble(EnsembleConfig(n=n, half_bandwidth=w, seed=40 + w))
    return A, solve_landscape(A).vbar


def _thresholds(vbar):
    """One threshold below every vbar, 31 quantiles of vbar (min and max among them), one above."""
    inner = np.quantile(vbar, np.linspace(0.0, 1.0, 31)).tolist()
    return [float(vbar.min()) - 1.0, *inner, float(vbar.max()) + 1.0]


def _sweep_equals_one_dijkstra_per_threshold(A, vbar, thresholds, excluded=frozenset()):
    """The sweep's triple at each t, alone and as a row of ``rows``.

    Both are compared with shift_potential and distance_from_set.
    """
    fields = threshold_fields(A, vbar, thresholds, excluded)
    rows = fields.rows(thresholds)
    for i, t in enumerate(thresholds):
        sp = shift_potential(vbar, t)
        ref = distance_from_set(build_metric(A, sp), sp.wells - excluded).dist
        for v, in_wells, dist in (fields[t], [r[i] for r in rows]):
            assert np.array_equal(v, sp.v)
            assert set((np.flatnonzero(in_wells) + 1).tolist()) == sp.wells
            assert np.array_equal(dist, ref)
    return fields


@pytest.mark.parametrize("w", [1, 2, 3])
def test_sweep_equals_one_dijkstra_per_threshold(w):
    A, vbar = _draw(w)
    ts = _thresholds(vbar)
    fields = _sweep_equals_one_dijkstra_per_threshold(A, vbar, ts)
    assert np.all(np.isinf(fields[ts[0]][2]))  # below every vbar: no wells
    assert not np.any(fields[ts[-1]][2])  # above every vbar: every site a well


@pytest.mark.parametrize("w", [1, 2, 3])
def test_sweep_of_a_relabelled_draw(w):
    A, vbar = _draw(w)
    perm = np.random.default_rng(w).permutation(A.n)  # new site k + 1 is old site perm[k] + 1
    new = np.argsort(perm) + 1
    B = SparseSymMatrix(
        A.n, A.diag[perm], [(new[i - 1], new[j - 1], a) for i, j, a in A.off_entries()]
    )
    ts = _thresholds(vbar)
    relabelled = _sweep_equals_one_dijkstra_per_threshold(B, vbar[perm], ts)
    fields = threshold_fields(A, vbar, ts)
    for t in ts:
        assert np.array_equal(relabelled[t][2], fields[t][2][perm])


@pytest.mark.parametrize("w", [1, 2, 3])
def test_sweep_with_an_excluded_set(w):
    A, vbar = _draw(w)
    ts = _thresholds(vbar)
    deepest = np.argsort(vbar)[:12] + 1
    scattered = np.random.default_rng(w).choice(A.n, 12, replace=False) + 1
    excluded = frozenset(np.concatenate([deepest, scattered]).tolist())
    fields = _sweep_equals_one_dijkstra_per_threshold(A, vbar, ts, excluded)
    assert np.all(np.isinf(fields[ts[1]][2]))  # the one well at min vbar is excluded


@pytest.mark.parametrize("w", [1, 2, 3])
def test_sweep_takes_duplicate_and_unsorted_thresholds(w):
    A, vbar = _draw(w)
    ts = _thresholds(vbar)
    fields = _sweep_equals_one_dijkstra_per_threshold(A, vbar, ts[::-1] + ts[5:9])
    assert fields.thresholds.tolist() == sorted(set(ts))


@pytest.mark.parametrize("w", [1, 2, 3])
def test_sweep_in_blocks_under_a_small_node_budget(w, monkeypatch):
    import scipy.sparse.csgraph as csgraph

    A, vbar = _draw(w)
    ts = _thresholds(vbar)
    real = csgraph.dijkstra
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(csgraph, "dijkstra", counted)
    threshold_fields(A, vbar, ts)
    assert len(calls) == 1
    monkeypatch.setattr(agmon, "SWEEP_NODES", A.n)
    threshold_fields(A, vbar, ts)
    blocks = len(calls) - 1
    assert 1 < blocks < len(ts)
    _sweep_equals_one_dijkstra_per_threshold(A, vbar, ts)


def test_sweep_lookup_and_validation():
    A, vbar = _draw(1, n=10)
    fields = threshold_fields(A, vbar, [0.5, 0.25])
    with pytest.raises(KeyError, match="no field at threshold 0.3"):
        fields[0.3]
    with pytest.raises(KeyError, match="no field at threshold 0.3"):
        fields.rows([0.5, 0.3, 0.25])
    assert [r.shape for r in fields.rows([])] == [(0, 10)] * 3
    with pytest.raises(ValueError, match="NaN"):
        threshold_fields(A, vbar, [0.5, math.nan])
    with pytest.raises(ValueError, match="length 9"):
        threshold_fields(A, vbar[:9], [0.5])
    with pytest.raises(ValueError, match="outside"):
        threshold_fields(A, vbar, [0.5], [11])


# ---------------------------------------------------------------- boundaries


def test_boundaries_on_a_chain():
    A = SparseSymMatrix(6, [0.0] * 6, [(i, i + 1, -1.0) for i in range(1, 6)])
    assert inner_boundary(A, [1, 2, 3]) == frozenset({3})
    assert outer_boundary(A, [1, 2, 3]) == frozenset({4})
    assert inner_boundary(A, range(1, 7)) == frozenset()
    assert outer_boundary(A, range(1, 7)) == frozenset()
    assert inner_boundary(A, []) == frozenset()
    assert outer_boundary(A, []) == frozenset()


def test_boundaries_block_diagonal():
    A = SparseSymMatrix(4, [0.0] * 4, [(1, 2, -1.0), (3, 4, -1.0)])
    assert inner_boundary(A, [1, 2]) == frozenset()
    assert outer_boundary(A, [1, 2]) == frozenset()


# ---------------------------------------------------------------- band bound


def test_band_bound_chain_formula():
    # half-bandwidth 1, v_min = a_max: (q - 1) steps of weight ln 2
    for q in range(2, 7):
        got = band_lower_bound(1, 1, q, 3.0, 3.0)
        assert got == pytest.approx((q - 1) * math.log(2.0), abs=1e-14)


def test_band_bound_clamps_short_intervals():
    assert band_lower_bound(3, 5, 7, 1.0, 1.0) == 0.0
    assert band_lower_bound(2, 4, 5, 1.0, 1.0) == 0.0


def test_band_bound_validation():
    with pytest.raises(ValueError):
        band_lower_bound(0, 1, 3, 1.0, 1.0)
    with pytest.raises(ValueError):
        band_lower_bound(1, 3, 2, 1.0, 1.0)
    with pytest.raises(ValueError):
        band_lower_bound(1, 1, 3, 0.0, 1.0)
    with pytest.raises(ValueError):
        band_lower_bound(1, 1, 3, 1.0, -1.0)
    for w in (True, np.True_, 1.0):
        with pytest.raises(ValueError, match="half-bandwidth"):
            band_lower_bound(w, 1, 5, 1.0, 1.0)
    for w, i1, iq in ((1, 1.5, 5), (2, 1, 6.7), (1, True, 5), (1, 1, np.True_), (1, np.float64(1.0), 5)):
        with pytest.raises(ValueError, match="interval end"):
            band_lower_bound(w, i1, iq, 1.0, 1.0)


def test_band_bound_certifies_dijkstra_distance():
    # constant potential plateau [4, 9] inside a half-bandwidth-2 band
    n, w, a, v_min = 12, 2, 0.5, 2.0
    off = [
        (i, i + k, -a)
        for k in range(1, w + 1)
        for i in range(1, n - k + 1)
    ]
    A = SparseSymMatrix(n, [0.0] * n, off)
    v = np.zeros(n)
    v[3:9] = v_min  # sites 4..9
    m = build_metric(A, ShiftedPotential(0.0, v, frozenset()))
    bound = band_lower_bound(w, 4, 9, v_min, a)
    assert bound == pytest.approx(2.0 * math.log(3.0), abs=1e-14)
    dist = pairwise_distance(m, 3, 10)
    assert dist >= bound - 1e-12


# ---------------------------------------------------------------- serialization


def test_distance_csv_spells_out_infinity(tmp_path):
    m = make_metric(3, [(1, 2, 0.25)])
    f = distance_from_set(m, [1])
    p = tmp_path / "dist.csv"
    write_distance_csv(p, f)
    rows = list(csv.reader(p.open()))
    assert rows[0] == ["index", "dist"]
    assert rows[1] == ["1", "0.0"]
    assert rows[2] == ["2", "0.25"]
    assert rows[3] == ["3", "inf"]


def test_edges_csv(tmp_path):
    m = make_metric(3, [(1, 2, 0.5), (2, 3, 0.75)])
    p = tmp_path / "edges.csv"
    write_edges_csv(p, m)
    rows = list(csv.reader(p.open()))
    assert rows[0] == ["i", "j", "weight"]
    assert rows[1] == ["1", "2", "0.5"]
    assert rows[2] == ["2", "3", "0.75"]
