"""Agmon metric construction, multi-source Dijkstra, and the band bound.

The Dijkstra oracle here is exhaustive simple-path enumeration, feasible for
the small graphs used; the full-size sweep lives in the acceptance suite.
"""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    pairwise_distance,
    shift_potential,
    solve_landscape,
    threshold_fields,
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
    assert m.edge_w[0] == pytest.approx(math.log(2.0), abs=1e-15)

    sp = ShiftedPotential(threshold=0.0, v=np.array([0.0, 7.0]), wells=frozenset({1}))
    assert build_metric(A, sp).edge_w[0] == 0.0

    A3 = SparseSymMatrix(2, [0.0, 0.0], [(1, 2, 3.0)])
    sp = ShiftedPotential(threshold=0.0, v=np.array([4.0, 9.0]), wells=frozenset())
    assert build_metric(A3, sp).edge_w[0] == pytest.approx(
        math.log(1.0 + math.sqrt(2.0)), abs=1e-15
    )


def test_build_metric_from_shift():
    A = SparseSymMatrix(3, [0.0] * 3, [(1, 2, -1.0), (2, 3, -1.0)])
    sp = shift_potential(np.array([3.0, 1.0, 3.0]), 1.0)
    m = build_metric(A, sp)
    assert m.provenance.threshold == 1.0
    assert m.provenance is sp
    # v = (2, 0, 2): both edges touch the zero at the middle site
    assert m.edge_w.tolist() == [0.0, 0.0]


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
    assert hi.edge_w[0] > lo.edge_w[0]


# ---------------------------------------------------------------- dijkstra


def test_prescribed_path_distances():
    m = make_metric(3, [(1, 2, 0.5), (2, 3, 0.7)])
    f = distance_from_set(m, [1])
    assert np.allclose(f.dist, [0.0, 0.5, 1.2], atol=1e-15)
    assert pairwise_distance(m, 1, 3) == f.dist[2]


def test_empty_source_set():
    m = make_metric(3, [(1, 2, 0.5)])
    f = distance_from_set(m, [])
    assert np.all(np.isinf(f.dist))


def test_unreachable_component():
    m = make_metric(4, [(1, 2, 1.0), (3, 4, 1.0)])
    f = distance_from_set(m, [1])
    assert f.dist[2] == INF and f.dist[3] == INF
    assert pairwise_distance(m, 1, 3) == INF
    assert pairwise_distance(m, 2, 2) == 0.0


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


def test_index_validation():
    m = make_metric(3, [(1, 2, 1.0)])
    with pytest.raises(ValueError, match="outside"):
        distance_from_set(m, [4])
    with pytest.raises(ValueError, match="outside"):
        pairwise_distance(m, 0, 1)


def _weight_at_60_digits(v_i, v_j, a):
    with mpmath.workdps(60):
        x = mpmath.sqrt(mpmath.sqrt(mpmath.mpf(v_i) * mpmath.mpf(v_j)) / abs(mpmath.mpf(a)))
        return float(mpmath.log1p(x))


def test_edge_weight_stays_finite_past_the_float_range():
    """v_i v_j or the quotient by |a| past float range: a finite weight, no warning."""
    v_i = np.array([1e308, 1e200, 1e308, 1e150, 4.0, 0.0])
    v_j = np.array([1e308, 1e200, 2.5, 1e150, 9.0, 1e308])
    a = np.array([-1.0, -1e-300, -5e-324, -1e-300, -2.0, -1e-300])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w = agmon._weight(v_i, v_j, a)
    assert np.isfinite(w).all()
    for got, args in zip(w.tolist(), zip(v_i.tolist(), v_j.tolist(), a.tolist())):
        assert got == pytest.approx(_weight_at_60_digits(*args), rel=1e-13, abs=0.0)
    # inside the float range the weight keeps the bits of the plain expression
    assert w[4] == np.log1p(np.sqrt(np.sqrt(4.0 * 9.0) / 2.0))
    assert w[5] == 0.0


def test_edge_weight_survives_an_underflow_of_v_i_v_j():
    """v_i v_j, or its root over |a|, underflows to 0 while v_i, v_j > 0: no weight is lost."""
    v_i = np.array([1e-300, 1e-170, 1e-100, 1e-300, 0.0])
    v_j = np.array([1e-300, 1e-170, 1e-100, 1e-300, 1e-300])
    a = np.array([-5e-324, -1e-300, -1e300, -1.0, -5e-324])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w = agmon._weight(v_i, v_j, a)
    assert w[0] == pytest.approx(26.832272011586, rel=1e-13, abs=0.0)
    assert w[1] == pytest.approx(149.668031044613, rel=1e-13, abs=0.0)
    for got, args in zip(w[:4].tolist(), zip(v_i.tolist(), v_j.tolist(), a.tolist())):
        assert got > 0.0
        assert got == pytest.approx(_weight_at_60_digits(*args), rel=1e-13, abs=0.0)
    assert w[4] == 0.0 and not np.signbit(w[4])  # a zero v gives a zero weight


_LOG_UNIFORM = st.floats(-320.0, 308.0).map(lambda e: 10.0**e)


@given(
    st.just(0.0) | _LOG_UNIFORM,
    st.just(0.0) | _LOG_UNIFORM | st.floats(0.0, 1.7e308),
    st.sampled_from([-1.0, 1.0]),
    _LOG_UNIFORM,
)
@settings(max_examples=400, deadline=None)
def test_edge_weight_is_finite_and_keeps_its_bits_in_range(v_i, v_j, sign, a):
    with np.errstate(all="ignore"):
        plain = np.log1p(np.sqrt(np.sqrt(np.float64(v_i) * v_j) / abs(sign * a)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w = float(agmon._weight(np.array([v_i]), np.array([v_j]), np.array([sign * a]))[0])
    assert math.isfinite(w)
    if math.isfinite(plain) and (plain > 0.0 or v_i == 0.0 or v_j == 0.0):
        assert w == plain
    else:  # past the float range, or lost to an underflow of positive v_i and v_j
        assert w == pytest.approx(_weight_at_60_digits(v_i, v_j, a), rel=1e-13, abs=0.0)


# ---------------------------------------------------------------- threshold sweep


def _draw(w, n=70):
    A, _ = generate_band_ensemble(EnsembleConfig(n=n, half_bandwidth=w, seed=40 + w))
    return A, solve_landscape(A).vbar


def _thresholds(vbar):
    """One threshold below every vbar, 31 quantiles of vbar (min and max among them), one above."""
    inner = np.quantile(vbar, np.linspace(0.0, 1.0, 31)).tolist()
    return [float(vbar.min()) - 1.0, *inner, float(vbar.max()) + 1.0]


def _sweep_equals_one_dijkstra_per_threshold(A, vbar, thresholds, excluded=frozenset()):
    """The sweep's triple at each t, alone, as a row of ``rows`` and as stored.

    All three are compared with shift_potential and distance_from_set, bit
    for bit (``tobytes`` tells -0.0 from +0.0).
    """
    fields = threshold_fields(A, vbar, thresholds, excluded)
    rows = fields.rows(thresholds)
    for i, t in enumerate(thresholds):
        sp = shift_potential(vbar, t)
        ref = distance_from_set(build_metric(A, sp), sp.wells - excluded).dist
        for v, in_wells, dist in (fields[t], [r[i] for r in rows]):
            assert v.tobytes() == sp.v.tobytes()
            assert set((np.flatnonzero(in_wells) + 1).tolist()) == sp.wells
            assert dist.tobytes() == ref.tobytes()
        _, sites, v, dist = fields.slices(fields.index([t]))
        sources = sp.wells - excluded
        assert (sites + 1).tolist() == [k for k in range(1, A.n + 1) if k not in sources]
        assert v.tobytes() == sp.v[sites].tobytes()
        assert dist.tobytes() == ref[sites].tobytes()
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


@pytest.mark.parametrize(
    "n, off",
    [
        (12, [(k, k + 1, -0.5 - 0.1 * k) for k in range(1, 12) if k != 5]),  # 5 and 6 uncoupled
        (12, [(k, k + 1, -1.0) for k in (1, 2, 3, 7, 8, 11)]),  # couplings missing in a row
        (6, []),  # diagonal: bandwidth 0
        (1, []),
        (2, [(1, 2, -0.5)]),
    ],
    ids=["missing-coupling", "missing-couplings", "diagonal", "n1", "n2"],
)
def test_sweep_of_small_and_broken_chains(n, off):
    A = SparseSymMatrix(n, np.full(n, 3.0), off)
    vbar = np.random.default_rng(n + len(off)).uniform(0.5, 2.5, n)
    ts = _thresholds(vbar) + [-INF, INF]
    for excluded in (frozenset(), frozenset({1}), frozenset(range(2, n + 1, 3))):
        _sweep_equals_one_dijkstra_per_threshold(A, vbar, ts, excluded)


@st.composite
def _chain_sweeps(draw):
    """A chain of 1 to 9 sites, couplings of 1e-150 to 1e150 or none, and a sweep's arguments."""
    n = draw(st.integers(1, 9))
    exponents = draw(st.lists(st.none() | st.floats(-150.0, 150.0), min_size=n - 1, max_size=n - 1))
    off = [(k, k + 1, -(10.0**e)) for k, e in enumerate(exponents, 1) if e is not None]
    A = SparseSymMatrix(n, np.zeros(n), off)
    level = st.sampled_from([0.0, 1.0, 2.0]) | st.floats(-3.0, 3.0)
    vbar = np.array(draw(st.lists(level, min_size=n, max_size=n)))
    at_vbar = st.integers(0, n - 1).map(lambda k: float(vbar[k]))
    t = at_vbar | level | st.sampled_from([-INF, INF])
    thresholds = draw(st.lists(t, min_size=1, max_size=8))
    excluded = draw(st.sets(st.integers(1, n)))
    return A, vbar, thresholds, frozenset(excluded)


@given(_chain_sweeps())
@settings(max_examples=300, deadline=None)
def test_chain_sweep_equals_one_dijkstra_per_threshold(args):
    A, vbar, thresholds, excluded = args
    assert A.bandwidth() <= 1
    _sweep_equals_one_dijkstra_per_threshold(A, vbar, thresholds, excluded)


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
    assert len(calls) == (0 if w == 1 else 1)  # a chain runs two passes per row instead
    monkeypatch.setattr(agmon, "SWEEP_NODES", A.n)
    threshold_fields(A, vbar, ts)
    blocks = len(calls) - (0 if w == 1 else 1)
    assert blocks == 0 if w == 1 else 1 < blocks < len(ts)
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
    assert inner_boundary(A, [3, 4]) == frozenset({3, 4})
    assert inner_boundary(A, range(1, 7)) == frozenset()
    assert inner_boundary(A, []) == frozenset()


def test_boundaries_block_diagonal():
    A = SparseSymMatrix(4, [0.0] * 4, [(1, 2, -1.0), (3, 4, -1.0)])
    assert inner_boundary(A, [1, 2]) == frozenset()


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

