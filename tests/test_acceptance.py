"""Release gate: ten numbered end-to-end checks, one verdict line each.

Each test prints exactly one "criterion NN: PASS/FAIL (detail)" line; the
assertion rides on the same flag, so the printed line and the pytest outcome
cannot disagree.  Criteria 1, 2, 7 and 10 share one 51-matrix ensemble sweep;
criteria 5 and 6 share four calibrated partition runs.
"""

import math
import time

import numpy as np
import pytest

from mlandscape.agmon import (
    AgmonMetric,
    band_lower_bound,
    build_metric,
    distance_from_set,
    pairwise_distance,
)
from mlandscape.checks import (
    EmptyWellSetError,
    agmon_scatter,
    check_commutator_identity,
    check_counting,
    check_dc_corollary,
    check_decoupling_global,
    check_decoupling_local,
    check_double_commutator_lemma,
    check_general_localization,
    check_landscape_localization,
)
from mlandscape.landscape import ShiftedPotential, shift_potential, solve_landscape
from mlandscape.matrices import (
    EnsembleConfig,
    SparseSymMatrix,
    classify,
    connectivity,
    generate_band_ensemble,
    smallest_eigenvalue,
)
from mlandscape.partition import build_partition
from mlandscape.spectral import counting_global, counting_local, eig_sym, local_eig

# half-bandwidth by seed residue: connectivity 2W cycles through 2, 6, 20
W_BY_MOD = {0: 1, 1: 3, 2: 10}
SWEEP_N = 200
SWEEP_SEEDS = range(1, 51)
# (n, W, seed) draws added to the sweep: W=2 at n=600 is where stalled
# eigenvector tails once gave false localization violations
SWEEP_EXTRA = ((600, 2, 3),)

# calibrated partition runs for the decoupling and counting criteria: every
# config passes the separation audit with coefficient < 1 at delta = 0.05
DECOUPLING_RUNS = ((400, 2, 0.25), (600, 11, 0.20), (600, 7, 0.25), (600, 24, 0.25))
DELTA = 0.05
S_REQUESTED = 12.0
REL = 1e-9


def _verdict(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def sweep():
    runs = []
    draws = [(SWEEP_N, W_BY_MOD[seed % 3], seed) for seed in SWEEP_SEEDS]
    for n, w, seed in draws + list(SWEEP_EXTRA):
        A, _ = generate_band_ensemble(
            EnsembleConfig(n=n, half_bandwidth=w, epsilon=0.1, seed=seed)
        )
        runs.append((seed, w, A, solve_landscape(A), eig_sym(A)))
    return runs


@pytest.fixture(scope="module")
def decoupled():
    runs = {}
    for n, seed, ebar in DECOUPLING_RUNS:
        A, _ = generate_band_ensemble(
            EnsembleConfig(n=n, half_bandwidth=1, epsilon=0.1, seed=seed)
        )
        L = solve_landscape(A)
        ed = eig_sym(A)
        metric = build_metric(A, shift_potential(L, ebar))
        part = build_partition(A, metric, S_REQUESTED)
        locals_ = [
            local_eig(A, region, region_id=k)
            for k, region in enumerate(part.regions, start=1)
        ]
        wc = max(connectivity(A), 2)
        coeff = (
            (wc * wc / DELTA**3)
            * A.max_abs_entry() ** 3
            * math.exp(-2.0 * part.s_achieved / math.sqrt(wc))
        )
        runs[(n, seed, ebar)] = (A, L, ed, part, locals_, wc, coeff)
    return runs


def _two_block_fixture():
    """Two decoupled chains; every site is a well, separation is infinite."""
    diag = [2.0] * 4 + [5.0] * 4
    entries = [(1, 2, -1.0), (2, 3, -1.0), (3, 4, -1.0),
               (5, 6, -1.0), (6, 7, -1.0), (7, 8, -1.0)]
    A = SparseSymMatrix(8, diag, entries)
    L = solve_landscape(A)
    ed = eig_sym(A)
    metric = build_metric(A, shift_potential(L, 10.0))
    part = build_partition(A, metric, S_REQUESTED)
    locals_ = [
        local_eig(A, region, region_id=k)
        for k, region in enumerate(part.regions, start=1)
    ]
    return A, ed, part, locals_


# ---- criterion 1: eigenpair localization bound across the ensemble sweep


def test_criterion_01_eigenpair_bound_sweep(sweep):
    t0 = time.monotonic()
    bad = 0
    checked = 0
    for seed, w, A, L, ed in sweep:
        for j in range(1, ed.n + 1):
            rep = check_landscape_localization(A, L, ed, j)
            checked += 1
            if not rep.holds:
                bad += 1
    elapsed = time.monotonic() - t0
    _verdict(
        1,
        bad == 0 and elapsed < 120.0,
        f"{checked} eigenpairs, {bad} violations, {elapsed:.1f}s",
    )


# ---- criterion 2: two-line bound, both thresholds, both rates


def test_criterion_02_general_bound_sweep(sweep):
    bad = 0
    checked = 0
    skipped = 0
    for seed, w, A, L, ed in sweep:
        wc = max(connectivity(A), 2)
        alphas = (math.sqrt(1.0 / wc), math.sqrt(2.0 / wc))
        for j in range(1, ed.n + 1):
            E = float(ed.values[j - 1])
            psi = ed.vectors[:, j - 1]
            for ebar in (E, E + 0.2):
                for alpha in alphas:
                    try:
                        rep = check_general_localization(
                            A, L.u, psi, E, ebar, (), alpha, eigen_id=j
                        )
                    except EmptyWellSetError:
                        skipped += 1
                        continue
                    checked += 1
                    if not rep.holds:
                        bad += 1
    _verdict(
        2,
        bad == 0 and checked > 0,
        f"{checked} cases, {bad} violations, {skipped} empty-well skips",
    )


# ---- criterion 3: commutator identity suite


def test_criterion_03_identity_suite():
    rng = np.random.default_rng(303)
    bad = 0

    for _ in range(1000):
        n = int(rng.integers(2, 31))
        a = rng.normal(size=(n, n))
        a = (a + a.T) / 2.0
        A = SparseSymMatrix.from_dense(a)
        u = rng.normal(size=n)
        lhs, rhs, diff = check_commutator_identity(A, rng.normal(size=n), u)
        if diff > 1e-10 * (1.0 + abs(lhs)):
            bad += 1
        check_double_commutator_lemma(
            A, rng.normal(size=n), rng.normal(size=n), u
        )

    # Z-matrix with constant-sign u: the common value must be non-positive
    for trial in range(200):
        n = int(rng.integers(2, 31))
        m = np.abs(rng.normal(size=(n, n)))
        m = (m + m.T) / 2.0
        a = -m
        np.fill_diagonal(a, rng.normal(size=n))
        A = SparseSymMatrix.from_dense(a)
        u = np.abs(rng.normal(size=n)) + 0.05
        if trial % 2:
            u = -u
        lhs, _, _ = check_commutator_identity(A, rng.normal(size=n), u)
        if lhs > 1e-12:
            bad += 1

    # weighted eigenvalue bound on every eigenpair of random Z-matrices
    pairs = 0
    for _ in range(20):
        n = int(rng.integers(5, 26))
        m = np.abs(rng.normal(size=(n, n)))
        m = (m + m.T) / 2.0
        a = -m
        np.fill_diagonal(a, rng.normal(size=n))
        A = SparseSymMatrix.from_dense(a)
        u = np.abs(rng.normal(size=n)) + 0.1
        g = rng.normal(size=n)
        ed = eig_sym(A)
        for j in range(n):
            _, _, holds = check_dc_corollary(
                A, u, ed.vectors[:, j], float(ed.values[j]), g
            )
            pairs += 1
            if not holds:
                bad += 1

    _verdict(3, bad == 0, f"1000 identities, 200 sign cases, {pairs} eigenpairs")


# ---- criterion 4: shortest-path oracle and pseudo-metric axioms


def _random_metric(rng, n: int) -> AgmonMetric:
    ei, ej, ew = [], [], []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if rng.random() < 0.5:
                ei.append(i)
                ej.append(j)
                ew.append(0.0 if rng.random() < 0.15 else float(abs(rng.normal())))
    sp = ShiftedPotential(
        threshold=0.0, v=np.zeros(n), wells=frozenset(range(1, n + 1))
    )
    return AgmonMetric(
        n=n,
        threshold=0.0,
        edge_i=np.array(ei, dtype=np.int64),
        edge_j=np.array(ej, dtype=np.int64),
        edge_w=np.array(ew, dtype=float),
        provenance=sp,
    )


def _enum_distance(m: AgmonMetric, src: int, dst: int) -> float:
    # exhaustive simple-path minimum, written independently of the solver
    adj: list[list[tuple[int, float]]] = [[] for _ in range(m.n + 1)]
    for i, j, w in m.edges():
        adj[i].append((j, w))
        adj[j].append((i, w))
    best = math.inf

    def walk(node: int, seen: set, acc: float) -> None:
        nonlocal best
        if acc >= best:
            return
        if node == dst:
            best = acc
            return
        for nb, w in adj[node]:
            if nb not in seen:
                seen.add(nb)
                walk(nb, seen, acc + w)
                seen.remove(nb)

    walk(src, {src}, 0.0)
    return best


def test_criterion_04_metric_oracle():
    rng = np.random.default_rng(404)
    bad = 0
    graphs = 0
    while graphs < 200:
        n = int(rng.integers(2, 8))
        m = _random_metric(rng, n)
        graphs += 1
        for i in range(1, n + 1):
            field = distance_from_set(m, [i])
            for j in range(1, n + 1):
                got = float(field.dist[j - 1])
                want = 0.0 if i == j else _enum_distance(m, i, j)
                if math.isinf(want) != math.isinf(got):
                    bad += 1
                elif math.isfinite(want) and abs(got - want) > 1e-12:
                    bad += 1

    triples = 0
    while triples < 10**4:
        n = int(rng.integers(3, 8))
        m = _random_metric(rng, n)
        dist = [distance_from_set(m, [i]).dist for i in range(1, n + 1)]
        for _ in range(200):
            i, j, k = (int(x) for x in rng.integers(0, n, size=3))
            d_ik = dist[i][k]
            d_via = dist[i][j] + dist[j][k]
            if math.isfinite(d_via) and d_ik > d_via + 1e-12:
                bad += 1
            both_inf = math.isinf(dist[i][j]) and math.isinf(dist[j][i])
            if not both_inf and abs(dist[i][j] - dist[j][i]) > 1e-12:
                bad += 1
            triples += 1
    _verdict(4, bad == 0, f"{graphs} graphs vs enumeration, {triples} axiom triples")


# ---- criterion 5: spectral decoupling on gated runs and block fixtures


def test_criterion_05_decoupling(decoupled):
    bad = 0
    local_pairs = 0
    global_pairs = 0
    for key, (A, L, ed, part, locals_, wc, coeff) in decoupled.items():
        if not (part.axioms_hold and coeff < 1.0):
            bad += 1
            continue
        for loc in locals_:
            for j in range(1, loc.values.size + 1):
                if float(loc.values[j - 1]) <= key[2] - DELTA:
                    rep = check_decoupling_local(A, part, loc, ed, j, DELTA, key[2])
                    local_pairs += 1
                    if not rep.holds:
                        bad += 1
        for j in range(1, ed.n + 1):
            if float(ed.values[j - 1]) <= key[2] - DELTA:
                rep = check_decoupling_global(A, part, ed, locals_, j, DELTA, key[2])
                global_pairs += 1
                if not rep.holds:
                    bad += 1

    A, ed, part, locals_ = _two_block_fixture()
    block_pairs = 0
    for loc in locals_:
        for j in range(1, loc.values.size + 1):
            rep = check_decoupling_local(A, part, loc, ed, j, DELTA, 10.0)
            block_pairs += 1
            if not (rep.holds and rep.defect_sq <= 1e-20):
                bad += 1
    for j in range(1, ed.n + 1):
        rep = check_decoupling_global(A, part, ed, locals_, j, DELTA, 10.0)
        block_pairs += 1
        if not (rep.holds and rep.defect_sq <= 1e-20):
            bad += 1

    ok = bad == 0 and local_pairs >= 1 and global_pairs >= 1
    _verdict(
        5,
        ok,
        f"{local_pairs}+{global_pairs} gated pairs, {block_pairs} block pairs, {bad} failures",
    )


# ---- criterion 6: two-sided eigenvalue counting


def test_criterion_06_counting(decoupled):
    bad = 0
    for key, (A, L, ed, part, locals_, wc, coeff) in decoupled.items():
        if not (part.axioms_hold and coeff < 1.0):
            bad += 1
            continue
        rep = check_counting(
            ed, locals_, DELTA, key[2], part.s_achieved, wc, A.max_abs_entry()
        )
        if not (rep.all_hold and rep.mu_grid.size == 50):
            bad += 1

    A, ed, part, locals_ = _two_block_fixture()
    lo = float(ed.values.min()) - 1.0
    hi = float(ed.values.max()) + 1.0
    grid = np.concatenate(
        [np.linspace(lo, hi, 101), (ed.values[:-1] + ed.values[1:]) / 2.0]
    )
    mismatches = sum(
        1 for x in grid if counting_global(ed, float(x)) != counting_local(locals_, float(x))
    )
    _verdict(
        6,
        bad == 0 and mismatches == 0,
        f"{len(decoupled)} gated runs, block grid mismatches {mismatches}",
    )


# ---- criterion 7: landscape and eigensolver solve quality


def test_criterion_07_solve_quality(sweep):
    bad = 0
    for seed, w, A, L, ed in sweep:
        a_dense = A.to_dense()
        ones_resid = float(np.abs(A.matvec(L.u) - 1.0).max())
        if not np.all(L.u > 0.0):
            bad += 1
        if ones_resid > 1e-10 * max(1.0, A.max_abs_entry()):
            bad += 1
        fro = float(np.linalg.norm(a_dense))
        resid = a_dense @ ed.vectors - ed.vectors * ed.values[np.newaxis, :]
        if float(np.linalg.norm(resid, axis=0).max()) > 1e-10 * fro:
            bad += 1
        gram = ed.vectors.T @ ed.vectors - np.eye(ed.n)
        if float(np.abs(gram).max()) > 1e-10:
            bad += 1
    _verdict(7, bad == 0, f"{len(sweep)} draws, {bad} contract breaks")


# ---- criterion 8: decay-versus-distance correlation, fixed seed


def test_criterion_08_scatter_correlation():
    t0 = time.monotonic()
    A, _ = generate_band_ensemble(
        EnsembleConfig(n=1000, half_bandwidth=1, epsilon=0.1, seed=42)
    )
    L = solve_landscape(A)
    ed = eig_sym(A)
    sd = agmon_scatter(A, L, ed, 1, floor=1e-17)
    elapsed = time.monotonic() - t0
    ok = abs(sd.pearson_r) >= 0.90 and elapsed < 60.0
    _verdict(
        8, ok, f"|r| = {abs(sd.pearson_r):.4f}, {sd.points.shape[0]} points, {elapsed:.1f}s"
    )


# ---- criterion 9: interval crossing distance versus its closed-form bound


def test_criterion_09_band_bound():
    bad = 0
    for k in range(20):
        rng = np.random.default_rng(900 + k)
        w = 1 + k % 3
        n = 26 + int(rng.integers(0, 8))
        i1, iq = 8, n - 8
        diag = 2.0 + np.abs(rng.normal(size=n))
        entries = []
        for off in range(1, w + 1):
            for i in range(1, n - off + 1):
                entries.append((i, i + off, -float(0.2 + 0.8 * rng.random())))
        A = SparseSymMatrix(n, list(diag), entries)
        a_max = max(abs(v) for _, _, v in entries)
        v_min = 0.5 + rng.random()
        v = np.zeros(n)
        v[i1 - 1 : iq] = v_min + np.abs(rng.normal(size=iq - i1 + 1))
        wells = frozenset(i + 1 for i in range(n) if v[i] == 0.0)
        sp = ShiftedPotential(threshold=0.0, v=v, wells=wells)
        metric = build_metric(A, sp)
        dist = pairwise_distance(metric, i1 - 1, iq + 1)
        bound = band_lower_bound(w, i1, iq, v_min, a_max)
        if not dist >= bound - 1e-12:
            bad += 1
    _verdict(9, bad == 0, f"20 banded instances, {bad} bound breaks")


# ---- criterion 10: ensemble contract


def test_criterion_10_ensemble_contract(sweep):
    bad = 0
    for seed, w, A, L, ed in sweep:
        if not classify(A, compute_spectrum=False).is_z:
            bad += 1
        if connectivity(A) > 2 * w:
            bad += 1
        if abs(smallest_eigenvalue(A) - 0.1) > 1e-8:
            bad += 1
    _verdict(10, bad == 0, f"{len(sweep)} draws, {bad} contract breaks")
