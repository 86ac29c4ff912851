"""Inequality and identity verifiers: exact fixtures first, then small sweeps."""

import csv
import dataclasses
import math

import numpy as np
import pytest

from mlandscape import (
    EigenDecomposition,
    EmptyWellSetError,
    EnsembleConfig,
    NonPositiveLandscapeError,
    SparseSymMatrix,
    agmon_scatter,
    build_metric,
    build_partition,
    check_commutator_identity,
    check_counting,
    check_decoupling_global,
    check_decoupling_local,
    check_dc_corollary,
    check_double_commutator_lemma,
    check_general_localization,
    check_landscape_localization,
    connectivity,
    counting_global,
    counting_local,
    distance_from_set,
    eig_sym,
    generate_band_ensemble,
    local_eig,
    shift_potential,
    solve_landscape,
    verify_separation,
    write_scatter_csv,
)

INF = float("inf")


def chain(n, d=2.0):
    return SparseSymMatrix(n, [d] * n, [(i, i + 1, -1.0) for i in range(1, n)])


@pytest.fixture(scope="module")
def blocks():
    """Two uncoupled chains: local and global spectra agree exactly."""
    A = SparseSymMatrix(
        8,
        [2.0] * 4 + [5.0] * 4,
        [(1, 2, -1.0), (2, 3, -1.0), (3, 4, -1.0), (5, 6, -1.0), (6, 7, -1.0), (7, 8, -1.0)],
    )
    L = solve_landscape(A)
    ed = eig_sym(A)
    sp = shift_potential(L, 10.0)  # every site is a well; blocks stay separate
    part = build_partition(A, build_metric(A, sp), s_requested=2.0)
    locals_ = [local_eig(A, reg, region_id=i) for i, reg in enumerate(part.regions)]
    return A, L, ed, part, locals_


# ---------------------------------------------------------------- landscape bound


def test_landscape_bound_diagonal_is_exactly_zero():
    A = SparseSymMatrix(3, [3.0, 1.0, 2.0])
    rep = check_landscape_localization(A, solve_landscape(A), eig_sym(A), 1)
    assert rep.lhs_second == 0.0
    assert rep.rhs == 6.0
    assert rep.holds
    assert rep.E == pytest.approx(1.0, abs=1e-14)


def test_landscape_bound_two_site_chain():
    A = SparseSymMatrix.from_dense([[2.0, -1.0], [-1.0, 2.0]])
    L = solve_landscape(A)
    ed = eig_sym(A)
    for j in (1, 2):
        rep = check_landscape_localization(A, L, ed, j)
        # every site is a well at both eigenvalues, so the weighted sum vanishes
        assert rep.lhs_second == 0.0
        assert rep.rhs == 4.0
        assert rep.holds


def test_landscape_bound_holds_on_a_draw():
    A, _ = generate_band_ensemble(EnsembleConfig(n=120, half_bandwidth=1, seed=5))
    L = solve_landscape(A)
    ed = eig_sym(A)
    for j in range(1, 121):
        rep = check_landscape_localization(A, L, ed, j)
        assert rep.holds, f"eigenpair {j}: lhs {rep.lhs_second} > rhs {rep.rhs}"


def test_landscape_bound_rejects_non_z_input():
    A = SparseSymMatrix.from_dense([[1.0, 0.5], [0.5, 1.0]])
    L = solve_landscape(A)
    with pytest.raises(ValueError, match="not an M-matrix"):
        check_landscape_localization(A, L, eig_sym(A), 1)
    with pytest.raises(ValueError, match="outside"):
        check_landscape_localization(chain(2), solve_landscape(chain(2)), eig_sym(chain(2)), 3)


# ---------------------------------------------------------------- shifted bound


def test_shifted_bound_three_site_pinned_values():
    """Chain of 3 with the exact ground pair: every quantity is analytic."""
    A = chain(3)
    u = np.array([1.5, 2.0, 1.5])  # A u = 1 exactly
    phi = np.array([0.5, math.sqrt(2.0) / 2.0, 0.5])
    E = 2.0 - math.sqrt(2.0)
    ebar = 0.6  # wells = {2} (vbar = (2/3, 1/2, 2/3)); both edges touch the well
    alpha = math.sqrt(0.5)
    rep = check_general_localization(A, u, phi, E, ebar, frozenset(), alpha)
    # zero-weight edges make every distance zero, so the sums are bare
    v_edge = 2.0 / 3.0 - 0.6
    expect_second = (1.0 - alpha * alpha) * 2.0 * 0.25 * v_edge
    expect_first = (ebar - E) * 0.5
    assert rep.lhs_first == pytest.approx(expect_first, rel=1e-12)
    assert rep.lhs_second == pytest.approx(expect_second, rel=1e-12)
    assert rep.rhs == pytest.approx(1.0, rel=1e-12)
    assert rep.holds


def test_shifted_bound_critical_alpha_kills_second_term():
    A, _ = generate_band_ensemble(EnsembleConfig(n=60, half_bandwidth=1, seed=5))
    L = solve_landscape(A)
    ed = eig_sym(A)
    E = float(ed.values[0])
    rep = check_general_localization(
        A, L.u, ed.vectors[:, 0], E, E + 0.2, frozenset(), 1.0
    )
    # W_c = 2: alpha = sqrt(2/W_c) = 1 makes the coefficient exactly zero
    assert rep.lhs_second == 0.0
    assert rep.holds


def test_shifted_bound_at_threshold_equal_to_eigenvalue():
    A, _ = generate_band_ensemble(EnsembleConfig(n=60, half_bandwidth=1, seed=5))
    L = solve_landscape(A)
    ed = eig_sym(A)
    E = float(ed.values[2])
    rep = check_general_localization(
        A, L.u, ed.vectors[:, 2], E, E, frozenset(), math.sqrt(0.5), eigen_id=3
    )
    assert rep.lhs_first == 0.0
    assert rep.eigen_id == 3
    assert rep.holds


def test_shifted_bound_small_sweep():
    A, _ = generate_band_ensemble(EnsembleConfig(n=60, half_bandwidth=1, seed=5))
    L = solve_landscape(A)
    ed = eig_sym(A)
    skipped = 0
    for j in range(1, 61):
        E = float(ed.values[j - 1])
        for ebar in (E, E + 0.2):
            for alpha in (math.sqrt(0.5), 1.0):
                try:
                    rep = check_general_localization(
                        A, L.u, ed.vectors[:, j - 1], E, ebar, frozenset(), alpha
                    )
                except EmptyWellSetError:
                    skipped += 1
                    continue
                assert rep.holds, f"j={j} ebar={ebar} alpha={alpha}"
    assert skipped == 0  # the spectrum starts at 0.1; wells exist at every E


def test_shifted_bound_validation():
    A = chain(3)
    u = np.array([1.5, 2.0, 1.5])
    phi = np.zeros(3)
    with pytest.raises(ValueError, match="exceeds threshold"):
        check_general_localization(A, u, phi, 1.0, 0.5, frozenset(), 0.5)
    with pytest.raises(ValueError, match="alpha"):
        check_general_localization(A, u, phi, 0.5, 0.6, frozenset(), 1.5)
    with pytest.raises(ValueError, match="alpha"):
        check_general_localization(A, u, phi, 0.5, 0.6, frozenset(), 0.0)
    with pytest.raises(NonPositiveLandscapeError):
        check_general_localization(A, [1.0, 0.0, 1.0], phi, 0.5, 0.6, frozenset(), 0.5)
    bad = SparseSymMatrix.from_dense([[1.0, 0.5], [0.5, 1.0]])
    with pytest.raises(ValueError, match="not a Z-matrix"):
        check_general_localization(bad, [1.0, 1.0], [0.0, 0.0], 0.5, 0.6, frozenset(), 0.5)


def test_shifted_bound_empty_relative_wells():
    A = chain(3)
    u = np.array([1.5, 2.0, 1.5])
    phi = np.array([0.5, 0.7, 0.5])
    with pytest.raises(EmptyWellSetError, match="empty relative well set"):
        check_general_localization(A, u, phi, 0.5, 0.6, frozenset({2}), 0.5)


def test_shifted_bound_handles_unreachable_zero_amplitude(blocks):
    """phi = 0 exactly where the distance is infinite: the product counts as 0."""
    A, L, ed, part, locals_ = blocks
    loc = locals_[0]
    j = 1
    mu = float(loc.values[j - 1])
    phi = loc.vectors[:, j - 1]
    ebar = 3.5  # wells in both blocks; exclude the second block's wells
    rep = check_general_localization(
        A, L.u, phi, mu, ebar, frozenset({6, 7}), math.sqrt(0.5)
    )
    assert math.isfinite(rep.lhs_first) and math.isfinite(rep.lhs_second)
    assert rep.holds


def test_shared_fields_serve_only_checks_without_exclusions(blocks):
    """A fields dict holds distances to whole well sets; a non-empty D bypasses it."""
    A, L, ed, part, locals_ = blocks
    phi = locals_[0].vectors[:, 0]
    mu = float(locals_[0].values[0])
    args = (A, L.u, phi, mu, 3.5)
    fields = {}
    excluded = check_general_localization(*args, frozenset({6, 7}), 0.5, fields=fields)
    assert fields == {}
    assert _bits(excluded) == _bits(check_general_localization(*args, frozenset({6, 7}), 0.5))
    whole = check_general_localization(*args, frozenset(), 0.5, fields=fields)
    assert list(fields) == [3.5]
    again = check_general_localization(*args, frozenset(), 0.5, fields=fields)
    assert _bits(whole) == _bits(again) == _bits(check_general_localization(*args, (), 0.5))
    assert _bits(excluded) != _bits(whole)


def test_distance_decreases_as_threshold_rises():
    A, _ = generate_band_ensemble(EnsembleConfig(n=100, half_bandwidth=1, seed=12))
    L = solve_landscape(A)
    lo = shift_potential(L, 0.4)
    hi = shift_potential(L, 0.8)
    assert lo.wells <= hi.wells
    if lo.wells:
        d_lo = distance_from_set(build_metric(A, lo), lo.wells).dist
        d_hi = distance_from_set(build_metric(A, hi), hi.wells).dist
        assert np.all(d_hi <= d_lo + 1e-12)


def _bits(report) -> list:
    """Every field of a report, floats by their exact bits."""
    values = (getattr(report, f.name) for f in dataclasses.fields(report))
    return [float(v).hex() if isinstance(v, float) else v for v in values]


# ---------------------------------------------------------------- identities


def test_identity_vanishes_for_constant_weight():
    A = chain(4)
    lhs, rhs, diff = check_commutator_identity(A, [3.0] * 4, [1.0, -2.0, 0.5, 1.0])
    assert lhs == 0.0 and rhs == 0.0 and diff == 0.0


def test_identity_vanishes_for_diagonal_matrix():
    A = SparseSymMatrix(3, [1.0, 2.0, 3.0])
    lhs, rhs, diff = check_commutator_identity(A, [1.0, 2.0, 3.0], [1.0, 1.0, 1.0])
    assert lhs == 0.0 and rhs == 0.0


def test_identity_two_routes_agree_on_random_instances():
    rng = np.random.default_rng(42)
    for _ in range(30):
        n = int(rng.integers(2, 21))
        a = rng.standard_normal((n, n))
        A = SparseSymMatrix.from_dense(a + a.T)
        _, _, diff = check_commutator_identity(
            A, rng.standard_normal(n), rng.standard_normal(n)
        )
        assert diff <= 1e-9


def test_identity_sign_for_z_matrix_with_signed_vector():
    A = chain(5)
    rng = np.random.default_rng(3)
    for _ in range(20):
        u = np.abs(rng.standard_normal(5))
        lhs, _, _ = check_commutator_identity(A, rng.standard_normal(5), u)
        assert lhs <= 1e-12
        lhs, _, _ = check_commutator_identity(A, rng.standard_normal(5), -u)
        assert lhs <= 1e-12


def test_identity_allows_positive_value_for_mixed_signs():
    A = SparseSymMatrix.from_dense([[2.0, -1.0], [-1.0, 2.0]])
    lhs, rhs, diff = check_commutator_identity(A, [1.0, 0.0], [1.0, -1.0])
    assert lhs == pytest.approx(2.0, abs=1e-14)
    assert diff <= 1e-12


def test_splitting_lemma_trivial_diagonal_weight():
    A = chain(4)
    diff = check_double_commutator_lemma(A, np.ones(4), [1.0, 2.0, 0.5, -1.0], [1.0, 0.5, 2.0, 1.0])
    assert diff == pytest.approx(0.0, abs=1e-12)


def test_splitting_lemma_random_instances():
    rng = np.random.default_rng(6)
    for _ in range(25):
        n = int(rng.integers(2, 21))
        a = rng.standard_normal((n, n))
        A = SparseSymMatrix.from_dense(a + a.T)
        diff = check_double_commutator_lemma(
            A, rng.standard_normal(n), rng.standard_normal(n), rng.standard_normal(n)
        )
        assert diff <= 1e-9


def _dense_double_commutator_form(A, d, x):
    """Reference <[[A, D], D] x, x> from n x n dense products."""
    ad = A.to_dense()
    dm = np.diag(d)
    c1 = ad @ dm - dm @ ad
    c2 = c1 @ dm - dm @ c1
    return float(x @ (c2 @ x))


@pytest.mark.parametrize("W", [1, 2, 3, 10])
def test_identity_lhs_matches_dense_products(W):
    # one non-zero term per entry of a diagonal product: the slot route gives
    # the dense entries exactly; only the row sums of C x may be reordered,
    # which matters only when rows hold more than two off-diagonal terms
    rng = np.random.default_rng(100 + W)
    for seed in range(3):
        A, _ = generate_band_ensemble(EnsembleConfig(n=200, half_bandwidth=W, seed=seed))
        for _ in range(3):
            d = rng.standard_normal(A.n)
            x = rng.standard_normal(A.n)
            lhs, _, _ = check_commutator_identity(A, d, x)
            ref = _dense_double_commutator_form(A, d, x)
            if W == 1:
                assert lhs == ref
            else:
                assert abs(lhs - ref) <= 1e-12 * abs(ref)


def test_identity_checks_never_densify(monkeypatch):
    A, _ = generate_band_ensemble(EnsembleConfig(n=60, half_bandwidth=2, seed=4))

    def refuse(self):
        raise AssertionError("to_dense called")

    monkeypatch.setattr(SparseSymMatrix, "to_dense", refuse)
    rng = np.random.default_rng(8)
    d, g, x = rng.standard_normal((3, A.n))
    check_commutator_identity(A, d, x)
    check_double_commutator_lemma(A, d, g, x)


@pytest.mark.parametrize(
    "bad, message",
    [
        (np.ones(3), "length 4"),
        (np.ones(5), "length 4"),
        (np.array([1.0, np.nan, 1.0, 1.0]), "finite"),
        (np.array([1.0, 1.0, np.inf, 1.0]), "finite"),
    ],
    ids=["too_short", "too_long", "nan", "inf"],
)
def test_identity_checks_reject_bad_vectors(bad, message):
    A = chain(4)
    ok = np.array([1.0, -2.0, 0.5, 1.0])
    for args in [(bad, ok), (ok, bad)]:
        with pytest.raises(ValueError, match=message):
            check_commutator_identity(A, *args)
    for args in [(bad, ok, ok), (ok, bad, ok), (ok, ok, bad)]:
        with pytest.raises(ValueError, match=message):
            check_double_commutator_lemma(A, *args)


def test_corollary_single_support_is_tight():
    A = SparseSymMatrix(3, [3.0, 1.0, 2.0])
    u = solve_landscape(A).u
    lhs, rhs, holds = check_dc_corollary(A, u, [0.0, 1.0, 0.0], 1.0, [2.0, -1.0, 0.5])
    assert lhs == 0.0 and rhs == 0.0 and holds


def test_corollary_on_eigenvectors_with_constant_weight():
    A, _ = generate_band_ensemble(EnsembleConfig(n=50, half_bandwidth=2, seed=17))
    L = solve_landscape(A)
    ed = eig_sym(A)
    for j in range(1, 51):
        lhs, rhs, holds = check_dc_corollary(
            A, L.u, ed.vectors[:, j - 1], float(ed.values[j - 1]), np.full(50, 3.0)
        )
        assert rhs == 0.0
        assert holds


def test_corollary_on_eigenvectors_with_random_weights():
    A, _ = generate_band_ensemble(EnsembleConfig(n=50, half_bandwidth=1, seed=18))
    L = solve_landscape(A)
    ed = eig_sym(A)
    rng = np.random.default_rng(0)
    for j in range(1, 51):
        _, _, holds = check_dc_corollary(
            A, L.u, ed.vectors[:, j - 1], float(ed.values[j - 1]), rng.standard_normal(50)
        )
        assert holds


def test_corollary_validation():
    bad = SparseSymMatrix.from_dense([[1.0, 0.5], [0.5, 1.0]])
    with pytest.raises(ValueError, match="not a Z-matrix"):
        check_dc_corollary(bad, [1.0, 1.0], [1.0, 0.0], 0.5, [1.0, 1.0])
    A = chain(2)
    with pytest.raises(NonPositiveLandscapeError):
        check_dc_corollary(A, [1.0, -1.0], [1.0, 0.0], 0.5, [1.0, 1.0])


# ---------------------------------------------------------------- decoupling


def test_decoupling_block_fixture_is_exact(blocks):
    A, L, ed, part, locals_ = blocks
    assert part.axioms_hold and part.s_achieved == INF
    delta, ebar = 0.3, 10.0
    for loc in locals_:
        for j in range(1, loc.values.size + 1):
            rep = check_decoupling_local(A, part, loc, ed, j, delta, ebar)
            assert rep.defect_sq <= 1e-20
            assert rep.bound == 0.0  # infinite separation
            assert rep.holds
            assert rep.residual_norm_sq <= 1e-20
            assert rep.residual_norm_sq >= delta**2 * rep.defect_sq - 1e-25
    for j in range(1, 9):
        rep = check_decoupling_global(A, part, ed, locals_, j, delta, ebar)
        assert rep.defect_sq <= 1e-20
        assert rep.holds
        assert rep.direction == "global_to_local"
        assert rep.residual_norm_sq <= 1e-20


def test_decoupling_requires_verified_partition(blocks):
    A, L, ed, part, locals_ = blocks
    m = build_metric(A, shift_potential(L, 10.0))
    bad = verify_separation(A, [frozenset({2})], [frozenset({2})], m, 0.5)
    assert not bad.axioms_hold
    with pytest.raises(ValueError, match="partition axioms unverified"):
        check_decoupling_local(A, bad, locals_[0], ed, 1, 0.3, 10.0)
    with pytest.raises(ValueError, match="partition axioms unverified"):
        check_decoupling_global(A, bad, ed, locals_, 1, 0.3, 10.0)


def test_decoupling_window_precondition(blocks):
    A, L, ed, part, locals_ = blocks
    with pytest.raises(ValueError, match="exceeds ebar"):
        check_decoupling_local(A, part, locals_[0], ed, 4, 0.3, 1.0)
    with pytest.raises(ValueError, match="delta"):
        check_decoupling_local(A, part, locals_[0], ed, 1, 0.0, 10.0)


# ---------------------------------------------------------------- counting


def test_counting_block_fixture(blocks):
    A, L, ed, part, locals_ = blocks
    for lam in np.linspace(0.0, 8.0, 33):
        assert counting_global(ed, lam) == counting_local(locals_, lam)
    cr = check_counting(ed, locals_, 0.3, 10.0, INF, 2, A.max_abs_entry())
    assert cr.nbar == 8  # infinite separation lifts the cap to the matrix order
    assert cr.all_hold
    assert cr.mu_grid.size == 50


def test_counting_cap_respects_strict_inequality(blocks):
    A, L, ed, part, locals_ = blocks
    # coeff = 1/2 and e^{2s/sqrt(wc)} = 1: floor gives 2 but 2 * 1/2 == 1 is not < 1
    cr = check_counting(ed, locals_, 2.0, 10.0, 0.0, 2, 1.0)
    assert cr.nbar == 1
    assert cr.all_hold


def test_counting_zero_budget_is_vacuous(blocks):
    A, L, ed, part, locals_ = blocks
    cr = check_counting(ed, locals_, 2.0, 10.0, 0.0, 2, 100.0)
    assert cr.nbar == 0
    assert cr.all_hold


def test_counting_grid_control(blocks):
    A, L, ed, part, locals_ = blocks
    cr = check_counting(ed, locals_, 0.3, 10.0, INF, 2, 5.0, grid_points=7)
    assert cr.mu_grid.size == 7
    with pytest.raises(ValueError, match="delta"):
        check_counting(ed, locals_, 0.0, 10.0, INF, 2, 5.0)


# ---------------------------------------------------------------- scatter


def test_scatter_block_confinement(blocks):
    A, L, ed, part, locals_ = blocks
    sd = agmon_scatter(A, L, ed, 1)
    assert sd.i_max == 2  # the chain ground state peaks off-center, ties go low
    assert sd.points.shape == (4, 2)
    at_zero = sd.points[sd.points[:, 0] == 0.0]
    peak = float(np.abs(ed.vectors[:, 0]).max())
    assert at_zero.shape[0] >= 1
    assert np.any(np.isclose(at_zero[:, 1], -math.log(peak), atol=1e-12))


def test_scatter_single_point_has_no_fit():
    A = SparseSymMatrix(2, [1.0, 2.0])
    L = solve_landscape(A)
    sd = agmon_scatter(A, L, eig_sym(A), 1)
    assert sd.points.shape[0] == 1
    assert math.isnan(sd.fitted_slope) and math.isnan(sd.pearson_r)


def test_scatter_floor_filters_amplitudes():
    A, _ = generate_band_ensemble(EnsembleConfig(n=150, half_bandwidth=1, seed=42))
    L = solve_landscape(A)
    ed = eig_sym(A)
    tight = agmon_scatter(A, L, ed, 1, floor=1e-5)
    loose = agmon_scatter(A, L, ed, 1, floor=1e-17)
    assert tight.points.shape[0] < loose.points.shape[0]
    assert np.all(np.isfinite(loose.points))


def test_scatter_fit_on_a_draw():
    A, _ = generate_band_ensemble(EnsembleConfig(n=300, half_bandwidth=1, seed=42))
    L = solve_landscape(A)
    ed = eig_sym(A)
    sd = agmon_scatter(A, L, ed, 1)
    assert sd.pearson_r >= 0.8
    assert sd.fitted_slope > 0.0


def test_scatter_csv(tmp_path, blocks):
    A, L, ed, part, locals_ = blocks
    sd = agmon_scatter(A, L, ed, 1)
    p = tmp_path / "scatter.csv"
    write_scatter_csv(p, sd)
    rows = list(csv.reader(p.open()))
    assert rows[0] == ["rho", "neglog"]
    assert len(rows) == 5
    got = np.array([[float(a), float(b)] for a, b in rows[1:]])
    assert np.allclose(got, sd.points, atol=0)


# ---------------------------------------------------------------- W >= 2 regression


@pytest.mark.parametrize("n, seed", [(600, 3), (600, 4), (600, 7), (1000, 1)])
def test_localization_holds_for_every_eigenpair_at_bandwidth_two(n, seed):
    """Ensemble draws whose j = 1 (and for seed 3 and n = 1000 also j = 2)
    bounds failed when tails stalled far above their true size.

    The general bound is checked at ebar = E with alpha = sqrt(1/W_c), the
    verify default, and alpha = sqrt(2/W_c), the largest allowed rate.
    """
    A, _ = generate_band_ensemble(EnsembleConfig(n=n, half_bandwidth=2, seed=seed))
    L = solve_landscape(A)
    ed = eig_sym(A)
    wc = max(connectivity(A), 2)
    alphas = (math.sqrt(1.0 / wc), math.sqrt(2.0 / wc))
    bad = []
    for j in range(1, n + 1):
        if not check_landscape_localization(A, L, ed, j).holds:
            bad.append(("landscape", j))
        E = float(ed.values[j - 1])
        for alpha in alphas:
            try:
                rep = check_general_localization(
                    A, L.u, ed.vectors[:, j - 1], E, E, frozenset(), alpha, eigen_id=j
                )
            except EmptyWellSetError:
                continue
            if not rep.holds:
                bad.append(("general", j, alpha))
    assert bad == []
