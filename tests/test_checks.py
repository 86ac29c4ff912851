"""Inequality and identity verifiers: exact fixtures first, then small sweeps."""

import csv
import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mlandscape.checks as checks
import mlandscape.matrices as matrices
from mlandscape import (
    EigenDecomposition,
    EmptyWellSetError,
    EnsembleConfig,
    ExperimentConfig,
    LocalEigenData,
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
    landscape_from_vector,
    local_eig,
    pairwise_distance,
    shift_potential,
    solve_landscape,
    threshold_fields,
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
    ed = eig_sym(A, L)
    sp = shift_potential(L, 10.0)  # every site is a well; blocks stay separate
    part = build_partition(A, build_metric(A, sp), s_requested=2.0)
    locals_ = [local_eig(A, reg, region_id=i) for i, reg in enumerate(part.regions)]
    return A, L, ed, part, locals_


# ---------------------------------------------------------------- landscape bound


def test_landscape_bound_diagonal_is_exactly_zero():
    A = SparseSymMatrix(3, [3.0, 1.0, 2.0])
    L = solve_landscape(A)
    rep = check_landscape_localization(A, L, eig_sym(A, L), 1)
    assert rep.lhs_second == 0.0
    assert rep.rhs == 6.0
    assert rep.holds
    assert rep.E == pytest.approx(1.0, abs=1e-14)


def test_landscape_bound_two_site_chain():
    A = SparseSymMatrix.from_dense([[2.0, -1.0], [-1.0, 2.0]])
    L = solve_landscape(A)
    ed = eig_sym(A, L)
    for j in (1, 2):
        rep = check_landscape_localization(A, L, ed, j)
        # every site is a well at both eigenvalues, so the weighted sum vanishes
        assert rep.lhs_second == 0.0
        assert rep.rhs == 4.0
        assert rep.holds


def test_landscape_bound_holds_on_a_draw():
    A, _ = generate_band_ensemble(EnsembleConfig(n=120, half_bandwidth=1, seed=5))
    L = solve_landscape(A)
    ed = eig_sym(A, L)
    for j in range(1, 121):
        rep = check_landscape_localization(A, L, ed, j)
        assert rep.holds, f"eigenpair {j}: lhs {rep.lhs_second} > rhs {rep.rhs}"


def test_landscape_bound_rejects_non_z_input():
    A = SparseSymMatrix.from_dense([[1.0, 0.5], [0.5, 1.0]])
    L = solve_landscape(A)
    for j in (1, [1, 2]):  # the check tests the sign pattern only, so it names that
        with pytest.raises(ValueError, match="^matrix is not a Z-matrix$"):
            check_landscape_localization(A, L, eig_sym(A, L), j)
    B = chain(2)
    LB = solve_landscape(B)
    for j in (3, [1, 3], [0]):
        with pytest.raises(ValueError, match="outside"):
            check_landscape_localization(B, LB, eig_sym(B, LB), j)


# ---------------------------------------------------------------- shifted bound


def test_shifted_bound_three_site_pinned_values():
    """Chain of 3 with the exact ground pair: every quantity is analytic."""
    A = chain(3)
    L = landscape_from_vector(A, [1.5, 2.0, 1.5])  # A u = 1 exactly
    phi = np.array([0.5, math.sqrt(2.0) / 2.0, 0.5])
    E = 2.0 - math.sqrt(2.0)
    ebar = 0.6  # wells = {2} (vbar = (2/3, 1/2, 2/3)); both edges touch the well
    alpha = math.sqrt(0.5)
    rep = check_general_localization(A, L, phi, E, ebar, frozenset(), alpha)
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
    ed = eig_sym(A, L)
    E = float(ed.values[0])
    rep = check_general_localization(
        A, L, ed.vectors[:, 0], E, E + 0.2, frozenset(), 1.0
    )
    # W_c = 2: alpha = sqrt(2/W_c) = 1 makes the coefficient exactly zero
    assert rep.lhs_second == 0.0
    assert rep.holds


def test_shifted_bound_at_threshold_equal_to_eigenvalue():
    A, _ = generate_band_ensemble(EnsembleConfig(n=60, half_bandwidth=1, seed=5))
    L = solve_landscape(A)
    ed = eig_sym(A, L)
    E = float(ed.values[2])
    rep = check_general_localization(
        A, L, ed.vectors[:, 2], E, E, frozenset(), math.sqrt(0.5), eigen_id=3
    )
    assert rep.lhs_first == 0.0
    assert rep.eigen_id == 3
    assert rep.holds


def test_shifted_bound_small_sweep():
    A, _ = generate_band_ensemble(EnsembleConfig(n=60, half_bandwidth=1, seed=5))
    L = solve_landscape(A)
    ed = eig_sym(A, L)
    skipped = 0
    for j in range(1, 61):
        E = float(ed.values[j - 1])
        for ebar in (E, E + 0.2):
            for alpha in (math.sqrt(0.5), 1.0):
                try:
                    rep = check_general_localization(
                        A, L, ed.vectors[:, j - 1], E, ebar, frozenset(), alpha
                    )
                except EmptyWellSetError:
                    skipped += 1
                    continue
                assert rep.holds, f"j={j} ebar={ebar} alpha={alpha}"
    assert skipped == 0  # the spectrum starts at 0.1; wells exist at every E


def test_shifted_bound_validation():
    A = chain(3)
    L = landscape_from_vector(A, [1.5, 2.0, 1.5])
    phi = np.zeros(3)
    with pytest.raises(ValueError, match="exceeds threshold"):
        check_general_localization(A, L, phi, 1.0, 0.5, frozenset(), 0.5)
    with pytest.raises(ValueError, match="alpha"):
        check_general_localization(A, L, phi, 0.5, 0.6, frozenset(), 1.5)
    with pytest.raises(ValueError, match="alpha"):
        check_general_localization(A, L, phi, 0.5, 0.6, frozenset(), 0.0)
    with pytest.raises(NonPositiveLandscapeError):
        check_general_localization(
            A, landscape_from_vector(A, [1.0, 0.0, 1.0]), phi, 0.5, 0.6, frozenset(), 0.5
        )
    bad = SparseSymMatrix.from_dense([[1.0, 0.5], [0.5, 1.0]])
    with pytest.raises(ValueError, match="not a Z-matrix"):
        check_general_localization(
            bad, landscape_from_vector(bad, [1.0, 1.0]), [0.0, 0.0], 0.5, 0.6, frozenset(), 0.5
        )


def test_shifted_bound_empty_relative_wells():
    A = chain(3)
    L = landscape_from_vector(A, [1.5, 2.0, 1.5])
    phi = np.array([0.5, 0.7, 0.5])
    with pytest.raises(EmptyWellSetError, match="empty relative well set"):
        check_general_localization(A, L, phi, 0.5, 0.6, frozenset({2}), 0.5)


def test_shifted_bound_handles_unreachable_zero_amplitude(blocks):
    """phi = 0 exactly where the distance is infinite: the product counts as 0."""
    A, L, ed, part, locals_ = blocks
    loc = locals_[0]
    j = 1
    mu = float(loc.values[j - 1])
    phi = loc.vectors[:, j - 1]
    ebar = 3.5  # wells in both blocks; exclude the second block's wells
    rep = check_general_localization(
        A, L, phi, mu, ebar, frozenset({6, 7}), math.sqrt(0.5)
    )
    assert math.isfinite(rep.lhs_first) and math.isfinite(rep.lhs_second)
    assert rep.holds


def test_shared_fields_serve_only_checks_without_exclusions(blocks):
    """A sweep holds distances to whole well sets; a non-empty D bypasses it."""
    A, L, ed, part, locals_ = blocks
    phi = locals_[0].vectors[:, 0]
    mu = float(locals_[0].values[0])
    args = (A, L, phi, mu, 3.5)
    fields = threshold_fields(A, L.vbar, [3.5])
    elsewhere = threshold_fields(A, L.vbar, [9.0])  # never read with D non-empty
    excluded = check_general_localization(*args, frozenset({6, 7}), 0.5, fields=elsewhere)
    assert _bits(excluded) == _bits(check_general_localization(*args, frozenset({6, 7}), 0.5))
    whole = check_general_localization(*args, frozenset(), 0.5, fields=fields)
    again = check_general_localization(*args, frozenset(), 0.5, fields=fields)
    assert _bits(whole) == _bits(again) == _bits(check_general_localization(*args, (), 0.5))
    assert _bits(excluded) != _bits(whole)
    with pytest.raises(KeyError, match="no field at threshold"):
        check_general_localization(*args, (), 0.5, fields=elsewhere)
    twin = landscape_from_vector(A, L.u)  # equal values, another landscape
    with pytest.raises(ValueError, match="another matrix or landscape"):
        check_general_localization(A, twin, phi, mu, 3.5, (), 0.5, fields=fields)


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
    lhs, rhs, holds = check_commutator_identity(A, [3.0] * 4, [1.0, -2.0, 0.5, 1.0])
    assert lhs == 0.0 and rhs == 0.0 and holds


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
        lhs, rhs, holds = check_commutator_identity(
            A, rng.standard_normal(n), rng.standard_normal(n)
        )
        assert holds and abs(lhs - rhs) <= 1e-9


def test_identity_sign_for_z_matrix_with_signed_vector():
    A = chain(5)
    rng = np.random.default_rng(3)
    for _ in range(20):
        u = np.abs(rng.standard_normal(5))
        lhs, _, holds = check_commutator_identity(A, rng.standard_normal(5), u)
        assert lhs <= 1e-12 and holds
        lhs, _, holds = check_commutator_identity(A, rng.standard_normal(5), -u)
        assert lhs <= 1e-12 and holds


def test_identity_allows_positive_value_for_mixed_signs():
    A = SparseSymMatrix.from_dense([[2.0, -1.0], [-1.0, 2.0]])
    lhs, rhs, holds = check_commutator_identity(A, [1.0, 0.0], [1.0, -1.0])
    assert lhs == pytest.approx(2.0, abs=1e-14)
    assert holds and abs(lhs - rhs) <= 1e-12


def test_splitting_lemma_trivial_diagonal_weight():
    A = chain(4)
    left, right, holds = check_double_commutator_lemma(
        A, np.ones(4), [1.0, 2.0, 0.5, -1.0], [1.0, 0.5, 2.0, 1.0]
    )
    assert holds and left - right == pytest.approx(0.0, abs=1e-12)


def test_splitting_lemma_random_instances():
    rng = np.random.default_rng(6)
    for _ in range(25):
        n = int(rng.integers(2, 21))
        a = rng.standard_normal((n, n))
        A = SparseSymMatrix.from_dense(a + a.T)
        left, right, holds = check_double_commutator_lemma(
            A, rng.standard_normal(n), rng.standard_normal(n), rng.standard_normal(n)
        )
        assert holds and abs(left - right) <= 1e-9


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


# The verdict rules as the parent code stated them: the identity checks raised
# ArithmeticError where these conditions held, and run_verification computed the
# spectral step inline.  The checks now return the verdicts; these pin them.


def _parent_identity_raised(lhs, rhs, is_z, constant_sign):
    diff = abs(lhs - rhs)
    return diff > 1e-10 * (1.0 + abs(lhs)) or (is_z and constant_sign and lhs > 1e-12)


def _parent_lemma_raised(left, right):
    return abs(left - right) > 1e-10 * (1.0 + abs(left))


def _parent_spectral_step(residual, defect, delta):
    """The parent's inline rule, its 1e-25 floor scaled by delta^2 past delta = 1."""
    return residual >= delta**2 * defect - 1e-25 * max(1.0, delta**2)


def _outcome(f, *args):
    """f(*args), or the type of the exception it raises."""
    try:
        return f(*args)
    except ArithmeticError as exc:
        return type(exc)


@given(st.floats(), st.floats())
@example(0.0, 1e-10)  # a tie at the slack
@example(-0.0, 0.0)
@example(1.0, 1.0 + 2e-10)
@example(math.inf, math.inf)
@example(math.nan, 1.0)
@example(-1e300, 1e300)
@settings(max_examples=300, deadline=None)
def test_identity_rule_is_the_parent_rule(left, right):
    assert checks._agree(left, right) is (not _parent_lemma_raised(left, right))


@given(
    st.floats(),
    st.sampled_from([[1.0, 2.0, 0.5], [-1.0, -2.0, 0.0], [1.0, -1.0, 0.5]]),
    st.booleans(),
)
@example(1e-12, [1.0, 2.0, 0.5], True)  # a tie at the sign slack
@example(math.nextafter(1e-12, 1.0), [1.0, 2.0, 0.5], True)
@example(-0.0, [1.0, 2.0, 0.5], True)
@example(math.nan, [1.0, 2.0, 0.5], True)
@example(math.inf, [1.0, -1.0, 0.5], False)
@settings(max_examples=200, deadline=None)
def test_commutator_verdict_is_the_parent_rule(lhs, u, z):
    # lhs is injected; with d = 0 the entrywise route gives rhs = +-0
    A = chain(3) if z else SparseSymMatrix(3, [2.0] * 3, [(1, 2, 1.0), (2, 3, -1.0)])
    with pytest.MonkeyPatch.context() as m:
        m.setattr(checks, "_quad_double_commutator", lambda A, d, x: lhs)
        got_lhs, rhs, holds = check_commutator_identity(A, np.zeros(3), u)
    constant_sign = all(x >= 0.0 for x in u) or all(x <= 0.0 for x in u)
    assert got_lhs is lhs and rhs == 0.0
    assert holds is (not _parent_identity_raised(lhs, rhs, z, constant_sign))


@given(
    st.floats(),
    st.floats(),
    st.one_of(st.floats(min_value=0.0), st.sampled_from([-0.0, 0.05, 1e154, 1e155])),
)
@example(-1e-25, 0.0, 1.0)  # ties at the slack
@example(0.0, 1e-25, 1.0)
@example(-1e-19, 0.0, 1000.0)
@example(1e-30, 1e-30, 1000.0)  # round-off at delta = 1000: within the scaled floor only
@example(-0.0, -0.0, -0.0)
@example(math.nan, 1.0, 1.0)
@example(math.inf, math.inf, math.inf)
@example(-1.0, 1.0, math.inf)
@settings(max_examples=300, deadline=None)
def test_spectral_step_rule_is_the_parent_rule(residual, defect, delta):
    report = checks.DecouplingReport(
        "global_to_local", 1, None, 0.1, delta, 2.0, residual, defect, 0.0, True
    )
    assert _outcome(checks._spectral_step_holds, report) == _outcome(
        _parent_spectral_step, residual, defect, delta
    )


def test_corollary_single_support_is_tight():
    A = SparseSymMatrix(3, [3.0, 1.0, 2.0])
    L = solve_landscape(A)
    lhs, rhs, holds = check_dc_corollary(A, L, [0.0, 1.0, 0.0], 1.0, [2.0, -1.0, 0.5])
    assert lhs == 0.0 and rhs == 0.0 and holds


def test_corollary_on_eigenvectors_with_constant_weight():
    A, _ = generate_band_ensemble(EnsembleConfig(n=50, half_bandwidth=2, seed=17))
    L = solve_landscape(A)
    ed = eig_sym(A, L)
    for j in range(1, 51):
        lhs, rhs, holds = check_dc_corollary(
            A, L, ed.vectors[:, j - 1], float(ed.values[j - 1]), np.full(50, 3.0)
        )
        assert rhs == 0.0
        assert holds


def test_corollary_on_eigenvectors_with_random_weights():
    A, _ = generate_band_ensemble(EnsembleConfig(n=50, half_bandwidth=1, seed=18))
    L = solve_landscape(A)
    ed = eig_sym(A, L)
    rng = np.random.default_rng(0)
    for j in range(1, 51):
        _, _, holds = check_dc_corollary(
            A, L, ed.vectors[:, j - 1], float(ed.values[j - 1]), rng.standard_normal(50)
        )
        assert holds


def test_corollary_validation():
    bad = SparseSymMatrix.from_dense([[1.0, 0.5], [0.5, 1.0]])
    with pytest.raises(ValueError, match="not a Z-matrix"):
        check_dc_corollary(bad, landscape_from_vector(bad, [1.0, 1.0]), [1.0, 0.0], 0.5, [1.0, 1.0])
    A = chain(2)
    with pytest.raises(NonPositiveLandscapeError):
        check_dc_corollary(A, landscape_from_vector(A, [1.0, -1.0]), [1.0, 0.0], 0.5, [1.0, 1.0])


@pytest.mark.parametrize("w", [1, 2, 3])
def test_batch_corollary_equals_one_call_per_eigenpair(w, monkeypatch):
    """Blocks stacked as C-contiguous rows give the bits of the one-pair form."""
    A, _ = generate_band_ensemble(EnsembleConfig(n=64, half_bandwidth=w, seed=40 + w))
    L = solve_landscape(A)
    ed = eig_sym(A, L)
    g = np.random.default_rng(w).standard_normal((A.n, A.n))
    want = [
        check_dc_corollary(A, L, ed.vectors[:, j], float(ed.values[j]), g[j]) for j in range(A.n)
    ]
    assert any(rhs != 0.0 for _, rhs, _ in want)
    width = max(A.n, A.off_count)
    for rows in (7, 1, A.n):  # 7: nine blocks of seven, then a block of one
        monkeypatch.setattr(matrices, "BLOCK_ENTRIES", rows * width)
        got = check_dc_corollary(A, L, ed.vectors, ed.values, g)
        assert repr(got) == repr(want)
    assert check_dc_corollary(A, L, ed.vectors[:, 5:6], ed.values[5:6], g[5:6]) == [want[5]]
    assert check_dc_corollary(A, L, ed.vectors[:, :0], ed.values[:0], g[:0]) == []


def test_batch_corollary_validation():
    A = chain(3)
    L = solve_landscape(A)
    phi, E, g = np.ones((3, 2)), [0.5, 0.6], np.ones((2, 3))
    with pytest.raises(ValueError, match=r"phi must have shape \(3, 2\)"):
        check_dc_corollary(A, L, phi.T, E, g)
    with pytest.raises(ValueError, match=r"g must have shape \(2, 3\)"):
        check_dc_corollary(A, L, phi, E, g.T)
    with pytest.raises(ValueError, match="g must be finite"):
        check_dc_corollary(A, L, phi, E, np.where(np.eye(2, 3) > 0, math.nan, g))
    with pytest.raises(ValueError, match="E must be finite"):
        check_dc_corollary(A, L, phi, [0.5, INF], g)
    with pytest.raises(ValueError, match="E must be a number or a sequence"):
        check_dc_corollary(A, L, phi, [[0.5, 0.6]], g)


def test_general_localization_rejects_phi_of_the_wrong_length():
    A = chain(3)
    L = landscape_from_vector(A, [1.5, 2.0, 1.5])
    with pytest.raises(ValueError, match="phi must have length 3"):
        check_general_localization(A, L, np.ones(4), 0.5, 0.6, frozenset(), 0.5)
    with pytest.raises(ValueError, match="phi must be finite"):
        check_general_localization(A, L, [1.0, math.nan, 0.0], 0.5, 0.6, frozenset(), 0.5)


def test_dc_corollary_rejects_phi_and_g_of_the_wrong_length():
    A = chain(3)
    L = solve_landscape(A)
    with pytest.raises(ValueError, match="phi must have length 3"):
        check_dc_corollary(A, L, np.ones(2), 0.5, np.ones(3))
    with pytest.raises(ValueError, match="g must have length 3"):
        check_dc_corollary(A, L, np.ones(3), 0.5, np.ones(4))


def test_checks_reject_a_landscape_of_another_size():
    A = chain(3)
    L = solve_landscape(chain(4))
    ed = eig_sym(A, None)
    phi, E = ed.vectors[:, 0], float(ed.values[0])
    message = "landscape has length 4, matrix has n = 3"
    with pytest.raises(ValueError, match=message):
        check_landscape_localization(A, L, ed, 1)
    with pytest.raises(ValueError, match=message):
        check_general_localization(A, L, phi, E, E + 1.0, (), 0.5)
    with pytest.raises(ValueError, match=message):
        check_dc_corollary(A, L, phi, E, np.ones(3))


def test_non_finite_energies_are_rejected_not_failed():
    """A NaN or infinite E or ebar makes the sums NaN; that is bad input, not a FAIL."""
    A, _ = generate_band_ensemble(EnsembleConfig(n=20, half_bandwidth=1, seed=1))
    L = solve_landscape(A)
    ed = eig_sym(A, L)
    phi, E = ed.vectors[:, 0], float(ed.values[0])
    alpha = math.sqrt(0.5)
    cases = [(math.nan, E, "E must be finite"), (-INF, E, "E must be finite")]
    cases += [(E, INF, "ebar must be finite"), (E, math.nan, "ebar must be finite")]
    for bad_E, bad_ebar, message in cases:
        with pytest.raises(ValueError, match=message):
            check_general_localization(A, L, phi, bad_E, bad_ebar, (), alpha)
        with pytest.raises(ValueError, match=message):  # one bad pair in a batch
            check_general_localization(
                A, L, ed.vectors, [E, bad_E], [E, bad_ebar], (), alpha, eigen_id=[1, 1]
            )
    for bad_E in (math.nan, INF):
        with pytest.raises(ValueError, match="E must be finite"):
            check_dc_corollary(A, L, phi, bad_E, np.ones(20))


def test_batch_forms_equal_the_scalar_checks_in_pair_order():
    A, _ = generate_band_ensemble(EnsembleConfig(n=40, half_bandwidth=2, seed=3))
    L = solve_landscape(A)
    ed = eig_sym(A, L)
    alpha = math.sqrt(1.0 / max(connectivity(A), 2))
    ids = [3, 1, 3, 40]  # unsorted, with a repeat
    batch = check_landscape_localization(A, L, ed, ids)
    assert [_bits(r) for r in batch] == [
        _bits(check_landscape_localization(A, L, ed, j)) for j in ids
    ]
    E = ed.values[np.array(ids) - 1]
    ebar = E + np.array([0.0, 0.3, 0.1, 0.0])
    for D in ((), {5, 6}):
        general = check_general_localization(A, L, ed.vectors, E, ebar, D, alpha, eigen_id=ids)
        assert [_bits(r) for r in general] == [
            _bits(
                check_general_localization(
                    A, L, ed.vectors[:, j - 1], e, t, D, alpha, eigen_id=j
                )
            )
            for j, e, t in zip(ids, E.tolist(), ebar.tolist())
        ]
    assert len(check_landscape_localization(A, L, ed, [])) == 0
    assert len(check_general_localization(A, L, ed.vectors, [], [], (), alpha, eigen_id=[])) == 0
    with pytest.raises(ValueError, match="n x k matrix"):
        check_general_localization(A, L, ed.vectors[:, 0], E, ebar, (), alpha, eigen_id=ids)
    with pytest.raises(ValueError, match="one length"):
        check_general_localization(A, L, ed.vectors, E, ebar, (), alpha, eigen_id=ids[:3])
    with pytest.raises(ValueError, match="one length"):
        check_general_localization(A, L, ed.vectors, E, ebar, (), alpha)
    with pytest.raises(ValueError, match="columns in"):
        check_general_localization(A, L, ed.vectors, E, ebar, (), alpha, eigen_id=[0, 1, 2, 3])
    low = float(L.vbar.min()) - 1.0
    with pytest.raises(EmptyWellSetError):  # one pair below min vbar fails the whole batch
        check_general_localization(
            A, L, ed.vectors, [low, E[0]], [low, E[0]], (), alpha, eigen_id=[1, 1]
        )


def test_localization_batches_stay_small_in_memory():
    """Blocks bound the batches' temporaries: both families at n = 500 peak under 4 MB.

    Unblocked, the n x n temporaries of one batch alone take about 11 MB.
    """
    import tracemalloc

    A, _ = generate_band_ensemble(EnsembleConfig(n=500, half_bandwidth=1, seed=1))
    L = solve_landscape(A)
    ed = eig_sym(A, L)
    sweep = threshold_fields(A, L.vbar, ed.values)
    ids = np.arange(1, A.n + 1)
    tracemalloc.start()
    try:
        check_landscape_localization(A, L, ed, ids, fields=sweep)
        check_general_localization(
            A, L, ed.vectors, ed.values, ed.values, (), math.sqrt(0.5), eigen_id=ids, fields=sweep
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


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


def test_decoupling_batches_equal_one_call_per_eigenpair(monkeypatch):
    """A batch gives the reports of one call per eigenpair; A is restricted once per region."""
    A, _ = generate_band_ensemble(EnsembleConfig(n=80, half_bandwidth=1, seed=2))
    L = solve_landscape(A)
    ed = eig_sym(A, L)
    part = build_partition(A, build_metric(A, shift_potential(L, 0.5)), 2.0)
    assert part.axioms_hold and len(part.regions) == 4
    locals_ = [local_eig(A, reg, region_id=i) for i, reg in enumerate(part.regions)]
    delta, ebar = 0.05, 0.5
    restricted = []
    real_restrict = checks.restrict
    monkeypatch.setattr(checks, "restrict", lambda *a: restricted.append(a) or real_restrict(*a))

    def same(batch, singles):
        return [repr(dataclasses.astuple(r)) for r in batch] == [
            repr(dataclasses.astuple(r)) for r in singles
        ]

    checked = 0
    for loc in locals_:
        ids = np.flatnonzero(loc.values <= ebar - delta) + 1
        batch = check_decoupling_local(A, part, loc, ed, ids, delta, ebar)
        assert same(batch, [check_decoupling_local(A, part, loc, ed, j, delta, ebar) for j in ids])
        checked += ids.size
    assert checked > 1 and restricted == []
    ids = (np.flatnonzero(ed.values <= ebar - delta) + 1).tolist()
    assert len(ids) > 1
    batch = check_decoupling_global(A, part, ed, locals_, ids, delta, ebar)
    assert len(restricted) == len(part.regions)
    singles = [check_decoupling_global(A, part, ed, locals_, j, delta, ebar) for j in ids]
    assert same(batch, singles)
    assert check_decoupling_global(A, part, ed, locals_, [], delta, ebar) == []
    with pytest.raises(ValueError, match="exceeds ebar - delta"):
        check_decoupling_global(A, part, ed, locals_, ids + [A.n], delta, ebar)


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


def test_eigen_indices_must_name_a_column(blocks):
    """Bools, non-integers and indices outside [1, count] are refused, never rounded or wrapped."""
    A, L, ed, part, locals_ = blocks
    for j in (1.7, True, 0, -2, 9):
        with pytest.raises(ValueError, match="outside"):
            check_landscape_localization(A, L, ed, j)
        with pytest.raises(ValueError, match="outside"):
            agmon_scatter(A, L, ed, j)
        with pytest.raises(ValueError, match="outside"):
            check_decoupling_global(A, part, ed, locals_, j, 0.3, 10.0)
    for j in (1.5, True, 0, -2, 5):  # the first region holds 4 local eigenpairs
        with pytest.raises(ValueError, match="outside"):
            check_decoupling_local(A, part, locals_[0], ed, j, 0.3, 10.0)
    E = ed.values[:1]
    for ids in ([1.9], [True], ["1"]):
        with pytest.raises(ValueError, match="outside"):
            check_general_localization(A, L, ed.vectors, E, E, (), 0.5, eigen_id=ids)
    E = ed.values[:2]  # np.asarray([2, True]) reads True as column 1
    with pytest.raises(ValueError, match="eigen index True outside the columns"):
        check_general_localization(A, L, ed.vectors, E, E, (), 0.5, eigen_id=[2, True])
    with pytest.raises(ValueError, match="eigen index True outside the columns"):
        check_landscape_localization(A, L, ed, [2, True])
    assert check_landscape_localization(A, L, ed, [np.int64(2)])[0].eigen_id == 2
    # an integer array is range-checked in one pass; a bool array is refused as before
    for ids, first in (
        (np.array([2, 9]), 9),
        (np.array([3, -(2**63)]), -(2**63)),
        (np.array([2, 2**64 - 1], dtype=np.uint64), 2**64 - 1),
        (np.array([0], dtype=np.uint64), 0),
        (np.array([True, True]), True),
    ):
        message = rf"^eigen index {first} outside the columns in \[1, 8\]$"
        with pytest.raises(ValueError, match=message):
            check_landscape_localization(A, L, ed, ids)
    ids = matrices._indices(np.array([[8, 1]], dtype=np.uint64), 8)
    assert ids.dtype == np.int64 and ids.tolist() == [[8, 1]]
    assert check_decoupling_local(A, part, locals_[0], ed, 2.0, 0.3, 10.0).eigen_id == 2


def test_site_indices_must_name_a_site(blocks):
    """Site sets follow the eigen index rule: bools, strings and fractions are refused.

    None of them is truncated to a site or read as one.
    """
    A, L, ed, part, locals_ = blocks
    m = build_metric(A, shift_potential(L, 10.0))
    refused = ([1.7, True], [2, True], [np.True_], ["3"], [1.5, 2.2], [2.9], [0], [9], [math.nan])
    for sites in refused:
        with pytest.raises(ValueError, match="outside the integers in"):
            matrices._index_mask(A.n, sites)
        with pytest.raises(ValueError, match="outside the integers in"):
            distance_from_set(m, sites)
        with pytest.raises(ValueError, match="outside the integers in"):
            matrices.restrict(A, sites)
        with pytest.raises(ValueError, match="outside the integers in"):
            local_eig(A, sites)
        E = ed.values[:1]
        with pytest.raises(ValueError, match="outside the integers in"):
            check_general_localization(A, L, ed.vectors, E, E, sites, 0.5, eigen_id=[1])
    for j in (2.5, True):
        with pytest.raises(ValueError, match="outside the integers in"):
            pairwise_distance(m, 1, j)
    # integral values of any numeric type name their site
    assert np.flatnonzero(matrices._index_mask(A.n, [np.int64(3), 2.0])).tolist() == [1, 2]
    assert distance_from_set(m, [2.0]).source == {2}
    assert pairwise_distance(m, 1, 2.0) == pairwise_distance(m, 1, 2)
    assert local_eig(A, [1.0, np.int64(2)]).domain == {1, 2}


# ---------------------------------------------------------------- counting


def test_counting_block_fixture(blocks):
    A, L, ed, part, locals_ = blocks
    for lam in np.linspace(0.0, 8.0, 33):
        assert counting_global(ed, lam) == counting_local(locals_, lam)
    cr = check_counting(ed, locals_, 0.3, 10.0, INF, 2, A.max_abs_entry())
    assert cr.nbar == 8  # infinite separation lifts the cap to the matrix order
    assert cr.all_hold
    assert cr.mu_grid.size == 50


def test_counting_skips_a_local_spectrum_with_no_eigenpairs(blocks):
    A, L, ed, part, locals_ = blocks
    empty = LocalEigenData(7, frozenset({1}), np.empty(0), np.zeros((A.n, 0)))
    want = check_counting(ed, locals_, 0.3, 10.0, INF, 2, A.max_abs_entry())
    got = check_counting(ed, [empty, *locals_], 0.3, 10.0, INF, 2, A.max_abs_entry())
    for f in dataclasses.fields(want):
        assert np.array_equal(getattr(got, f.name), getattr(want, f.name))


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


def test_counting_past_float_range(blocks):
    A, L, ed, part, locals_ = blocks
    # e^{2 S / sqrt(W_c)} = e^{1131.4} is past float range: the cap still holds
    cr = check_counting(ed, locals_, 0.3, 10.0, 800.0, 2, 1.0)
    assert cr.nbar == ed.n
    assert cr.all_hold


@pytest.mark.parametrize(
    "s, a_max",
    [
        (502.046, 2.9e102),  # e^x overflows, e^x / coeff = 2.3
        (502.5, 2.9e102),  # e^x / coeff = 4.3
        (505.0, 2.9e102),  # e^x / coeff = 150: the cap
        (800.0, 1e-5),
        (501.3, 2.9e-4),  # e^x is a float, e^x / coeff is not
    ],
)
def test_counting_rule_in_log_space_matches_exact_arithmetic(blocks, s, a_max):
    A, L, ed, part, locals_ = blocks
    coeff = checks._decoupling_coefficient(2, a_max, 1.0)
    with mpmath.workdps(60):
        ratio = mpmath.exp(2 * mpmath.mpf(s) / mpmath.sqrt(2)) / mpmath.mpf(coeff)
        want = min(ed.n, int(mpmath.ceil(ratio)) - 1)
    assert check_counting(ed, locals_, 1.0, 10.0, s, 2, a_max).nbar == want


def test_decoupling_coefficient_is_inf_past_float_range():
    assert checks._decoupling_coefficient(2, 1.5, 0.05) == (2 * 2 / 0.05**3) * 1.5**3
    for delta in (1e300, 1e-110, 1e-300):
        assert checks._decoupling_coefficient(2, 1.5, delta) == math.inf
    assert checks._decoupling_coefficient(2, 1e200, 1.0) == math.inf


def test_counting_grid_control(blocks):
    A, L, ed, part, locals_ = blocks
    cr = check_counting(ed, locals_, 0.3, 10.0, INF, 2, 5.0)
    assert cr.mu_grid.size == 50 and cr.mu_grid[-1] == 10.0
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
    sd = agmon_scatter(A, L, eig_sym(A, L), 1)
    assert sd.points.shape[0] == 1
    assert math.isnan(sd.fitted_slope) and math.isnan(sd.pearson_r)


def test_scatter_floor_filters_amplitudes():
    A, _ = generate_band_ensemble(EnsembleConfig(n=150, half_bandwidth=1, seed=42))
    L = solve_landscape(A)
    ed = eig_sym(A, L)
    tight = agmon_scatter(A, L, ed, 1, floor=1e-5)
    loose = agmon_scatter(A, L, ed, 1, floor=1e-17)
    assert tight.points.shape[0] < loose.points.shape[0]
    assert np.all(np.isfinite(loose.points))


@pytest.mark.parametrize("floor", [0.0, -1.0, math.nan, math.inf])
def test_scatter_floor_must_be_positive_and_finite(floor):
    A = SparseSymMatrix(2, [1.0, 2.0])
    L = solve_landscape(A)
    with pytest.raises(ValueError, match="scatter floor must be positive and finite"):
        agmon_scatter(A, L, eig_sym(A, L), 1, floor=floor)
    with pytest.raises(ValueError, match="scatter floor must be positive and finite"):
        ExperimentConfig(scatter_floor=floor)


def test_scatter_fit_on_a_draw():
    A, _ = generate_band_ensemble(EnsembleConfig(n=300, half_bandwidth=1, seed=42))
    L = solve_landscape(A)
    ed = eig_sym(A, L)
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
    ed = eig_sym(A, L)
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
                    A, L, ed.vectors[:, j - 1], E, E, frozenset(), alpha, eigen_id=j
                )
            except EmptyWellSetError:
                continue
            if not rep.holds:
                bad.append(("general", j, alpha))
    assert bad == []
