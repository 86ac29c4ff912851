"""Landscape solve, effective potential, and threshold shift."""

import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlandscape import (
    EnsembleConfig,
    LandscapeData,
    NonPositiveLandscapeError,
    NotPositiveDefiniteError,
    SparseSymMatrix,
    generate_band_ensemble,
    landscape_from_vector,
    shift_potential,
    solve_landscape,
    write_landscape_csv,
)


def test_uniform_two_site_chain():
    A = SparseSymMatrix.from_dense([[2.0, -1.0], [-1.0, 2.0]])
    L = solve_landscape(A)
    assert np.allclose(L.u, [1.0, 1.0], atol=1e-14)
    assert np.allclose(L.vbar, [1.0, 1.0], atol=1e-14)
    assert L.residual_inf <= 1e-14


def test_diagonal_matrix():
    L = solve_landscape(SparseSymMatrix(2, [4.0, 2.0]))
    assert np.allclose(L.u, [0.25, 0.5], atol=1e-15)
    assert np.allclose(L.vbar, [4.0, 2.0], atol=1e-15)


def test_solve_matches_dense_elimination_oracle():
    # independent route: numpy's dense LU with partial pivoting; the last two
    # draws have bandwidth above n // 4, up to a full band
    for n, w, seed in [(8, 2, 1), (8, 2, 2), (8, 2, 3), (8, 3, 4), (12, 11, 5)]:
        A, _ = generate_band_ensemble(EnsembleConfig(n=n, half_bandwidth=w, seed=seed))
        assert A.bandwidth() == w
        L = solve_landscape(A)
        u_ref = np.linalg.solve(A.to_dense(), np.ones(n))
        assert np.abs(L.u - u_ref).max() <= 1e-10
        assert L.residual_inf <= 1e-12


def test_solve_residual_contract_on_larger_draws():
    for n, w, seed in [(200, 1, 4), (150, 3, 9)]:
        A, _ = generate_band_ensemble(EnsembleConfig(n=n, half_bandwidth=w, seed=seed))
        L = solve_landscape(A)
        assert np.all(L.u > 0.0)
        assert L.residual_inf <= 1e-10 * max(1.0, A.max_abs_entry())


def test_reciprocal_potential_consistency():
    A, _ = generate_band_ensemble(EnsembleConfig(n=120, half_bandwidth=2, seed=6))
    L = solve_landscape(A)
    assert np.abs(L.vbar - 1.0 / L.u).max() <= 1e-8 * np.abs(L.vbar).max()


def test_indefinite_matrix_rejected():
    A = SparseSymMatrix.from_dense([[1.0, -2.0], [-2.0, 1.0]])
    with pytest.raises(NotPositiveDefiniteError, match="not positive definite"):
        solve_landscape(A)


def test_positive_definite_but_sign_flipping_landscape_rejected():
    # SPD (lambda_min = 2 - 1.2*sqrt(2) > 0) yet u = (5/7, -5/14, 5/7)
    A = SparseSymMatrix(3, [2.0, 2.0, 2.0], [(1, 2, 1.2), (2, 3, 1.2)])
    with pytest.raises(NonPositiveLandscapeError, match="landscape not positive"):
        solve_landscape(A)


def test_landscape_from_vector():
    A = SparseSymMatrix.from_dense([[2.0, -1.0], [-1.0, 2.0]])
    L = landscape_from_vector(A, [2.0, 1.0])
    assert np.allclose(L.vbar, [1.5, 0.0], atol=1e-15)
    assert L.residual_inf == pytest.approx(2.0)
    with pytest.raises(NonPositiveLandscapeError):
        landscape_from_vector(A, [1.0, 0.0])
    with pytest.raises(ValueError, match="length"):
        landscape_from_vector(A, [1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="finite"):
        landscape_from_vector(A, [1.0, float("inf")])


@pytest.mark.parametrize(
    "u, error",
    [
        ([1.0, 0.0], NonPositiveLandscapeError),
        ([1.0, -0.5], NonPositiveLandscapeError),
        ([1.0, float("nan")], ValueError),
        ([1.0, float("inf")], ValueError),
        ([1.0, 1.0, 1.0], ValueError),
    ],
)
def test_landscape_data_enforces_its_invariant(u, error):
    """u and vbar of equal length, u finite and strictly positive, whoever builds it."""
    with pytest.raises(error):
        LandscapeData(u=np.array(u), vbar=np.ones(2), residual_inf=0.0)


# ---------------------------------------------------------------- shift


def test_shift_worked_example():
    sp = shift_potential(np.array([4.0, 2.0, 1.0, 5.0]), 2.0)
    assert np.array_equal(sp.v, [2.0, 0.0, 0.0, 3.0])
    assert sp.wells == frozenset({2, 3})
    assert sp.threshold == 2.0


def test_shift_accepts_landscape_data():
    A = SparseSymMatrix.from_dense([[2.0, -1.0], [-1.0, 2.0]])
    sp = shift_potential(solve_landscape(A), 1.0)
    # vbar = (1, 1): the comparison at the threshold is exact, both are wells
    assert sp.wells == frozenset({1, 2})
    assert np.array_equal(sp.v, [0.0, 0.0])


def test_shift_membership_is_exact():
    sp = shift_potential(np.array([2.0, 2.0000000001]), 2.0)
    assert sp.wells == frozenset({1})


def test_shift_rejects_nan_and_keeps_infinite_thresholds():
    vbar = np.array([3.0, 1.0, 2.0])
    with pytest.raises(ValueError, match="thresholds must not be NaN"):
        shift_potential(vbar, float("nan"))
    assert shift_potential(vbar, float("-inf")).wells == frozenset()
    assert shift_potential(vbar, float("inf")).wells == frozenset({1, 2, 3})


def test_shift_extremes():
    vbar = np.array([3.0, 1.0, 2.0])
    assert shift_potential(vbar, 0.5).wells == frozenset()
    top = shift_potential(vbar, 3.0)
    assert top.wells == frozenset({1, 2, 3})
    assert np.array_equal(top.v, np.zeros(3))


@given(
    st.lists(st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=1, max_size=20),
    st.floats(min_value=-150, max_value=150, allow_nan=False),
    st.floats(min_value=0, max_value=50, allow_nan=False),
)
@settings(max_examples=80, deadline=None)
def test_wells_grow_with_threshold(vals, e_low, gap):
    vbar = np.array(vals)
    lo = shift_potential(vbar, e_low)
    hi = shift_potential(vbar, e_low + gap)
    assert lo.wells <= hi.wells
    assert np.all(hi.v <= lo.v)
    assert np.all(hi.v >= 0.0)


def test_landscape_csv_layout(tmp_path):
    A = SparseSymMatrix.from_dense([[2.0, -1.0], [-1.0, 2.0]])
    L = solve_landscape(A)
    p = tmp_path / "landscape.csv"
    write_landscape_csv(p, L, shift_potential(L, 0.5))
    rows = list(csv.reader(p.open()))
    assert rows[0] == ["index", "u", "vbar", "v", "in_well"]
    assert rows[1] == ["1", "1.0", "1.0", "0.5", "0"]
    assert len(rows) == 3
