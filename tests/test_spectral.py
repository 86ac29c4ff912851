"""Eigendecomposition, local spectra, projectors, and counting functions."""

import csv
import math

import numpy as np
import pytest
import scipy.linalg

from mlandscape import (
    EnsembleConfig,
    SparseSymMatrix,
    counting_global,
    counting_local,
    eig_sym,
    generate_band_ensemble,
    global_projector,
    local_eig,
    local_projector,
    project,
    write_eigenvalues_csv,
)


def tridiag(n, d=2.0):
    return SparseSymMatrix(n, [d] * n, [(i, i + 1, -1.0) for i in range(1, n)])


def test_diagonal_matrix_sorted_with_identity_vectors():
    ed = eig_sym(SparseSymMatrix(3, [3.0, 1.0, 2.0]))
    assert np.allclose(ed.values, [1.0, 2.0, 3.0], atol=1e-15)
    expect = np.zeros((3, 3))
    expect[1, 0] = expect[2, 1] = expect[0, 2] = 1.0
    assert np.allclose(ed.vectors, expect, atol=1e-14)


def test_two_site_chain():
    ed = eig_sym(SparseSymMatrix.from_dense([[2.0, -1.0], [-1.0, 2.0]]))
    assert np.allclose(ed.values, [1.0, 3.0], atol=1e-14)
    s = 1.0 / math.sqrt(2.0)
    assert np.allclose(ed.vectors[:, 0], [s, s], atol=1e-14)
    # magnitude tie: the lowest index gets the positive sign
    assert np.allclose(ed.vectors[:, 1], [s, -s], atol=1e-14)


def test_sign_convention_largest_entry_positive():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((12, 12))
    ed = eig_sym(SparseSymMatrix.from_dense(a + a.T))
    for k in range(12):
        col = ed.vectors[:, k]
        assert col[np.argmax(np.abs(col))] > 0.0


def test_residual_and_orthonormality_random():
    rng = np.random.default_rng(21)
    a = rng.standard_normal((50, 50))
    A = SparseSymMatrix.from_dense(a + a.T)
    ed = eig_sym(A)
    d = A.to_dense()
    res = np.linalg.norm(d @ ed.vectors - ed.vectors * ed.values, axis=0).max()
    assert res <= 1e-10 * np.linalg.norm(d, "fro")
    assert np.abs(ed.vectors.T @ ed.vectors - np.eye(50)).max() <= 1e-10
    assert np.all(np.diff(ed.values) >= 0.0)


def test_completeness_of_the_basis():
    A, _ = generate_band_ensemble(EnsembleConfig(n=150, half_bandwidth=2, seed=2))
    ed = eig_sym(A)
    assert np.abs(ed.vectors @ ed.vectors.T - np.eye(150)).max() <= 1e-8


def test_tail_refinement_reaches_below_the_dense_floor():
    """Localized tails decay for hundreds of orders; plain dense solves floor out.

    The banded inverse-iteration pass must push far-field entries of a
    localized eigenvector well below the ~1e-16 rounding floor of the dense
    route, because the weighted localization sums amplify exactly those
    entries.
    """
    A, _ = generate_band_ensemble(EnsembleConfig(n=200, half_bandwidth=1, seed=15))
    refined = eig_sym(A, refine_tails=True)
    raw = eig_sym(A, refine_tails=False)
    for ed in (refined, raw):
        d = A.to_dense()
        res = np.linalg.norm(d @ ed.vectors - ed.vectors * ed.values, axis=0).max()
        assert res <= 1e-10 * np.linalg.norm(d, "fro")
        assert np.abs(ed.vectors.T @ ed.vectors - np.eye(200)).max() <= 1e-10
    psi_r = refined.vectors[:, 0]
    psi_p = raw.vectors[:, 0]
    peak = int(np.argmax(np.abs(psi_r)))
    far = np.abs(np.arange(200) - peak) > 60
    assert np.abs(psi_r[far]).max() <= 1e-25
    assert np.abs(psi_p[far]).max() >= 1e-20


def test_refinement_survives_exactly_degenerate_clusters():
    # two identical uncoupled blocks: every eigenvalue is doubled
    A = SparseSymMatrix(
        6, [2.0] * 6, [(1, 2, -1.0), (2, 3, -1.0), (4, 5, -1.0), (5, 6, -1.0)]
    )
    ed = eig_sym(A)
    assert np.allclose(ed.values[0::2], ed.values[1::2], atol=1e-12)
    assert np.abs(ed.vectors.T @ ed.vectors - np.eye(6)).max() <= 1e-12
    d = A.to_dense()
    res = np.linalg.norm(d @ ed.vectors - ed.vectors * ed.values, axis=0).max()
    assert res <= 1e-12


def test_tail_repair_matches_high_precision_reference():
    """Ground-state tails against 400-digit inverse iteration on the same matrix.

    The reference runs Rayleigh-quotient iteration with a tridiagonal solve in
    mpmath, started from the unrepaired dense vector, until its residual sits
    far below every entry compared.
    """
    mpmath = pytest.importorskip("mpmath")
    A, _ = generate_band_ensemble(EnsembleConfig(n=200, half_bandwidth=1, seed=15))
    psi = eig_sym(A).vectors[:, 0]
    start = eig_sym(A, refine_tails=False).vectors[:, 0]

    ctx = mpmath.MPContext()
    ctx.dps = 400
    n = A.n
    d = [ctx.mpf(float(x)) for x in A.diag]
    e = [ctx.mpf(float(x)) for x in A.off_arrays()[2]]

    def apply(x):
        return [
            d[i] * x[i] + (e[i - 1] * x[i - 1] if i else 0) + (e[i] * x[i + 1] if i < n - 1 else 0)
            for i in range(n)
        ]

    def normalized(x):
        norm = ctx.sqrt(ctx.fsum(t * t for t in x))
        return [t / norm for t in x]

    x = normalized([ctx.mpf(float(t)) for t in start])
    for _ in range(6):
        sigma = ctx.fsum(p * q for p, q in zip(x, apply(x)))
        # Thomas elimination of (T - sigma) y = x
        c, r = [ctx.mpf(0)] * n, [ctx.mpf(0)] * n
        for i in range(n):
            pivot = d[i] - sigma - (e[i - 1] * c[i - 1] if i else 0)
            c[i] = e[i] / pivot if i < n - 1 else 0
            r[i] = (x[i] - (e[i - 1] * r[i - 1] if i else 0)) / pivot
        for i in range(n - 2, -1, -1):
            r[i] -= c[i] * r[i + 1]
        x = normalized(r)
    residual = max(abs(p - sigma * q) for p, q in zip(apply(x), x))
    assert residual < ctx.mpf("1e-350")

    ref = np.array([float(t) for t in x])
    ref *= np.sign(ref[np.argmax(np.abs(ref))])
    keep = np.abs(ref) > 1e-300
    assert np.abs(ref[keep]).min() < 1e-80  # the comparison reaches deep into the tails
    rel = np.abs(psi[keep] - ref[keep]) / np.abs(ref[keep])
    assert rel.max() <= 1e-12


def test_chain_reports_tail_repairs():
    A, _ = generate_band_ensemble(EnsembleConfig(n=120, half_bandwidth=1, seed=4))
    ed = eig_sym(A)
    assert ed.tails_repaired > 0
    assert ed.tails_failed == 0
    raw = eig_sym(A, refine_tails=False)
    assert raw.tails_repaired == 0 and raw.tails_failed == 0


def test_no_positive_landscape_keeps_the_dense_vectors():
    # positive definite and tridiagonal, but u = A^{-1} 1 has u_1 < 0
    A = SparseSymMatrix(
        6,
        [1.0, 0.85, 2.0, 2.0, 2.0, 2.0],
        [(1, 2, 0.9), (2, 3, -0.05), (3, 4, -0.5), (4, 5, -0.5), (5, 6, -0.5)],
    )
    ed = eig_sym(A)
    assert ed.tails_repaired == 0 and ed.tails_failed == 0
    assert np.array_equal(ed.vectors, eig_sym(A, refine_tails=False).vectors)


@pytest.mark.parametrize("info, fill", [(1, 0.0), (0, float("nan"))])
def test_failed_tail_solves_are_counted_and_keep_the_dense_vectors(monkeypatch, info, fill):
    A, _ = generate_band_ensemble(EnsembleConfig(n=60, half_bandwidth=2, seed=3))
    attempted = eig_sym(A).tails_repaired
    assert attempted > 0

    def broken(band, rhs):
        return band, np.full_like(rhs, fill), info

    monkeypatch.setattr(scipy.linalg.lapack, "dpbsv", broken)
    ed = eig_sym(A)
    assert ed.tails_repaired == 0
    assert ed.tails_failed == attempted
    assert np.array_equal(ed.vectors, eig_sym(A, refine_tails=False).vectors)


# ---------------------------------------------------------------- local spectra


def test_local_eig_full_domain_matches_global():
    A = tridiag(8)
    ed = eig_sym(A)
    loc = local_eig(A, range(1, 9), region_id=3)
    assert loc.region_id == 3
    assert loc.domain == frozenset(range(1, 9))
    assert np.allclose(loc.values, ed.values, atol=1e-12)
    assert np.allclose(np.abs(loc.vectors), np.abs(ed.vectors), atol=1e-10)


def test_local_eig_singleton():
    A = SparseSymMatrix(3, [5.0, 7.0, 9.0], [(1, 2, -1.0)])
    loc = local_eig(A, [2])
    assert np.allclose(loc.values, [7.0], atol=1e-15)
    assert np.allclose(loc.vectors[:, 0], [0.0, 1.0, 0.0], atol=1e-15)


def test_local_eig_embedding_and_orthonormality():
    A, _ = generate_band_ensemble(EnsembleConfig(n=30, half_bandwidth=2, seed=9))
    loc = local_eig(A, range(5, 16))
    outside = np.ones(30, dtype=bool)
    outside[4:15] = False
    assert np.all(loc.vectors[outside, :] == 0.0)
    assert np.abs(loc.vectors.T @ loc.vectors - np.eye(11)).max() <= 1e-10


def test_local_eig_block_diagonal_reassembles_spectrum():
    A = SparseSymMatrix(
        6, [2.0, 2.0, 2.0, 5.0, 5.0, 5.0],
        [(1, 2, -1.0), (2, 3, -1.0), (4, 5, -1.0), (5, 6, -1.0)],
    )
    ed = eig_sym(A)
    la = local_eig(A, [1, 2, 3], region_id=0)
    lb = local_eig(A, [4, 5, 6], region_id=1)
    merged = np.sort(np.concatenate([la.values, lb.values]))
    assert np.allclose(merged, ed.values, atol=1e-12)


def test_local_eig_never_densifies_the_full_matrix(monkeypatch):
    A, _ = generate_band_ensemble(EnsembleConfig(n=40, half_bandwidth=2, seed=6))
    shapes = []
    to_dense = SparseSymMatrix.to_dense

    def spy(self):
        shapes.append(self.n)
        return to_dense(self)

    monkeypatch.setattr(SparseSymMatrix, "to_dense", spy)
    loc = local_eig(A, range(11, 31))
    assert shapes == [20]
    sub = A.to_dense()[10:30, 10:30]
    assert np.array_equal(loc.values, np.linalg.eigh(sub)[0])
    assert np.abs(sub @ loc.vectors[10:30] - loc.vectors[10:30] * loc.values).max() <= 1e-13


def test_local_eig_rejects_bad_domains():
    A = tridiag(4)
    with pytest.raises(ValueError, match="empty"):
        local_eig(A, [])
    with pytest.raises(ValueError, match="outside"):
        local_eig(A, [0, 1])


# ---------------------------------------------------------------- projectors


def test_projector_interval_is_open():
    ed = eig_sym(SparseSymMatrix(3, [1.0, 2.0, 3.0]))
    assert global_projector(ed, 1.0, 3.0).basis.shape == (3, 1)
    assert global_projector(ed, 1.0, 2.0).basis.shape == (3, 0)
    assert global_projector(ed, 0.5, 3.5).basis.shape == (3, 3)


def test_projector_idempotent_and_contractive():
    A, _ = generate_band_ensemble(EnsembleConfig(n=40, half_bandwidth=1, seed=13))
    ed = eig_sym(A)
    mid = float(np.median(ed.values))
    P = global_projector(ed, ed.values[0] - 1.0, mid)
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = rng.standard_normal(40)
        px = project(P, x)
        assert np.allclose(project(P, px), px, atol=1e-10)
        assert np.linalg.norm(px) <= np.linalg.norm(x) + 1e-12


def test_empty_projector_maps_to_zero():
    ed = eig_sym(SparseSymMatrix(2, [1.0, 2.0]))
    P = global_projector(ed, 5.0, 6.0)
    assert np.array_equal(project(P, [1.0, 1.0]), [0.0, 0.0])


def test_local_projector_combines_disjoint_supports():
    A = SparseSymMatrix(
        4, [1.0, 2.0, 3.0, 4.0], []
    )
    la = local_eig(A, [1, 2], region_id=0)
    lb = local_eig(A, [3, 4], region_id=1)
    P = local_projector([la, lb], 0.5, 3.5)
    assert P.kind == "local"
    assert P.basis.shape == (4, 3)
    assert np.abs(P.basis.T @ P.basis - np.eye(3)).max() <= 1e-12


# ---------------------------------------------------------------- counting


def test_counting_step_function():
    ed = eig_sym(SparseSymMatrix(3, [1.0, 2.0, 3.0]))
    assert counting_global(ed, 0.5) == 0
    assert counting_global(ed, 1.0) == 1  # inclusive at the eigenvalue
    assert counting_global(ed, 2.5) == 2
    assert counting_global(ed, 99.0) == 3


def test_counting_local_sums_regions():
    A = SparseSymMatrix(4, [1.0, 2.0, 3.0, 4.0])
    la = local_eig(A, [1, 2], region_id=0)
    lb = local_eig(A, [3, 4], region_id=1)
    assert counting_local([la, lb], 2.5) == 2
    assert counting_local([la, lb], 4.0) == 4
    assert counting_local([], 10.0) == 0


def test_eigenvalues_csv(tmp_path):
    ed = eig_sym(SparseSymMatrix(2, [1.5, 0.5]))
    p = tmp_path / "ev.csv"
    write_eigenvalues_csv(p, ed)
    rows = list(csv.reader(p.open()))
    assert rows == [["index", "value"], ["1", "0.5"], ["2", "1.5"]]
