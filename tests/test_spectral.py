"""Eigendecomposition, local spectra, window bases, and counting functions."""

import csv
import math

import numpy as np
import pytest
import scipy.linalg

import mlandscape._lapack as _lapack
import mlandscape.matrices as matrices
import mlandscape.spectral as spectral
from mlandscape import (
    EigenDecomposition,
    EnsembleConfig,
    NotPositiveDefiniteError,
    SparseSymMatrix,
    counting_global,
    counting_local,
    eig_sym,
    generate_band_ensemble,
    global_projector,
    landscape_from_vector,
    local_eig,
    local_projector,
    project,
    smallest_eigenvalue,
    solve_landscape,
    write_eigenvalues_csv,
)
from mlandscape.matrices import _upper_band


def tridiag(n, d=2.0):
    return SparseSymMatrix(n, [d] * n, [(i, i + 1, -1.0) for i in range(1, n)])


def test_diagonal_matrix_sorted_with_identity_vectors():
    ed = eig_sym(SparseSymMatrix(3, [3.0, 1.0, 2.0]), None)
    assert np.allclose(ed.values, [1.0, 2.0, 3.0], atol=1e-15)
    expect = np.zeros((3, 3))
    expect[1, 0] = expect[2, 1] = expect[0, 2] = 1.0
    assert np.allclose(ed.vectors, expect, atol=1e-14)


def test_two_site_chain():
    ed = eig_sym(SparseSymMatrix.from_dense([[2.0, -1.0], [-1.0, 2.0]]), None)
    assert np.allclose(ed.values, [1.0, 3.0], atol=1e-14)
    s = 1.0 / math.sqrt(2.0)
    assert np.allclose(ed.vectors[:, 0], [s, s], atol=1e-14)
    # magnitude tie: the lowest index gets the positive sign
    assert np.allclose(ed.vectors[:, 1], [s, -s], atol=1e-14)


def test_sign_convention_largest_entry_positive():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((12, 12))
    ed = eig_sym(SparseSymMatrix.from_dense(a + a.T), None)
    for k in range(12):
        col = ed.vectors[:, k]
        assert col[np.argmax(np.abs(col))] > 0.0


def test_residual_and_orthonormality_random():
    rng = np.random.default_rng(21)
    a = rng.standard_normal((50, 50))
    A = SparseSymMatrix.from_dense(a + a.T)
    ed = eig_sym(A, None)
    d = A.to_dense()
    res = np.linalg.norm(d @ ed.vectors - ed.vectors * ed.values, axis=0).max()
    assert res <= 1e-10 * np.linalg.norm(d, "fro")
    assert np.abs(ed.vectors.T @ ed.vectors - np.eye(50)).max() <= 1e-10
    assert np.all(np.diff(ed.values) >= 0.0)


def test_completeness_of_the_basis():
    A, _ = generate_band_ensemble(EnsembleConfig(n=150, half_bandwidth=2, seed=2))
    ed = eig_sym(A, solve_landscape(A))
    assert np.abs(ed.vectors @ ed.vectors.T - np.eye(150)).max() <= 1e-8


def test_tail_refinement_reaches_below_the_dense_floor():
    """Localized tails decay for hundreds of orders; plain dense solves floor out.

    The banded inverse-iteration pass must push far-field entries of a
    localized eigenvector well below the ~1e-16 rounding floor of the dense
    route, because the weighted localization sums amplify exactly those
    entries.
    """
    A, _ = generate_band_ensemble(EnsembleConfig(n=200, half_bandwidth=1, seed=15))
    refined = eig_sym(A, solve_landscape(A))
    raw = eig_sym(A, None)
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
    ed = eig_sym(A, solve_landscape(A))
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
    psi = eig_sym(A, solve_landscape(A)).vectors[:, 0]
    start = eig_sym(A, None).vectors[:, 0]

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
    ed = eig_sym(A, solve_landscape(A))
    assert ed.tails_repaired > 0
    assert ed.tails_failed == 0
    raw = eig_sym(A, None)
    assert raw.tails_repaired == 0 and raw.tails_failed == 0


def test_no_positive_landscape_keeps_the_dense_vectors():
    # positive definite and tridiagonal, but not a Z-matrix: u = A^{-1} 1 has
    # u_1 < 0, and a positive u handed in does not make A_TT - lambda an M-matrix
    A = SparseSymMatrix(
        6,
        [1.0, 0.85, 2.0, 2.0, 2.0, 2.0],
        [(1, 2, 0.9), (2, 3, -0.05), (3, 4, -0.5), (4, 5, -0.5), (5, 6, -0.5)],
    )
    ed = eig_sym(A, landscape_from_vector(A, np.ones(6)))
    assert ed.tails_repaired == 0 and ed.tails_failed == 0
    assert np.array_equal(ed.vectors, eig_sym(A, None).vectors)


def test_landscape_of_another_length_is_rejected():
    L = solve_landscape(tridiag(4))
    with pytest.raises(ValueError, match="landscape has length 4, matrix has n = 3"):
        eig_sym(tridiag(3), L)


def test_any_positive_u_repairs_a_z_matrix_that_is_not_an_m_matrix():
    """The paper's Z-matrix case: u from a shifted matrix drives the repair.

    The chain has lambda_1 < 0, so A u = 1 has no positive solution, but
    A_TT - lambda is an M-matrix on T = {vbar > lambda} for the ratio
    potential of any positive u.
    """
    rng = np.random.default_rng(0)
    n = 50
    diag = 1.0 + 0.5 * rng.random(n)
    hops = [(i, i + 1, -1.0) for i in range(1, n)]
    A = SparseSymMatrix(n, diag, hops)
    lam1 = smallest_eigenvalue(A)
    assert lam1 < 0.0
    u = solve_landscape(SparseSymMatrix(n, diag + (1.0 - lam1), hops)).u
    ed = eig_sym(A, landscape_from_vector(A, u))
    assert ed.tails_repaired > 0
    assert ed.tails_failed == 0
    d = A.to_dense()
    assert np.abs(d @ ed.vectors - ed.vectors * ed.values).max() <= 1e-13
    assert np.abs(ed.vectors.T @ ed.vectors - np.eye(n)).max() <= 1e-13


def _repair_one_at_a_time(A, vbar, values, vectors):
    """The tail repair written out per eigenpair: its own barrier, matvec and solve."""
    repaired = failed = 0
    for k in range(values.size):
        barrier = vbar > values[k]
        if not 0 < np.count_nonzero(barrier) < A.n:
            continue
        psi = np.where(barrier, 0.0, vectors[:, k])
        rhs = -A.matvec(psi)[barrier]
        band = _upper_band(A, barrier[None, :], values[k : k + 1])
        _, psi[barrier], info = scipy.linalg.lapack.dpbsv(band, rhs)
        norm = np.linalg.norm(psi)
        if info != 0 or not (np.isfinite(norm) and norm > 0.0):
            failed += 1
            continue
        vectors[:, k] = psi / norm
        repaired += 1
    return repaired, failed


@pytest.mark.parametrize("w, n, seed", [(1, 90, 31), (2, 200, 3), (3, 400, 1), (33, 120, 63)])
def test_stacked_tail_repair_has_the_bytes_of_the_repair_one_eigenpair_at_a_time(
    w, n, seed, monkeypatch
):
    """One product of A with a block's columns gives each column the bits of its own
    matvec, and one dpbsv of the block's stacked systems each system the bits of its
    own, signed zeros included.  Each of the first three draws tells W spacer columns
    from W - 1; W >= 32 takes dpbtrf's blocked path."""
    A, _ = generate_band_ensemble(EnsembleConfig(n=n, half_bandwidth=w, seed=seed))
    L = solve_landscape(A)
    values, dense = np.linalg.eigh(A.to_dense())
    want = dense.copy()
    counts = _repair_one_at_a_time(A, L.vbar, values, want)
    assert counts[0] > 0
    for rows in (7, 64, A.n):  # 7: blocks of seven eigenpairs, then the rest
        monkeypatch.setattr(matrices, "BLOCK_ENTRIES", rows * A.n * w)
        got = dense.copy()
        assert spectral._repair_tails(A, L.vbar, values, got) == counts
        assert got.tobytes() == want.tobytes()


def test_a_failed_system_in_the_middle_of_a_stack_fails_alone(monkeypatch):
    """dpbsv stops inside the third of seven stacked systems: that eigenpair keeps its
    dense vector, and the others, solved again before it and anew after it, get the
    bytes of their own solves."""
    w = 2
    A, _ = generate_band_ensemble(EnsembleConfig(n=90, half_bandwidth=w, seed=32))
    L = solve_landscape(A)
    values, dense = np.linalg.eigh(A.to_dense())
    want = dense.copy()
    repaired, failed = _repair_one_at_a_time(A, L.vbar, values, want)
    sizes = np.count_nonzero(L.vbar[None, :] > values[:, None], axis=1)
    active = np.flatnonzero((sizes > 0) & (sizes < A.n))
    assert active.size > 14
    victim = active[2]  # the first block is active[:7]
    column = int(sizes[active[:2]].sum()) + 2 * w + sizes[victim] // 2  # 1-based, spacers too
    real = _lapack.dpbsv
    calls = []

    def stops_once(band, rhs):
        calls.append(rhs.size)
        if len(calls) == 1:
            assert rhs.size == sizes[active[:7]].sum() + 6 * w
            return band, rhs, column
        return real(band, rhs)

    monkeypatch.setattr(_lapack, "dpbsv", stops_once)
    monkeypatch.setattr(matrices, "BLOCK_ENTRIES", 7 * A.n * w)
    got = dense.copy()
    assert spectral._repair_tails(A, L.vbar, values, got) == (repaired - 1, failed + 1)
    assert calls[1:3] == [sizes[active[:2]].sum() + w, sizes[active[3:7]].sum() + 3 * w]
    assert got[:, victim].tobytes() == dense[:, victim].tobytes()
    others = np.arange(A.n) != victim
    assert got[:, others].tobytes() == want[:, others].tobytes()


@pytest.mark.parametrize("w", [1, 2])
def test_spectra_come_back_c_contiguous(w):
    """The repair and the sign fix run in the solver's order; the results are C-ordered
    (a local spectrum cut at emax: the leading columns of a C-contiguous array)."""
    A, _ = generate_band_ensemble(EnsembleConfig(n=80, half_bandwidth=w, seed=2))
    ed = eig_sym(A, solve_landscape(A))
    assert ed.tails_repaired > 0 and ed.vectors.flags.c_contiguous
    loc = local_eig(A, range(11, 71))
    assert loc.vectors.flags.c_contiguous
    cut = local_eig(A, range(11, 71), emax=float(loc.values[9]))
    assert cut.vectors.shape == (80, 10) and cut.vectors.strides == (60 * 8, 8)


def test_signs_are_fixed_per_column_in_blocks(monkeypatch):
    rng = np.random.default_rng(5)
    vectors = rng.standard_normal((12, 30))
    vectors[3, 4], vectors[7, 4] = -9.0, 9.0  # an exact tie: the lower index (negative) wins
    want = vectors.copy()
    for k in range(30):
        col = want[:, k]
        if col[np.argmax(np.abs(col))] < 0.0:
            col *= -1.0
    monkeypatch.setattr(matrices, "BLOCK_ENTRIES", 4 * 12)
    spectral._fix_signs(vectors)
    assert np.array_equal(vectors, want)
    assert vectors[3, 4] == 9.0


@pytest.mark.parametrize("info, fill", [(1, 0.0), (0, float("nan"))])
def test_failed_tail_solves_are_counted_and_keep_the_dense_vectors(monkeypatch, info, fill):
    A, _ = generate_band_ensemble(EnsembleConfig(n=60, half_bandwidth=2, seed=3))
    L = solve_landscape(A)
    attempted = eig_sym(A, L).tails_repaired
    assert attempted > 0

    def broken(band, rhs):
        return band, np.full_like(rhs, fill), info

    monkeypatch.setattr(_lapack, "dpbsv", broken)
    ed = eig_sym(A, L)
    assert ed.tails_repaired == 0
    assert ed.tails_failed == attempted
    assert np.array_equal(ed.vectors, eig_sym(A, None).vectors)


# ---------------------------------------------------------------- local spectra


def test_local_eig_full_domain_matches_global():
    A = tridiag(8)
    ed = eig_sym(A, solve_landscape(A))
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
    ed = eig_sym(A, None)
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


@pytest.mark.parametrize("w", [1, 2])
def test_local_spectra_cut_at_emax_are_the_leading_columns_of_the_full_ones(w, monkeypatch):
    A, _ = generate_band_ensemble(EnsembleConfig(n=120, half_bandwidth=w, seed=3))
    domain = range(21, 101)
    full = local_eig(A, domain, region_id=2)
    repaired = []
    real = spectral._repair_tails

    def counted(A, vbar, values, vectors):
        repaired.append(values.size)
        return real(A, vbar, values, vectors)

    monkeypatch.setattr(spectral, "_repair_tails", counted)
    v = full.values.tolist()
    # below the spectrum the lowest eigenpair stays; an eigenvalue itself is kept
    for emax, k in ((v[0] - 1.0, 1), (v[4], 5), ((v[40] + v[41]) / 2, 41), (math.inf, 80)):
        cut = local_eig(A, domain, region_id=2, emax=emax)
        assert repaired.pop() == k  # only the kept eigenpairs are repaired
        assert (cut.region_id, cut.domain) == (2, full.domain)
        assert cut.values.tobytes() == full.values[:k].tobytes()
        assert cut.vectors.shape == (A.n, k)
        assert cut.vectors.strides == full.vectors.strides
        assert cut.vectors.tobytes() == full.vectors[:, :k].tobytes()


def _refuse(*args, **kwargs):
    raise AssertionError("dense eigensolve")


@pytest.mark.parametrize("w", [0, 1])
def test_tridiagonal_spectra_form_no_dense_matrix(w, monkeypatch):
    if w:
        A, _ = generate_band_ensemble(EnsembleConfig(n=60, half_bandwidth=1, seed=4))
    else:
        A = SparseSymMatrix(60, np.linspace(0.5, 2.0, 60))
    L = solve_landscape(A)
    dense = A.to_dense()
    values, vectors = np.linalg.eigh(dense)
    sub_values = np.linalg.eigh(dense[10:30, 10:30])[0]
    lam1 = float(np.linalg.eigvalsh(dense)[0])
    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, _refuse)
    monkeypatch.setattr(SparseSymMatrix, "to_dense", _refuse)
    assert np.array_equal(eig_sym(A, None).values, values)
    assert (eig_sym(A, L).tails_repaired > 0) == bool(w)  # the repair runs at W = 1 only
    assert np.array_equal(local_eig(A, range(11, 31)).values, sub_values)
    assert smallest_eigenvalue(A) == matrices.classify(A).min_eigenvalue == lam1
    assert eig_sym(SparseSymMatrix(1, [2.0]), None).vectors.tolist() == [[1.0]]


def test_wider_bands_and_negative_zeros_take_the_dense_path(monkeypatch):
    A, _ = generate_band_ensemble(EnsembleConfig(n=40, half_bandwidth=2, seed=6))
    calls = []
    for name in ("eigh", "eigvalsh"):
        solve = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda a, solve=solve, name=name: calls.append(name) or solve(a))
    eig_sym(A, solve_landscape(A))
    smallest_eigenvalue(A)
    assert calls == ["eigh", "eigvalsh"]
    # -0.0 on the diagonal: dsytrd's blocked update may return it as +0.0
    eig_sym(SparseSymMatrix(3, [-0.0, 1.0, 2.0], [(2, 3, -1.0)]), None)
    assert calls == ["eigh", "eigvalsh", "eigh"]


def test_a_failed_tridiagonal_solve_raises(monkeypatch):
    monkeypatch.setattr(_lapack, "dstevd", lambda d, e, compute_v=1: (d, None, 1))
    with pytest.raises(np.linalg.LinAlgError):
        eig_sym(tridiag(5), None)
    with pytest.raises(np.linalg.LinAlgError):
        smallest_eigenvalue(tridiag(5))


def test_local_eig_raises_on_an_indefinite_domain():
    # the submatrix on {1, 2} is the Z-matrix [[1, -2], [-2, 1]], eigenvalues -1 and 3
    A = SparseSymMatrix(3, [1.0, 1.0, 5.0], [(1, 2, -2.0)])
    with pytest.raises(NotPositiveDefiniteError):
        local_eig(A, [1, 2])


def test_local_eig_rejects_bad_domains():
    A = tridiag(4)
    with pytest.raises(ValueError, match="empty"):
        local_eig(A, [])
    with pytest.raises(ValueError, match="outside"):
        local_eig(A, [0, 1])


# ---------------------------------------------------------------- projectors


def test_projector_interval_is_open():
    ed = eig_sym(SparseSymMatrix(3, [1.0, 2.0, 3.0]), None)
    assert global_projector(ed, 2.0, 1.0).shape == (3, 1)
    assert global_projector(ed, 1.5, 0.5).shape == (3, 0)
    assert global_projector(ed, 2.0, 1.5).shape == (3, 3)


def test_projector_window_holds_its_center_below_the_float_spacing():
    """A radius below half the float spacing at the center still keeps the center's eigenvalue."""
    ed = eig_sym(SparseSymMatrix(3, [1.0, 2.0, 3.0]), None)
    assert 2.0 - 1e-20 == 2.0 == 2.0 + 1e-20
    assert global_projector(ed, 2.0, 1e-20).shape == (3, 1)
    la = local_eig(SparseSymMatrix(2, [1.0, 2.0]), [1, 2], region_id=0)
    assert local_projector([la], 1.0, 1e-300).shape == (2, 1)


def test_projector_idempotent_and_contractive():
    A, _ = generate_band_ensemble(EnsembleConfig(n=40, half_bandwidth=1, seed=13))
    ed = eig_sym(A, None)
    mid = float(np.median(ed.values))
    P = global_projector(ed, ed.values[0], mid - ed.values[0])
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = rng.standard_normal(40)
        px = project(P, x)
        assert np.allclose(project(P, px), px, atol=1e-10)
        assert np.linalg.norm(px) <= np.linalg.norm(x) + 1e-12


def test_empty_projector_maps_to_zero():
    ed = eig_sym(SparseSymMatrix(2, [1.0, 2.0]), None)
    P = global_projector(ed, 5.5, 0.5)
    assert np.array_equal(project(P, [1.0, 1.0]), [0.0, 0.0])


def test_local_projector_combines_disjoint_supports():
    A = SparseSymMatrix(
        4, [1.0, 2.0, 3.0, 4.0], []
    )
    la = local_eig(A, [1, 2], region_id=0)
    lb = local_eig(A, [3, 4], region_id=1)
    basis = local_projector([la, lb], 2.0, 1.5)
    assert basis.shape == (4, 3)
    assert np.abs(basis.T @ basis - np.eye(3)).max() <= 1e-12


# ---------------------------------------------------------------- counting


def test_counting_step_function():
    ed = eig_sym(SparseSymMatrix(3, [1.0, 2.0, 3.0]), None)
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


def test_counting_runs_elementwise_over_threshold_arrays():
    A = SparseSymMatrix(4, [1.0, 2.0, 3.0, 4.0])
    locals_ = [local_eig(A, [1, 2], region_id=0), local_eig(A, [3, 4], region_id=1)]
    # a fault-injected spectrum need not be sorted: counts are comparisons
    ed = EigenDecomposition(values=np.array([3.0, 1.0, 2.0]), vectors=np.eye(3))
    grid = np.array([0.5, 1.0, 2.5, 3.0, 99.0, 1.5])
    assert counting_global(ed, grid).tolist() == [0, 1, 2, 3, 3, 1]
    assert counting_local(locals_, grid).tolist() == [0, 1, 2, 3, 4, 1]
    assert counting_local([], grid).tolist() == [0] * 6
    assert counting_global(ed, grid.reshape(2, 3)).shape == (2, 3)
    assert type(counting_global(ed, 2.5)) is int and type(counting_local(locals_, 2.5)) is int


def test_eigenvalues_csv(tmp_path):
    ed = eig_sym(SparseSymMatrix(2, [1.5, 0.5]), None)
    p = tmp_path / "ev.csv"
    write_eigenvalues_csv(p, ed)
    rows = list(csv.reader(p.open()))
    assert rows == [["index", "value"], ["1", "0.5"], ["2", "1.5"]]
