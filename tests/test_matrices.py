"""Sparse symmetric storage, classification, ensemble, and Matrix Market IO."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlandscape import (
    EnsembleConfig,
    MatrixFormatError,
    SparseSymMatrix,
    classify,
    connectivity,
    generate_band_ensemble,
    read_matrix,
    restrict,
    shift_to_epsilon,
    smallest_eigenvalue,
    write_matrix,
)


def tridiag(n, d=2.0, off=-1.0):
    return SparseSymMatrix(n, [d] * n, [(i, i + 1, off) for i in range(1, n)])


@st.composite
def sym_matrices(draw, max_n=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    finite = st.floats(
        min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
    )
    diag = draw(st.lists(finite, min_size=n, max_size=n))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    off = [(i, j, draw(finite)) for i, j in chosen]
    return SparseSymMatrix(n, diag, off)


# ---------------------------------------------------------------- storage


def test_storage_normalizes_orientation_and_drops_zeros():
    A = SparseSymMatrix(3, [1.0, 2.0, 3.0], [(2, 1, -0.5), (2, 3, 0.0)])
    assert list(A.off_entries()) == [(1, 2, -0.5)]
    assert A.value_at(1, 2) == -0.5
    assert A.value_at(2, 1) == -0.5
    assert A.value_at(1, 3) == 0.0
    assert A.off_count == 1


def test_storage_rejects_duplicates_and_bad_indices():
    with pytest.raises(ValueError, match="duplicate"):
        SparseSymMatrix(3, [0, 0, 0], [(1, 2, 1.0), (2, 1, 2.0)])
    with pytest.raises(ValueError, match="outside"):
        SparseSymMatrix(3, [0, 0, 0], [(1, 4, 1.0)])
    with pytest.raises(ValueError, match="off-diagonal"):
        SparseSymMatrix(3, [0, 0, 0], [(2, 2, 1.0)])
    with pytest.raises(ValueError, match="finite"):
        SparseSymMatrix(2, [0, 0], [(1, 2, float("nan"))])
    with pytest.raises(ValueError):
        SparseSymMatrix(0, [])


def test_from_dense_requires_symmetry():
    with pytest.raises(ValueError, match="not symmetric"):
        SparseSymMatrix.from_dense([[1.0, 2.0], [3.0, 1.0]])
    A = SparseSymMatrix.from_dense([[2.0, -1.0], [-1.0, 2.0]])
    assert np.array_equal(A.to_dense(), [[2.0, -1.0], [-1.0, 2.0]])


def test_neighbors_sorted_and_bandwidth():
    A = SparseSymMatrix(5, np.zeros(5), [(1, 4, -1.0), (1, 2, -1.0), (3, 5, -2.0)])
    assert A.neighbors(1) == (2, 4)
    assert A.neighbors(5) == (3,)
    assert A.bandwidth() == 3
    assert tridiag(4).bandwidth() == 1
    assert SparseSymMatrix(3, [1, 1, 1]).bandwidth() == 0


@given(sym_matrices(), st.integers(min_value=0, max_value=2**32))
@settings(max_examples=60, deadline=None)
def test_matvec_matches_dense_product(A, seed):
    x = np.random.default_rng(seed).standard_normal(A.n)
    assert np.allclose(A.matvec(x), A.to_dense() @ x, rtol=0, atol=1e-9 * max(1.0, A.max_abs_entry()) * A.n)


@pytest.mark.parametrize("w", [1, 2, 3])
def test_matvec_bits_follow_the_documented_row_order(w):
    # row r: a_rr x_r, then upper neighbours ascending, then lower ones ascending
    A, _ = generate_band_ensemble(EnsembleConfig(n=50, half_bandwidth=w, seed=21))
    x = np.random.default_rng(w).standard_normal(A.n)
    upper = [[] for _ in range(A.n)]
    lower = [[] for _ in range(A.n)]
    for i, j, v in A.off_entries():  # lexicographic, so each list comes out ascending
        upper[i - 1].append((j, v))
        lower[j - 1].append((i, v))
    ref = np.empty(A.n)
    for r in range(A.n):
        acc = float(A.diag[r]) * float(x[r])
        for j, v in upper[r] + lower[r]:
            acc += v * float(x[j - 1])
        ref[r] = acc
    assert A.matvec(x).tobytes() == ref.tobytes()


# ---------------------------------------------------------------- classification


def test_connectivity_examples():
    assert connectivity(tridiag(5)) == 2
    assert connectivity(SparseSymMatrix(4, [1, 2, 3, 4])) == 0
    star = SparseSymMatrix(4, np.zeros(4), [(1, 2, 1.0), (1, 3, 1.0), (1, 4, 1.0)])
    assert connectivity(star) == 3


def test_classify_z_and_m():
    c = classify(SparseSymMatrix.from_dense([[2.0, -1.0], [-1.0, 2.0]]))
    assert c.is_z and c.is_m
    assert c.min_eigenvalue == pytest.approx(1.0, abs=1e-12)
    assert c.connectivity == 1

    c = classify(SparseSymMatrix.from_dense([[1.0, -2.0], [-2.0, 1.0]]))
    assert c.is_z and not c.is_m
    assert c.min_eigenvalue == pytest.approx(-1.0, abs=1e-12)

    c = classify(SparseSymMatrix.from_dense([[1.0, 0.5], [0.5, 1.0]]))
    assert not c.is_z and not c.is_m


def test_classify_near_singular_is_never_m():
    # lambda_min = 0 exactly: Z, but the M call is withheld
    c = classify(SparseSymMatrix.from_dense([[1.0, -1.0], [-1.0, 1.0]]))
    assert c.is_z and c.near_singular and not c.is_m


def test_classify_without_spectrum():
    c = classify(tridiag(3), compute_spectrum=False)
    assert c.is_z
    assert c.is_m is None and c.min_eigenvalue is None


def test_classify_without_spectrum_is_cached(monkeypatch):
    import mlandscape.matrices as matrices

    A = SparseSymMatrix(4, np.ones(4), [(1, 2, -1.0), (1, 3, -0.5), (2, 4, 0.25)])
    first = classify(A, compute_spectrum=False)
    assert (first.is_z, first.connectivity) == (False, 2)
    monkeypatch.setattr(matrices, "np", None)  # any array work would now raise
    again = classify(A, compute_spectrum=False)
    assert again == first
    assert connectivity(A) == 2


# ---------------------------------------------------------------- ensemble


def test_shift_pins_smallest_eigenvalue():
    base = SparseSymMatrix(2, [0.0, 0.0], [(1, 2, -1.0)])
    shifted, shift = shift_to_epsilon(base, 0.1)
    assert shift == pytest.approx(1.1, abs=1e-12)
    assert np.allclose(shifted.to_dense(), [[1.1, -1.0], [-1.0, 1.1]], atol=1e-12)


def test_ensemble_draw_is_deterministic():
    cfg = EnsembleConfig(n=40, half_bandwidth=2, seed=7)
    A1, s1 = generate_band_ensemble(cfg)
    A2, s2 = generate_band_ensemble(cfg)
    assert A1 == A2
    assert s1 == s2
    A3, _ = generate_band_ensemble(EnsembleConfig(n=40, half_bandwidth=2, seed=8))
    assert A3 != A1


@pytest.mark.parametrize("w", [1, 2, 3])
def test_ensemble_structure(w):
    A, _ = generate_band_ensemble(EnsembleConfig(n=30, half_bandwidth=w, seed=3))
    assert classify(A, compute_spectrum=False).is_z
    assert A.bandwidth() == w
    assert connectivity(A) == 2 * w
    assert smallest_eigenvalue(A) == pytest.approx(0.1, abs=1e-8)


def test_ensemble_superdiagonals_negative():
    A, _ = generate_band_ensemble(EnsembleConfig(n=25, half_bandwidth=2, seed=11))
    _, _, off_v = A.off_arrays()
    assert np.all(off_v < 0.0)


def test_ensemble_config_validation():
    with pytest.raises(ValueError):
        EnsembleConfig(n=0, half_bandwidth=1)
    with pytest.raises(ValueError):
        EnsembleConfig(n=5, half_bandwidth=5)
    with pytest.raises(ValueError):
        EnsembleConfig(n=5, half_bandwidth=1, epsilon=0.0)
    with pytest.raises(ValueError):
        EnsembleConfig(n=5, half_bandwidth=1, seed=-1)


# ---------------------------------------------------------------- restriction


def test_restrict_two_by_two():
    A = SparseSymMatrix.from_dense([[2.0, -1.0], [-1.0, 2.0]])
    R = restrict(A, [1])
    assert np.array_equal(R.to_dense(), [[2.0, 0.0], [0.0, 0.0]])


def test_restrict_edge_cases():
    A = tridiag(4)
    assert restrict(A, range(1, 5)) == A
    assert np.array_equal(restrict(A, []).to_dense(), np.zeros((4, 4)))
    sub = restrict(A, [2, 3])
    assert restrict(sub, [2, 3]) == sub  # idempotent
    with pytest.raises(ValueError, match="outside"):
        restrict(A, [5])


# ---------------------------------------------------------------- matrix market


def test_read_small_sample(tmp_path):
    p = tmp_path / "m.mtx"
    p.write_text(
        "%%MatrixMarket matrix coordinate real symmetric\n"
        "2 2 3\n"
        "1 1 2.0\n"
        "2 2 2.0\n"
        "1 2 -1.0\n"
    )
    A = read_matrix(p)
    assert np.array_equal(A.to_dense(), [[2.0, -1.0], [-1.0, 2.0]])


def test_write_read_round_trip_bit_exact(tmp_path):
    A, _ = generate_band_ensemble(EnsembleConfig(n=17, half_bandwidth=3, seed=5))
    p = tmp_path / "draw.mtx"
    write_matrix(p, A)
    assert read_matrix(p) == A
    write_matrix(tmp_path / "again.mtx", read_matrix(p))
    assert (tmp_path / "again.mtx").read_bytes() == p.read_bytes()


@given(sym_matrices())
@settings(max_examples=50, deadline=None)
def test_round_trip_any_matrix(tmp_path_factory, A):
    p = tmp_path_factory.mktemp("mm") / "a.mtx"
    write_matrix(p, A)
    assert read_matrix(p) == A


def test_writer_emits_lower_triangle(tmp_path):
    A = SparseSymMatrix(3, [1.0, 2.0, 3.0], [(1, 3, -0.25)])
    p = tmp_path / "m.mtx"
    write_matrix(p, A)
    lines = p.read_text().splitlines()
    assert lines[0] == "%%MatrixMarket matrix coordinate real symmetric"
    assert lines[1] == "3 3 4"
    assert "3 1 -0.25" in lines  # row >= column


def test_general_symmetry_accepted_and_rejected(tmp_path):
    ok = tmp_path / "ok.mtx"
    ok.write_text(
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 4\n1 1 2.0\n1 2 -1.0\n2 1 -1.0\n2 2 2.0\n"
    )
    assert np.array_equal(read_matrix(ok).to_dense(), [[2.0, -1.0], [-1.0, 2.0]])

    bad = tmp_path / "bad.mtx"
    bad.write_text(
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 4\n1 1 2.0\n1 2 -1.0\n2 1 -0.5\n2 2 2.0\n"
    )
    with pytest.raises(MatrixFormatError, match="general file is not symmetric at"):
        read_matrix(bad)

    # an explicit zero mirrors the missing entry, which is zero too
    zero = tmp_path / "zero.mtx"
    zero.write_text(
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 3\n1 1 2.0\n1 2 0.0\n2 2 2.0\n"
    )
    assert np.array_equal(read_matrix(zero).to_dense(), [[2.0, 0.0], [0.0, 2.0]])

    lone = tmp_path / "lone.mtx"
    lone.write_text(
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 3\n1 1 2.0\n1 2 -1.0\n2 2 2.0\n"
    )
    with pytest.raises(MatrixFormatError, match="general file is not symmetric at"):
        read_matrix(lone)


@pytest.mark.parametrize(
    "body, match",
    [
        ("", "empty file"),
        ("%%MatrixMarket vector coordinate real symmetric\n1 1 1\n1 1 1.0\n", "matrix coordinate"),
        ("%%MatrixMarket matrix array real symmetric\n1 1 1\n1 1 1.0\n", "matrix coordinate"),
        ("%%MatrixMarket matrix coordinate complex symmetric\n1 1 1\n1 1 1.0\n", "real"),
        ("%%MatrixMarket matrix coordinate real skew-symmetric\n1 1 1\n1 1 1.0\n", "symmetry"),
        ("%%MatrixMarket matrix coordinate real symmetric\n", "size line"),
        ("%%MatrixMarket matrix coordinate real symmetric\n2 3 0\n", "square"),
        ("%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n1 1 1.0\n", "promises 2"),
        ("%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n1 3 1.0\n", "outside"),
        ("%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n1 2 oops\n", "malformed entry"),
        ("%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n1 2 inf\n", "not finite"),
        (
            "%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n1 2 1.0\n2 1 1.0\n",
            "duplicate",
        ),
    ],
)
def test_reader_rejects_malformed_files(tmp_path, body, match):
    p = tmp_path / "bad.mtx"
    p.write_text(body)
    with pytest.raises(MatrixFormatError, match=match):
        read_matrix(p)


def test_reader_skips_comments_and_blank_lines(tmp_path):
    p = tmp_path / "c.mtx"
    p.write_text(
        "%%MatrixMarket matrix coordinate real symmetric\n"
        "% a comment\n\n"
        "2 2 2\n1 1 1.5\n2 2 2.5\n"
    )
    A = read_matrix(p)
    assert np.array_equal(A.diag, [1.5, 2.5])
