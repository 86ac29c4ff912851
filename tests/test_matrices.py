"""Sparse symmetric storage, classification, ensemble, and Matrix Market IO."""

import csv
import dataclasses
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

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
from mlandscape import matrices
from mlandscape.checks import (
    CountingReport,
    DecouplingReport,
    LocalizationReport,
    LocalizationReports,
    ScatterData,
)
from mlandscape.matrices import _stack_columns, _upper_band


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
    dense = A.to_dense()
    assert dense[0, 1] == -0.5
    assert dense[1, 0] == -0.5
    assert dense[0, 2] == 0.0
    assert A.off_count == 1


def test_storage_rejects_duplicates_and_bad_indices():
    with pytest.raises(ValueError, match="duplicate"):
        SparseSymMatrix(3, [0, 0, 0], [(1, 2, 1.0), (2, 1, 2.0)])
    with pytest.raises(ValueError, match="duplicate"):  # a zero is a value too
        SparseSymMatrix(3, [0, 0, 0], [(2, 1, 0.0), (1, 2, -1.0)])
    with pytest.raises(ValueError, match="outside"):
        SparseSymMatrix(3, [0, 0, 0], [(1, 4, 1.0)])
    with pytest.raises(ValueError, match="off-diagonal"):
        SparseSymMatrix(3, [0, 0, 0], [(2, 2, 1.0)])
    with pytest.raises(ValueError, match="finite"):
        SparseSymMatrix(2, [0, 0], [(1, 2, float("nan"))])
    with pytest.raises(ValueError):
        SparseSymMatrix(0, [])
    for n in (True, np.True_, 1.0):
        with pytest.raises(ValueError, match="matrix dimension must be a positive integer"):
            SparseSymMatrix(n, [2.0])


def test_from_dense_requires_symmetry():
    with pytest.raises(ValueError, match="not symmetric"):
        SparseSymMatrix.from_dense([[1.0, 2.0], [3.0, 1.0]])
    A = SparseSymMatrix.from_dense([[2.0, -1.0], [-1.0, 2.0]])
    assert np.array_equal(A.to_dense(), [[2.0, -1.0], [-1.0, 2.0]])


def test_bandwidth():
    A = SparseSymMatrix(5, np.zeros(5), [(1, 4, -1.0), (1, 2, -1.0), (3, 5, -2.0)])
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


# ---------------------------------------------------------------- eigensolve


def _tridiagonal(diag, sub):
    """The symmetric tridiagonal matrix of ``diag`` and ``sub``; zero couplings leave gaps."""
    return SparseSymMatrix(len(diag), diag, [(k + 1, k + 2, v) for k, v in enumerate(sub)])


def _dense_or_failure(solve, A):
    """``solve(A.to_dense())``, or ``None`` where LAPACK does not converge."""
    try:
        return solve(A.to_dense())
    except np.linalg.LinAlgError:
        return None


def _assert_dense_bits(A):
    """``_eigh`` gives the exact bits (and layout) of numpy's dense solvers on A,
    and raises ``LinAlgError`` exactly where they do."""
    want = _dense_or_failure(np.linalg.eigh, A)
    if want is None:
        with pytest.raises(np.linalg.LinAlgError):
            matrices._eigh(A)
    else:
        values, vectors = matrices._eigh(A)
        want_values, want_vectors = want
        assert values.shape == want_values.shape and values.tobytes() == want_values.tobytes()
        assert vectors.shape == want_vectors.shape and vectors.tobytes() == want_vectors.tobytes()
        assert vectors.flags.c_contiguous
    want_only = _dense_or_failure(np.linalg.eigvalsh, A)
    if want_only is None:
        with pytest.raises(np.linalg.LinAlgError):
            matrices._eigh(A, vectors=False)
    else:
        only = matrices._eigh(A, vectors=False)
        assert only.shape == want_only.shape and only.tobytes() == want_only.tobytes()


@st.composite
def tridiagonals(draw, max_n=40):
    """Symmetric tridiagonals with small-integer ties, zero couplings and scales 1e+-160."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    entry = st.one_of(
        st.sampled_from([0.0, 1.0, -1.0, 2.0]),
        st.floats(min_value=-4.0, max_value=4.0, allow_nan=False, allow_infinity=False),
    )
    scale = draw(st.sampled_from([1.0, 1e-160, 1e160]))
    diag = [scale * x for x in draw(st.lists(entry, min_size=n, max_size=n))]
    sub = [scale * x for x in draw(st.lists(entry, min_size=n - 1, max_size=n - 1))]
    return _tridiagonal(diag, sub)


@given(tridiagonals())
@example(_tridiagonal([3.0], []))
@example(_tridiagonal([2.0, 2.0], [-1.0]))
@example(_tridiagonal([1.0, 1.0], [0.0]))  # diagonal, tied
@example(_tridiagonal([0.0, 5.0, 0.0, 5.0], [0.0, 0.0, 0.0]))
@example(_tridiagonal([1e160, -1e160, 3e160], [-2e160, 0.0]))
@example(_tridiagonal([1e-160, 2e-160, 1e-160, 4e-160], [-1e-160, -1e-160, 0.0]))
@example(_tridiagonal([2.0] * 6, [-1.0, -1.0, 0.0, -1.0, -1.0]))  # two equal blocks: every value twice
@example(_tridiagonal([-0.0, 1.0] * 20, [0.0] * 39))  # -0.0 keeps the dense path
# eigh does not converge here (dsteqr), eigvalsh does: the same split for _eigh
@example(_tridiagonal([0.0] * 18, [0.0] * 14 + [1e160, 4.946814717865133e-87, 1.3179727143040717e-115]))
@settings(max_examples=300, deadline=None)
def test_tridiagonal_eigensolve_gives_the_dense_bits(A):
    _assert_dense_bits(A)


ENSEMBLE_DRAWS_CHILD = """
import sys
import numpy as np
from mlandscape import EnsembleConfig, generate_band_ensemble, matrices
sizes = (2, 3, 4, 7, 16, 33, 60, 100, 150, 250, 500, 750, 1000)
bad = []
for n, seed in [(n, seed) for n in sizes for seed in (1, 2, 3, 4)] + [(2000, 1)]:
    A = generate_band_ensemble(EnsembleConfig(n=n, half_bandwidth=1, seed=seed))[0]
    got = (*matrices._eigh(A), matrices._eigh(A, vectors=False))
    want = (*np.linalg.eigh(A.to_dense()), np.linalg.eigvalsh(A.to_dense()))
    if not got[1].flags.c_contiguous or any(
        g.shape != w.shape or g.tobytes() != w.tobytes() for g, w in zip(got, want)
    ):
        bad.append((n, seed))
print(bad)
sys.exit(1 if bad else 0)
"""


def test_tridiagonal_eigensolve_gives_the_dense_bits_on_ensemble_draws():
    """53 W = 1 draws, n = 2..2000, in a child pinned to one BLAS thread, the
    documented setting: with two threads, from n ~ 600 the dense solver's own
    bits differ from its one-thread bits."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(matrices.__file__)))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    child = subprocess.run(
        [sys.executable, "-c", ENSEMBLE_DRAWS_CHILD], env=env, capture_output=True, text=True, timeout=300
    )
    assert child.returncode == 0, child.stdout + child.stderr


def test_eigensolve_is_capped():
    A = SparseSymMatrix(matrices.DENSE_EIGEN_LIMIT + 1, np.ones(matrices.DENSE_EIGEN_LIMIT + 1))
    for solve in (matrices._eigh, smallest_eigenvalue):
        with pytest.raises(ValueError, match="limited to n <= 5000"):
            solve(A)


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


def _unbanded(band, w, m):
    """The symmetric m x m matrix whose upper band storage is ``band``."""
    got = np.zeros((m, m))
    for c in range(m):
        # slots left of the first column are unused and stay zero
        assert not band[: max(0, w - c), c].any()
        for r in range(max(0, c - w), c + 1):
            got[r, c] = got[c, r] = band[w + r - c, c]
    return got


@pytest.mark.parametrize("w", [1, 2, 3])
def test_upper_band_is_the_masked_shifted_block(w):
    A, _ = generate_band_ensemble(EnsembleConfig(n=12, half_bandwidth=w, seed=w))
    shift = 0.375
    for sites in ([1, 2, 3, 5, 8, 9, 12], [2, 4, 6, 7, 11], [7], list(range(1, 13))):
        keep = np.isin(np.arange(1, 13), sites)
        band = _upper_band(A, keep[None, :], np.array([shift]))
        m = len(sites)
        assert band.shape == (w + 1, m)
        # entry (r, c), r <= c, sits at band[w + r - c, c]
        want = A.to_dense()[np.ix_(keep, keep)] - shift * np.eye(m)
        assert np.array_equal(_unbanded(band, w, m), want)


@pytest.mark.parametrize("w", [1, 2, 3])
def test_stacked_blocks_are_the_one_row_bands_apart_by_unit_spacers(w):
    """Row i's block, then w columns of diagonal 1 and no coupling, then row i + 1's block."""
    n = 14
    rng = np.random.default_rng(w)
    # a pattern with gaps inside the band: only some pairs at distance <= w are stored
    pairs = {
        (i, j): -rng.random() - 0.5
        for i in range(1, n + 1)
        for j in range(i + 1, min(n, i + w) + 1)
        if rng.random() < 0.6
    }
    pairs[1, 1 + w] = -1.0
    A = SparseSymMatrix(n, 3.0 + rng.random(n), [(i, j, v) for (i, j), v in pairs.items()])
    assert A.bandwidth() == w
    keep = rng.random((5, n)) < 0.7
    keep[:, 0] = True
    shifts = rng.random(5)
    band = _upper_band(A, keep, shifts)
    parts = []
    for row, shift in zip(keep, shifts):
        one = _upper_band(A, row[None, :], shift[None])
        m = int(row.sum())
        want = A.to_dense()[np.ix_(row, row)] - shift * np.eye(m)
        assert np.array_equal(_unbanded(one, w, m), want)
        spacer = np.zeros((w + 1, w))
        spacer[w] = 1.0
        parts += [one, spacer]
    assert np.array_equal(band, np.hstack(parts[:-1]))
    rows, sites, cols = _stack_columns(keep, w)
    assert np.array_equal(band[w, cols], A.diag[sites] - shifts[rows])
    assert np.array_equal(np.diff(cols)[np.diff(rows) == 0], np.ones(keep.sum() - 5, dtype=int))


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


@given(sym_matrices(), st.randoms(use_true_random=False))
@settings(max_examples=50, deadline=None)
def test_round_trip_any_matrix(tmp_path_factory, A, rnd):
    p = tmp_path_factory.mktemp("mm") / "a.mtx"
    write_matrix(p, A)
    assert read_matrix(p) == A
    # a general copy: both triangles of every pair, the lines in any order
    lines = [f"{i} {i} {float(d)!r}" for i, d in enumerate(A.diag, 1)]
    for i, j, v in A.off_entries():
        lines += [f"{i} {j} {v!r}", f"{j} {i} {v!r}"]
    rnd.shuffle(lines)
    general = p.with_name("general.mtx")
    general.write_text(
        f"%%MatrixMarket matrix coordinate real general\n{A.n} {A.n} {len(lines)}\n"
        + "\n".join(lines)
        + "\n"
    )
    assert read_matrix(general) == A


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


@pytest.mark.parametrize(
    "symmetry, first, second",
    [
        ("symmetric", "1 2 -1.0", "2 1 -1.0"),
        ("symmetric", "2 1 0.0", "1 2 -1.0"),  # a zero is an entry too
        ("symmetric", "2 1 0.0", "2 1 0.0"),
        ("symmetric", "1 1 2.0", "1 1 2.0"),
        ("general", "2 1 -1.0", "2 1 -1.0"),
        ("general", "1 2 0.0", "1 2 0.0"),
        ("general", "1 1 2.0", "1 1 2.0"),
    ],
)
def test_reader_rejects_an_entry_listed_twice_in_either_order(tmp_path, symmetry, first, second):
    for a, b in ((first, second), (second, first)):
        p = tmp_path / "twice.mtx"
        p.write_text(
            f"%%MatrixMarket matrix coordinate real {symmetry}\n"
            f"2 2 3\n2 2 2.0\n{a}\n{b}\n"
        )
        with pytest.raises(MatrixFormatError, match="duplicate"):
            read_matrix(p)


def test_reader_names_the_file_and_the_entry_the_storage_rejects(tmp_path):
    p = tmp_path / "nan.mtx"
    p.write_text("%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n1 1 1.0\n2 2 nan\n")
    with pytest.raises(MatrixFormatError, match=r"nan\.mtx: diagonal entry \(2, 2\) is not finite"):
        read_matrix(p)
    with pytest.raises(ValueError, match=r"^diagonal entry \(1, 1\) is not finite$"):
        SparseSymMatrix(2, [np.inf, np.nan])


def test_reader_skips_comments_and_blank_lines(tmp_path):
    p = tmp_path / "c.mtx"
    p.write_text(
        "%%MatrixMarket matrix coordinate real symmetric\n"
        "% a comment\n\n"
        "2 2 2\n1 1 1.5\n2 2 2.5\n"
    )
    A = read_matrix(p)
    assert np.array_equal(A.diag, [1.5, 2.5])


# Scalars as the check reports may hold them, the awkward ones included.
report_floats = st.one_of(
    st.floats(),  # nan and both infinities among them
    st.sampled_from([-0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308]),
    st.floats(width=32).map(np.float32),
    st.floats().map(np.float64),
)
report_ints = st.one_of(
    st.integers(min_value=-(2**70), max_value=2**70),
    st.integers(min_value=-(2**63), max_value=2**63 - 1).map(np.int64),
    st.integers(min_value=0, max_value=2**32 - 1).map(np.uint32),
)
localization_reports = st.builds(
    LocalizationReport,
    st.one_of(st.none(), report_ints),
    *[report_floats] * 6,
    st.booleans(),
    report_floats,
)
decoupling_reports = st.builds(
    DecouplingReport,
    st.one_of(st.text(), st.sampled_from(["local_to_global", "global_to_local", "Grenze ≤ λ"])),
    report_ints,
    st.one_of(st.none(), report_ints),
    *[report_floats] * 6,
    st.booleans(),
)


def _json_reference(data) -> str:
    return json.dumps(matrices._json_value(data), indent=2, sort_keys=True, allow_nan=False) + "\n"


@given(
    st.one_of(st.lists(localization_reports, min_size=1), st.lists(decoupling_reports, min_size=1))
)
@settings(max_examples=200, deadline=None)
def test_report_lists_are_written_as_json_would_write_them(tmp_path_factory, reports):
    path = tmp_path_factory.getbasetemp() / "reports.json"
    matrices._write_json(path, reports)
    assert path.read_text(encoding="ascii") == _json_reference(reports)


# Floats a column of reports may hold, the awkward ones drawn often.
column_floats = st.one_of(
    st.sampled_from(
        [0.0, -0.0, float("inf"), -float("inf"), float("nan"), 5e-324, -5e-324,
         2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308]
    ),
    st.floats(),
)


@st.composite
def localization_columns(draw):
    """LocalizationReports of 0 to 6 rows; each float column drawn, constant or an earlier one."""
    n = draw(st.integers(min_value=0, max_value=6))
    floats = []
    for _ in range(7):
        how = draw(st.sampled_from(["drawn", "constant", "equal"]))
        if how == "equal" and floats:
            floats.append(draw(st.sampled_from(floats)))
        elif how == "constant":
            floats.append(np.full(n, draw(column_floats)))
        else:
            floats.append(draw(hnp.arrays(np.float64, n, elements=column_floats)))
    eigen_id = draw(st.one_of(hnp.arrays(np.int64, n), st.just(np.full(n, None, dtype=object))))
    E, threshold, alpha, first, second, rhs, margin = floats
    holds = draw(hnp.arrays(np.bool_, n))
    return LocalizationReports(eigen_id, E, threshold, alpha, first, second, rhs, holds, margin)


@given(localization_columns())
@settings(max_examples=300, deadline=None)
def test_report_columns_are_written_as_json_would_write_their_rows(tmp_path_factory, record):
    """The JSON of a column record is json.dumps of its row dicts, every float spelled once."""
    columns = {k: column.tolist() for k, column in record.columns().items()}
    rows = [{k: values[i] for k, values in columns.items()} for i in range(len(record))]
    path = tmp_path_factory.getbasetemp() / "columns.json"
    matrices._write_json(path, record)
    text = path.read_text(encoding="ascii")
    assert text == _json_reference(rows) == _json_reference(list(record))


def _csv_reference(header, columns) -> bytes:
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows(zip(*(c.tolist() for c in columns)))
    return buffer.getvalue().encode("ascii")


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_csv_writer_writes_the_bytes_of_csv(tmp_path_factory, data):
    """Random int64 and float64 columns, some repeated: the bytes csv.writer gives."""
    n = data.draw(st.integers(min_value=0, max_value=8))
    column = st.one_of(
        hnp.arrays(np.int64, n), hnp.arrays(np.float64, n, elements=column_floats)
    )
    columns = data.draw(st.lists(column, min_size=1, max_size=4))
    columns += data.draw(st.lists(st.sampled_from(columns), max_size=2))
    header = [f"c{k}" for k in range(len(columns))]
    path = tmp_path_factory.getbasetemp() / "columns.csv"
    matrices._write_csv(path, header, *columns)
    assert path.read_bytes() == _csv_reference(header, columns)


report_arrays = hnp.arrays(
    st.sampled_from([np.float64, np.float32, np.int64]),
    hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=4),
)
counting_reports = st.builds(
    CountingReport,
    report_arrays,
    report_floats,
    report_ints,
    *[report_arrays] * 4,
    st.booleans(),
)
json_leaves = st.one_of(
    st.none(),
    st.booleans(),
    report_floats,
    report_ints,
    st.text(),  # non-ASCII among it
    report_arrays,
    st.sets(st.integers()),
    st.frozensets(st.text()),
    localization_reports,
    decoupling_reports,
    counting_reports,
    localization_columns(),
)
json_documents = st.recursive(
    json_leaves,
    lambda inner: st.one_of(
        st.dictionaries(st.text(), inner),
        st.lists(inner),
        st.lists(inner).map(tuple),
    ),
    max_leaves=20,
)

LOC = LocalizationReport(None, 0.5, 0.5, 0.7, 0.0, -0.0, float("inf"), True, float("nan"))
DEC = DecouplingReport("global_to_local", 3, None, 0.1, 0.05, 2.0, 1e-30, 0.0, 0.0, True)


@given(json_documents)
@example({"b": [1.5, float("inf"), {"z": -0.0, "a": [1, 2, 3]}], "a": "x", "n": None})
@example([])
@example({})
@example([LOC, DEC])
@example([DEC, LOC])
@example((LOC, LOC))
@example([ScatterData(1, 2, 1e-17, np.zeros((2, 2)), 0.5, 0.9)])
@example([dataclasses.make_dataclass("One", ["x"])(0.1)])
@example(dataclasses.make_dataclass("NoFields", [])())
@settings(max_examples=300, deadline=None)
def test_json_writer_spells_what_json_would(tmp_path_factory, data):
    """Every document, nested or not, gets the bytes of json.dumps of its JSON value."""
    path = tmp_path_factory.getbasetemp() / "doc.json"
    matrices._write_json(path, data)
    assert path.read_text(encoding="ascii") == _json_reference(data)


@pytest.mark.parametrize(
    "data",
    [
        np.True_,
        [dataclasses.replace(LOC, holds=np.True_)],  # json has no spelling for it
        {"a": [1, {"b": np.bool_(False)}]},
        {1: "non-str key"},
        {"a": 1, 2: "mixed keys"},
        object(),
    ],
)
def test_json_writer_refuses_what_it_cannot_spell(tmp_path, data):
    with pytest.raises(TypeError):
        matrices._write_json(tmp_path / "out.json", data)
    assert not (tmp_path / "out.json").exists()  # nothing half written


def test_csv_spells_out_infinity(tmp_path):
    p = tmp_path / "dist.csv"
    matrices._write_csv(p, ["index", "dist"], np.arange(1, 4), np.array([0.0, 0.25, np.inf]))
    assert p.read_text().splitlines() == ["index,dist", "1,0.0", "2,0.25", "3,inf"]


def test_number_reprs_are_kept_across_documents_under_each_documents_words(monkeypatch):
    """A column spelled again, in a CSV or a JSON document, reuses its reprs;
    each document puts its own words on them, and a few columns are kept."""
    monkeypatch.setattr(matrices, "_REPRS", {})
    E = np.array([0.5, np.inf, -0.0, 0.0, np.nan, 0.5])
    csv_text = ["0.5", "inf", "-0.0", "0.0", "nan", "0.5"]
    json_text = ["0.5", '"inf"', "-0.0", "0.0", '"nan"', "0.5"]
    for _ in range(2):
        assert matrices._spelled([E], {}, str) == [csv_text]
        assert matrices._spelled([E.copy()], matrices._JSON_WORDS, str) == [json_text]
    assert len(matrices._REPRS) == 1
    for k in range(2 * matrices._REPRS_KEPT):
        matrices._spelled([np.array([float(k)])], {}, str)
    assert len(matrices._REPRS) == matrices._REPRS_KEPT
    assert matrices._spelled([np.array([float(2 * matrices._REPRS_KEPT - 1)])], {}, str) == [
        [repr(float(2 * matrices._REPRS_KEPT - 1))]
    ]
    assert matrices._spelled([E], matrices._JSON_WORDS, str) == [json_text]


def test_csv_columns_of_unequal_length_or_not_1d_write_nothing(tmp_path):
    p = tmp_path / "bad.csv"
    for columns in ((np.arange(3), np.zeros(2)), (np.zeros((2, 2)), np.zeros((2, 2)))):
        with pytest.raises(ValueError, match="1-D and of one length"):
            matrices._write_csv(p, ["a", "b"], *columns)
    assert not p.exists()
