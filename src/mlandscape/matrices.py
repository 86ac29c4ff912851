"""Sparse symmetric matrices, Z/M-matrix classification, and the random band ensemble.

Storage convention: indices are 1-based at the API surface, matching the
conventions used in every file format and report this package emits.  The
diagonal is stored explicitly for every index (zeros included); off-diagonal
entries are stored once per unordered pair {i, j} and must be non-zero, as
three arrays (i, j, value) with i < j in lexicographic order.

Every graph routine and the matrix-vector product run on one CSR layout of
that pattern, built once per matrix and cached (``CsrPattern``).  Row r of the
layout holds r itself, then its upper neighbours (j > r) ascending, then its
lower neighbours (j < r) ascending.  ``matvec`` sums each row left to right in
exactly that order; the bits of every artifact derived from A x rest on it.
Instances are immutable after construction.

Every CSV and JSON artifact of the package is written by ``_write_csv`` and
``_write_json`` below, so the artifact format is decided in this module alone.

scipy.sparse is imported where a CSR matrix or a graph routine is first
needed, not at package import: it costs ~40 ms and ~3.5 MB that callers who
only build, read or write matrices never use.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np

__all__ = [
    "SparseSymMatrix",
    "CsrPattern",
    "MatrixClass",
    "EnsembleConfig",
    "MatrixFormatError",
    "NotPositiveDefiniteError",
    "NonPositiveLandscapeError",
    "connectivity",
    "classify",
    "generate_band_ensemble",
    "shift_to_epsilon",
    "restrict",
    "read_matrix",
    "write_matrix",
]

# Everything here goes through dense symmetric eigensolves at some point;
# beyond this order the quadratic storage and cubic solves are out of scope.
DENSE_EIGEN_LIMIT = 5000

# |lambda_min| at or below this is treated as numerically singular.
NEAR_SINGULAR_TOL = 1e-12

MM_HEADER = "%%MatrixMarket matrix coordinate real symmetric"


class MatrixFormatError(ValueError):
    """A matrix file cannot be parsed or violates its declared format."""


class NotPositiveDefiniteError(ArithmeticError):
    """A solve required positive definiteness and the matrix lacks it."""


class NonPositiveLandscapeError(ArithmeticError):
    """A landscape vector has an entry that is zero or negative."""


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _encode_float(x):
    """A float for JSON artifacts: finite values as Python floats, the rest
    spelled "inf", "-inf" or "nan" (JSON has no literal for them)."""
    x = float(x)
    if math.isfinite(x):
        return x
    if math.isnan(x):
        return "nan"
    return "inf" if x > 0 else "-inf"


def _is_integer(x) -> bool:
    """Whether ``x`` is a Python or numpy integer (a bool is not)."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _is_real(x) -> bool:
    """Whether ``x`` is a Python or numpy integer or float (a bool is not)."""
    return _is_integer(x) or isinstance(x, (float, np.floating))


def _json_value(x):
    """``x`` made JSON-ready: floats through ``_encode_float``, numpy scalars and
    arrays as Python values, sets as sorted lists, tuples as lists."""
    if isinstance(x, (float, np.floating)):
        return _encode_float(x)
    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, np.ndarray):
        return [_json_value(v) for v in x.tolist()]
    if isinstance(x, (frozenset, set)):
        return sorted(x)
    if isinstance(x, (list, tuple)):
        return [_json_value(v) for v in x]
    if isinstance(x, dict):
        return {k: _json_value(v) for k, v in x.items()}
    return x


def _write_json(path, data) -> None:
    """The one JSON artifact writer: strict JSON, sorted keys, two-space indent."""
    with open(path, "w", encoding="ascii") as fh:
        json.dump(_json_value(data), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _write_csv(path, header, *columns) -> None:
    """The one CSV artifact writer: ``header``, then row k from entry k of each column.

    The csv module spells every float as its shortest round-trip repr,
    non-finite ones as inf, -inf and nan.
    """
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*(np.asarray(c).tolist() for c in columns), strict=True))


def _index_mask(n: int, indices: Iterable[int]) -> np.ndarray:
    """Boolean mask over 0-based positions of the 1-based ``indices``.

    Raises ValueError naming the first index outside [1, n].
    """
    idx = np.array(list(indices), dtype=np.int64)
    bad = (idx < 1) | (idx > n)
    if np.any(bad):
        raise ValueError(f"index {idx[bad][0]} outside [1, {n}]")
    mask = np.zeros(n, dtype=bool)
    mask[idx - 1] = True
    return mask


@dataclass(frozen=True, eq=False)
class CsrPattern:
    """CSR layout of a symmetric pattern on n nodes, both orientations stored.

    Row r occupies slots indptr[r]:indptr[r+1]: first r itself, then its
    upper neighbours ascending, then its lower neighbours ascending.
    ``indices`` holds the 0-based column of each slot and ``pair`` the
    position of the slot's pair in the pair arrays the pattern was built
    from (-1 on the diagonal slot).
    """

    indptr: np.ndarray
    indices: np.ndarray
    pair: np.ndarray

    @classmethod
    def build(cls, n: int, pair_i: np.ndarray, pair_j: np.ndarray) -> "CsrPattern":
        """Layout of the unordered pairs {pair_i[k], pair_j[k]} (1-based, i != j)."""
        lo = np.minimum(pair_i, pair_j) - 1
        hi = np.maximum(pair_i, pair_j) - 1
        m = lo.size
        nodes = np.arange(n)
        row = np.concatenate([nodes, lo, hi])
        col = np.concatenate([nodes, hi, lo])
        part = np.repeat([0, 1, 2], [n, m, m])  # diagonal, upper, lower
        pair = np.concatenate([np.full(n, -1), np.arange(m), np.arange(m)])
        order = np.lexsort((col, part, row))
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(row, minlength=n), out=indptr[1:])
        return cls(_frozen(indptr), _frozen(col[order]), _frozen(pair[order]))

    @cached_property
    def rows(self) -> np.ndarray:
        """The 0-based row of each slot (the companion of ``indices``)."""
        return _frozen(np.repeat(np.arange(self.indptr.size - 1), np.diff(self.indptr)))

    def slot(self, i: int, j: int) -> int:
        """Slot of the 1-based entry (i, j), or -1 when the pattern lacks it."""
        lo, hi = self.indptr[i - 1], self.indptr[i]
        hits = np.flatnonzero(self.indices[lo:hi] == j - 1)
        return int(lo + hits[0]) if hits.size else -1

    def values(self, pair_values: np.ndarray, diag_values=0.0) -> "scipy.sparse.csr_array":
        """CSR matrix with ``pair_values[k]`` on both slots of pair k."""
        import scipy.sparse  # deferred, see the module docstring

        n = self.indptr.size - 1
        data = np.empty(self.indices.size, dtype=float)
        data[self.indptr[:-1]] = diag_values
        off = self.pair >= 0
        data[off] = pair_values[self.pair[off]]
        return scipy.sparse.csr_array((data, self.indices, self.indptr), shape=(n, n))


class SparseSymMatrix:
    """Real symmetric N x N matrix in symmetric sparse storage.

    Construct with the full diagonal (length n) and an iterable of
    off-diagonal triples ``(i, j, value)`` with 1 <= i, j <= n, i != j
    (an (m, 3) array works too).  Triples may come in either orientation;
    they are normalized to i < j.  Zero off-diagonal values are dropped as
    structural zeros.
    """

    __slots__ = (
        "_n", "_diag", "_off_i", "_off_j", "_off_v", "_pattern", "_csr", "_is_z", "_connectivity"
    )

    def __init__(self, n: int, diag, off_entries: Iterable[tuple] = ()):
        if not isinstance(n, (int, np.integer)) or n < 1:
            raise ValueError(f"matrix dimension must be a positive integer, got {n!r}")
        diag = np.array(diag, dtype=float)
        if diag.shape != (n,):
            raise ValueError(f"diagonal must have length {n}, got shape {diag.shape}")
        if not np.all(np.isfinite(diag)):
            raise ValueError("diagonal entries must be finite")

        if not isinstance(off_entries, np.ndarray):
            off_entries = list(off_entries)
        off = np.array(off_entries, dtype=float).reshape(-1, 3)
        i, j = off[:, :2].T.astype(np.int64)
        v = off[:, 2]
        for bad, message in (
            ((i < 1) | (i > n) | (j < 1) | (j > n), "entry ({i}, {j}) outside [1, {n}]"),
            (i == j, "diagonal entry ({i}, {i}) passed as off-diagonal"),
            (~np.isfinite(v), "entry ({i}, {j}) is not finite"),
        ):
            if np.any(bad):
                k = int(np.argmax(bad))
                raise ValueError(message.format(i=i[k], j=j[k], n=n))
        keep = v != 0.0
        lo, hi, v = np.minimum(i, j)[keep], np.maximum(i, j)[keep], v[keep]
        order = np.lexsort((hi, lo))
        lo, hi, v = lo[order], hi[order], v[order]
        dup = (lo[1:] == lo[:-1]) & (hi[1:] == hi[:-1])
        if np.any(dup):
            k = int(np.argmax(dup))
            raise ValueError(f"duplicate off-diagonal entry for pair {(int(lo[k]), int(hi[k]))}")

        self._n = int(n)
        self._diag = _frozen(diag)
        self._off_i = _frozen(lo)
        self._off_j = _frozen(hi)
        self._off_v = _frozen(v)
        self._pattern = None
        self._csr = None
        self._is_z = None
        self._connectivity = None

    @classmethod
    def from_dense(cls, arr, *, tol: float = 0.0) -> "SparseSymMatrix":
        """Build from a dense square array, symmetrizing only within ``tol``."""
        arr = np.asarray(arr, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"expected a square array, got shape {arr.shape}")
        n = arr.shape[0]
        asym = np.abs(arr - arr.T).max() if n else 0.0
        if asym > tol:
            raise ValueError(f"array is not symmetric (max |a_ij - a_ji| = {asym:g})")
        sym = 0.5 * (arr + arr.T) if tol > 0.0 else arr
        ii, jj = np.nonzero(np.triu(sym, 1))
        return cls(n, np.diag(sym).copy(), np.column_stack((ii + 1, jj + 1, sym[ii, jj])))

    @property
    def n(self) -> int:
        return self._n

    @property
    def diag(self) -> np.ndarray:
        """The diagonal as a read-only length-n array (0-based positions)."""
        return self._diag

    @property
    def off_count(self) -> int:
        return int(self._off_v.size)

    def off_entries(self) -> Iterator[tuple[int, int, float]]:
        """Yield (i, j, value) with i < j, in lexicographic order."""
        for i, j, v in zip(self._off_i, self._off_j, self._off_v):
            yield int(i), int(j), float(v)

    def off_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only (i, j, value) arrays of the stored off-diagonal pairs."""
        return self._off_i, self._off_j, self._off_v

    @property
    def pattern(self) -> CsrPattern:
        """The cached CSR layout of the pattern; ``pair`` indexes off_arrays()."""
        if self._pattern is None:
            self._pattern = CsrPattern.build(self._n, self._off_i, self._off_j)
        return self._pattern

    @property
    def is_z(self) -> bool:
        """Whether every off-diagonal entry is <= 0 (computed once)."""
        if self._is_z is None:
            self._is_z = bool(np.all(self._off_v <= 0.0))
        return self._is_z

    @property
    def connectivity(self) -> int:
        """Maximum over rows of the number of stored off-diagonal entries (computed once)."""
        if self._connectivity is None:
            # each row of the pattern also holds its diagonal
            self._connectivity = int(np.diff(self.pattern.indptr).max()) - 1
        return self._connectivity

    def value_at(self, i: int, j: int) -> float:
        """Entry a_ij; unstored off-diagonal pairs read as 0."""
        if not (1 <= i <= self._n and 1 <= j <= self._n):
            raise ValueError(f"index ({i}, {j}) outside [1, {self._n}]")
        if i == j:
            return float(self._diag[i - 1])
        k = self.pattern.slot(i, j)
        return float(self._off_v[self.pattern.pair[k]]) if k >= 0 else 0.0

    def neighbors(self, i: int) -> tuple[int, ...]:
        """Indices j != i with a_ij != 0, ascending."""
        p = self.pattern
        row = p.indices[p.indptr[i - 1] + 1 : p.indptr[i]]
        return tuple((np.sort(row) + 1).tolist())

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self._n, self._n), dtype=float)
        np.fill_diagonal(out, self._diag)
        ii = self._off_i - 1
        jj = self._off_j - 1
        out[ii, jj] = self._off_v
        out[jj, ii] = self._off_v
        return out

    def _csr_matrix(self) -> "scipy.sparse.csr_array":
        if self._csr is None:
            self._csr = self.pattern.values(self._off_v, self._diag)
        return self._csr

    def slot_values(self) -> np.ndarray:
        """The entry of every slot of ``pattern``, in slot order.

        These are the values ``matvec`` sums, not a copy: do not write to them.
        """
        return self._csr_matrix().data

    def matvec(self, x) -> np.ndarray:
        """A @ x without forming the dense matrix, summed in the row order of the pattern."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self._n,):
            raise ValueError(f"vector must have length {self._n}, got shape {x.shape}")
        return self._csr_matrix() @ x

    def max_abs_entry(self) -> float:
        m = float(np.abs(self._diag).max())
        if self._off_v.size:
            m = max(m, float(np.abs(self._off_v).max()))
        return m

    def bandwidth(self) -> int:
        """max |i - j| over stored off-diagonal entries, 0 if none."""
        if not self._off_v.size:
            return 0
        return int(np.max(self._off_j - self._off_i))

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseSymMatrix):
            return NotImplemented
        return (
            self._n == other._n
            and self._diag.tobytes() == other._diag.tobytes()
            and self._off_i.tobytes() == other._off_i.tobytes()
            and self._off_j.tobytes() == other._off_j.tobytes()
            and self._off_v.tobytes() == other._off_v.tobytes()
        )

    def __hash__(self):
        return hash((self._n, self._diag.tobytes(), self._off_v.tobytes()))

    def __repr__(self) -> str:
        return f"SparseSymMatrix(n={self._n}, off_pairs={self.off_count})"


@dataclass(frozen=True)
class MatrixClass:
    """Structural and spectral classification of a SparseSymMatrix.

    ``is_m`` and ``min_eigenvalue`` are None when the spectrum was not computed.
    ``near_singular`` flags |lambda_min| <= 1e-12; such matrices are never
    classified as M-matrices.
    """

    is_z: bool
    is_m: bool | None
    connectivity: int
    min_eigenvalue: float | None
    near_singular: bool = False


@dataclass(frozen=True)
class EnsembleConfig:
    """Parameters of the random band ensemble.

    ``half_bandwidth`` is the number W of non-zero superdiagonals; the graph
    connectivity of a draw is at most 2W.  ``seed`` is a 64-bit unsigned
    integer; equal seeds give bit-identical matrices.
    """

    n: int
    half_bandwidth: int
    epsilon: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if not _is_integer(self.n) or self.n < 1:
            raise ValueError(f"n must be a positive integer, got {self.n!r}")
        if not _is_integer(self.half_bandwidth) or self.half_bandwidth < 1:
            raise ValueError(f"half_bandwidth must be a positive integer, got {self.half_bandwidth!r}")
        if self.half_bandwidth >= self.n:
            raise ValueError(f"half_bandwidth must be < n, got W={self.half_bandwidth}, n={self.n}")
        if not (_is_real(self.epsilon) and self.epsilon > 0.0):
            raise ValueError(f"epsilon must be a positive number, got {self.epsilon!r}")
        if not _is_integer(self.seed) or not (0 <= int(self.seed) < 2**64):
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")


def connectivity(A: SparseSymMatrix) -> int:
    """Maximum over rows of the number of non-zero off-diagonal entries."""
    return A.connectivity


def classify(A: SparseSymMatrix, compute_spectrum: bool = True) -> MatrixClass:
    """Classify a symmetric matrix as Z and (optionally) M.

    Z: all off-diagonal entries <= 0.  M: Z with lambda_min > 0; a matrix
    with |lambda_min| <= 1e-12 is reported as not-M and near-singular.
    The structural part is cached on ``A``, so a call without the spectrum
    costs O(1) after the first.
    """
    is_z = A.is_z
    conn = A.connectivity
    if not compute_spectrum:
        return MatrixClass(is_z=is_z, is_m=None, connectivity=conn, min_eigenvalue=None)
    lam_min = smallest_eigenvalue(A)
    near = abs(lam_min) <= NEAR_SINGULAR_TOL
    is_m = bool(is_z and lam_min > 0.0 and not near)
    return MatrixClass(
        is_z=is_z,
        is_m=is_m,
        connectivity=conn,
        min_eigenvalue=lam_min,
        near_singular=near,
    )


def smallest_eigenvalue(A: SparseSymMatrix) -> float:
    if A.n > DENSE_EIGEN_LIMIT:
        raise ValueError(f"dense eigensolve limited to n <= {DENSE_EIGEN_LIMIT}, got n = {A.n}")
    return float(np.linalg.eigvalsh(A.to_dense())[0])


def _substreams(seed: int, count: int) -> list[np.random.Generator]:
    """Independent child generators split off one root seed.

    Stream 0 drives the diagonal; stream k >= 1 drives the k-th superdiagonal.
    """
    root = np.random.SeedSequence(int(seed))
    return [np.random.Generator(np.random.PCG64(child)) for child in root.spawn(count)]

def _standard_normals(gen: np.random.Generator, count: int) -> np.ndarray:
    """Box-Muller transform of PCG64 uniforms.

    Made explicit (rather than Generator.standard_normal) so the draw-to-value
    mapping is pinned by this module, not by the numpy version.
    """
    half = (count + 1) // 2
    u1 = 1.0 - gen.random(half)  # (0, 1]; keeps the log finite
    u2 = gen.random(half)
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = 2.0 * np.pi * u2
    z = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])
    return z[:count]


def shift_to_epsilon(A0: SparseSymMatrix, epsilon: float) -> tuple[SparseSymMatrix, float]:
    """Return (A0 + a*I, a) with a = epsilon - lambda_min(A0).

    The shift is applied unconditionally, so the smallest eigenvalue of the
    result equals epsilon regardless of the sign of lambda_min(A0).
    """
    if not (float(epsilon) > 0.0):
        raise ValueError(f"epsilon must be positive, got {epsilon!r}")
    lam0 = smallest_eigenvalue(A0)
    shift = float(epsilon) - lam0
    shifted = SparseSymMatrix(A0.n, A0.diag + shift, np.column_stack(A0.off_arrays()))
    return shifted, shift


def generate_band_ensemble(cfg: EnsembleConfig) -> tuple[SparseSymMatrix, float]:
    """Draw one matrix of the band ensemble; returns (matrix, applied shift).

    Diagonal entries are standard normal; the first W superdiagonals carry
    minus the absolute value of standard normals (so every draw is a
    Z-matrix); all other entries are zero.  The whole matrix is then shifted
    by a = epsilon - lambda_min so its smallest eigenvalue is epsilon.
    Exact-zero draws would be dropped as structural zeros (probability zero).
    """
    n, w = cfg.n, cfg.half_bandwidth
    streams = _substreams(cfg.seed, w + 1)
    diag = _standard_normals(streams[0], n)
    off = []
    for k in range(1, w + 1):
        rows = np.arange(1, n - k + 1)
        off.append(np.column_stack((rows, rows + k, -np.abs(_standard_normals(streams[k], n - k)))))
    base = SparseSymMatrix(n, diag, np.concatenate(off))
    return shift_to_epsilon(base, cfg.epsilon)


def restrict(A: SparseSymMatrix, subset: Iterable[int]) -> SparseSymMatrix:
    """Principal restriction I_M A I_M, keeping the full dimension.

    Entries survive only when both indices lie in ``subset``; everything else
    (the diagonal included) becomes zero.
    """
    keep = _index_mask(A.n, subset)
    off_i, off_j, off_v = A.off_arrays()
    both = keep[off_i - 1] & keep[off_j - 1]
    off = np.column_stack((off_i[both], off_j[both], off_v[both]))
    return SparseSymMatrix(A.n, np.where(keep, A.diag, 0.0), off)


def write_matrix(path, A: SparseSymMatrix) -> None:
    """Write in Matrix Market coordinate format (symmetric, lower triangle).

    Values are written with shortest round-tripping decimal repr, so a
    read-back reproduces every finite double bit for bit.
    """
    lines = [MM_HEADER]
    entries: list[tuple[int, int, float]] = []
    for i in range(1, A.n + 1):
        entries.append((i, i, float(A.diag[i - 1])))
    for i, j, v in A.off_entries():
        entries.append((j, i, v))  # lower triangle: row >= column
    entries.sort()
    lines.append(f"{A.n} {A.n} {len(entries)}")
    for i, j, v in entries:
        lines.append(f"{i} {j} {v!r}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def _parse_mm_header(line: str, path) -> str:
    parts = line.strip().lower().split()
    if len(parts) != 5 or parts[0] != "%%matrixmarket":
        raise MatrixFormatError(f"{path}: malformed MatrixMarket header: {line.strip()!r}")
    _, obj, fmt, field, symmetry = parts
    if obj != "matrix" or fmt != "coordinate":
        raise MatrixFormatError(f"{path}: only 'matrix coordinate' files are supported")
    if field != "real":
        raise MatrixFormatError(f"{path}: only 'real' entries are supported, got {field!r}")
    if symmetry not in ("symmetric", "general"):
        raise MatrixFormatError(f"{path}: unsupported symmetry {symmetry!r}")
    return symmetry


def read_matrix(path) -> SparseSymMatrix:
    """Read a Matrix Market coordinate file as a SparseSymMatrix.

    Accepts 'symmetric' files (one entry per unordered pair, either
    orientation) and 'general' files whose entries happen to be symmetric;
    a general file with asymmetric content is an error.
    """
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        raw = fh.read()
    lines = raw.splitlines()
    if not lines:
        raise MatrixFormatError(f"{path}: empty file")
    symmetry = _parse_mm_header(lines[0], path)

    body = [ln for ln in lines[1:] if ln.strip() and not ln.lstrip().startswith("%")]
    if not body:
        raise MatrixFormatError(f"{path}: missing size line")
    size_parts = body[0].split()
    if len(size_parts) != 3:
        raise MatrixFormatError(f"{path}: malformed size line: {body[0]!r}")
    try:
        rows, cols, nnz = (int(p) for p in size_parts)
    except ValueError as exc:
        raise MatrixFormatError(f"{path}: malformed size line: {body[0]!r}") from exc
    if rows != cols:
        raise MatrixFormatError(f"{path}: dimension mismatch: {rows} x {cols} is not square")
    if rows < 1:
        raise MatrixFormatError(f"{path}: dimension must be positive, got {rows}")
    entry_lines = body[1:]
    if len(entry_lines) != nnz:
        raise MatrixFormatError(
            f"{path}: size line promises {nnz} entries, file has {len(entry_lines)}"
        )

    triples: list[tuple[int, int, float]] = []
    for ln in entry_lines:
        parts = ln.split()
        if len(parts) != 3:
            raise MatrixFormatError(f"{path}: malformed entry line: {ln!r}")
        try:
            i, j, v = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError as exc:
            raise MatrixFormatError(f"{path}: malformed entry line: {ln!r}") from exc
        if not (1 <= i <= rows and 1 <= j <= rows):
            raise MatrixFormatError(f"{path}: entry ({i}, {j}) outside [1, {rows}]")
        if not math.isfinite(v):
            raise MatrixFormatError(f"{path}: entry ({i}, {j}) is not finite")
        triples.append((i, j, v))

    diag = np.zeros(rows, dtype=float)
    seen_diag: set[int] = set()
    off: dict[tuple[int, int], float] = {}

    if symmetry == "general":
        # Entries must pair up into an exactly symmetric matrix.
        by_pos: dict[tuple[int, int], float] = {}
        for i, j, v in triples:
            if (i, j) in by_pos:
                raise MatrixFormatError(f"{path}: duplicate entry ({i}, {j})")
            by_pos[(i, j)] = v
        for (i, j), v in by_pos.items():
            if i == j:
                continue
            if by_pos.get((j, i), 0.0) != v:
                raise MatrixFormatError(
                    f"{path}: general file is not symmetric at ({i}, {j})"
                )
        triples = [(i, j, v) for (i, j), v in sorted(by_pos.items()) if i >= j]

    for i, j, v in triples:
        if i == j:
            if i in seen_diag:
                raise MatrixFormatError(f"{path}: duplicate diagonal entry {i}")
            seen_diag.add(i)
            diag[i - 1] = v
        else:
            key = (min(i, j), max(i, j))
            if key in off:
                raise MatrixFormatError(f"{path}: duplicate entry for pair {key}")
            if v != 0.0:
                off[key] = v

    return SparseSymMatrix(rows, diag, [(i, j, v) for (i, j), v in off.items()])
