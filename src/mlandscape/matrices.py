"""Sparse symmetric matrices, Z/M-matrix classification, and the random band ensemble.

Storage convention: indices are 1-based at the API surface, matching the
conventions used in every file format and report this package emits.  The
diagonal is stored explicitly for every index (zeros included); off-diagonal
entries are stored once per unordered pair {i, j} and must be non-zero, as
three arrays (i, j, value) with i < j in lexicographic order.

A matrix file is checked in two layers, each rule once.  ``read_matrix``
checks the file's own rules: the header, the size line, the entry count, the
syntax of each line, the index range, a diagonal entry listed twice and the
symmetry of a general file.  ``SparseSymMatrix`` judges the entries: finite
values, a pair listed twice (zero or not, in either orientation), zeros
dropped.  The reader re-raises its ValueError as a ``MatrixFormatError``
naming the file.

Every graph routine, Agmon metric and the matrix-vector product run on one CSR
layout of that pattern, built once per matrix and cached (``CsrPattern``).  Row
r of the layout holds r itself, then its upper neighbours (j > r) ascending,
then its lower neighbours (j < r) ascending.  ``matvec`` sums each row left to
right in exactly that order; the bits of every artifact derived from A x rest
on it.  Instances are immutable after construction.

This module alone turns a matrix into a derived structure: the CSR layout,
``restrict``, the relabelled principal submatrix ``_submatrix`` and the LAPACK
band storage ``_upper_band`` of masked, shifted copies of A stacked along the
diagonal.  ``restrict`` and ``_submatrix`` take the pairs with both ends in a
mask from ``_pairs_inside``; ``_upper_band`` reads the couplings of kept sites
from A's own band.  Its spectrum comes from ``_eigh``, which hands a
tridiagonal A to LAPACK's ``dstevd`` as its two diagonals.

Every CSV and JSON artifact of the package is written by ``_write_csv`` and
``_write_json`` below, so the artifact format is decided in this module alone.
``_write_json`` spells every document with ``_json_text``, one recursive
speller that gives the bytes of ``json.dumps(..., indent=2, sort_keys=True)``;
a report is one string template per report type and indent.  Both writers
spell columns with ``_spelled``: each distinct value of a column once (a
float by its bits), and a column equal byte for byte to another of the same
document once; the reprs of the last few number columns are kept across
documents (``_reprs``).  A ``_ReportColumns`` (a batch of reports held as
columns) is spelled as the list of its rows, each through its row type's
template.

``BLOCK_ENTRIES`` and ``_blocks`` size every array pass over eigenpairs, in
``checks`` and ``spectral`` alike.

scipy.sparse is imported where a CSR matrix or a graph routine is first
needed, not at package import: it costs ~140 ms and ~22 MB on top of numpy
(warm bytecode, a shared 2-core VM) that callers who only build, read or
write matrices never use.  LAPACK comes from the ``_lapack`` binding,
numpy's own OpenBLAS where it exports the routines, so ``scipy.linalg``
(~0.15 s and ~28 MB) is imported only where it does not.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields, is_dataclass
from functools import cached_property
from json.encoder import encode_basestring_ascii
from typing import Iterable, Iterator

import numpy as np

from . import _lapack

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
    "smallest_eigenvalue",
    "restrict",
    "read_matrix",
    "write_matrix",
]

# Largest order ``_eigh`` accepts.  A verify keeps every eigenvector (n^2
# doubles), and a band wider than 1 costs a dense O(n^3) solve; a chain skips
# the cubic reduction, but past this order even its lambda_1 alone would want
# bisection, not the whole spectrum.
DENSE_EIGEN_LIMIT = 5000

# |lambda_min| at or below this is treated as numerically singular.
NEAR_SINGULAR_TOL = 1e-12

# Most entries one block of an array pass over eigenpairs stacks (the
# localization and corollary checks, the tail repair, the sign fixing): each
# stacked array of a block holds at most this many.  Unblocked, a verify at
# n = 500 holds n^2-entry temporaries (about 11 MB more tracemalloc peak,
# +8 MB RSS); blocks of about 64 rows add under 2 MB and are as fast.
BLOCK_ENTRIES = 1 << 15

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
    return isinstance(x, (int, float, np.integer, np.floating)) and not isinstance(x, bool)


class _ReportColumns:
    """A batch of reports of the dataclass ``row_type``, held as columns.

    A subclass is a dataclass with the fields of ``row_type``, each a 1-D
    array with one entry per report.  ``len`` counts the reports, ``x[i]`` is
    report i as a ``row_type`` of Python scalars, and iteration yields them in
    order; the artifact writers spell it as the list of its rows.
    """

    row_type: type

    def columns(self) -> dict:
        """Field name -> column, in the fields' order."""
        return {f.name: getattr(self, f.name) for f in fields(self.row_type)}

    def __len__(self) -> int:
        return len(getattr(self, fields(self.row_type)[0].name))

    def __getitem__(self, i):
        return self.row_type(*(column.item(i) for column in self.columns().values()))

    def __iter__(self):
        return (self[i] for i in range(len(self)))


def _json_value(x):
    """``x`` made JSON-ready: floats through ``_encode_float``, numpy scalars and
    arrays as Python values, sets as sorted lists, tuples as lists, dataclass
    instances (the reports) as dicts of their fields, report columns as the
    list of their rows."""
    if isinstance(x, _ReportColumns):
        return [_json_value(row) for row in x]
    if isinstance(x, (float, np.floating)):
        return _encode_float(x)
    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, np.ndarray):
        return _json_value(x.tolist())
    if isinstance(x, (frozenset, set)):
        return [_json_value(v) for v in sorted(x)]
    if isinstance(x, (list, tuple)):
        return [_json_value(v) for v in x]
    if isinstance(x, dict):
        return {k: _json_value(v) for k, v in x.items()}
    if is_dataclass(x) and not isinstance(x, type):
        return {f.name: _json_value(getattr(x, f.name)) for f in fields(x)}
    return x


# Exact scalar types and their JSON text, spelled as ``json`` spells them:
# finite floats by float.__repr__, the rest as _encode_float's strings.
_JSON_SCALARS = {
    type(None): lambda x: "null",
    bool: lambda x: "true" if x else "false",
    int: int.__repr__,
    float: lambda x: (
        float.__repr__(x) if math.isfinite(x) else encode_basestring_ascii(_encode_float(x))
    ),
    str: encode_basestring_ascii,
}

# (dataclass type, indent) -> (getter of its field values by sorted name, %-template)
_JSON_TEMPLATES: dict = {}


def _json_template(cls, indent: str) -> tuple:
    names = sorted(f.name for f in fields(cls))
    lines = ",".join(f"{indent}  {encode_basestring_ascii(k)}: %s" for k in names)
    template = "{" + lines + indent + "}" if names else "{}"
    # attrgetter of one name gives the bare value, not a tuple, and of none fails
    many = len(names) > 1
    get = operator.attrgetter(*names) if many else lambda x: tuple(getattr(x, k) for k in names)
    return _JSON_TEMPLATES.setdefault((cls, indent), (get, template))


# JSON's text for the reprs of bools and numbers where the two differ; a CSV cell is the repr.
_JSON_WORDS = {
    repr(x): _JSON_SCALARS[type(x)](x) for x in (True, False, math.inf, -math.inf, math.nan)
}


def _spelled(columns, words: dict, other) -> list:
    """The text of every entry of each 1-D column.

    A column of bools, integers or floats is spelled by the repr of each
    distinct value once, a float told apart by its bits (so -0.0 is not 0.0),
    and a repr listed in ``words`` is replaced by its entry there.  Each entry
    of any other column is ``other`` of its value.  A column with the dtype
    and bytes of an earlier one takes that one's text, and a number column
    spelled lately, in any document, its reprs (``_reprs``).
    """
    done: dict = {}
    out = []
    for column in columns:
        key = (column.dtype.str, column.shape, column.tobytes())
        if key not in done:
            if column.dtype.kind not in "biuf":
                done[key] = [other(v) for v in column.tolist()]
            else:
                text, inverse = _reprs(column, key)
                if words:
                    text = list(map(words.get, text, text))
                done[key] = np.array(text, dtype=object)[inverse].tolist()
        out.append(done[key])
    return out


# The reprs of the last number columns ``_spelled`` spelled, by dtype, shape
# and bytes, the most recent last: a verify spells its eigenvalues and its
# eigen indices in three documents.
_REPRS: dict = {}
_REPRS_KEPT = 8


def _reprs(column: np.ndarray, key) -> tuple:
    """(the reprs of a number column's distinct values, each entry's index among them)."""
    found = _REPRS.pop(key, None)
    if found is None:
        bits = column
        if column.dtype.kind == "f":
            column = column.astype(np.float64, copy=False)
            bits = column.view(np.int64)
        _, first, inverse = np.unique(bits, return_index=True, return_inverse=True)
        found = list(map(repr, column[first].tolist())), inverse.reshape(-1)
        if len(_REPRS) >= _REPRS_KEPT:
            del _REPRS[next(iter(_REPRS))]
    _REPRS[key] = found
    return found


def _json_rows(x: _ReportColumns, indent: str) -> str:
    """The JSON list of the rows of ``x``, each by its type's template; columns spelled once."""
    inner = indent + "  "
    template = (_JSON_TEMPLATES.get((x.row_type, inner)) or _json_template(x.row_type, inner))[1]
    columns = x.columns()
    names = sorted(columns)
    text = _spelled(
        [np.asarray(columns[k]) for k in names], _JSON_WORDS, lambda v: _json_text(v, inner + "  ")
    )
    rows = ("," + inner).join(map(template.__mod__, zip(*text)))
    return "[" + inner + rows + indent + "]" if rows else "[]"


def _json_text(x, indent: str = "\n") -> str:
    """The bytes ``json.dumps(_json_value(x), indent=2, sort_keys=True,
    allow_nan=False)`` spells, lines continued with ``indent``; TypeError for
    what that cannot spell (a numpy bool, say) and for keys that are not str.
    A dataclass (a report) is one ``%``-format of its cached template, and a
    ``_ReportColumns`` the list of its rows (``_json_rows``)."""
    encode = _JSON_SCALARS.get(type(x))
    if encode is not None:
        return encode(x)
    if isinstance(x, _ReportColumns):
        return _json_rows(x, indent)
    inner = indent + "  "
    cached = _JSON_TEMPLATES.get((type(x), indent))
    if cached is None and is_dataclass(x) and not isinstance(x, type):
        cached = _json_template(type(x), indent)
    if cached is not None:
        get, template = cached
        text = []
        for v in get(x):
            encode = _JSON_SCALARS.get(type(v))
            text.append(encode(v) if encode is not None else _json_text(v, inner))
        return template % tuple(text)
    if isinstance(x, dict):
        key = encode_basestring_ascii  # TypeError for a key that is not str
        items = [f"{key(k)}: {_json_text(x[k], inner)}" for k in sorted(x)]
        return "{" + inner + ("," + inner).join(items) + indent + "}" if items else "{}"
    if isinstance(x, (set, frozenset, np.ndarray)):  # a 0-d array as its scalar
        x = sorted(x) if isinstance(x, (set, frozenset)) else x.tolist()
    if isinstance(x, (list, tuple)):
        items = [_json_text(v, inner) for v in x]
        return "[" + inner + ("," + inner).join(items) + indent + "]" if items else "[]"
    value = _json_value(x)  # numpy scalars as Python ones
    if type(value) not in _JSON_SCALARS:
        raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")
    return _json_text(value)


def _write_json(path, data) -> None:
    """The one JSON artifact writer: ``_json_text`` of ``data`` and a newline."""
    text = _json_text(data)  # first, so a document it cannot spell leaves no file
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text + "\n")


def _write_csv(path, header, *columns) -> None:
    """The one CSV artifact writer: ``header``, then row k from entry k of each column.

    Cells are joined by "," and lines end in "\\r\\n", the bytes ``csv.writer``
    writes for plain names and numbers: every float as its shortest
    round-trip repr, non-finite ones as inf, -inf and nan.  ValueError,
    before the file is opened, unless the columns are 1-D and of one length.
    """
    columns = [np.asarray(c) for c in columns]
    shapes = [c.shape for c in columns]
    if len(set(shapes)) > 1 or any(len(shape) != 1 for shape in shapes):
        raise ValueError(f"columns must be 1-D and of one length, got shapes {shapes}")
    lines = [",".join(header)] + [",".join(row) for row in zip(*_spelled(columns, {}, str))]
    with open(path, "w", newline="", encoding="ascii") as fh:
        fh.write("\r\n".join(lines) + "\r\n")


def _blocks(m: int, width: int) -> Iterator[slice]:
    """Consecutive slices of range(m) of at most BLOCK_ENTRIES // width rows (at least one)."""
    step = max(1, BLOCK_ENTRIES // max(width, 1))
    return (slice(s, min(s + step, m)) for s in range(0, m, step))


def _indices(values, n: int, what: str = "index", within: str = "integers") -> np.ndarray:
    """``values`` (one index or an array-like of them) as 1-based int64 indices.

    Raises ValueError naming the first value that is not an integer in [1, n]:
    a bool, a string, a NaN, a non-integral or an out-of-range value (integral
    floats and numpy integers pass). ``what`` and ``within`` word the message.
    """
    if isinstance(values, np.ndarray) and values.dtype.kind in "iu":  # one pass, no objects
        bad = (values < 1) | (values > n)
        if bad.any():
            first = values.flat[int(np.argmax(bad))].item()
            raise ValueError(f"{what} {first!r} outside the {within} in [1, {n}]")
        return values.astype(np.int64)
    raw = np.asarray(values, dtype=object)  # keeps True a bool: np.asarray([2, True]) is [2, 1]
    idx = np.array([x if _is_real(x) else math.nan for x in raw.flat], dtype=float)
    bad = (idx < 1) | (idx > n) | (idx != np.trunc(idx))  # NaN fails the last
    if bad.any():
        first = raw.flat[int(np.argmax(bad))]
        first = first.item() if isinstance(first, np.generic) else first
        raise ValueError(f"{what} {first!r} outside the {within} in [1, {n}]")
    return idx.astype(np.int64).reshape(raw.shape)


def _index_mask(n: int, indices: Iterable[int]) -> np.ndarray:
    """Boolean mask over 0-based positions of the 1-based ``indices`` (checked by ``_indices``)."""
    mask = np.zeros(n, dtype=bool)
    mask[_indices(list(indices), n) - 1] = True
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
        # by row, part, col: one stable sort of a combined key, which is faster
        # than np.lexsort and leaves a smaller heap behind on the sweep's blocks
        order = np.argsort((row * 3 + part) * n + col, kind="stable")
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(row, minlength=n), out=indptr[1:])
        return cls(_frozen(indptr), _frozen(col[order]), _frozen(pair[order]))

    @cached_property
    def rows(self) -> np.ndarray:
        """The 0-based row of each slot (the companion of ``indices``)."""
        return _frozen(np.repeat(np.arange(self.indptr.size - 1), np.diff(self.indptr)))

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
    they are normalized to i < j.  A pair given twice is an error, whatever
    its values; zero off-diagonal values are then dropped as structural zeros.
    """

    __slots__ = (
        "_n", "_diag", "_off_i", "_off_j", "_off_v", "_ends", "_bandwidth",
        "_pattern", "_csr", "_is_z", "_connectivity",
    )

    def __init__(self, n: int, diag, off_entries: Iterable[tuple] = ()):
        if not _is_integer(n) or n < 1:
            raise ValueError(f"matrix dimension must be a positive integer, got {n!r}")
        diag = np.array(diag, dtype=float)
        if diag.shape != (n,):
            raise ValueError(f"diagonal must have length {n}, got shape {diag.shape}")
        if not np.all(np.isfinite(diag)):
            k = int(np.argmin(np.isfinite(diag))) + 1
            raise ValueError(f"diagonal entry ({k}, {k}) is not finite")

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
        lo, hi = np.minimum(i, j), np.maximum(i, j)
        order = np.lexsort((hi, lo))
        lo, hi, v = lo[order], hi[order], v[order]
        dup = (lo[1:] == lo[:-1]) & (hi[1:] == hi[:-1])
        if np.any(dup):  # a zero listed twice too
            k = int(np.argmax(dup))
            raise ValueError(f"duplicate off-diagonal entry for pair {(int(lo[k]), int(hi[k]))}")
        keep = v != 0.0
        lo, hi, v = lo[keep], hi[keep], v[keep]

        self._n = int(n)
        self._diag = _frozen(diag)
        self._off_i = _frozen(lo)
        self._off_j = _frozen(hi)
        self._off_v = _frozen(v)
        self._ends = (_frozen(lo - 1), _frozen(hi - 1))  # 0-based, for masks over positions
        self._bandwidth = int(np.max(hi - lo, initial=0))
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

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self._n, self._n), dtype=float)
        np.fill_diagonal(out, self._diag)
        ii, jj = self._ends
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
        """A @ x without forming the dense matrix, summed in the row order of the pattern.

        ``x`` may also be an n x k block: column c of the product has the bits
        of the product with column c alone (scipy sums every column over the
        same slots in the same order).
        """
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2) or x.shape[0] != self._n:
            raise ValueError(f"vector must have length {self._n}, got shape {x.shape}")
        return self._csr_matrix() @ x

    def max_abs_entry(self) -> float:
        m = float(np.abs(self._diag).max())
        if self._off_v.size:
            m = max(m, float(np.abs(self._off_v).max()))
        return m

    def bandwidth(self) -> int:
        """max |i - j| over stored off-diagonal entries, 0 if none."""
        return self._bandwidth

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
    """lambda_min of A: the first of ``_eigh``'s values, computed without vectors."""
    return float(_eigh(A, vectors=False)[0])


def _eigh(A: SparseSymMatrix, vectors: bool = True, *, contiguous: bool = True):
    """The bits of ``np.linalg.eigh(A.to_dense())``, or of ``eigvalsh`` without ``vectors``.

    At bandwidth <= 1 the diagonals go straight to LAPACK's tridiagonal
    divide and conquer ``dstevd`` and no n x n input is formed.  ``eigh``
    calls ``dsyevd``, whose Householder reduction ``dsytrd`` has tau = 0 at
    every step of a tridiagonal input, so it hands the same diagonals to the
    same ``dstedc`` (``dsterf`` without vectors, after the same scaling) and
    back-transforms by the identity.  Wider bands keep the dense solve, and so
    does a diagonal holding -0.0: the blocked ``dsytrd`` update subtracts
    signed zeros from it and can return +0.0.  The vectors come back
    C-contiguous, as ``eigh`` gives them: products with a Fortran-ordered copy
    may round differently.  With ``contiguous`` False they come in the order
    the solver left them (Fortran order from ``dstevd``), for a caller that
    works on them column by column and makes the C-contiguous copy itself.
    ``np.linalg.LinAlgError`` when LAPACK fails.
    """
    if A.n > DENSE_EIGEN_LIMIT:
        raise ValueError(f"dense eigensolve limited to n <= {DENSE_EIGEN_LIMIT}, got n = {A.n}")
    if A.bandwidth() > 1 or np.any(np.signbit(A.diag) & (A.diag == 0.0)):
        dense = A.to_dense()
        return np.linalg.eigh(dense) if vectors else np.linalg.eigvalsh(dense)
    sub = np.zeros(max(A.n - 1, 1))  # the wrapper wants length >= 1, even at n = 1
    sub[A._off_i - 1] = A._off_v  # pair (i, i + 1) is subdiagonal entry i
    values, z, info = _lapack.dstevd(A.diag, sub, compute_v=vectors)
    if info != 0:
        raise np.linalg.LinAlgError(f"tridiagonal eigensolve failed (dstevd info = {info})")
    if not vectors:
        return values
    return values, np.ascontiguousarray(z) if contiguous else z


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


def _pairs_inside(A: SparseSymMatrix, keep: np.ndarray) -> tuple[np.ndarray, ...]:
    """(lo, hi, value) of the off-diagonal pairs with both ends where ``keep`` holds.

    lo and hi are 0-based positions, lo < hi; the pairs keep their stored order.
    """
    lo, hi = A._ends
    both = keep[lo] & keep[hi]
    return lo[both], hi[both], A._off_v[both]


def restrict(A: SparseSymMatrix, subset: Iterable[int]) -> SparseSymMatrix:
    """Principal restriction I_M A I_M, keeping the full dimension.

    Entries survive only when both indices lie in ``subset``; everything else
    (the diagonal included) becomes zero.
    """
    keep = _index_mask(A.n, subset)
    lo, hi, v = _pairs_inside(A, keep)
    off = np.column_stack((lo + 1, hi + 1, v))
    return SparseSymMatrix(A.n, np.where(keep, A.diag, 0.0), off)


def _submatrix(A: SparseSymMatrix, keep: np.ndarray) -> SparseSymMatrix:
    """A restricted to the positions where the boolean ``keep`` holds, relabelled 1..m."""
    local = np.cumsum(keep)  # 1-based local index at every kept position
    lo, hi, v = _pairs_inside(A, keep)
    off = np.column_stack((local[lo], local[hi], v))
    return SparseSymMatrix(int(local[-1]), A.diag[keep], off)


def _stack_columns(keep: np.ndarray, bw: int) -> tuple[np.ndarray, ...]:
    """(row, site, column) of every True of a k x n mask in a stack of its rows' blocks.

    Row i's positions come in ascending order after those of the rows before
    it and bw spacer columns behind each of them.
    """
    k, n = keep.shape
    flat = np.flatnonzero(keep)
    rows = np.repeat(np.arange(k), np.count_nonzero(keep, axis=1))
    return rows, flat - n * rows, np.arange(flat.size) + bw * rows


def _upper_band(
    A: SparseSymMatrix, keep: np.ndarray, shifts: np.ndarray, columns=None
) -> np.ndarray:
    """Blocks A_keep[i],keep[i] - shifts[i] I of a k x n mask, stacked in LAPACK upper band storage.

    The blocks sit along the diagonal in the columns of ``_stack_columns`` at
    A's bandwidth bw, with spacer columns (diagonal 1, no coupling) between
    them; entry (r, c), r <= c, of the stack sits at row bw + r - c, column c.
    ``columns`` is ``_stack_columns(keep, bw)`` where the caller has it.
    Dropping positions never widens the band, so every block fits.  One row
    gives A_keep,keep - shift I alone.
    """
    bw = A.bandwidth()
    rows, sites, cols = _stack_columns(keep, bw) if columns is None else columns
    band = np.zeros((bw + 1, int(cols[-1]) + 1), dtype=float)
    band[bw] = 1.0
    band[bw, cols] = A.diag[sites] - shifts[rows]
    lo, hi = A._ends
    coupling = np.zeros((bw + 1, A.n), dtype=float)  # A's own upper band, diagonal row empty
    coupling[bw + lo - hi, hi] = A._off_v
    for d in range(1, bw + 1):
        # kept positions d columns apart couple when one block holds them bw sites apart or less
        gap = sites[d:] - sites[:-d]
        near = (gap <= bw) & (rows[d:] == rows[:-d])
        band[bw - d, cols[d:][near]] = coupling[bw - gap[near], sites[d:][near]]
    return band


def write_matrix(path, A: SparseSymMatrix) -> None:
    """Write in Matrix Market coordinate format (symmetric, lower triangle).

    Values are written with shortest round-tripping decimal repr, so a
    read-back reproduces every finite double bit for bit.
    """
    entries = [(i, i, v) for i, v in enumerate(A.diag.tolist(), 1)]
    entries += [(j, i, v) for i, j, v in A.off_entries()]  # lower triangle: row >= column
    lines = [MM_HEADER, f"{A.n} {A.n} {len(entries)}"]
    lines += [f"{i} {j} {v!r}" for i, j, v in sorted(entries)]
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
    orientation) and 'general' files whose two triangles give the same
    matrix.  The module docstring says which rules it checks itself.
    """
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise MatrixFormatError(f"{path}: empty file")
    symmetry = _parse_mm_header(lines[0], path)
    body = [ln for ln in lines[1:] if ln.strip() and not ln.lstrip().startswith("%")]
    if not body:
        raise MatrixFormatError(f"{path}: missing size line")
    try:
        rows, cols, nnz = map(int, body[0].split())
    except ValueError as exc:
        raise MatrixFormatError(f"{path}: malformed size line: {body[0]!r}") from exc
    if rows != cols:
        raise MatrixFormatError(f"{path}: dimension mismatch: {rows} x {cols} is not square")
    if rows < 1:
        raise MatrixFormatError(f"{path}: dimension must be positive, got {rows}")
    if len(body) - 1 != nnz:
        raise MatrixFormatError(
            f"{path}: size line promises {nnz} entries, file has {len(body) - 1}"
        )
    diag = np.zeros(rows)  # first: an order that fits in memory holds every index as a float
    entries = []
    for ln in body[1:]:
        try:
            a, b, c = ln.split()
            i, j, v = int(a), int(b), float(c)
        except ValueError as exc:
            raise MatrixFormatError(f"{path}: malformed entry line: {ln!r}") from exc
        if not (1 <= i <= rows and 1 <= j <= rows):
            raise MatrixFormatError(f"{path}: entry ({i}, {j}) outside [1, {rows}]")
        entries.append((i, j, v))

    off = np.array(entries, dtype=float).reshape(-1, 3)
    i, j = off[:, 0], off[:, 1]
    on = i == j
    sites = np.sort(i[on])
    repeated = sites[1:] == sites[:-1]
    if repeated.any():
        raise MatrixFormatError(f"{path}: duplicate diagonal entry {int(sites[1:][repeated][0])}")
    diag[i[on].astype(np.int64) - 1] = off[on, 2]
    general = symmetry == "general"
    try:  # a general file lists each pair twice: its lower triangle is the matrix
        A = SparseSymMatrix(rows, diag, off[i > j] if general else off[i != j])
        upper = SparseSymMatrix(rows, diag, off[i < j]) if general else A
    except ValueError as exc:
        raise MatrixFormatError(f"{path}: {exc}") from exc
    if upper != A:
        i, j, _ = min(set(A.off_entries()) ^ set(upper.off_entries()))
        raise MatrixFormatError(f"{path}: general file is not symmetric at ({i}, {j})")
    return A
