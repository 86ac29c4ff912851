"""The three LAPACK routines the package calls: ``dstevd``, ``dpbsv`` and ``dptsv``.

numpy wheels bundle an ILP64 scipy-openblas (64-bit integers, symbols named
``scipy_<routine>_64_``) that is loaded with ``numpy.linalg`` and exports the
whole of LAPACK.  When ``np.show_config`` reports that library, the routines
are called in it through ``ctypes``: the same code ``np.linalg.eigh`` runs,
and no ``scipy.linalg`` import (about 0.15 s and 28 MB per process on a
2-core x86-64 VM).  Any other numpy build falls back to
``scipy.linalg.lapack``, imported at the first call.  Either way the choice
is made once per process.

Each routine takes and returns what the ``scipy.linalg.lapack`` wrapper of
the same name does, so the two are interchangeable:

    vals, z, info = dstevd(d, e, compute_v=1)
    c, x, info = dpbsv(ab, b)                  # upper band storage
    d, e, x, info = dptsv(d, e, b)

Inputs are copied, never overwritten.  ``e`` of ``dstevd`` may be longer than
n - 1 (the wrapper wants length >= 1, even at n = 1); ``z`` is n x n in
Fortran order with vectors and 1 x 1 without.
"""

from __future__ import annotations

import ctypes
from functools import cache

import numpy as np

__all__ = ["dstevd", "dpbsv", "dptsv"]

_INT = ctypes.POINTER(ctypes.c_int64)  # an INTEGER*8 by reference
_PTR = ctypes.c_void_p  # a double or INTEGER*8 array
_CHAR = ctypes.c_char_p
_LEN = ctypes.c_size_t  # hidden length of a CHARACTER argument, passed last


def _int(value: int):
    """An INTEGER*8 argument."""
    return ctypes.byref(ctypes.c_int64(value))


def _require(ok: bool, shapes: str) -> None:
    """ValueError unless the arrays have the shapes LAPACK will read and write."""
    if not ok:
        raise ValueError(f"LAPACK wants {shapes}")


class _OpenBLAS:
    """The routines of numpy's ILP64 scipy-openblas, called through ``ctypes``."""

    def __init__(self, lib: ctypes.CDLL):
        self._stevd = lib.scipy_dstevd_64_
        self._stevd.argtypes = [
            _CHAR, _INT, _PTR, _PTR, _PTR, _INT, _PTR, _INT, _PTR, _INT, _INT, _LEN,
        ]  # fmt: skip
        self._pbsv = lib.scipy_dpbsv_64_
        self._pbsv.argtypes = [_CHAR, _INT, _INT, _INT, _PTR, _INT, _PTR, _INT, _INT, _LEN]
        self._ptsv = lib.scipy_dptsv_64_
        self._ptsv.argtypes = [_INT, _INT, _PTR, _PTR, _PTR, _INT, _INT]
        for routine in (self._stevd, self._pbsv, self._ptsv):
            routine.restype = None

    def dstevd(self, d, e, compute_v=1):
        vals = np.array(d, dtype=float)
        off = np.array(e, dtype=float)
        n = vals.size
        _require(vals.ndim == off.ndim == 1 and off.size >= n - 1, "d of length n, e of n - 1")
        z = np.zeros((n, n) if compute_v else (1, 1), order="F")
        # the workspace sizes the scipy wrapper passes
        lwork, liwork = (1 + 4 * n + n * n, 3 + 5 * n) if compute_v else (1, 1)
        work = np.empty(lwork)
        iwork = np.empty(liwork, dtype=np.int64)
        info = ctypes.c_int64()
        self._stevd(
            b"V" if compute_v else b"N", _int(n), vals.ctypes.data, off.ctypes.data,
            z.ctypes.data, _int(max(z.shape[0], 1)), work.ctypes.data, _int(lwork),
            iwork.ctypes.data, _int(liwork), ctypes.byref(info), 1,
        )  # fmt: skip
        return vals, z, info.value

    def dpbsv(self, ab, b):
        c = np.array(ab, dtype=float, order="F")
        x = np.array(b, dtype=float, order="F")
        rows = c.ndim == 2 and x.ndim in (1, 2) and x.shape[0] == c.shape[1]
        _require(rows, "ab of n columns, b of n rows")
        kd, n = c.shape[0] - 1, c.shape[1]
        info = ctypes.c_int64()
        self._pbsv(
            b"U", _int(n), _int(kd), _int(1 if x.ndim == 1 else x.shape[1]), c.ctypes.data,
            _int(c.shape[0]), x.ctypes.data, _int(max(n, 1)), ctypes.byref(info), 1,
        )  # fmt: skip
        return c, x, info.value

    def dptsv(self, d, e, b):
        d = np.array(d, dtype=float)
        e = np.array(e, dtype=float)
        x = np.array(b, dtype=float, order="F")
        n = d.size
        rows = d.ndim == e.ndim == 1 and e.size >= n - 1 and x.ndim in (1, 2) and x.shape[0] == n
        _require(rows, "d of length n, e of n - 1, b of n rows")
        info = ctypes.c_int64()
        self._ptsv(
            _int(n), _int(1 if x.ndim == 1 else x.shape[1]), d.ctypes.data, e.ctypes.data,
            x.ctypes.data, _int(max(n, 1)), ctypes.byref(info),
        )  # fmt: skip
        return d, e, x, info.value


def _numpy_openblas() -> _OpenBLAS | None:
    """numpy's own LAPACK when it is an ILP64 scipy-openblas, else None."""
    try:
        lapack = np.show_config(mode="dicts")["Build Dependencies"]["lapack"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dict form
        return None
    if lapack.get("name") != "scipy-openblas" or "USE64BITINT" not in lapack.get(
        "openblas configuration", ""
    ):
        return None
    from numpy.linalg import _umath_linalg  # links the library: its handle finds the symbols

    try:
        return _OpenBLAS(ctypes.CDLL(_umath_linalg.__file__))
    except (OSError, AttributeError):  # not loadable, or a symbol missing
        return None


@cache
def _routines():
    """The routines in use, chosen once per process: numpy's OpenBLAS, else scipy's wrappers."""
    routines = _numpy_openblas()
    if routines is None:
        from scipy.linalg import lapack as routines
    return routines


def dstevd(d, e, compute_v=1):
    """Eigenvalues (and with ``compute_v`` eigenvectors) of the tridiagonal (d, e)."""
    return _routines().dstevd(d, e, compute_v=compute_v)


def dpbsv(ab, b):
    """Solve a positive definite band system given in upper band storage ``ab``."""
    return _routines().dpbsv(ab, b)


def dptsv(d, e, b):
    """Solve a positive definite tridiagonal system with diagonal d and off-diagonal e."""
    return _routines().dptsv(d, e, b)
