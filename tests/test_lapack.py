"""The LAPACK binding against scipy's wrappers: the same bytes, the same info."""

import numpy as np
import pytest
import scipy.linalg.lapack
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mlandscape._lapack as _lapack
from mlandscape.cli import main

# both signs of zero, and entries that leave some bands not positive definite
ENTRY = st.floats(min_value=-4.0, max_value=4.0)


def _same(got, want):
    """Equal tuples of arrays and info codes, arrays by shape and bytes."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if isinstance(w, np.ndarray):
            assert g.shape == w.shape
            assert g.tobytes() == w.tobytes()
        else:
            assert g == w


@settings(max_examples=200, deadline=None)
@given(
    d=st.lists(ENTRY, min_size=1, max_size=40),
    e=st.lists(ENTRY, min_size=40, max_size=40),
    vectors=st.booleans(),
)
@example(d=[-0.0], e=[0.0] * 40, vectors=True)
@example(d=[-0.0, 1.0, -0.0], e=[0.0] * 40, vectors=False)
def test_dstevd_has_the_bytes_of_scipys(d, e, vectors):
    d = np.array(d)
    e = np.array(e[: max(d.size - 1, 1)])  # the wrapper wants length >= 1, even at n = 1
    _same(
        _lapack._routines().dstevd(d, e, compute_v=vectors),
        scipy.linalg.lapack.dstevd(d, e, compute_v=vectors),
    )


@settings(max_examples=200, deadline=None)
@given(
    kd=st.integers(0, 3),
    n=st.integers(1, 30),
    data=st.data(),
)
@example(kd=0, n=1, data=None)
def test_dpbsv_has_the_bytes_of_scipys(kd, n, data):
    if data is None:  # one site, diagonal -0.0: not positive definite
        ab, b = np.array([[-0.0]]), np.array([1.0])
    else:
        ab = np.array(data.draw(st.lists(ENTRY, min_size=(kd + 1) * n, max_size=(kd + 1) * n)))
        ab = ab.reshape(kd + 1, n)
        if data.draw(st.booleans()):  # mostly positive definite: a dominant diagonal
            ab[kd] = np.abs(ab[kd]) + 8.0 * kd + 1.0
        b = np.array(data.draw(st.lists(ENTRY, min_size=n, max_size=n)))
    got = _lapack._routines().dpbsv(ab, b)
    want = scipy.linalg.lapack.dpbsv(ab, b)
    _same(got, want)


@settings(max_examples=200, deadline=None)
@given(
    d=st.lists(ENTRY, min_size=1, max_size=40),
    e=st.lists(ENTRY, min_size=40, max_size=40),
    b=st.lists(ENTRY, min_size=40, max_size=40),
    dominant=st.booleans(),
)
@example(d=[2.0], e=[0.0] * 40, b=[1.0] * 40, dominant=False)
@example(d=[-0.0, 1.0], e=[0.5] * 40, b=[1.0] * 40, dominant=False)
def test_dptsv_has_the_bytes_of_scipys(d, e, b, dominant):
    d = np.array(d)
    if dominant:
        d = np.abs(d) + 9.0
    # scipy's wrapper rejects an empty e, so n = 1 passes one unread entry
    e = np.array(e[: max(d.size - 1, 1)])
    b = np.array(b[: d.size])
    _same(_lapack._routines().dptsv(d, e, b), scipy.linalg.lapack.dptsv(d, e, b))


@pytest.mark.parametrize(
    "argv",
    [
        ["--n", "200", "--bandwidth", "1", "--seed", "5", "--ebar", "0.5", "--s", "2.0"],
        ["--n", "100", "--bandwidth", "2", "--seed", "1", "--ebar", "0.5"],
    ],
)
def test_a_report_on_scipys_wrappers_writes_the_same_files(argv, tmp_path, monkeypatch):
    """The fallback, forced: every file but config.json (it records the output
    directory) has the bytes the binding writes."""
    assert main(["report", *argv, "--out", str(tmp_path / "binding")]) == 0
    monkeypatch.setattr(_lapack, "_numpy_openblas", lambda: None)
    _lapack._routines.cache_clear()
    try:
        assert _lapack._routines() is scipy.linalg.lapack
        assert main(["report", *argv, "--out", str(tmp_path / "fallback")]) == 0
    finally:
        monkeypatch.undo()
        _lapack._routines.cache_clear()
    written = {}
    for side in ("binding", "fallback"):
        root = tmp_path / side
        written[side] = {
            str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*"))
            if p.is_file() and p.name != "config.json"
        }
    assert len(written["binding"]) > 5
    assert written["fallback"] == written["binding"]


def test_arrays_of_the_wrong_length_are_refused_before_lapack_reads_them():
    with pytest.raises(ValueError):
        _lapack.dstevd(np.ones(3), np.ones(1))
    with pytest.raises(ValueError):
        _lapack.dpbsv(np.ones((2, 3)), np.ones(2))
    with pytest.raises(ValueError):
        _lapack.dptsv(np.ones(3), np.ones(1), np.ones(3))
