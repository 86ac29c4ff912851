"""Figure CSV emitters and the CSV-to-SVG renderers."""

import csv
import json

import numpy as np
import pytest

from mlandscape.figures import (
    render_lines_svg,
    render_partition_svg,
    render_scatter_svg,
    write_overlay_csv,
    write_potential_csv,
)
from mlandscape.landscape import solve_landscape
from mlandscape.matrices import SparseSymMatrix
from mlandscape.spectral import eig_sym


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _diag_fixture():
    # diag(1, 2): u = (1, 0.5), vbar = (1, 2), eigenvectors are unit vectors
    A = SparseSymMatrix(2, [1.0, 2.0], [])
    L = solve_landscape(A)
    ed = eig_sym(A, L)
    return L, ed


# ---- overlay CSV


def test_overlay_csv_header_and_values(tmp_path):
    L, ed = _diag_fixture()
    path = tmp_path / "overlay.csv"
    write_overlay_csv(path, L, ed, n_plot=2)
    rows = _rows(path)
    assert rows[0] == ["index", "u", "log10_psi_1", "log10_psi_2"]
    # zero amplitudes serialize as the literal "-inf"
    assert rows[1][0] == "1" and rows[2][0] == "2"
    assert rows[1][2:] == ["0.0", "-inf"]
    assert rows[2][2:] == ["-inf", "0.0"]
    assert float(rows[1][1]) == pytest.approx(1.0, abs=1e-12)
    assert float(rows[2][1]) == pytest.approx(0.5, abs=1e-12)


def test_overlay_csv_caps_n_plot(tmp_path):
    L, ed = _diag_fixture()
    path = tmp_path / "overlay.csv"
    write_overlay_csv(path, L, ed, n_plot=9)
    rows = _rows(path)
    assert rows[0] == ["index", "u", "log10_psi_1", "log10_psi_2"]
    assert all(len(r) == 4 for r in rows)


# ---- potential CSV


def test_potential_csv_eigenvalue_baselines(tmp_path):
    """Column j holds eigenvalue j plus the eigenvector, not the bare vector."""
    L, ed = _diag_fixture()
    path = tmp_path / "potential.csv"
    write_potential_csv(path, L, ed, n_plot=2)
    rows = _rows(path)
    assert rows[0] == ["index", "vbar", "psi_base_1", "psi_base_2"]
    got = [[float(x) for x in row] for row in rows[1:]]
    want = [[1.0, 1.0, 2.0, 2.0], [2.0, 2.0, 1.0, 3.0]]
    assert np.allclose(got, want, rtol=0.0, atol=1e-12)


# ---- line renderer


def test_render_lines_svg_basic(tmp_path):
    src = tmp_path / "curve.csv"
    src.write_text("x,height\n1,0.0\n2,1.0\n3,4.0\n")
    out = tmp_path / "curve.svg"
    render_lines_svg(src, out, title="height")
    svg = out.read_text()
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")
    assert svg.count("<polyline") == 1
    assert "height" in svg


def test_render_lines_svg_splits_at_nonfinite(tmp_path):
    # the inf row breaks the curve; the lone leading point cannot form a line
    src = tmp_path / "gap.csv"
    src.write_text("x,a\n1,0.0\n2,inf\n3,1.0\n4,2.0\n")
    out = tmp_path / "gap.svg"
    render_lines_svg(src, out)
    svg = out.read_text()
    assert svg.count("<polyline") == 1
    assert "inf" not in svg


def test_render_lines_svg_constant_column(tmp_path):
    src = tmp_path / "flat.csv"
    src.write_text("x,a\n1,2.0\n2,2.0\n3,2.0\n")
    out = tmp_path / "flat.svg"
    render_lines_svg(src, out)
    svg = out.read_text()
    assert svg.count("<polyline") == 1
    assert "nan" not in svg


def test_render_lines_svg_all_nonfinite_column(tmp_path):
    src = tmp_path / "void.csv"
    src.write_text("x,a\n1,inf\n2,-inf\n")
    out = tmp_path / "void.svg"
    render_lines_svg(src, out)
    svg = out.read_text()
    assert svg.startswith("<svg")
    assert "<polyline" not in svg


def test_render_lines_svg_deterministic(tmp_path):
    src = tmp_path / "curve.csv"
    src.write_text("x,a,b\n1,0.5,2.0\n2,0.25,3.0\n3,0.125,1.0\n")
    out_a = tmp_path / "a.svg"
    out_b = tmp_path / "b.svg"
    render_lines_svg(src, out_a)
    render_lines_svg(src, out_b)
    assert out_a.read_bytes() == out_b.read_bytes()


# ---- scatter renderer


def test_render_scatter_svg_marks_finite_points_only(tmp_path):
    src = tmp_path / "scatter.csv"
    src.write_text("rho,neglog\n0.0,0.0\n1.0,2.0\ninf,3.0\n")
    out = tmp_path / "scatter.svg"
    render_scatter_svg(src, out)
    svg = out.read_text()
    assert svg.count("<circle") == 2
    assert "rho" in svg


# ---- partition renderer


def test_render_partition_svg_bands_and_wells(tmp_path):
    report = {
        "regions": [[1, 2], [4]],
        "wells": [[1]],
        "s_achieved": 1.5,
    }
    src = tmp_path / "partition.json"
    src.write_text(json.dumps(report))
    out = tmp_path / "partition.svg"
    render_partition_svg(src, out)
    svg = out.read_text()
    # one translucent cell per region index, one dark cell per well index
    assert svg.count('fill-opacity="0.35"') == 3
    assert svg.count('fill-opacity="0.9"') == 1
    assert "regions: 2" in svg
    assert "separation achieved: 1.5" in svg


def test_render_partition_svg_empty_report(tmp_path):
    report = {"n": 5, "wells": [], "regions": [], "s_achieved": "inf"}
    src = tmp_path / "partition.json"
    src.write_text(json.dumps(report))
    out = tmp_path / "partition.svg"
    render_partition_svg(src, out)
    svg = out.read_text()
    assert svg.startswith("<svg")
    assert "regions: 0" in svg
    assert 'fill-opacity="0.35"' not in svg
