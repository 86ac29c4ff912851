"""Figure-grade CSV emitters and a minimal SVG line/scatter renderer.

CSV files are the source of truth; every SVG here is regenerated from a CSV
(or the partition JSON) alone, with no access to the in-memory objects.  The
renderer draws polylines and markers only — enough to eyeball a run, not a
plotting library.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

from .landscape import LandscapeData
from .matrices import _write_csv
from .spectral import EigenDecomposition

__all__ = [
    "write_overlay_csv",
    "write_potential_csv",
    "render_lines_svg",
    "render_scatter_svg",
    "render_partition_svg",
]


def write_overlay_csv(path, L: LandscapeData, ed: EigenDecomposition, n_plot: int) -> None:
    """Landscape u with log10|psi_j| columns for the first n_plot eigenvectors.

    Header: index,u,log10_psi_1,...  Zero amplitudes serialize as "-inf".
    """
    k = min(n_plot, ed.n)
    with np.errstate(divide="ignore"):
        logs = np.log10(np.abs(ed.vectors[:, :k]))
    header = ["index", "u"] + [f"log10_psi_{j}" for j in range(1, k + 1)]
    _write_csv(path, header, np.arange(1, L.u.size + 1), L.u, *logs.T)


def write_potential_csv(path, L: LandscapeData, ed: EigenDecomposition, n_plot: int) -> None:
    """Reciprocal landscape with eigenvectors drawn at eigenvalue baselines.

    Header: index,vbar,psi_base_1,...; column j holds lambda_j + psi_j so each
    eigenvector rides at the height of its own eigenvalue.
    """
    k = min(n_plot, ed.n)
    based = ed.values[:k] + ed.vectors[:, :k]
    header = ["index", "vbar"] + [f"psi_base_{j}" for j in range(1, k + 1)]
    _write_csv(path, header, np.arange(1, L.vbar.size + 1), L.vbar, *based.T)


def _read_csv_columns(path) -> tuple[list[str], list[list[float]]]:
    with open(path, "r", newline="", encoding="ascii") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        columns: list[list[float]] = [[] for _ in header]
        for row in reader:
            for col, cell in zip(columns, row):
                col.append(float(cell))
    return header, columns


_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf"]
_W, _H, _PAD = 720, 420, 48


def _finite_range(values) -> tuple[float, float]:
    finite = [v for v in values if math.isfinite(v)]
    if not finite:
        return 0.0, 1.0
    lo, hi = min(finite), max(finite)
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    return lo, hi


class _Frame:
    """Maps data coordinates onto the fixed SVG viewport."""

    def __init__(self, xs, ys):
        self.x0, self.x1 = _finite_range(xs)
        self.y0, self.y1 = _finite_range(ys)

    def x(self, v: float) -> float:
        return _PAD + (v - self.x0) / (self.x1 - self.x0) * (_W - 2 * _PAD)

    def y(self, v: float) -> float:
        return _H - _PAD - (v - self.y0) / (self.y1 - self.y0) * (_H - 2 * _PAD)


def _svg_open(title: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W // 2}" y="20" text-anchor="middle" font-family="sans-serif" '
        f'font-size="14">{title}</text>',
    ]


def _svg_axes(frame: _Frame) -> list[str]:
    parts = [
        f'<rect x="{_PAD}" y="{_PAD}" width="{_W - 2 * _PAD}" height="{_H - 2 * _PAD}" '
        'fill="none" stroke="#333" stroke-width="1"/>'
    ]
    for frac in (0.0, 0.5, 1.0):
        xv = frame.x0 + frac * (frame.x1 - frame.x0)
        yv = frame.y0 + frac * (frame.y1 - frame.y0)
        parts.append(
            f'<text x="{frame.x(xv):.1f}" y="{_H - _PAD + 16}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="10">{xv:.3g}</text>'
        )
        parts.append(
            f'<text x="{_PAD - 6}" y="{frame.y(yv):.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="10">{yv:.3g}</text>'
        )
    return parts


def _polyline(frame: _Frame, xs, ys, color: str) -> str:
    runs: list[list[str]] = [[]]
    for xv, yv in zip(xs, ys):
        if math.isfinite(xv) and math.isfinite(yv):
            runs[-1].append(f"{frame.x(xv):.2f},{frame.y(yv):.2f}")
        elif runs[-1]:
            runs.append([])
    parts = []
    for run in runs:
        if len(run) >= 2:
            parts.append(
                f'<polyline points="{" ".join(run)}" fill="none" stroke="{color}" '
                'stroke-width="1.2"/>'
            )
    return "\n".join(parts)


def render_lines_svg(csv_path, svg_path, title: str = "") -> None:
    """Polyline chart: first CSV column is x, every other column is a curve."""
    header, columns = _read_csv_columns(csv_path)
    xs = columns[0]
    all_y = [v for col in columns[1:] for v in col]
    frame = _Frame(xs, all_y)
    parts = _svg_open(title or header[1])
    parts += _svg_axes(frame)
    for idx, col in enumerate(columns[1:]):
        color = _PALETTE[idx % len(_PALETTE)]
        parts.append(_polyline(frame, xs, col, color))
        parts.append(
            f'<text x="{_W - _PAD - 4}" y="{_PAD + 14 + 13 * idx}" text-anchor="end" '
            f'font-family="sans-serif" font-size="10" fill="{color}">{header[idx + 1]}</text>'
        )
    parts.append("</svg>")
    with open(svg_path, "w", encoding="ascii") as fh:
        fh.write("\n".join(parts) + "\n")


def render_scatter_svg(csv_path, svg_path, title: str = "decay vs distance") -> None:
    """Marker chart of the two-column scatter CSV (rho,neglog)."""
    header, columns = _read_csv_columns(csv_path)
    xs, ys = columns[0], columns[1]
    frame = _Frame(xs, ys)
    parts = _svg_open(title)
    parts += _svg_axes(frame)
    for xv, yv in zip(xs, ys):
        if math.isfinite(xv) and math.isfinite(yv):
            parts.append(
                f'<circle cx="{frame.x(xv):.2f}" cy="{frame.y(yv):.2f}" r="2.5" '
                f'fill="{_PALETTE[0]}" fill-opacity="0.7"/>'
            )
    parts.append(
        f'<text x="{_W // 2}" y="{_H - 8}" text-anchor="middle" font-family="sans-serif" '
        f'font-size="11">{header[0]}</text>'
    )
    parts.append("</svg>")
    with open(svg_path, "w", encoding="ascii") as fh:
        fh.write("\n".join(parts) + "\n")


def render_partition_svg(json_path, svg_path, title: str = "well partition") -> None:
    """Index-axis strip chart of a partition report: regions, wells, separation.

    Each region is a colored band over its index span; well indices are drawn
    as dark ticks inside the band.  Renders an empty frame for zero regions.
    """
    with open(json_path, "r", encoding="utf-8") as fh:
        report = json.load(fh)
    regions = report.get("regions", [])
    wells = report.get("wells", [])
    n = int(report.get("n", 0)) or max(
        (max(r) for r in regions if r), default=1
    )
    frame = _Frame([1, max(n, 1)], [0.0, 1.0])
    parts = _svg_open(f"{title} (regions: {len(regions)})")
    parts += [
        f'<rect x="{_PAD}" y="{_PAD}" width="{_W - 2 * _PAD}" height="{_H - 2 * _PAD}" '
        'fill="none" stroke="#333" stroke-width="1"/>'
    ]
    band_y = _PAD + 40
    band_h = _H - 2 * _PAD - 80
    cell = (_W - 2 * _PAD) / max(n, 1)
    for ridx, reg in enumerate(regions):
        color = _PALETTE[ridx % len(_PALETTE)]
        for i in reg:
            x = _PAD + (i - 1) * cell
            parts.append(
                f'<rect x="{x:.2f}" y="{band_y}" width="{cell:.2f}" height="{band_h}" '
                f'fill="{color}" fill-opacity="0.35"/>'
            )
    for well in wells:
        for i in well:
            x = _PAD + (i - 1) * cell
            parts.append(
                f'<rect x="{x:.2f}" y="{band_y}" width="{cell:.2f}" height="{band_h}" '
                'fill="#222" fill-opacity="0.9"/>'
            )
    s_ach = report.get("s_achieved")
    parts.append(
        f'<text x="{_PAD}" y="{_H - 10}" font-family="sans-serif" font-size="11">'
        f"wells: {len(wells)}, separation achieved: {s_ach}</text>"
    )
    parts.append("</svg>")
    with open(svg_path, "w", encoding="ascii") as fh:
        fh.write("\n".join(parts) + "\n")
