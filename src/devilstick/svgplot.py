"""Minimal dependency-free SVG line plots.

Output is a pure function of the input data: fixed float formatting, no
timestamps or generated ids, so identical inputs give byte-identical files.
"""

from __future__ import annotations

from collections import namedtuple

PANEL_W = 300
PANEL_H = 210
MARGIN_L = 58
MARGIN_R = 12
MARGIN_T = 26
MARGIN_B = 36


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _tick(x: float) -> str:
    return f"{x:.4g}"


# One line plot: y against x with point markers.
Panel = namedtuple("Panel", "x y title x_label markers",
                   defaults=("", "", True))


def _panel_svg(p: Panel, ox: float, oy: float) -> list[str]:
    if not p.x or len(p.x) != len(p.y):
        raise ValueError(f"panel {p.title!r} needs equal-length nonempty data")
    x0, x1 = min(p.x), max(p.x)
    y0, y1 = min(p.y), max(p.y)
    if x1 == x0:
        x0, x1 = x0 - 0.5, x1 + 0.5
    if y1 == y0:
        pad = abs(y0) * 0.1 or 0.5
        y0, y1 = y0 - pad, y1 + pad
    px0, px1 = ox + MARGIN_L, ox + PANEL_W - MARGIN_R
    py0, py1 = oy + PANEL_H - MARGIN_B, oy + MARGIN_T

    def sx(x: float) -> float:
        return px0 + (x - x0) / (x1 - x0) * (px1 - px0)

    def sy(y: float) -> float:
        return py0 + (y - y0) / (y1 - y0) * (py1 - py0)

    out = [
        f'<rect x="{_fmt(px0)}" y="{_fmt(py1)}" width="{_fmt(px1 - px0)}" '
        f'height="{_fmt(py0 - py1)}" fill="none" stroke="#444" stroke-width="1"/>',
        f'<text x="{_fmt((px0 + px1) / 2)}" y="{_fmt(oy + 16)}" '
        f'text-anchor="middle" font-size="12" font-family="monospace">{p.title}</text>',
    ]
    for yv in (y0, (y0 + y1) / 2, y1):
        yy = sy(yv)
        out.append(f'<line x1="{_fmt(px0 - 4)}" y1="{_fmt(yy)}" x2="{_fmt(px0)}" '
                   f'y2="{_fmt(yy)}" stroke="#444" stroke-width="1"/>')
        out.append(f'<text x="{_fmt(px0 - 6)}" y="{_fmt(yy + 3)}" text-anchor="end" '
                   f'font-size="9" font-family="monospace">{_tick(yv)}</text>')
    for xv in (x0, x1):
        xx = sx(xv)
        out.append(f'<line x1="{_fmt(xx)}" y1="{_fmt(py0)}" x2="{_fmt(xx)}" '
                   f'y2="{_fmt(py0 + 4)}" stroke="#444" stroke-width="1"/>')
        out.append(f'<text x="{_fmt(xx)}" y="{_fmt(py0 + 14)}" text-anchor="middle" '
                   f'font-size="9" font-family="monospace">{_tick(xv)}</text>')
    if p.x_label:
        out.append(f'<text x="{_fmt((px0 + px1) / 2)}" y="{_fmt(py0 + 28)}" '
                   f'text-anchor="middle" font-size="10" '
                   f'font-family="monospace">{p.x_label}</text>')
    if min(p.y) <= 0.0 <= max(p.y):
        yy = sy(0.0)
        out.append(f'<line x1="{_fmt(px0)}" y1="{_fmt(yy)}" x2="{_fmt(px1)}" '
                   f'y2="{_fmt(yy)}" stroke="#bbb" stroke-width="0.5"/>')
    pts = " ".join(f"{_fmt(sx(x))},{_fmt(sy(y))}" for x, y in zip(p.x, p.y))
    out.append(f'<polyline points="{pts}" fill="none" stroke="#1f5fa8" '
               f'stroke-width="1.5"/>')
    if p.markers:
        for x, y in zip(p.x, p.y):
            out.append(f'<circle cx="{_fmt(sx(x))}" cy="{_fmt(sy(y))}" r="2.2" '
                       f'fill="#1f5fa8"/>')
    return out


def figure(panels: list[Panel], ncols: int = 2) -> str:
    """Panels laid out on a grid, returned as a full SVG document."""
    if not panels:
        raise ValueError("no panels to draw")
    nrows = (len(panels) + ncols - 1) // ncols
    width, height = ncols * PANEL_W, nrows * PANEL_H
    body: list[str] = []
    for i, panel in enumerate(panels):
        ox = (i % ncols) * PANEL_W
        oy = (i // ncols) * PANEL_H
        body.extend(_panel_svg(panel, ox, oy))
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        '<rect width="100%" height="100%" fill="white"/>',
        *body,
        "</svg>",
        "",
    ]
    return "\n".join(lines)
