"""Tiny deterministic SVG drawers (scatter and line charts).

Each returns the SVG document as text and writes no file.  The text
depends only on the input data: fixed canvas, fixed float formatting,
no timestamps or generator metadata, so identical runs give identical
files.
"""

import math

W, H = 640, 480
MARGIN = 48


def _fmt(v):
    return "%.3f" % v


def _header(title):
    return [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
        f'viewBox="0 0 {W} {H}">',
        f'<rect x="0" y="0" width="{W}" height="{H}" fill="white"/>',
        f'<text x="{W // 2}" y="20" text-anchor="middle" '
        f'font-family="monospace" font-size="13">{title}</text>',
    ]


def _axes():
    x0, y0, x1, y1 = MARGIN, H - MARGIN, W - MARGIN, MARGIN
    return [
        f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>',
    ]


def _map(v, lo, hi, out_lo, out_hi):
    if hi == lo:
        return (out_lo + out_hi) / 2
    return out_lo + (v - lo) / (hi - lo) * (out_hi - out_lo)


def _span(values):
    """(min, max) of values, widened by 1 each way when they are equal;
    (-1, 1) when there are none."""
    lo, hi = min(values, default=-1.0), max(values, default=1.0)
    return (lo - 1, hi + 1) if lo == hi else (lo, hi)


def scatter_svg(points, title="", xlim=None, ylim=None):
    """Scatter of (x, y) pairs as circle glyphs, affinely mapped to canvas."""
    pts = [(float(x), float(y)) for x, y in points]
    if xlim is None:
        xlim = _span([x for x, _ in pts])
    if ylim is None:
        ylim = _span([y for _, y in pts])
    out = _header(title) + _axes()
    for x, y in pts:
        cx = _map(x, xlim[0], xlim[1], MARGIN, W - MARGIN)
        cy = _map(y, ylim[0], ylim[1], H - MARGIN, MARGIN)
        out.append(f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="2" '
                   f'fill="steelblue"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def line_chart_svg(xs, ys, title="", logy=False):
    """Single polyline through (xs, ys); log-scale y on request."""
    xs = [float(x) for x in xs]
    if logy:
        ys = [math.log10(max(abs(float(y)), 1e-300)) for y in ys]
    else:
        ys = [float(y) for y in ys]
    out = _header(title) + _axes()
    if xs:
        (xlo, xhi), (ylo, yhi) = _span(xs), _span(ys)
        coords = " ".join(
            f"{_fmt(_map(x, xlo, xhi, MARGIN, W - MARGIN))},"
            f"{_fmt(_map(y, ylo, yhi, H - MARGIN, MARGIN))}"
            for x, y in zip(xs, ys))
        out.append(f'<polyline points="{coords}" fill="none" '
                   f'stroke="firebrick" stroke-width="1.5"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"

