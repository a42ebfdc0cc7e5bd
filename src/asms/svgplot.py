"""Tiny deterministic SVG emitter for comparison bars and learning curves.

Pure text generation: fixed canvas, fixed palette, fixed float formatting,
no timestamps, so outputs diff cleanly between runs.
"""

from __future__ import annotations

import math
from typing import Callable, Mapping, Sequence

WIDTH = 640
HEIGHT = 400
MARGIN_L = 70
MARGIN_R = 20
MARGIN_T = 40
MARGIN_B = 60

PALETTE = ("#4c78a8", "#f58518", "#54a24b", "#e45756", "#72b7b2",
           "#b279a2", "#9d755d", "#bab0ac")


def _escape(text: str) -> str:
    # xml.sax.saxutils.escape would import urllib.request and ~40 more modules
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _axis_bounds(values: Sequence[float]) -> tuple[float, float]:
    finite = [v for v in values if v is not None and math.isfinite(v)]
    if not finite:
        return 0.0, 1.0
    lo, hi = min(finite), max(finite)
    lo = min(lo, 0.0)
    hi = max(hi, 0.0)
    if hi == lo:
        hi = lo + 1.0
    pad = 0.05 * (hi - lo)
    return lo - pad if lo < 0 else lo, hi + pad


def _header(title: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.0f}" y="22" text-anchor="middle" font-size="15">'
        f'{_escape(title)}</text>',
    ]


def _y_axis(lo: float, hi: float, label: str) -> tuple[list[str], Callable[[float], float]]:
    """The y axis's elements, and the map from a value to its y pixel."""
    plot_h = HEIGHT - MARGIN_T - MARGIN_B
    scale = plot_h / (hi - lo)

    def y_of(v: float) -> float:
        return HEIGHT - MARGIN_B - (v - lo) * scale

    parts = [f'<line x1="{MARGIN_L}" y1="{MARGIN_T}" x2="{MARGIN_L}" '
             f'y2="{HEIGHT - MARGIN_B}" stroke="black"/>']
    for k in range(5):
        v = lo + k * (hi - lo) / 4
        y = y_of(v)
        parts.append(f'<line x1="{MARGIN_L - 4}" y1="{_fmt(y)}" x2="{MARGIN_L}" '
                     f'y2="{_fmt(y)}" stroke="black"/>')
        parts.append(f'<text x="{MARGIN_L - 8}" y="{_fmt(y + 4)}" text-anchor="end" '
                     f'font-size="11">{_fmt(v)}</text>')
    parts.append(f'<text x="16" y="{HEIGHT / 2:.0f}" font-size="12" text-anchor="middle" '
                 f'transform="rotate(-90 16 {HEIGHT / 2:.0f})">{_escape(label)}</text>')
    return parts, y_of


def bar_chart(category: str, values: Mapping[str, float | None], title: str) -> str:
    """One QoE bar per series over a single category; None or non-finite
    values are simply not drawn."""
    lo, hi = _axis_bounds(list(values.values()))
    parts = _header(title)
    axis, y_of = _y_axis(lo, hi, "QoE")
    parts += axis

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    bar_w = plot_w * 0.8 / max(1, len(values))
    cx = MARGIN_L + plot_w * 0.5
    y_zero = y_of(0.0)

    parts.append(f'<line x1="{MARGIN_L}" y1="{_fmt(y_zero)}" '
                 f'x2="{WIDTH - MARGIN_R}" y2="{_fmt(y_zero)}" stroke="black"/>')
    parts.append(f'<text x="{_fmt(cx)}" y="{HEIGHT - MARGIN_B + 16}" '
                 f'text-anchor="middle" font-size="11">{_escape(category)}</text>')
    for si, v in enumerate(values.values()):
        if v is None or not math.isfinite(v):
            continue
        x = cx - plot_w * 0.4 + si * bar_w
        y_v = y_of(v)
        top, height = (y_v, y_zero - y_v) if v >= 0 else (y_zero, y_v - y_zero)
        parts.append(f'<rect x="{_fmt(x)}" y="{_fmt(top)}" width="{_fmt(bar_w * 0.92)}" '
                     f'height="{_fmt(height)}" fill="{PALETTE[si % len(PALETTE)]}"/>')
    for si, name in enumerate(values):
        x = MARGIN_L + 10 + si * 120
        parts.append(f'<rect x="{x}" y="{HEIGHT - 24}" width="12" height="12" '
                     f'fill="{PALETTE[si % len(PALETTE)]}"/>')
        parts.append(f'<text x="{x + 16}" y="{HEIGHT - 14}" font-size="11">{_escape(name)}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def line_chart(series: Mapping[str, Sequence[float]], title: str) -> str:
    """Polyline chart of rewards over a shared episode axis starting at 0."""
    all_vals = [v for vals in series.values() for v in vals if math.isfinite(v)]
    lo, hi = _axis_bounds(all_vals)
    parts = _header(title)
    axis, y_of = _y_axis(lo, hi, "reward")
    parts += axis

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    n = max(2, max((len(v) for v in series.values()), default=2))
    parts.append(f'<line x1="{MARGIN_L}" y1="{HEIGHT - MARGIN_B}" '
                 f'x2="{WIDTH - MARGIN_R}" y2="{HEIGHT - MARGIN_B}" stroke="black"/>')
    parts.append(f'<text x="{WIDTH / 2:.0f}" y="{HEIGHT - MARGIN_B + 30}" '
                 f'text-anchor="middle" font-size="12">episode</text>')
    for si, (name, vals) in enumerate(series.items()):
        pts = []
        for i, v in enumerate(vals):
            x = MARGIN_L + plot_w * i / (n - 1)
            pts.append(f"{_fmt(x)},{_fmt(y_of(v))}")
        parts.append(f'<polyline points="{" ".join(pts)}" fill="none" '
                     f'stroke="{PALETTE[si % len(PALETTE)]}" stroke-width="1.5"/>')
        x = MARGIN_L + 10 + si * 150
        parts.append(f'<rect x="{x}" y="{HEIGHT - 24}" width="12" height="12" '
                     f'fill="{PALETTE[si % len(PALETTE)]}"/>')
        parts.append(f'<text x="{x + 16}" y="{HEIGHT - 14}" font-size="11">{_escape(name)}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


__all__ = ["bar_chart", "line_chart"]
