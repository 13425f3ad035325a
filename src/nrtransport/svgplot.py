"""Minimal self-contained SVG line plots.

No plotting dependency: axes, ticks, polylines and a text legend are emitted
directly. Output is a deterministic function of the input arrays, and every
text node is XML-escaped, so it is well-formed XML.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
WIDTH, HEIGHT = 720, 480  # px


@dataclass(frozen=True)
class Series:
    label: str
    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        if x.shape != y.shape or x.ndim != 1 or len(x) == 0:
            raise ConfigurationError("series needs matching non-empty 1-D x and y")


def _top(lo: float, hi: float) -> float:
    """``hi``, or ``lo`` plus max(1, 1e-6 |lo|) when the range [lo, hi] is flat:
    empty, reversed, or narrower than 1e-9 of its magnitude, where a tick step
    would not advance. The widening is relative beyond |lo| = 1e6, where
    ``lo + 1`` would round back to ``lo``."""
    return lo + max(1.0, 1e-6 * abs(lo)) if hi - lo <= 1e-9 * max(abs(lo), abs(hi)) else hi


def _ticks(lo: float, hi: float, target: int = 5) -> list[float]:
    hi = _top(lo, hi)
    raw = (hi - lo) / target
    mag = 10.0 ** math.floor(math.log10(raw))
    step = min((m for m in (1.0, 2.0, 5.0, 10.0) if m * mag >= raw), default=10.0) * mag
    first = math.ceil(lo / step) * step
    out = []
    v = first
    while v <= hi + 1e-9 * step and len(out) <= 2 * target:
        out.append(0.0 if abs(v) < 1e-12 * step else v)
        v += step
    return out


def _labels(ticks: list[float]) -> list[str]:
    """Tick labels with the fewest significant digits, at least 6, that tell
    adjacent ticks apart (17 tell any two doubles apart)."""
    for digits in range(6, 18):
        labels = [format(v, f".{digits}g") for v in ticks]
        if all(a != b for a, b in zip(labels, labels[1:])):
            break
    return labels


def _escape(text: str) -> str:
    """``text`` as XML character data (``xml.sax.saxutils`` would pull in
    ``urllib.request`` and about 7 MB at import)."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def line_plot(
    series: list[Series],
    *,
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
) -> str:
    if not series:
        raise ConfigurationError("nothing to plot")
    ml, mr, mt, mb = 70, 20, 40, 55
    pw, ph = WIDTH - ml - mr, HEIGHT - mt - mb
    xlo = min(float(np.min(s.x)) for s in series)
    xhi = max(float(np.max(s.x)) for s in series)
    ylo = min(float(np.min(s.y)) for s in series)
    yhi = max(float(np.max(s.y)) for s in series)
    xhi, yhi = _top(xlo, xhi), _top(ylo, yhi)
    pad = 0.04 * (yhi - ylo)
    ylo, yhi = ylo - pad, yhi + pad

    def sx(v):
        return ml + (v - xlo) / (xhi - xlo) * pw

    def sy(v):
        return mt + ph - (v - ylo) / (yhi - ylo) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.1f}" y="22" font-size="15" text-anchor="middle" '
        f'font-family="sans-serif">{_escape(title)}</text>',
    ]
    # Axes
    parts.append(
        f'<path d="M {ml} {mt} V {mt + ph} H {ml + pw}" fill="none" stroke="black"/>'
    )
    xticks = _ticks(xlo, xhi)
    for tx, label in zip(xticks, _labels(xticks)):
        px = sx(tx)
        parts.append(f'<line x1="{px:.1f}" y1="{mt + ph}" x2="{px:.1f}" y2="{mt + ph + 5}" stroke="black"/>')
        parts.append(
            f'<text x="{px:.1f}" y="{mt + ph + 18}" font-size="11" text-anchor="middle" '
            f'font-family="sans-serif">{_escape(label)}</text>'
        )
    yticks = _ticks(ylo, yhi)
    for ty, label in zip(yticks, _labels(yticks)):
        py = sy(ty)
        parts.append(f'<line x1="{ml - 5}" y1="{py:.1f}" x2="{ml}" y2="{py:.1f}" stroke="black"/>')
        parts.append(
            f'<text x="{ml - 8}" y="{py + 4:.1f}" font-size="11" text-anchor="end" '
            f'font-family="sans-serif">{_escape(label)}</text>'
        )
    parts.append(
        f'<text x="{ml + pw / 2:.1f}" y="{HEIGHT - 12}" font-size="13" text-anchor="middle" '
        f'font-family="sans-serif">{_escape(xlabel)}</text>'
    )
    parts.append(
        f'<text x="18" y="{mt + ph / 2:.1f}" font-size="13" text-anchor="middle" '
        f'font-family="sans-serif" transform="rotate(-90 18 {mt + ph / 2:.1f})">{_escape(ylabel)}</text>'
    )
    for i, s in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        pts = " ".join(f"{sx(a):.2f},{sy(b):.2f}" for a, b in zip(s.x, s.y))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        ly = mt + 14 + 16 * i
        lx = ml + pw - 160
        parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 24}" y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
        parts.append(
            f'<text x="{lx + 30}" y="{ly}" font-size="12" font-family="sans-serif">{_escape(s.label)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
