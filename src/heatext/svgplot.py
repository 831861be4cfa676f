"""Minimal SVG line plots (no plotting dependency; CSV stays the source of truth)."""

import math
import os
from typing import List, Sequence, Tuple

import numpy as np

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _ticks_linear(lo: float, hi: float):
    """At most 5 ticks at multiples of 1, 2 or 5 times a power of ten, for lo < hi."""
    span = hi - lo
    step = 10.0 ** math.floor(math.log10(span / 5))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if span / (step * mult) <= 5:
            step *= mult
            break
    first = math.ceil(lo / step) * step
    ticks = []
    v = first
    while v <= hi + 1e-12 * span:
        ticks.append(v)
        v += step
    return ticks


def _ticks_log(lo: float, hi: float):
    lo_e = math.floor(math.log10(lo))
    hi_e = math.ceil(math.log10(hi))
    return [10.0 ** e for e in range(lo_e, hi_e + 1)]


def line_plot_svg(path: str, series: List[Tuple[Sequence, Sequence, str]],
                  xlabel: str = "", ylabel: str = "", title: str = "",
                  logx: bool = False, logy: bool = False) -> str:
    """Write a 720 x 480 polyline plot; series is a list of (x, y, label)
    triples.

    Nonpositive values are dropped on log axes. Returns the path.
    """
    width, height = 720, 480
    ml, mr, mt, mb = 70, 20, 34, 50
    pw, ph = width - ml - mr, height - mt - mb

    cleaned = []
    for x, y, label in series:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        keep = np.isfinite(x) & np.isfinite(y)
        if logx:
            keep &= x > 0
        if logy:
            keep &= y > 0
        if np.any(keep):
            cleaned.append((x[keep], y[keep], label))
    if not cleaned:
        cleaned = [(np.array([1.0]), np.array([1.0]), "(no data)")]

    xs = np.concatenate([c[0] for c in cleaned])
    ys = np.concatenate([c[1] for c in cleaned])
    x_lo, x_hi = float(np.min(xs)), float(np.max(xs))
    y_lo, y_hi = float(np.min(ys)), float(np.max(ys))
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 0.1 * abs(y_lo) + 1e-12

    def sx(v):
        if logx:
            return ml + pw * (math.log10(v) - math.log10(x_lo)) / (
                math.log10(x_hi) - math.log10(x_lo))
        return ml + pw * (v - x_lo) / (x_hi - x_lo)

    def sy(v):
        if logy:
            f = (math.log10(v) - math.log10(y_lo)) / (math.log10(y_hi) - math.log10(y_lo))
        else:
            f = (v - y_lo) / (y_hi - y_lo)
        return mt + ph * (1.0 - f)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" '
        f'stroke="#333" stroke-width="1"/>',
    ]
    if title:
        parts.append(f'<text x="{width / 2}" y="20" text-anchor="middle" '
                     f'font-size="14" font-family="sans-serif">{title}</text>')

    x_ticks = _ticks_log(x_lo, x_hi) if logx else _ticks_linear(x_lo, x_hi)
    y_ticks = _ticks_log(y_lo, y_hi) if logy else _ticks_linear(y_lo, y_hi)
    for v in x_ticks:
        if not x_lo <= v <= x_hi:
            continue
        px = sx(v)
        parts.append(f'<line x1="{px:.1f}" y1="{mt + ph}" x2="{px:.1f}" '
                     f'y2="{mt + ph + 5}" stroke="#333"/>')
        parts.append(f'<text x="{px:.1f}" y="{mt + ph + 18}" text-anchor="middle" '
                     f'font-size="11" font-family="sans-serif">{v:g}</text>')
    for v in y_ticks:
        if not y_lo <= v <= y_hi:
            continue
        py = sy(v)
        parts.append(f'<line x1="{ml - 5}" y1="{py:.1f}" x2="{ml}" y2="{py:.1f}" '
                     f'stroke="#333"/>')
        parts.append(f'<text x="{ml - 8}" y="{py + 4:.1f}" text-anchor="end" '
                     f'font-size="11" font-family="sans-serif">{v:g}</text>')
    if xlabel:
        parts.append(f'<text x="{ml + pw / 2}" y="{height - 12}" text-anchor="middle" '
                     f'font-size="12" font-family="sans-serif">{xlabel}</text>')
    if ylabel:
        parts.append(f'<text x="16" y="{mt + ph / 2}" text-anchor="middle" '
                     f'font-size="12" font-family="sans-serif" '
                     f'transform="rotate(-90 16 {mt + ph / 2})">{ylabel}</text>')

    for k, (x, y, label) in enumerate(cleaned):
        color = PALETTE[k % len(PALETTE)]
        pts = " ".join(f"{sx(xv):.2f},{sy(yv):.2f}" for xv, yv in zip(x, y))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        ly = mt + 16 + 16 * k
        parts.append(f'<line x1="{ml + pw - 150}" y1="{ly - 4}" x2="{ml + pw - 126}" '
                     f'y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{ml + pw - 120}" y="{ly}" font-size="11" '
                     f'font-family="sans-serif">{label}</text>')
    parts.append("</svg>")
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")
    return path
