"""Deterministic SVG rendering of Gibbs traces.

Hand-rolled SVG: identical input produces byte-identical output, which the
reproducibility contract requires (figure libraries embed run-specific
ids). One line per bias coordinate plus a +/- one-standard-deviation band.
"""

from __future__ import annotations

import numpy as np

from .inference import GibbsTrace

_WIDTH, _HEIGHT = 960, 540
_MARGIN = 60.0
_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd",
    "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f",
)


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def render_trace_svg(trace: GibbsTrace) -> str:
    k = trace.group_count
    means = trace.means[:, :k]
    sds = np.sqrt(np.maximum(trace.variances[:k], 0.0))
    n = trace.sweeps
    lo = float(np.min(means - sds))
    hi = float(np.max(means + sds))
    if hi - lo < 1e-12:
        lo, hi = lo - 1.0, hi + 1.0
    pad = 0.05 * (hi - lo)
    lo, hi = lo - pad, hi + pad

    def sx(i: float) -> float:
        if n == 1:
            return _WIDTH / 2.0
        return _MARGIN + (_WIDTH - 2 * _MARGIN) * i / (n - 1)

    def sy(v: float) -> float:
        return _HEIGHT - _MARGIN - (_HEIGHT - 2 * _MARGIN) * (v - lo) / (hi - lo)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<line x1="{_fmt(_MARGIN)}" y1="{_fmt(_HEIGHT - _MARGIN)}" '
        f'x2="{_fmt(_WIDTH - _MARGIN)}" y2="{_fmt(_HEIGHT - _MARGIN)}" stroke="black"/>',
        f'<line x1="{_fmt(_MARGIN)}" y1="{_fmt(_MARGIN)}" '
        f'x2="{_fmt(_MARGIN)}" y2="{_fmt(_HEIGHT - _MARGIN)}" stroke="black"/>',
        f'<text x="{_fmt(_WIDTH / 2)}" y="{_fmt(_HEIGHT - 20)}" font-size="14" '
        f'text-anchor="middle">sweep (0..{n - 1})</text>',
        f'<text x="18" y="{_fmt(_HEIGHT / 2)}" font-size="14" text-anchor="middle" '
        f'transform="rotate(-90 18 {_fmt(_HEIGHT / 2)})">bias mean</text>',
        f'<text x="{_fmt(_MARGIN - 6)}" y="{_fmt(sy(lo) + 4)}" font-size="11" '
        f'text-anchor="end">{_fmt(lo)}</text>',
        f'<text x="{_fmt(_MARGIN - 6)}" y="{_fmt(sy(hi) + 4)}" font-size="11" '
        f'text-anchor="end">{_fmt(hi)}</text>',
    ]
    for g in range(k):
        colour = _PALETTE[g % len(_PALETTE)]
        upper = [(sx(i), sy(means[i, g] + sds[g])) for i in range(n)]
        lower = [(sx(i), sy(means[i, g] - sds[g])) for i in range(n - 1, -1, -1)]
        band = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in upper + lower)
        parts.append(f'<polygon points="{band}" fill="{colour}" opacity="0.12"/>')
        if n == 1:
            parts.append(
                f'<circle cx="{_fmt(sx(0))}" cy="{_fmt(sy(means[0, g]))}" r="4" '
                f'fill="{colour}"/>'
            )
        else:
            pts = " ".join(f"{_fmt(sx(i))},{_fmt(sy(means[i, g]))}" for i in range(n))
            parts.append(
                f'<polyline points="{pts}" fill="none" stroke="{colour}" stroke-width="1.5"/>'
            )
        parts.append(
            f'<text x="{_fmt(_WIDTH - _MARGIN + 8)}" y="{_fmt(_MARGIN + 16 * g)}" '
            f'font-size="12" fill="{colour}">group{g}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
