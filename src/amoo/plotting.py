"""Self-contained SVG convergence plots (no plotting dependency).

Two panels: residual and mean-squared matching error on a log scale, and
the weight evolution.  Output is plain SVG text.
"""

import math

import numpy as np

_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]

_PANEL_W = 420
_PANEL_H = 300
_MARGIN = 50
_CHUNK_POINTS = 512  # points held as strings at once, formatted together


def _polyline(xs, ys, color: str, label: str) -> str:
    point, c = "{:.2f},{:.2f}".format, _CHUNK_POINTS
    pts = " ".join(
        " ".join(map(point, xs[i : i + c].tolist(), ys[i : i + c].tolist()))
        for i in range(0, len(xs), c)
    )
    return (
        f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
        f'points="{pts}"><title>{label}</title></polyline>'
    )


def _xs(steps, x0: float):
    lo, hi = min(steps), max(steps)
    span = max(hi - lo, 1)
    return x0 + (np.asarray(steps) - lo) / span * (_PANEL_W - 2 * _MARGIN)


def _log_ys(series) -> list:
    """Each series' y on one log scale shared by all of them."""
    clipped = np.maximum(np.concatenate(series), 1e-300).tolist()
    lo, hi = math.log10(min(clipped)), math.log10(max(clipped))
    if hi - lo < 1e-12:
        lo, hi = lo - 1.0, hi + 1.0
    # math.log10, not np.log10, whose last bit may differ.
    logs = np.array(list(map(math.log10, clipped)))
    ys = _MARGIN + (hi - logs) / (hi - lo) * (_PANEL_H - 2 * _MARGIN)
    return np.split(ys, np.cumsum([len(vals) for vals in series[:-1]]))


def _linear_ys(w):
    """y of each weight column on a linear scale spanning [0, 1] and w; its
    ends are Python's min and max over w, NaN only if w's first value is."""
    if math.isnan(w[0, 0]):
        lo = hi = w[0, 0]
    else:
        lo, hi = min(np.nanmin(w), 0.0), max(np.nanmax(w), 1.0)
    span = max(hi - lo, 1e-12)
    return _MARGIN + (hi - w.T) / span * (_PANEL_H - 2 * _MARGIN)


def _panel_frame(x0: float, title: str) -> str:
    x1 = x0 + _PANEL_W - 2 * _MARGIN
    y0, y1 = _MARGIN, _PANEL_H - _MARGIN
    return (
        f'<rect x="{x0}" y="{y0}" width="{x1 - x0}" height="{y1 - y0}" '
        f'fill="none" stroke="#888"/>'
        f'<text x="{x0}" y="{y0 - 10}" font-size="13" '
        f'font-family="sans-serif">{title}</text>'
    )


@np.errstate(all="ignore")  # inf and NaN make NaN points, silently as floats do
def trace_svg(trace) -> str:
    """Render a loaded or in-memory trace as an SVG document.

    The left panel shows residual (and mean-squared matching error when
    present) on a log scale; the right panel shows every weight trajectory.
    """
    if hasattr(trace, "records"):  # in-memory RunTrace
        steps = [r.step for r in trace.records]
        residual = [r.residual for r in trace.records]
        msq = [r.msq for r in trace.records]
        weights = np.array([r.w for r in trace.records])
    else:  # LoadedTrace
        steps = trace.steps
        residual = trace.residual
        msq = trace.msq
        weights = trace.w  # one row per record
    if not steps:
        raise ValueError("cannot plot an empty trace")

    width = 2 * _PANEL_W
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{_PANEL_H}" viewBox="0 0 {width} {_PANEL_H}">',
        f'<rect width="{width}" height="{_PANEL_H}" fill="white"/>',
    ]

    # Left panel: convergence metrics, log scale, drawn where they are present.
    xs = _xs(steps, _MARGIN)
    series = []
    for label, vals, color in (("residual", residual, _COLORS[0]), ("msq", msq, _COLORS[1])):
        present = np.array([v is not None for v in vals])
        if present.any():
            series.append((label, xs[present], [v for v in vals if v is not None], color))
    parts.append(_panel_frame(_MARGIN, "convergence (log scale)"))
    if series:
        ys = _log_ys([vals for _, _, vals, _ in series])
        for (label, x, _, color), y in zip(series, ys):
            parts.append(_polyline(x, y, color, label))

    # Right panel: weight evolution, linear scale.
    x_right = _PANEL_W + _MARGIN
    xs = _xs(steps, x_right)
    parts.append(_panel_frame(x_right, "weights"))
    if weights.shape[1]:
        for i, y in enumerate(_linear_ys(weights)):
            parts.append(_polyline(xs, y, _COLORS[i % len(_COLORS)], f"w_{i + 1}"))

    parts.append("</svg>")
    return "\n".join(parts)


def write_trace_svg(trace, path) -> None:
    with open(path, "w") as fh:
        fh.write(trace_svg(trace))
        fh.write("\n")
