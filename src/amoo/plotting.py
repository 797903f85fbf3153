"""Self-contained SVG convergence plots (no plotting dependency).

Two panels: residual and mean-squared matching error on a log scale, and
the weight evolution.  Output is plain SVG text.
"""

import math

_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]

_PANEL_W = 420
_PANEL_H = 300
_MARGIN = 50


def _polyline(points, color: str, label: str) -> str:
    pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in points)
    return (
        f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
        f'points="{pts}"><title>{label}</title></polyline>'
    )


def _scale_x(steps, x0: float):
    lo, hi = min(steps), max(steps)
    span = max(hi - lo, 1)
    return lambda s: x0 + (s - lo) / span * (_PANEL_W - 2 * _MARGIN)


def _scale_log_y(values):
    clipped = [max(v, 1e-300) for v in values]
    lo = math.log10(min(clipped))
    hi = math.log10(max(clipped))
    if hi - lo < 1e-12:
        lo, hi = lo - 1.0, hi + 1.0
    span = hi - lo
    top = _MARGIN
    return lambda v: top + (hi - math.log10(max(v, 1e-300))) / span * (
        _PANEL_H - 2 * _MARGIN
    )


def _scale_linear_y(values):
    lo = min(values + [0.0])
    hi = max(values + [1.0])
    span = max(hi - lo, 1e-12)
    top = _MARGIN
    return lambda v: top + (hi - v) / span * (_PANEL_H - 2 * _MARGIN)


def _panel_frame(x0: float, title: str) -> str:
    x1 = x0 + _PANEL_W - 2 * _MARGIN
    y0, y1 = _MARGIN, _PANEL_H - _MARGIN
    return (
        f'<rect x="{x0}" y="{y0}" width="{x1 - x0}" height="{y1 - y0}" '
        f'fill="none" stroke="#888"/>'
        f'<text x="{x0}" y="{y0 - 10}" font-size="13" '
        f'font-family="sans-serif">{title}</text>'
    )


def trace_svg(trace) -> str:
    """Render a loaded or in-memory trace as an SVG document.

    The left panel shows residual (and mean-squared matching error when
    present) on a log scale; the right panel shows every weight trajectory.
    """
    if hasattr(trace, "records"):  # in-memory RunTrace
        steps = [r.step for r in trace.records]
        residual = [r.residual for r in trace.records]
        msq = [r.msq for r in trace.records]
        weights = [list(col) for col in zip(*(r.w.tolist() for r in trace.records))]
    else:  # LoadedTrace
        steps = list(trace.steps)
        residual = list(trace.residual)
        msq = list(trace.msq)
        weights = trace.w.T.tolist()  # one list per objective
    if not steps:
        raise ValueError("cannot plot an empty trace")

    width = 2 * _PANEL_W
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{_PANEL_H}" viewBox="0 0 {width} {_PANEL_H}">',
        f'<rect width="{width}" height="{_PANEL_H}" fill="white"/>',
    ]

    # Left panel: convergence metrics, log scale.
    x_of = _scale_x(steps, _MARGIN)
    series = []
    if any(v is not None for v in residual):
        series.append(("residual", residual, _COLORS[0]))
    if any(v is not None for v in msq):
        series.append(("msq", msq, _COLORS[1]))
    parts.append(_panel_frame(_MARGIN, "convergence (log scale)"))
    if series:
        all_vals = [v for _, vals, _ in series for v in vals if v is not None]
        y_of = _scale_log_y(all_vals)
        for label, vals, color in series:  # each has a value, by construction
            pts = ((x_of(s), y_of(v)) for s, v in zip(steps, vals) if v is not None)
            parts.append(_polyline(pts, color, label))

    # Right panel: weight evolution, linear scale.
    x_right = _PANEL_W + _MARGIN
    x_of_r = _scale_x(steps, x_right)
    parts.append(_panel_frame(x_right, "weights"))
    if weights:
        y_of_w = _scale_linear_y([w for col in weights for w in col])
        for i, col in enumerate(weights):
            pts = ((x_of_r(s), y_of_w(v)) for s, v in zip(steps, col))
            parts.append(_polyline(pts, _COLORS[i % len(_COLORS)], f"w_{i + 1}"))

    parts.append("</svg>")
    return "\n".join(parts)


def write_trace_svg(trace, path) -> None:
    with open(path, "w") as fh:
        fh.write(trace_svg(trace))
        fh.write("\n")
