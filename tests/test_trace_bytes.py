"""The trace writer and the SVG renderer convert whole columns per chunk of
rows; here they must give the bytes of the row-by-row ``csv.writer`` writer
and the per-point renderer they replaced, kept below as references."""

import csv
import math
from types import SimpleNamespace

import numpy as np
import pytest

from amoo import plotting, traceio
from amoo.driver import IterateRecord, RunTrace
from amoo.plotting import trace_svg
from amoo.traceio import LoadedTrace

C = traceio._CHUNK_ROWS
ROWS = [0, 1, C - 1, C, C + 1, 2 * C + 1]
OPTIONAL = ("grad_norm", "residual", "msq", "lambda_min_est", "pu_gap")
SPECIAL = [-0.0, 5e-324, 1e308, math.inf]


def reference_write_trace_csv(trace, path):
    def fmt(value):
        return "" if value is None else repr(float(value))

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(traceio.trace_header(trace.m))
        for rec in trace.records:
            writer.writerow(
                [str(rec.step), *map(repr, rec.f.tolist()), *map(repr, rec.w.tolist())]
                + [fmt(getattr(rec, name)) for name in OPTIONAL]
            )


def reference_trace_svg(trace) -> str:
    W, H, M, colors = plotting._PANEL_W, plotting._PANEL_H, plotting._MARGIN, plotting._COLORS

    def polyline(points, color, label):
        pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in points)
        return (
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{pts}"><title>{label}</title></polyline>'
        )

    def scale_x(steps, x0):
        lo, hi = min(steps), max(steps)
        span = max(hi - lo, 1)
        return lambda s: x0 + (s - lo) / span * (W - 2 * M)

    def scale_log_y(values):
        clipped = [max(v, 1e-300) for v in values]
        lo, hi = math.log10(min(clipped)), math.log10(max(clipped))
        if hi - lo < 1e-12:
            lo, hi = lo - 1.0, hi + 1.0
        span = hi - lo
        return lambda v: M + (hi - math.log10(max(v, 1e-300))) / span * (H - 2 * M)

    def scale_linear_y(values):
        lo, hi = min(values + [0.0]), max(values + [1.0])
        span = max(hi - lo, 1e-12)
        return lambda v: M + (hi - v) / span * (H - 2 * M)

    if hasattr(trace, "records"):
        steps = [r.step for r in trace.records]
        residual = [r.residual for r in trace.records]
        msq = [r.msq for r in trace.records]
        weights = [list(col) for col in zip(*(r.w.tolist() for r in trace.records))]
    else:
        steps, residual, msq = list(trace.steps), list(trace.residual), list(trace.msq)
        weights = trace.w.T.tolist()
    if not steps:
        raise ValueError("cannot plot an empty trace")
    width = 2 * W
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{H}" viewBox="0 0 {width} {H}">',
        f'<rect width="{width}" height="{H}" fill="white"/>',
    ]
    x_of = scale_x(steps, M)
    series = []
    if any(v is not None for v in residual):
        series.append(("residual", residual, colors[0]))
    if any(v is not None for v in msq):
        series.append(("msq", msq, colors[1]))
    parts.append(plotting._panel_frame(M, "convergence (log scale)"))
    if series:
        y_of = scale_log_y([v for _, vals, _ in series for v in vals if v is not None])
        for label, vals, color in series:
            pts = ((x_of(s), y_of(v)) for s, v in zip(steps, vals) if v is not None)
            parts.append(polyline(pts, color, label))
    x_of_r = scale_x(steps, W + M)
    parts.append(plotting._panel_frame(W + M, "weights"))
    if weights:
        y_of_w = scale_linear_y([w for col in weights for w in col])
        for i, col in enumerate(weights):
            pts = ((x_of_r(s), y_of_w(v)) for s, v in zip(steps, col))
            parts.append(polyline(pts, colors[i % len(colors)], f"w_{i + 1}"))
    parts.append("</svg>")
    return "\n".join(parts)


def values(rng, shape, special=SPECIAL):
    """Floats of every magnitude, one in ten replaced by a special value."""
    v = rng.normal(size=shape) * 10.0 ** rng.integers(-300, 300, shape)
    hit = rng.random(shape) < 0.1
    v[hit] = rng.choice(special, size=hit.sum())
    return v


def random_trace(seed, rows, m, optional, weights=None):
    """Records with increasing steps.  ``optional`` is "empty", "partial" or
    "full"; when partial, residual is empty through the first chunk."""
    rng = np.random.default_rng([seed, rows, m])
    f = values(rng, (rows, m))
    w = values(rng, (rows, m)) if weights is None else weights(rng, (rows, m))
    extra = np.abs(values(rng, (rows, len(OPTIONAL))))
    present = {
        "empty": np.zeros((rows, len(OPTIONAL)), bool),
        "partial": rng.random((rows, len(OPTIONAL))) < 0.5,
        "full": np.ones((rows, len(OPTIONAL)), bool),
    }[optional]
    if optional == "partial":
        present[:C, 1], present[C:, 1] = False, True
    steps = np.cumsum(rng.integers(1, 4, rows)) - 1
    records = [
        IterateRecord(
            step=int(steps[k]),
            f=f[k],
            w=w[k],
            **{n: float(extra[k, j]) if present[k, j] else None for j, n in enumerate(OPTIONAL)},
        )
        for k in range(rows)
    ]
    # With no records the header takes m from the problem.
    problem = SimpleNamespace(objectives=SimpleNamespace(m=m))
    return RunTrace(records=records, config=None, problem=problem)


def unit_weights(rng, shape):
    """Weights in [0, 1), with -0.0 and 5e-324 among them."""
    return values(rng, shape, special=[-0.0, 5e-324]).clip(-0.0, None) % 1.0


def loaded(trace) -> LoadedTrace:
    recs = trace.records
    return LoadedTrace(
        [r.step for r in recs],
        np.array([r.f for r in recs]),
        np.array([r.w for r in recs]),
        *([getattr(r, n) for r in recs] for n in OPTIONAL),
    )


@pytest.mark.parametrize("optional", ["empty", "partial", "full"])
@pytest.mark.parametrize("rows", ROWS)
def test_writer_matches_row_by_row_csv_writer(tmp_path, rows, optional):
    for m in range(1, 8):
        trace = random_trace(0, rows, m, optional)
        traceio.write_trace_csv(trace, tmp_path / "t.csv")
        reference_write_trace_csv(trace, tmp_path / "ref.csv")
        assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("optional", ["empty", "partial", "full"])
@pytest.mark.parametrize("rows", ROWS[1:])
def test_renderer_matches_per_point_renderer(rows, optional):
    for m in range(1, 8):
        for weights in (unit_weights, None):  # None: special values as weights too
            trace = random_trace(1, rows, m, optional, weights)
            want = reference_trace_svg(trace)
            assert trace_svg(trace) == want
            assert trace_svg(loaded(trace)) == want


def test_constant_weights_and_one_record():
    for rows in (1, C + 1):
        for m in range(1, 8):
            trace = random_trace(2, rows, m, "full", lambda rng, shape: np.full(shape, 1 / m))
            assert trace_svg(trace) == reference_trace_svg(trace)


@pytest.mark.parametrize("where", [(0, 0), (0, 1), (C, 0)])
def test_nan_weights_render_as_before(where):
    # Python's min and max skip a NaN unless it comes first.
    trace = random_trace(3, C + 1, 3, "partial", unit_weights)
    trace.records[where[0]].w[where[1]] = math.nan
    assert trace_svg(trace) == reference_trace_svg(trace)
    assert trace_svg(loaded(trace)) == reference_trace_svg(trace)


def test_empty_trace_raises_in_both():
    for render in (trace_svg, reference_trace_svg):
        with pytest.raises(ValueError):
            render(RunTrace(records=[], config=None))


@pytest.mark.parametrize("rows", [1, 2 * C + 1])
def test_read_back_trace_renders_as_its_original(tmp_path, rows):
    trace = random_trace(4, rows, 3, "partial", unit_weights)
    traceio.write_trace_csv(trace, tmp_path / "t.csv")
    assert trace_svg(traceio.read_trace_csv(tmp_path / "t.csv")) == trace_svg(trace)
