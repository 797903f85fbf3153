"""The trace writer and the SVG renderer convert whole columns per chunk of
rows, and format a column whose values all have the same bits once; here
they must give the bytes of the row-by-row ``csv.writer`` writer and the
per-point renderer they replaced, kept below as references."""

import csv
import math

import numpy as np
import pytest

from amoo import plotting, traceio
from amoo.plotting import trace_svg
from traces import column_trace

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
        for i, step in enumerate(trace.steps):
            writer.writerow(
                [str(step), *map(repr, trace.f[i].tolist()), *map(repr, trace.w[i].tolist())]
                + [fmt(getattr(trace, name)[i]) for name in OPTIONAL]
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
    """A trace with increasing steps.  ``optional`` is "empty", "partial" or
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
    columns = {
        n: [float(extra[k, j]) if present[k, j] else None for k in range(rows)]
        for j, n in enumerate(OPTIONAL)
    }
    return column_trace(steps.tolist(), f, w, **columns)


def unit_weights(rng, shape):
    """Weights in [0, 1), with -0.0 and 5e-324 among them."""
    return values(rng, shape, special=[-0.0, 5e-324]).clip(-0.0, None) % 1.0


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
            assert trace_svg(trace) == reference_trace_svg(trace)


def test_constant_weights_and_one_record():
    for rows in (1, C + 1):
        for m in range(1, 8):
            trace = random_trace(2, rows, m, "full", lambda rng, shape: np.full(shape, 1 / m))
            assert trace_svg(trace) == reference_trace_svg(trace)


@pytest.mark.parametrize("where", [(0, 0), (0, 1), (C, 0)])
def test_nan_weights_render_as_before(where):
    # Python's min and max skip a NaN unless it comes first.
    trace = random_trace(3, C + 1, 3, "partial", unit_weights)
    trace.w[where] = math.nan
    assert trace_svg(trace) == reference_trace_svg(trace)


def test_empty_trace_raises_in_both():
    for render in (trace_svg, reference_trace_svg):
        with pytest.raises(ValueError):
            render(column_trace([], np.empty((0, 2)), np.empty((0, 2))))


@pytest.mark.parametrize("rows", [1, 2 * C + 1])
def test_read_back_trace_renders_as_its_original(tmp_path, rows):
    trace = random_trace(4, rows, 3, "partial", unit_weights)
    traceio.write_trace_csv(trace, tmp_path / "t.csv")
    assert trace_svg(traceio.read_trace_csv(tmp_path / "t.csv")) == trace_svg(trace)


def constant_trace(rows, m, first_chunk_only=False):
    """A trace whose f and w columns each hold one value (with 0.0, -0.0 and
    NaN among them) and whose optional columns are empty; with
    ``first_chunk_only``, the columns vary after the first chunk."""
    trace = random_trace(5, rows, m, "empty", unit_weights)
    f = np.array([0.0, -0.0, math.nan, 0.1, 5e-324, -math.inf, 1e308][:m])
    w = np.array([-0.0, 0.0, math.nan, 1 / 3, 0.25, 5e-324, 1.0][:m])
    same = slice(C if first_chunk_only else rows)
    trace.f[same], trace.w[same] = f, w
    return trace


@pytest.mark.parametrize("first_chunk_only", [False, True])
@pytest.mark.parametrize("rows", [1, C, 2 * C + 1])
def test_constant_columns_keep_their_bytes(tmp_path, rows, first_chunk_only):
    for m in range(1, 8):
        trace = constant_trace(rows, m, first_chunk_only)
        traceio.write_trace_csv(trace, tmp_path / "t.csv")
        reference_write_trace_csv(trace, tmp_path / "ref.csv")
        assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        assert trace_svg(trace) == reference_trace_svg(trace)


def test_signed_zero_columns_keep_their_signs(tmp_path):
    # 0.0 == -0.0, but their bits and their cells differ.
    trace = random_trace(6, 2 * C + 1, 2, "full", unit_weights)
    signs = np.random.default_rng(6).random((len(trace.steps), 2)) < 0.5
    trace.f[:], trace.w[:] = np.where(signs, -0.0, 0.0), np.where(signs, 0.0, -0.0)
    traceio.write_trace_csv(trace, tmp_path / "t.csv")
    reference_write_trace_csv(trace, tmp_path / "ref.csv")
    text = (tmp_path / "t.csv").read_text()
    assert text == (tmp_path / "ref.csv").read_text() and ",-0.0," in text and ",0.0," in text
    back = traceio.read_trace_csv(tmp_path / "t.csv")
    assert back.f.tobytes() == trace.f.tobytes()
    assert back.w.tobytes() == trace.w.tobytes()
    # The SVG's y of a weight is never -0.0, so the points are checked directly.
    xs = np.linspace(50.0, 370.0, 2 * C + 1)
    at = np.ones(len(xs), dtype=bool)
    for ys, signs_drawn in (
        (np.where(signs[:, 0], -0.0, 0.0), (True, True)),
        (np.full(2 * C + 1, -0.0), (True, False)),
        (np.zeros(2 * C + 1), (False, True)),
    ):
        (line,) = plotting._polylines(xs, [(at, ys, "c", "l")])
        want = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs.tolist(), ys.tolist()))
        assert f'points="{want}"' in line
        assert (",-0.00" in line, ",0.00" in line) == signs_drawn


def test_all_nan_weight_column(tmp_path):
    trace = random_trace(7, C + 1, 3, "partial", unit_weights)
    trace.w[:, 1] = math.nan
    traceio.write_trace_csv(trace, tmp_path / "t.csv")
    reference_write_trace_csv(trace, tmp_path / "ref.csv")
    assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    back = traceio.read_trace_csv(tmp_path / "t.csv")
    assert np.isnan(back.w[:, 1]).all()
    assert trace_svg(trace) == trace_svg(back) == reference_trace_svg(trace)


@pytest.mark.parametrize("rows", [1, C + 1, 2 * C + 1])
def test_reader_converts_constant_string_columns(tmp_path, rows):
    trace = constant_trace(rows, 7)
    trace.grad_norm, trace.residual = [2.5] * rows, [-0.0] * rows
    trace.msq = [None if k < C else 1e-300 for k in range(rows)]
    traceio.write_trace_csv(trace, tmp_path / "t.csv")
    back = traceio.read_trace_csv(tmp_path / "t.csv")
    assert back.f.tobytes() == trace.f.tobytes()
    assert back.w.tobytes() == trace.w.tobytes()
    for name in OPTIONAL:
        got, want = getattr(back, name), getattr(trace, name)
        assert [None if v is None else np.float64(v).tobytes() for v in got] == [
            None if v is None else np.float64(v).tobytes() for v in want
        ]


def test_writer_reprs_each_constant_column_once_per_chunk(tmp_path, monkeypatch):
    calls = []

    def counted(value):
        calls.append(value)
        return builtin_repr(value)

    builtin_repr = repr
    monkeypatch.setattr(traceio, "repr", counted, raising=False)
    m, rows = 3, 2 * C + 1  # three chunks
    traceio.write_trace_csv(constant_trace(rows, m), tmp_path / "t.csv")
    assert len(calls) == 3 * 2 * m
    calls.clear()
    traceio.write_trace_csv(constant_trace(rows, m, first_chunk_only=True), tmp_path / "t.csv")
    # The second chunk varies; the first and the one-row third are constant.
    assert len(calls) == 2 * m * (1 + C + 1)
