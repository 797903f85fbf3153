"""CSV trace persistence and JSON summaries.

The trace schema is one row per recorded step:

    step,f_1..f_m,w_1..w_m,grad_norm,residual,msq,lambda_min_est,pu_gap

Missing quantities are written as empty fields.  Floats are written with
``repr`` so a read-back is bit-identical.  The writer and the reader convert
whole columns per chunk of ``_CHUNK_ROWS`` rows, and the bytes are those of
per-value ``repr`` cells (``plotting`` likewise formats each point with
``.2f``); ``tests/test_golden_traces.py`` pins traces and plots.
"""

import csv
import dataclasses
import itertools
import json
from dataclasses import dataclass

import numpy as np

from .driver import RunTrace


_CHUNK_ROWS = 512  # rows held as strings at once, converted column by column
_OPTIONAL = ("grad_norm", "residual", "msq", "lambda_min_est", "pu_gap")


def _fmt_column(values: list) -> list:
    """Cells of an optional column: each float's repr, empty for None."""
    if values.count(None) == len(values):
        return [""] * len(values)
    return ["" if v is None else repr(float(v)) for v in values]


def trace_header(m: int) -> list[str]:
    return (
        ["step"]
        + [f"f_{i + 1}" for i in range(m)]
        + [f"w_{i + 1}" for i in range(m)]
        + list(_OPTIONAL)
    )


def write_trace_csv(trace: RunTrace, path) -> None:
    with open(path, "w", newline="") as fh:
        # No field ever needs quoting, so these are csv.writer's bytes.
        fh.write(",".join(trace_header(trace.m)) + "\r\n")
        for start in range(0, len(trace.records), _CHUNK_ROWS):
            chunk = trace.records[start : start + _CHUNK_ROWS]
            columns = [
                map(str, [r.step for r in chunk]),
                # tolist() yields Python floats, so repr matches _fmt_column.
                *(map(repr, col) for col in np.stack([r.f for r in chunk]).T.tolist()),
                *(map(repr, col) for col in np.stack([r.w for r in chunk]).T.tolist()),
                *(_fmt_column([getattr(r, name) for r in chunk]) for name in _OPTIONAL),
            ]
            fh.writelines([",".join(row) + "\r\n" for row in zip(*columns)])


@dataclass
class LoadedTrace:
    """A trace read back from CSV; mirrors the recorded columns."""

    steps: list
    f: np.ndarray
    w: np.ndarray
    grad_norm: list
    residual: list
    msq: list
    lambda_min_est: list
    pu_gap: list

    @property
    def m(self) -> int:
        return self.f.shape[1]

    def residuals(self):
        return [
            (s, r) for s, r in zip(self.steps, self.residual) if r is not None
        ]


def _column(cells) -> list:
    """Floats from one column's cells; None where a cell is empty."""
    empty = cells.count("")
    if not empty:
        return list(map(float, cells))
    if empty == len(cells):
        return [None] * empty
    return [None if c == "" else float(c) for c in cells]


def read_trace_csv(path) -> LoadedTrace:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if not header or header[0] != "step":
            raise ValueError(f"{path} is not a trace file (header {header!r})")
        m = sum(1 for name in header if name.startswith("f_"))
        expected = trace_header(m)
        if header != expected:
            raise ValueError(f"unexpected trace header {header!r}")
        width = len(header)
        steps, tails = [], [[] for _ in range(5)]
        blocks = [np.empty((2 * m, 0))]  # f and w columns, (2m, rows) per chunk
        while rows := list(itertools.islice(reader, _CHUNK_ROWS)):
            if any(len(row) != width for row in rows):
                raise ValueError(f"a row of {path} does not have {width} fields")
            step_cells, *cells = zip(*rows)
            steps += map(int, step_cells)
            block = np.array([_column(c) for c in cells[: 2 * m]], dtype=np.float64)
            blocks.append(block.reshape(2 * m, len(rows)))
            for col, c in zip(tails, cells[2 * m :]):
                col += _column(c)
    fw = np.concatenate(blocks, axis=1)
    f, w = np.ascontiguousarray(fw[:m].T), np.ascontiguousarray(fw[m:].T)
    return LoadedTrace(steps, f, w, *tails)  # fields in the CSV's column order


def _jsonable(obj):
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj if np.isfinite(obj) else repr(obj)
    if isinstance(obj, (np.floating, np.integer)):
        return _jsonable(obj.item())
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if dataclasses.is_dataclass(obj):
        return {
            f.name: _jsonable(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    return str(obj)


def summary_dict(trace: RunTrace, config: dict, fitted_rate=None, verdicts=None) -> dict:
    """The run's summary; ``config`` is the echo of its settings, the config
    document that ``amoo run`` reads (``cli.config_document``)."""
    final = trace.final() if trace.records else None
    return {
        "schema_version": 1,
        "config": config,
        "wall_time": trace.wall_time,
        "error": trace.error,
        "num_records": len(trace.records),
        "final": _jsonable(final),
        "fitted_rate": fitted_rate,
        "verdicts": verdicts or {},
    }


def write_summary_json(summary: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2, default=_jsonable)
        fh.write("\n")
