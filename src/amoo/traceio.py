"""CSV trace persistence and JSON summaries.

The trace schema is one row per recorded step:

    step,f_1..f_m,w_1..w_m,grad_norm,residual,msq,lambda_min_est,pu_gap

Missing quantities are written as empty fields.  Floats are written with
``repr`` so a read-back is bit-identical.  The writer and the reader convert
whole columns per chunk of ``_CHUNK_ROWS`` rows, and the bytes are those of
per-value ``repr`` cells (``plotting`` likewise formats each point with
``.2f``), though a column of one value is formatted, or read, once per chunk;
``tests/test_golden_traces.py`` pins traces and plots.
"""

import csv
import dataclasses
import itertools
import json
import math
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


def _repr_columns(block) -> list:
    """repr cells of each column of a (rows, k) float64 block, once for a
    column whose values all have the same bits (-0.0 is not 0.0)."""
    same = (block.view(np.uint64) == block.view(np.uint64)[0]).all(axis=0)
    cols = zip(block.T.tolist(), same)
    return [[repr(c[0])] * len(c) if s else map(repr, c) for c, s in cols]


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
                *_repr_columns(np.stack([r.f for r in chunk])),
                *_repr_columns(np.stack([r.w for r in chunk])),
                *(_fmt_column([getattr(r, name) for r in chunk]) for name in _OPTIONAL),
            ]
            fh.write("\r\n".join(map(",".join, zip(*columns))) + "\r\n")


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
    if cells.count(cells[0]) == len(cells):  # one cell string, converted once
        return [None if cells[0] == "" else float(cells[0])] * len(cells)
    if "" not in cells:
        return list(map(float, cells))
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


def jsonable(value, keys=None):
    """The JSON value of ``value``: a dataclass becomes an object of the keys
    ``keys(value)`` names (its fields by default), a tuple, list or array a
    list, a dict keeps its keys, and a NaN or infinite float its string
    ("nan", "inf", "-inf"), so ``json.dumps(..., allow_nan=False)`` takes it."""
    if isinstance(value, float):
        return value if math.isfinite(value) else str(value)
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        return [jsonable(v, keys) for v in value]
    if isinstance(value, dict):
        return {k: jsonable(v, keys) for k, v in value.items()}
    if dataclasses.is_dataclass(value):
        names = keys(value) if keys else [f.name for f in dataclasses.fields(value)]
        return {k: jsonable(getattr(value, k), keys) for k in names}
    return value


def to_json(value) -> str:
    """``value`` as strict JSON (see ``jsonable``), indented by two spaces."""
    return json.dumps(jsonable(value), indent=2, allow_nan=False)


def summary_dict(trace: RunTrace, config: dict, fitted_rate, verdicts: dict) -> dict:
    """The run's summary; ``config`` is the echo of its settings, the config
    document that ``amoo run`` reads (``cli.config_document``)."""
    return {
        "schema_version": 1,
        "config": config,
        "wall_time": trace.wall_time,
        "error": trace.error,
        "num_records": len(trace.records),
        "final": trace.final() if trace.records else None,
        "fitted_rate": fitted_rate,
        "verdicts": verdicts,
    }


def write_summary_json(summary: dict, path) -> None:
    with open(path, "w") as fh:
        fh.write(to_json(summary) + "\n")
