"""Run traces built from given columns, for the tests that need a trace no
run records."""

import numpy as np

from amoo.driver import RunTrace

QUANTITIES = ("grad_norm", "residual", "msq", "lambda_min_est", "pu_gap", "mnorm")


def column_trace(steps, f, w, **columns) -> RunTrace:
    """The trace of ``steps`` with the (rows, m) ``f`` and ``w``; each
    quantity that ``columns`` does not give is None on every row."""
    steps = list(steps)
    return RunTrace(
        steps,
        np.asarray(f, dtype=np.float64),
        np.asarray(w, dtype=np.float64),
        **{q: list(columns.get(q, [None] * len(steps))) for q in QUANTITIES},
        config=None,
    )
