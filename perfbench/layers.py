"""Layer boundaries of ``amoo`` and the per-layer metrics computed from spans.

Each module of ``src/amoo`` is a layer.  ``bindings`` lists the public
functions the traced run wraps, at every binding a caller actually uses:
the ``from ... import`` names in ``driver``, ``weighting``, ``analysis``
and ``cli`` as well as the defining module, and the methods of
``ObjectiveSet`` and ``DiagHessianTracker``.  ``layer_metrics`` turns the
spans of one traced pass into the metrics listed in ``PER_LAYER``.
"""

import amoo.analysis
import amoo.cli
import amoo.core
import amoo.driver
import amoo.hessians
import amoo.linalg
import amoo.plotting
import amoo.problems
import amoo.traceio
import amoo.weighting

from tracing import enclosing, file_bytes, outermost, self_times

ANALYSIS_FNS = (
    "fit_rate",
    "theorem_bound_check",
    "weyl_degradation_suite",
    "recurrence_simulate_and_bound",
)
CLI_FNS = ("cmd_run", "cmd_analyze", "cmd_verify")


def _camoo_info(args, kwargs, result):
    return {"iterations": result.iterations, "converged": result.converged}


def _gap_info(args, kwargs, result):
    return {"gap": result.gap}


def _run_info(args, kwargs, result):
    return {"iterates": result.final().step + 1 if result.records else 0}


def bindings() -> list:
    """(owner, attribute, span name, inspect hook) for every wrapped binding."""
    a, c, d, w = amoo.analysis, amoo.core, amoo.driver, amoo.weighting
    out = []

    def add(name, owners, attr, inspect=None):
        out.extend((owner, attr, name, inspect) for owner in owners)

    add("linalg.jacobi_eigh", [amoo.linalg], "jacobi_eigh")
    add("linalg.spectral_norm", [amoo.linalg, w, a], "spectral_norm")
    add("linalg.check_symmetric", [amoo.linalg, w], "check_symmetric")
    add("weighting.solve_camoo_exact", [w, d], "solve_camoo_exact", _camoo_info)
    add("weighting.pamoo_weights", [w, d], "pamoo_weights")
    add("weighting.pamoo_context", [w, d], "pamoo_context")
    add("weighting.solve_bilinear_pu", [w, d], "solve_bilinear_pu", _gap_info)
    add("core.values", [c.ObjectiveSet], "values")
    add("core.gradients", [c.ObjectiveSet], "gradients")
    add("core.hessians", [c.ObjectiveSet], "hessians")
    add("core.weighted_gradient", [c, d], "weighted_gradient")
    add("hessians.tracker_update", [amoo.hessians.DiagHessianTracker], "update")
    add("problems.build", [amoo.problems], "build")
    add("driver.run", [d], "run", _run_info)
    add("driver.inner_step", [d], "step_gd")
    add("driver.inner_step", [d], "step_adam")
    add("traceio.write_trace_csv", [amoo.traceio], "write_trace_csv", file_bytes)
    add("traceio.read_trace_csv", [amoo.traceio], "read_trace_csv")
    add("traceio.write_summary_json", [amoo.traceio], "write_summary_json")
    add(
        "plotting.write_trace_svg", [amoo.plotting, amoo.cli], "write_trace_svg", file_bytes
    )
    for fn in ANALYSIS_FNS:
        add(f"analysis.{fn}", [a], fn)
    for fn in CLI_FNS:
        add(f"cli.{fn}", [amoo.cli], fn)
    return out


# Per-layer metrics with their units, in report order.
PER_LAYER = [
    ("linalg.jacobi_eigh.calls", "count"),
    ("linalg.jacobi_eigh.s", "s"),
    ("linalg.spectral_norm.calls", "count"),
    ("linalg.spectral_norm.s", "s"),
    ("linalg.check_symmetric.s", "s"),
    ("weighting.solve_camoo_exact.calls", "count"),
    ("weighting.solve_camoo_exact.s", "s"),
    ("weighting.solve_camoo_exact.iterations_mean", "count"),
    ("weighting.solve_camoo_exact.converged_frac", "ratio"),
    ("weighting.pamoo_weights.calls", "count"),
    ("weighting.pamoo_weights.s", "s"),
    ("weighting.pamoo_context.s", "s"),
    ("weighting.solve_bilinear_pu.calls", "count"),
    ("weighting.solve_bilinear_pu.s", "s"),
    ("weighting.solve_bilinear_pu.gap_max", "payoff"),
    ("core.values.calls", "count"),
    ("core.values.s", "s"),
    ("core.gradients.calls", "count"),
    ("core.gradients.s", "s"),
    ("core.gradients.per_step", "1/step"),
    ("core.hessians.s", "s"),
    ("core.weighted_gradient.s", "s"),
    ("hessians.tracker_update.calls", "count"),
    ("hessians.tracker_update.s", "s"),
    ("problems.build.calls", "count"),
    ("problems.build.s", "s"),
    ("problems.build.per_run", "1/run"),
    ("driver.run.calls", "count"),
    ("driver.run.s", "s"),
    ("driver.run.self_s", "s"),
    ("driver.inner_step.s", "s"),
    ("traceio.write_trace_csv.s", "s"),
    ("traceio.write_trace_csv.bytes", "B"),
    ("traceio.read_trace_csv.s", "s"),
    ("traceio.write_summary_json.s", "s"),
    ("plotting.write_trace_svg.s", "s"),
    ("plotting.write_trace_svg.bytes", "B"),
    *((f"analysis.{fn}.s", "s") for fn in ANALYSIS_FNS),
    *((f"cli.{fn}.s", "s") for fn in CLI_FNS),
    ("trace.overhead_s", "s"),
]


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced pass (all but ``trace.overhead_s``).

    ``calls`` and ``s`` count a recursive call once, at its outermost span.
    A layer with no calls reports 0 for every metric, including its ratios.
    ``core.gradients.per_step`` is the largest, over the pass's descent
    runs, of gradient evaluations per iterate.  ``problems.build.per_run``
    is builds per ``driver.run`` call.
    """
    outer = outermost(spans)
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        if outer[i]:
            by_name.setdefault(s.name, []).append(i)

    def calls(name):
        return len(by_name.get(name, []))

    def seconds(name):
        return sum(spans[i].duration for i in by_name.get(name, []))

    def infos(name, key):
        return [spans[i].info[key] for i in by_name.get(name, []) if spans[i].info]

    def mean(values):
        return sum(values) / len(values) if values else 0.0

    out = {}
    for name, unit in PER_LAYER:
        layer, _, stat = name.rpartition(".")
        if stat == "calls":
            out[name] = calls(layer)
        elif stat == "s":
            out[name] = seconds(layer)
        elif stat == "bytes":
            out[name] = sum(infos(layer, "bytes"))

    camoo = "weighting.solve_camoo_exact"
    out[f"{camoo}.iterations_mean"] = mean(infos(camoo, "iterations"))
    out[f"{camoo}.converged_frac"] = mean([float(c) for c in infos(camoo, "converged")])
    out["weighting.solve_bilinear_pu.gap_max"] = max(
        infos("weighting.solve_bilinear_pu", "gap"), default=0.0
    )
    runs = by_name.get("driver.run", [])
    out["driver.run.self_s"] = sum(selfs[i] for i in runs)
    out["problems.build.per_run"] = calls("problems.build") / len(runs) if runs else 0.0

    in_run = enclosing(spans, "driver.run")
    grads_per_run = {i: 0 for i in runs}
    for i, s in enumerate(spans):
        if s.name == "core.gradients" and outer[i] and in_run[i] in grads_per_run:
            grads_per_run[in_run[i]] += 1
    out["core.gradients.per_step"] = max(
        (
            grads_per_run[i] / spans[i].info["iterates"]
            for i in runs
            if spans[i].info and spans[i].info["iterates"]
        ),
        default=0.0,
    )
    return out
