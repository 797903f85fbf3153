"""The benchmark's layer bindings and configs resolve against this source tree.

``perfbench/layers.py`` wraps named functions on named modules and classes,
and its hooks read named fields off their results; ``perfbench/workloads.py``
builds run configs and problems from named keys and fields.  A source change
that drops or renames one of them would break every benchmark pass; this
catches it in the main suite.
"""

from pathlib import Path

import numpy as np

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_binding_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers

    entries = layers.bindings()
    assert entries
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr} ({name})"
        for owner, attr, name, _ in entries
        if not callable(getattr(owner, attr, None))
    ]
    assert not missing, missing


def test_objective_set_methods_are_class_functions():
    # layers.py wraps these on the class, so each must be a function there,
    # not a per-instance dataclass field that the wrapper would miss.
    import dataclasses
    import inspect

    from amoo.core import ObjectiveSet

    fields = {f.name for f in dataclasses.fields(ObjectiveSet)}
    for name in ("evaluate", "values", "gradients", "hessians"):
        assert inspect.isfunction(vars(ObjectiveSet).get(name)), name
        assert name not in fields, name


def test_pass_contexts_patch_the_driver_and_restore_it(monkeypatch, tmp_path):
    # The mlp_matching pass wraps amoo.driver.solve_bilinear_pu and the
    # analytic_cli pass wraps amoo.driver.run; a name missing from the driver
    # fails here with the AttributeError that would end every pass.
    import amoo.driver

    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    names = ("solve_bilinear_pu", "run")
    original = {name: getattr(amoo.driver, name) for name in names}
    patched = set()
    for name, workload in workloads.WORKLOADS.items():
        with workload(0, tmp_path / name).pass_context():
            patched |= {n for n in names if getattr(amoo.driver, n) is not original[n]}
        assert {n: getattr(amoo.driver, n) for n in names} == original, name
    assert patched == set(names)


def test_camoo_info_reads_both_solvers(monkeypatch):
    # The benchmark's CAMOO hook reads ``iterations`` and ``converged`` off a
    # solve's result; both modes return one ``CamooResult``.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    from amoo.weighting import CamooResult, solve_camoo_diagonal, solve_camoo_exact

    D = np.array([[1.8, 0.2], [0.2, 1.8]])
    for result in (solve_camoo_exact([np.diag(d) for d in D]), solve_camoo_diagonal(D)):
        assert type(result) is CamooResult
        info = layers._camoo_info((), {}, result)
        assert info == {"iterations": result.iterations, "converged": True}
        assert result.iterations >= 1


def test_benchmark_configs_parse_and_their_problems_build(monkeypatch, tmp_path):
    # Every analytic_cli config parses as `amoo run` reads it, and every
    # workload's problems build: a source change that drops a config key or
    # a problem setting that the benchmark uses fails here, not in a pass.
    from amoo import cli

    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    docs = workloads.cli_docs(0)
    assert docs
    for doc in docs.values():
        cli.parse_run_config(doc)
    for name, workload in workloads.WORKLOADS.items():
        bench = workload(0, tmp_path / name)
        bench.setup()
        assert bench.f_star.keys() == bench.problem_specs().keys()


def test_driver_pu_solve_still_takes_the_benchmark_call():
    # perfbench/tests calls amoo.driver.solve_bilinear_pu with a default
    # CamooConfig; that suite is outside the main one.
    from amoo.driver import solve_bilinear_pu
    from amoo.weighting import CamooConfig, max_min_weights

    A = np.array([[1.0, 0.2], [0.3, 2.0]])
    sol = solve_bilinear_pu(A, CamooConfig())
    w, _, q = max_min_weights(A)
    assert sol.w.tobytes() == w.tobytes() and sol.q.tobytes() == q.tobytes()
    assert sol.gap >= 0.0


def test_hutchinson_run_updates_the_tracker_once_per_iterate(monkeypatch):
    # The benchmark times Hutchinson estimates at DiagHessianTracker.update;
    # a driver that estimated the diagonals some other way would leave
    # hessians.tracker_update at 0 without failing a pass.
    from amoo.driver import AdamConfig, RunConfig, WeightingChoice, run
    from amoo.hessians import HutchinsonConfig
    from amoo.problems import ProblemSpec
    from amoo.weighting import CamooConfig

    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    from tracing import Tracer

    cfg = RunConfig(
        problem=ProblemSpec(
            kind="mlp_matching", input_dim=4, hidden=5, output_dim=3,
            dataset_size=6, seed=2,
        ),
        weighting=WeightingChoice(
            kind="camoo",
            camoo=CamooConfig(mode="diagonal-bilinear"),
            hutchinson=HutchinsonConfig(num_samples=2),
        ),
        inner=AdamConfig(step=0.005),
        steps=7,
    )
    tracer = Tracer()
    with tracer.install(layers.bindings()):
        trace = run(cfg)
    metrics = layers.layer_metrics(tracer.spans)
    iterates = trace.final().step + 1
    assert iterates == cfg.steps + 1
    assert metrics["hessians.tracker_update.calls"] == iterates


def test_benchmark_pamoo_iterations_field_is_inert(monkeypatch, tmp_path):
    # The benchmark builds its PAMOO runs with PamooConfig(iterations=30); the
    # config stores no such setting, so it is the default PamooConfig() and
    # the traces are those of the default bit for bit.
    import dataclasses

    from amoo import driver, traceio
    from amoo.weighting import PamooConfig

    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    bench = workloads.MlpMatching(0, tmp_path)
    for variant in workloads.MLP_VARIANTS:
        cfg = dataclasses.replace(
            bench.configs[f"{variant}/pamoo"], steps=60, record_every=1
        )
        assert cfg.weighting.pamoo == PamooConfig(iterations=30) == PamooConfig()
        default = dataclasses.replace(
            cfg, weighting=driver.WeightingChoice(kind="pamoo", pamoo=PamooConfig())
        )
        paths = [tmp_path / f"{variant}-{i}.csv" for i in range(2)]
        for c, path in zip((cfg, default), paths):
            traceio.write_trace_csv(driver.run(c), path)
        assert paths[0].read_bytes() == paths[1].read_bytes(), variant


def test_benchmark_camoo_pu_fields_are_inert(monkeypatch, tmp_path):
    # The benchmark builds its CAMOO runs with pu_iterations=10, pu_tau=0.01,
    # and calls solve_bilinear_pu with a CamooConfig; neither reads them, so
    # traces and solves are those of the defaults bit for bit.
    import dataclasses

    from amoo import driver, traceio
    from amoo.weighting import CamooConfig, solve_bilinear_pu

    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    bench = workloads.MlpMatching(0, tmp_path)
    for variant in workloads.MLP_VARIANTS:
        cfg = dataclasses.replace(
            bench.configs[f"{variant}/camoo"], steps=60, record_every=1
        )
        assert cfg.weighting.camoo == CamooConfig(
            mode="diagonal-bilinear", pu_iterations=10, pu_tau=0.01
        )
        default = dataclasses.replace(
            cfg,
            weighting=dataclasses.replace(
                cfg.weighting, camoo=CamooConfig(mode="diagonal-bilinear")
            ),
        )
        paths = [tmp_path / f"{variant}-{i}.csv" for i in range(2)]
        for c, path in zip((cfg, default), paths):
            traceio.write_trace_csv(driver.run(c), path)
        assert paths[0].read_bytes() == paths[1].read_bytes(), variant

    A = np.random.default_rng(3).uniform(0.0, 3.0, size=(4, 7))
    sols = [
        solve_bilinear_pu(A, cfg)
        for cfg in (
            None,
            CamooConfig(),
            CamooConfig(mode="diagonal-bilinear", pu_iterations=10, pu_tau=0.01),
            CamooConfig(w_min=0.2, pu_iterations=1, pu_tau=-1.0),
        )
    ]
    for sol in sols[1:]:
        for a, b in zip(dataclasses.astuple(sol), dataclasses.astuple(sols[0])):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


def test_check_trace_passes_a_network_and_an_analytic_run(monkeypatch, tmp_path):
    # The benchmark's output check reads final(), the records view and the
    # trace read back from CSV.  The diagonal-CAMOO network run records every
    # optional quantity; the PAMOO run on the quadratic records none of
    # msq, mnorm, lambda_min_est and pu_gap.
    import dataclasses

    from amoo import cli, driver, traceio

    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    network = workloads.MlpMatching(0, tmp_path)
    runs = {
        "network": dataclasses.replace(
            network.configs["selection/camoo"], steps=60, record_every=10
        ),
        "analytic": cli.parse_run_config(workloads.cli_docs(0)["b_pamoo_theory"]),
    }
    assert runs["network"].weighting.camoo.mode == "diagonal-bilinear"
    optional = ("msq", "mnorm", "lambda_min_est", "pu_gap")
    for name, cfg in runs.items():
        trace = driver.run(cfg)
        path = tmp_path / f"{name}.csv"
        traceio.write_trace_csv(trace, path)
        op = workloads.Op(name)
        quality = workloads.check_trace(op, trace, path, np.zeros(trace.m))
        assert not op.failed, op.errors
        assert quality["final_step"] == cfg.steps
        present = {q: None not in getattr(trace, q) for q in optional}
        assert present == dict.fromkeys(optional, name == "network"), name
