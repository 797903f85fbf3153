"""Acceptance gate: one test per headline behavior, printed pass/fail.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Each test enforces its stated wall-clock budget.
"""

import time

import numpy as np
import pytest

from amoo import cli
from amoo.analysis import TheoremParams, theorem_bound_check, weyl_degradation_suite
from amoo.driver import (
    AdamConfig,
    GDConfig,
    RunConfig,
    WeightingChoice,
    run,
    theory_camoo,
    theory_pamoo,
)
from amoo.hessians import HutchinsonConfig, diag_hessian_matrix
from amoo.linalg import min_eigenpair, weighted_hessian
from amoo.problems import ProblemSpec, build
from amoo.weighting import CamooConfig, PamooConfig, max_min_weights
from objective_sets import quadratic


class Criterion:
    """Collects a verdict, prints one line, and enforces the time budget."""

    def __init__(self, number: int, title: str, budget_s: float):
        self.number = number
        self.title = title
        self.budget = budget_s
        self.t0 = time.perf_counter()

    def conclude(self, ok: bool, detail: str = ""):
        elapsed = time.perf_counter() - self.t0
        verdict = "PASS" if ok and elapsed < self.budget else "FAIL"
        suffix = f" ({detail})" if detail else ""
        print(
            f"[criterion {self.number:2d}] {verdict} {self.title}"
            f"{suffix} [{elapsed:.2f}s / {self.budget:.0f}s]"
        )
        assert ok, f"criterion {self.number}: {self.title}{suffix}"
        assert elapsed < self.budget, (
            f"criterion {self.number} exceeded its budget: {elapsed:.2f}s"
        )


def simplex_grid_3(step):
    k = int(round(1.0 / step))
    pts = []
    for i in range(k + 1):
        for j in range(k + 1 - i):
            pts.append((i / k, j / k, (k - i - j) / k))
    return np.array(pts)


def test_criterion_1_specification_speedup():
    c = Criterion(1, "equal weighting beats a single weak objective", 1.0)
    spec = ProblemSpec(kind="specification", delta=0.01)
    ew = run(
        RunConfig(
            problem=spec,
            weighting=WeightingChoice(kind="ew"),
            inner=GDConfig(step=0.25),
            steps=100,
            x0=(1.0, 1.0),
        )
    )
    alone = run(
        RunConfig(
            problem=spec,
            weighting=WeightingChoice(kind="fixed", weights=(1.0, 0.0)),
            inner=GDConfig(step=0.25),
            steps=100,
            x0=(1.0, 1.0),
        )
    )
    r_ew = ew.final().residual
    r_alone = alone.final().residual
    c.conclude(
        r_ew <= 1e-10 and r_alone >= 0.1,
        f"equal-weight residual {r_ew:.2e}, single-objective {r_alone:.2e}",
    )


def test_criterion_2_camoo_selects_strong_objective():
    c = Criterion(2, "curvature weights select the well-conditioned objective", 5.0)
    spec = ProblemSpec(kind="selection", delta=0.1, m=3, n=2)
    problem = build(spec)
    trace = run(
        RunConfig(
            problem=spec,
            weighting=WeightingChoice(kind="camoo"),
            inner=GDConfig(step=0.25),
            steps=50,
            x0=(1.0, 1.0),
            camoo_lr_scale_by_m=False,
        )
    )
    w_final = trace.final().w
    mats = problem.objectives.hessians(np.zeros(2))
    achieved, _ = min_eigenpair(weighted_hessian(mats, w_final))
    stack = np.stack(mats)
    grid = simplex_grid_3(1e-3)
    grid_opt = float(
        np.linalg.eigvalsh(np.einsum("gi,ijk->gjk", grid, stack))[:, 0].max()
    )
    c.conclude(
        w_final[2] >= 0.9 and abs(achieved - grid_opt) <= 1e-2,
        f"weight on strong objective {w_final[2]:.3f}, "
        f"curvature {achieved:.4f} vs grid {grid_opt:.4f}",
    )


def test_criterion_3_local_curvature_weight_flip():
    c = Criterion(3, "weights flip with the sign of the iterate", 1.0)
    trace = run(
        RunConfig(
            problem=ProblemSpec(kind="local_curvature", n=1),
            weighting=WeightingChoice(kind="camoo"),
            inner=GDConfig(step=0.25),
            steps=60,
            x0=(2.0,),
        )
    )
    ok = True
    signs_seen = set()
    for rec in trace.records:
        if rec.residual <= 0.05:
            continue
        # f1 - f2 = 2 (sinh x - x) shares the sign of x.
        sign_x = np.sign(rec.f[0] - rec.f[1])
        signs_seen.add(sign_x)
        ok &= np.sign(rec.w[0] - rec.w[1]) == sign_x
    ok &= signs_seen == {1.0, -1.0}  # passed through the optimum
    c.conclude(ok, f"signs observed {sorted(signs_seen)}")


def test_criterion_4_theorem_rate_bounds():
    c = Criterion(4, "rate envelopes hold under analysis step sizes", 5.0)
    ok = True
    details = []
    for kind, kwargs in [
        ("specification", {"delta": 0.1}),
        ("selection", {"delta": 0.1, "m": 3, "n": 2}),
    ]:
        spec = ProblemSpec(kind=kind, **kwargs)
        built = build(spec)
        m = built.objectives.m

        wc, inner = theory_camoo(built.meta, m)
        trace = run(
            RunConfig(
                problem=spec, weighting=wc, inner=inner, steps=200,
                camoo_lr_scale_by_m=False, x0=tuple(np.ones(built.objectives.dim)),
            )
        )
        tp = TheoremParams(
            beta=built.meta.beta, mu=built.meta.mu_g, m_self=0.0, m=m,
            r0=trace.records[0].residual, which="CAMOO",
        )
        holds_c = theorem_bound_check(trace, tp)

        wc, inner = theory_pamoo()
        trace = run(
            RunConfig(
                problem=spec, weighting=wc, inner=inner, steps=200,
                x0=tuple(np.ones(built.objectives.dim)),
            )
        )
        tp = TheoremParams(
            beta=built.meta.beta, mu=built.meta.mu_l, m_self=0.0, m=m,
            r0=trace.records[0].residual, which="PAMOO",
        )
        holds_p = theorem_bound_check(trace, tp)
        details.append(f"{kind}: curvature {holds_c}, gap-ratio {holds_p}")
        ok &= holds_c and holds_p
    c.conclude(ok, "; ".join(details))


def test_criterion_5_recurrence_lemma_grid():
    c = Criterion(5, "residual recurrences obey their closed-form bounds", 1.0)
    ok, detail = cli._suite_recurrence()  # the 54-point grid `amoo verify` checks
    c.conclude(ok, detail)


def test_criterion_6_diagonal_degradation():
    c = Criterion(6, "diagonal approximation degrades curvature continuously", 10.0)
    report = weyl_degradation_suite(seed=0, trials=100)
    c.conclude(
        report["passes"] == 100, f"{report['passes']}/100 trials"
    )


def test_criterion_7_bilinear_solver():
    c = Criterion(7, "matrix-game solver certifies small duality gaps", 10.0)
    rng = np.random.default_rng(2024)
    worst_gap = 0.0
    for A in rng.uniform(0.0, 3.0, size=(50, 5, 8)):
        w, _, q = max_min_weights(A)
        worst_gap = max(worst_gap, float(np.max(A @ q) - np.min(A.T @ w)))
    worst_value_err = 0.0
    for A in rng.uniform(0.0, 3.0, size=(20, 2, 8)):
        w, _, _ = max_min_weights(A)
        w1 = np.arange(0.0, 1.0 + 5e-5, 1e-4)
        grid_vals = np.min(np.outer(w1, A[0]) + np.outer(1 - w1, A[1]), axis=1)
        value = float(np.min(w @ A))
        worst_value_err = max(worst_value_err, abs(value - grid_vals.max()))
    c.conclude(
        worst_gap <= 1e-3 and worst_value_err <= 1e-3,
        f"max gap {worst_gap:.1e}, max value error {worst_value_err:.1e}",
    )


def test_criterion_8_hutchinson_estimator():
    c = Criterion(8, "diagonal estimator: exactness and concentration", 10.0)
    # Single Rademacher sample is exact on diagonal curvature.
    H = np.diag([2.0, 0.4])
    (est,) = diag_hessian_matrix(
        quadratic(H), [0.7, -1.1], HutchinsonConfig(num_samples=1, rng_seed=11)
    )
    exact_err = float(np.abs(est - np.diagonal(H)).max())
    # 10000 samples land within 5% per entry on dense symmetric matrices.
    rng = np.random.default_rng(123)
    worst_rel = 0.0
    for trial in range(10):
        B = rng.uniform(-1.0, 1.0, size=(20, 20))
        M = B + B.T + 10.0 * np.eye(20)
        (est,) = diag_hessian_matrix(
            quadratic(M, with_hessian=True),
            np.zeros(20),
            HutchinsonConfig(num_samples=10_000, rng_seed=trial),
        )
        rel = np.abs(est - np.diagonal(M)) / np.abs(np.diagonal(M))
        worst_rel = max(worst_rel, float(rel.max()))
    c.conclude(
        exact_err <= 1e-6 and worst_rel <= 0.05,
        f"single-sample err {exact_err:.1e}, worst relative {worst_rel:.3f}",
    )


def _mlp_final_msq(variant: str, kind: str, seed: int) -> float:
    spec = ProblemSpec(
        kind="mlp_matching",
        variant=variant,
        input_dim=20,
        hidden=32,
        output_dim=7,
        dataset_size=50,
        seed=seed,
    )
    if kind == "ew":
        wc = WeightingChoice(kind="ew")
    elif kind == "camoo":
        wc = WeightingChoice(
            kind="camoo",
            camoo=CamooConfig(mode="diagonal-bilinear"),
        )
    else:
        wc = WeightingChoice(kind="pamoo")
    trace = run(
        RunConfig(
            problem=spec,
            weighting=wc,
            inner=AdamConfig(step=0.005),
            steps=2000,
            seed=seed,
            record_every=500,
        )
    )
    return trace.final().msq


def test_criterion_9_network_matching_ordering():
    c = Criterion(9, "adaptive weights beat equal weights on the matching toy", 120.0)
    seeds = [0, 1, 2, 3, 4]
    ok = True
    details = []
    for variant in ("selection", "local_curvature"):
        medians = {}
        for kind in ("ew", "camoo", "pamoo"):
            medians[kind] = float(
                np.median([_mlp_final_msq(variant, kind, s) for s in seeds])
            )
        ok &= medians["camoo"] <= medians["ew"]
        ok &= medians["pamoo"] <= medians["ew"]
        details.append(
            f"{variant}: ew {medians['ew']:.2e}, camoo {medians['camoo']:.2e}, "
            f"pamoo {medians['pamoo']:.2e}"
        )
    c.conclude(ok, "; ".join(details))


def _plateau(kind: str, eps: float) -> float:
    d = float(np.sqrt(eps / 0.05625))
    spec = ProblemSpec(
        kind="misaligned",
        base=ProblemSpec(kind="specification", delta=0.1),
        shifts=((0.0, 0.0), (d, 0.0)),
    )
    problem = build(spec)
    assert problem.optimum.alignment_eps == pytest.approx(eps, rel=1e-3)
    if kind == "camoo":
        wc = WeightingChoice(kind="camoo")
        inner = GDConfig(step=0.25)
    else:
        wc = WeightingChoice(
            kind="pamoo",
            pamoo=PamooConfig(gram_tau=0.0, clip_floor=0.0),
        )
        inner = GDConfig(step=1.0)
    trace = run(
        RunConfig(
            problem=spec,
            weighting=wc,
            inner=inner,
            steps=200,
            x0=(1.0, 1.0),
            camoo_lr_scale_by_m=False,
        )
    )
    tail = [r.residual for r in trace.records[-40:]]
    return float(np.median(tail))


def test_criterion_10_misalignment_robustness():
    c = Criterion(10, "residual plateaus shrink continuously with misalignment", 10.0)
    ok = True
    details = []
    for kind in ("camoo", "pamoo"):
        plateaus = [_plateau(kind, eps) for eps in (1e-1, 1e-2, 1e-3)]
        for larger, smaller in zip(plateaus, plateaus[1:]):
            ok &= larger >= smaller - 1e-12  # monotone nonincreasing in eps
            ok &= larger <= 10.0 * smaller  # and no cliff between levels
        details.append(
            kind + ": " + ", ".join(f"{p:.2e}" for p in plateaus)
        )
    c.conclude(ok, "; ".join(details))


def test_criterion_11_polyak_reduction():
    c = Criterion(11, "gap-ratio weights reduce to the classic adaptive step", 1.0)
    spec = ProblemSpec(kind="quad_family", h_list=(((1.0,),),), alpha_list=(1.0,))
    wc = WeightingChoice(
        kind="pamoo",
        pamoo=PamooConfig(gram_tau=0.0, clip_floor=0.0),
    )
    trace = run(
        RunConfig(
            problem=spec, weighting=wc, inner=GDConfig(step=1.0), steps=50,
            x0=(1.0,),
        )
    )
    x = 1.0
    worst = 0.0
    for rec in trace.records:
        worst = max(worst, abs(rec.residual - abs(x)))
        x = x - (x * x) / (2 * x) ** 2 * (2 * x)
    c.conclude(worst <= 1e-9, f"max trajectory deviation {worst:.1e}")
