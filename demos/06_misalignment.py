"""Approximately aligned objectives: graceful degradation with epsilon.

Shifting one objective of the specification pair breaks exact alignment.
The instance then carries an epsilon: the smallest worst-case objective gap
any single point can achieve, from a KKT-certified minimax solve.  Both
adaptive weightings keep converging, but only down to a plateau that
shrinks continuously (about like sqrt(eps)) as the objectives realign.
"""

import numpy as np

from amoo import GDConfig, RunConfig, WeightingChoice, run
from amoo.problems import ProblemSpec, build
from amoo.weighting import PamooConfig


def plateau(kind: str, shift: float):
    spec = ProblemSpec(
        kind="misaligned",
        base=ProblemSpec(kind="specification", delta=0.1),
        shifts=((0.0, 0.0), (shift, 0.0)),
    )
    problem = build(spec)
    if kind == "camoo":
        wc = WeightingChoice(kind="camoo")
        inner = GDConfig(step=0.25)
    else:
        wc = WeightingChoice(
            kind="pamoo",
            pamoo=PamooConfig(step=0.5, gram_tau=0.0, clip_floor=0.0,
                              iterations=300),
        )
        inner = GDConfig(step=1.0)
    trace = run(
        RunConfig(
            problem=spec, weighting=wc, inner=inner, steps=200, x0=(1.0, 1.0),
            camoo_lr_scale_by_m=False,
        )
    )
    tail = [r.residual for r in trace.records[-40:]]
    return problem.optimum.alignment_eps, float(np.median(tail))


print(f"{'shift':>8} {'epsilon':>10} {'curvature plateau':>18} {'gap-ratio plateau':>18}")
for shift in (1.3333, 0.4216, 0.1333, 0.0422):
    eps, p_camoo = plateau("camoo", shift)
    _, p_pamoo = plateau("pamoo", shift)
    print(f"{shift:>8.4f} {eps:>10.2e} {p_camoo:>18.2e} {p_pamoo:>18.2e}")

print()
print("Each tenfold reduction in epsilon shrinks the plateaus by roughly")
print("sqrt(10): the algorithms need no modification to handle near-aligned")
print("objectives, they simply stop improving at the scale of the mismatch.")
