"""Gap-ratio (Polyak-style) weights: parameter-free and very fast.

The weight vector maximizes 2 w'gaps - w'(J'J)w over nonnegative weights,
where gaps_i = f_i(x) - f_i(x*), which is f_i(x) since every bundled
objective is 0 at its own minimum, and J stacks the objective gradients.
With one objective this is exactly the classic adaptive step
(f(x) - f*) / ||grad f||^2; with several it exploits whichever combination
of objectives certifies the largest one-step decrease.
"""

import numpy as np

from amoo import GDConfig, RunConfig, WeightingChoice, run
from amoo.problems import ProblemSpec
from amoo.weighting import PamooConfig

# --- reduction to the classic adaptive step at m = 1 -------------------------

quad = ProblemSpec(kind="quad_family", h_list=(((1.0,),),), alpha_list=(1.0,))
trace = run(
    RunConfig(
        problem=quad,
        weighting=WeightingChoice(
            kind="pamoo",
            pamoo=PamooConfig(gram_tau=0.0, clip_floor=0.0),
        ),
        inner=GDConfig(step=1.0),
        steps=6,
        x0=(1.0,),
    )
)
print("single quadratic f(x) = x^2, unit inner step:")
x = 1.0
for rec in trace.records:
    print(
        f"  step {rec.step}: |x| = {rec.residual:.6f}"
        f"   classic adaptive step would give {abs(x):.6f}"
    )
    x = x - (x * x) / (2 * x) ** 2 * (2 * x)
print()

# --- several objectives: fastest of the bundled optimizers -------------------

spec = ProblemSpec(kind="specification", delta=0.01)
for label, wc, step in [
    ("equal weights ", WeightingChoice(kind="ew"), 0.25),
    (
        "gap-ratio     ",
        WeightingChoice(
            kind="pamoo",
            pamoo=PamooConfig(gram_tau=0.0, clip_floor=0.0),
        ),
        1.0,
    ),
]:
    trace = run(
        RunConfig(
            problem=spec, weighting=wc, inner=GDConfig(step=step), steps=40,
            x0=(1.0, 1.0),
        )
    )
    print(f"{label} residual after 40 steps: {trace.final().residual:.3e}")
print()
print("Gap-ratio weights need the optimal objective values (zero for these")
print("benchmarks) but neither curvature information nor a tuned step size.")
