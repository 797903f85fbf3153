"""Numerically checking the supporting theory at desk scale.

Three checks.  The residual recurrence r_{k+1}^2 <= r_k^2 - a1 r_k^2/(1 +
a2 r_k), simulated at equality, must stay below its closed-form two-phase
bound.  A run under the analysis step sizes must stay below the theorem's
rate envelope.  And re-optimizing curvature weights from Hessian diagonals
must lose at most twice the off-diagonal spectral mass.
"""

import numpy as np

from amoo.analysis import (
    RecurrenceParams,
    TheoremParams,
    fit_rate,
    recurrence_simulate_and_bound,
    theorem_bound_check,
    weyl_degradation_suite,
)
from amoo.driver import RunConfig, run, theory_camoo
from amoo.problems import ProblemSpec, build

# --- recurrence vs bound ------------------------------------------------------

p = RecurrenceParams(alpha1=0.5, alpha2=1.0, r0=10.0, horizon=60)
r, b, holds = recurrence_simulate_and_bound(p, "exact")
print("residual recurrence, a1=0.5, a2=1, r0=10:")
print(f"{'k':>4} {'simulated':>12} {'bound':>12}")
for k in (0, 5, 10, 20, 40, 60):
    print(f"{k:>4} {r[k]:>12.4e} {b[k]:>12.4e}")
print(f"bound holds everywhere: {holds}")
print()

# --- theorem envelope on a real run -------------------------------------------

spec = ProblemSpec(kind="specification", delta=0.1)
built = build(spec)
wc, inner = theory_camoo(built.meta, 2)
trace = run(
    RunConfig(
        problem=spec, weighting=wc, inner=inner, steps=120,
        camoo_lr_scale_by_m=False, x0=(1.0, 1.0),
    )
)
tp = TheoremParams(
    beta=built.meta.beta, mu=built.meta.mu_g, m_self=0.0, m=2,
    r0=trace.residual[0], which="CAMOO",
)
geo = np.sqrt(1 - 3 * tp.mu / (8 * tp.beta))
print("curvature-adaptive run under the analysis step size 1/(2 beta):")
print(f"  envelope per-step factor : {geo:.4f}")
print(f"  fitted per-step factor   : {fit_rate(trace):.4f}")
print(f"  envelope holds           : {theorem_bound_check(trace, tp)}")
print()

# --- diagonal degradation ------------------------------------------------------

report = weyl_degradation_suite(seed=0, trials=25)
print(
    f"diagonal-approximation stress test: {report['passes']}/{report['trials']}"
    " random positive-definite instances within the 2*deviation allowance"
)
