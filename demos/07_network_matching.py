"""The network-matching toy: adaptive weights on a nonconvex problem.

A two-layer student network must reproduce a fixed teacher's outputs under
three losses that weigh the output coordinates (selection variant) or raise
the squared error to different powers (local-curvature variant).  All
losses vanish at the teacher, so the objectives are aligned.  Adam on the
weighted loss, desk-scale sizes; the mean squared output mismatch (msq)
tracks progress.
"""

import numpy as np

from amoo import AdamConfig, RunConfig, WeightingChoice, run
from amoo.problems import ProblemSpec
from amoo.weighting import CamooConfig

STEPS = 800


def final_msq(variant: str, kind: str, seed: int = 0) -> float:
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
        wc = WeightingChoice(kind="camoo", camoo=CamooConfig(mode="diagonal-bilinear"))
    else:
        wc = WeightingChoice(kind="pamoo")
    trace = run(
        RunConfig(
            problem=spec,
            weighting=wc,
            inner=AdamConfig(step=0.005),
            steps=STEPS,
            seed=seed,
            record_every=100,
        )
    )
    return trace.final().msq


for variant in ("selection", "local_curvature"):
    print(f"{variant} variant, {STEPS} Adam steps:")
    for kind, label in [
        ("ew", "equal weights"),
        ("camoo", "curvature-adaptive"),
        ("pamoo", "gap-ratio"),
    ]:
        print(f"  {label:20s} final msq = {final_msq(variant, kind):.3e}")
    print()

print("Curvature weighting runs on the network's Hessian diagonals (one")
print("max-min LP per step, solved exactly by column generation from the last")
print("step's columns); gap-ratio weighting needs only the gradients and the")
print("known zero optima.  Both outpace equal weighting.")
