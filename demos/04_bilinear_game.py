"""The max-min game behind diagonal curvature weighting.

With diagonal Hessians, maximizing the smallest eigenvalue of the weighted
sum reduces to max over row mixtures w of min over columns of w'A, a
bilinear game on two simplices.  The game is a linear program (Dantzig
1951): runs solve it exactly by column generation
(``weighting.solve_camoo_diagonal``), and the library certifies games with
that LP, ``weighting.max_min_weights``, whose multipliers are the column
player's strategy.  Shown here beside the LP's value, ``solve_bilinear_pu``
runs the game's predictive entropic primal-dual dynamics (exponentiated
gradient steps from a half-step lookahead) to a certified duality gap:
max_i (Aq)_i - min_j (A'w)_j.
"""

import numpy as np

from amoo.weighting import CamooConfig, max_min_weights, solve_bilinear_pu

A = np.array([[1.8, 0.2], [0.2, 1.8]])
print("payoffs A (rows: objectives, columns: coordinates):")
print(A)
print()
print(f"{'iterations':>10} {'gap':>12} {'value':>8}   weights")
for iters in (16, 64, 256, 1024, 4096):
    sol = solve_bilinear_pu(A, CamooConfig(pu_iterations=iters, pu_tau=0.0))
    print(
        f"{iters:>10} {sol.gap:>12.2e} {sol.value:>8.4f}   {np.round(sol.w, 4)}"
    )
w, value, _ = max_min_weights(A)
print(f"{'LP':>10} {'exact':>12} {value:>8.4f}   {np.round(w, 4)}")
print()
print("The symmetric game settles on the 50/50 mixture with value 1.0: the")
print("same answer the full eigen route gives for these diagonal Hessians.")
print()

rng = np.random.default_rng(7)
B = rng.uniform(0, 3, size=(5, 8))
sol = solve_bilinear_pu(
    B, CamooConfig(pu_iterations=60000, pu_tau=0.0), gap_target=1e-4
)
print("random 5x8 game, solved to a certified gap:")
print(f"  gap   = {sol.gap:.2e}")
print(f"  value = {sol.value:.4f}")
print(f"  LP    = {max_min_weights(B)[1]:.4f} (the exact value)")
print(f"  w     = {np.round(sol.w, 4)}")
print(f"  q     = {np.round(sol.q, 4)}")
