"""The max-min game behind diagonal curvature weighting.

With diagonal Hessians, maximizing the smallest eigenvalue of the weighted
sum reduces to max over row mixtures w of min over columns of w'A, a
bilinear game on two simplices.  The game is a linear program (Dantzig
1951): runs solve it exactly by column generation
(``weighting.solve_camoo_diagonal``), and ``weighting.max_min_weights(A)``
solves it in one call.  The LP's multipliers are the column player's
strategy q, so weak duality certifies both players at once: the gap
max_i (Aq)_i - min_j (A'w)_j is nonnegative for any pair of strategies and
zero exactly at a saddle point, and the LP's pair leaves only rounding.
"""

import numpy as np

from amoo.weighting import max_min_weights


def show(name, A):
    w, value, q = max_min_weights(A)
    lower, upper = float(np.min(w @ A)), float(np.max(A @ q))
    print(f"{name}:")
    print(f"  w     = {np.round(w, 4)}   (row player: objective weights)")
    print(f"  q     = {np.round(q, 4)}   (multipliers: column player)")
    print(f"  value = {value:.4f}")
    print(f"  min_j (A'w)_j = {lower:.6f} <= max_i (Aq)_i = {upper:.6f}")
    print(f"  gap   = {upper - lower:.1e}")
    print()


A = np.array([[1.8, 0.2], [0.2, 1.8]])
print("payoffs A (rows: objectives, columns: coordinates):")
print(A)
print()
show("symmetric 2x2 game", A)
print("The symmetric game settles on the 50/50 mixture with value 1.0: the")
print("same answer the full eigen route gives for these diagonal Hessians.")
print()

rng = np.random.default_rng(7)
show("random 5x8 game", rng.uniform(0, 3, size=(5, 8)))
