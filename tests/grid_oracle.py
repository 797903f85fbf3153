"""Brute-force simplex-grid oracle for the best weighted curvature, m <= 3."""

import numpy as np


def simplex_grid(m, step):
    if m == 1:
        return np.array([[1.0]])
    k = int(round(1.0 / step))
    if m == 2:
        a = np.linspace(0.0, 1.0, k + 1)
        return np.stack([a, 1.0 - a], axis=1)
    pts = []
    for i in range(k + 1):
        for j in range(k + 1 - i):
            pts.append((i / k, j / k, (k - i - j) / k))
    return np.array(pts)


def grid_max_min_eig(mats, step=1e-3):
    """Grid oracle for max over simplex weights of lambda_min(sum w_i H_i)."""
    stack = np.stack([np.asarray(H, float) for H in mats])
    grid = simplex_grid(len(mats), step)
    lam = np.linalg.eigvalsh(np.einsum("gi,ijk->gjk", grid, stack))[:, 0]
    best = int(np.argmax(lam))
    return float(lam[best]), grid[best]
