"""Finite-difference curvature oracles for the tests.

These re-implement the connection, Ricci and Cotton formulas with nested
Richardson-extrapolated central differences on plain float evaluation --
no jets anywhere -- so agreement with the engine validates the entire
derivative path.  Outer levels use larger steps: each nesting divides the
inner noise by the step, so the step ladder keeps the stack's accuracy
near 1e-7.
"""

from __future__ import annotations

import numpy as np

from cottonkit.exprlang import eval_array
from cottonkit.geometry import MetricSpec


def metric_fn(m: MetricSpec):
    env = {k: float(v) for k, v in m.env.items()}

    def g(p):
        bind = dict(zip(m.coords, p))
        bind.update(env)
        return np.array(
            [[eval_array(m.components[i][j], bind) for j in range(m.dim)] for i in range(m.dim)]
        )

    return g


def _rich_diff(fn, p, i, h):
    """Richardson central difference of a vector/matrix-valued function."""

    def d(step):
        up = list(p)
        dn = list(p)
        up[i] += step
        dn[i] -= step
        return (np.asarray(fn(tuple(up))) - np.asarray(fn(tuple(dn)))) / (2.0 * step)

    return (4.0 * d(h / 2.0) - d(h)) / 3.0


def christoffel_fd(m: MetricSpec, h: float = 1e-3):
    g = metric_fn(m)
    dim = m.dim

    def gamma(p):
        gv = g(p)
        ginv = np.linalg.inv(gv)
        dg = np.array([_rich_diff(g, p, l, h) for l in range(dim)])
        out = np.empty((dim, dim, dim))
        for k in range(dim):
            for i in range(dim):
                for j in range(dim):
                    out[k, i, j] = 0.5 * sum(
                        ginv[k, l] * (dg[j][l, i] + dg[i][l, j] - dg[l][i, j])
                        for l in range(dim)
                    )
        return out

    return gamma


def ricci_mixed_fd(m: MetricSpec, h_gamma: float = 1e-3, h_outer: float = 2e-3):
    """Mixed Ricci with the engine's contraction convention (first upper
    against last lower slot of the curvature)."""
    g = metric_fn(m)
    gamma = christoffel_fd(m, h_gamma)
    dim = m.dim

    def ricci(p):
        gam = gamma(p)
        dgam = np.array([_rich_diff(gamma, p, l, h_outer) for l in range(dim)])
        ric = np.empty((dim, dim))
        for s in range(dim):
            for mu in range(dim):
                tot = 0.0
                for lam in range(dim):
                    tot += dgam[mu][lam, lam, s] - dgam[lam][lam, mu, s]
                    for rho in range(dim):
                        tot += gam[lam, mu, rho] * gam[rho, lam, s]
                        tot -= gam[lam, lam, rho] * gam[rho, mu, s]
                ric[s, mu] = tot
        return np.linalg.inv(g(p)) @ ric

    return ricci


def cotton_fd(m: MetricSpec, h_outer: float = 1e-2):
    """Cotton tensor by finite differences, same assembly as the engine
    (including its variational sign)."""
    if m.dim != 3:
        raise ValueError("Cotton oracle needs dim 3")
    g = metric_fn(m)
    gamma = christoffel_fd(m)
    ricci = ricci_mixed_fd(m)
    eps = np.zeros((3, 3, 3))
    for a, b, c, s in (
        (0, 1, 2, 1), (1, 2, 0, 1), (2, 0, 1, 1),
        (0, 2, 1, -1), (2, 1, 0, -1), (1, 0, 2, -1),
    ):
        eps[a, b, c] = s * m.orientation

    def cotton(p):
        gv = g(p)
        gam = gamma(p)
        ric = ricci(p)
        dric = np.array([_rich_diff(ricci, p, a, h_outer) for a in range(3)])
        dcov = np.empty((3, 3, 3))
        for a in range(3):
            for i in range(3):
                for j in range(3):
                    t = dric[a][i, j]
                    for l in range(3):
                        t += gam[i, a, l] * ric[l, j]
                        t -= gam[l, a, j] * ric[i, l]
                    dcov[a, i, j] = t
        sq = np.sqrt(abs(np.linalg.det(gv)))
        cot = np.empty((3, 3))
        for i in range(3):
            for j in range(3):
                t = 0.0
                for a in range(3):
                    for b in range(3):
                        t += eps[i, a, b] * dcov[a, j, b] + eps[j, a, b] * dcov[a, i, b]
                cot[i, j] = -t / (2.0 * sq)
        return cot

    return cotton
