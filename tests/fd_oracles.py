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
from cottonkit.oracles import fd_partial


def metric_fn(m: MetricSpec):
    env = {k: float(v) for k, v in m.env.items()}

    def g(p):
        bind = dict(zip(m.coords, p))
        bind.update(env)
        return np.array(
            [[eval_array(m.components[i][j], bind) for j in range(m.dim)] for i in range(m.dim)]
        )

    return g


def _rich_grad(fn, p, h):
    """Richardson central differences of a vector/matrix-valued function
    along every coordinate, stacked on a leading axis (plain float
    evaluations of ``fn`` through ``oracles.fd_partial``)."""
    return fd_partial(
        lambda pts: np.array([fn(tuple(q)) for q in pts]), p, np.eye(len(p), dtype=int), step=h
    )


def christoffel_fd(m: MetricSpec, h: float = 1e-3):
    g = metric_fn(m)
    dim = m.dim

    def gamma(p):
        gv = g(p)
        ginv = np.linalg.inv(gv)
        dg = _rich_grad(g, p, h)
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
        dgam = _rich_grad(gamma, p, h_outer)
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
        dric = _rich_grad(ricci, p, h_outer)
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
