"""Finite-difference oracles for the tests.

The curvature oracles re-implement the connection, Ricci and Cotton
formulas with nested Richardson-extrapolated central differences on plain
float evaluation -- no jets anywhere -- so agreement with the engine
validates the entire derivative path.  Outer levels use larger steps: each
nesting divides the inner noise by the step, so the step ladder keeps the
stack's accuracy near 1e-7.

The lattice oracles are the discrete densities of ``reduction`` written
with slicing central differences on a padded block, and their gradient by
+-eps sweeps of each site's radius-4 patch; they are the reference that
the exact reverse-mode lattice gradient is tested against.

The tensor-jet product reference is the pair loop: one einsum per
coefficient pair, the terms added into zeros in increasing first factor (the
order of ``jets.tensor_mul``'s shift path) or summed by ``np.add.reduceat``
(its gather path); each path is pinned to its sum bit for bit.

The metric-jet reference is the per-component loop: one ``_eval`` walk per
upper-triangle component of a ``MetricSpec``, to which the tensor jet that
``geometry._metric_pipeline`` builds through ``eval_tensor`` is pinned bit
for bit.

The jets-fd references are the random-expression generator as text that
``parse_expr`` reads, and ``suite.check_jets_fd`` as one ``_eval`` walk per
expression on each side; the tree-building generator and the check's
batched tapes are tested against them.  ``telescope_jet`` is that one walk
on the ``oracles.telescope_seeds`` columns, and ``fd_partial_telescoped``
the telescoped partials of one expression.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from cottonkit import reduction
from cottonkit.exprlang import _eval, _expr_jet, coordinate_seeds, eval_array, parse_expr, to_text
from cottonkit.geometry import MetricSpec, _eps3
from cottonkit.jets import Jet, JetSpace
from cottonkit.oracles import fd_partial, telescope_partials, telescope_seeds
from cottonkit.report import _argworst
from cottonkit.reduction import _METRIC_COMPONENTS, ACTION_COUPLING


def metric_fn(m: MetricSpec):
    env = {k: float(v) for k, v in m.env.items()}

    def g(p):
        bind = dict(zip(m.coords, p))
        bind.update(env)
        return np.array(
            [[eval_array(m.components[i][j], bind) for j in range(m.dim)] for i in range(m.dim)]
        )

    return g


def tensor_mul_pairs(A: np.ndarray, B: np.ndarray, spec: str, nv: int, reduceat: bool = False) -> np.ndarray:
    """The truncated product of two tensor jets at the lower of their orders,
    one einsum per coefficient pair (i, j): coefficient k adds the terms of
    its pairs into zeros in increasing i, or with ``reduceat`` sums them as
    ``np.add.reduceat`` does (its first term plus numpy's pairwise sum of the
    others)."""
    sp = JetSpace.for_length(min(len(A), len(B)), nv)
    terms = np.stack([np.einsum(spec, A[i], B[j]) for i, j in zip(sp._mul_i, sp._mul_j)])
    if reduceat:
        return np.add.reduceat(terms, sp._mul_starts, axis=0)
    out = np.zeros((sp.ncoeff,) + terms.shape[1:])
    for k, lo, hi in zip(range(sp.ncoeff), sp._mul_starts, np.append(sp._mul_starts[1:], len(terms))):
        for term in terms[lo:hi]:
            out[k] += term
    return out


def metric_jet_per_component(m: MetricSpec, point, order: int) -> np.ndarray:
    """The metric's tensor jet (ncoeff, dim, dim, *grid) from one ``_eval``
    per upper-triangle component over the coordinate seeds; a constant
    component sets coefficient 0 only."""
    seeds = coordinate_seeds(m.coords, point, m.env, order)
    seed = seeds[m.coords[0]]
    g = np.zeros((seed.space.ncoeff, m.dim, m.dim) + np.shape(seed.value))
    for i in range(m.dim):
        for j in range(i, m.dim):
            val = _eval(m.components[i][j], seeds)
            if isinstance(val, Jet):
                g[:, i, j] = g[:, j, i] = val.coeffs
            else:
                g[0, i, j] = g[0, j, i] = val
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


# -- lattice densities by slicing, and their gradient by finite differences ------


def _trim(F: np.ndarray, dim: int, k: int = 1, lead: int = 0) -> np.ndarray:
    """Drop k cells at both ends of the dim spatial axes that follow lead
    index axes; trailing (batch) axes are kept."""
    return F[(slice(None),) * lead + (slice(k, -k),) * dim]


def _d(F: np.ndarray, axis: int, h: float, dim: int) -> np.ndarray:
    """Central difference (F[i+1] - F[i-1]) / 2h along a spatial axis; the
    result loses one cell at both ends of every spatial axis."""
    hi = [slice(1, -1)] * dim
    lo = [slice(1, -1)] * dim
    hi[axis], lo[axis] = slice(2, None), slice(None, -2)
    return (F[tuple(hi)] - F[tuple(lo)]) / (2.0 * h)


def discrete_christoffel(fields: dict[str, np.ndarray], h: float, dim: int):
    """Determinant and inverse of the lattice metric, and its Christoffel
    symbols by central differences (one cell trimmed per spatial axis)."""
    shape = fields["gtt"].shape
    g = np.empty((dim, dim) + shape)
    for c, (i, j) in _METRIC_COMPONENTS[dim].items():
        g[i, j] = g[j, i] = fields["g" + c]

    def minor(i, j):
        r_ = [k for k in range(dim) if k != i]
        c_ = [k for k in range(dim) if k != j]
        if dim == 2:
            return g[r_[0], c_[0]]
        return g[r_[0], c_[0]] * g[r_[1], c_[1]] - g[r_[0], c_[1]] * g[r_[1], c_[0]]

    first = [minor(0, j) for j in range(dim)]
    det = g[0, 0] * first[0] - g[0, 1] * first[1]
    if dim == 3:
        det = det + g[0, 2] * first[2]
    inv = np.empty_like(g)
    for i in range(dim):
        for j in range(dim):
            inv[j, i] = (first[j] if i == 0 else minor(i, j)) * (-1.0 if (i + j) % 2 else 1.0) / det
    dg = [[None] * dim for _ in range(dim)]
    for i, j in _METRIC_COMPONENTS[dim].values():
        dg[i][j] = dg[j][i] = [_d(g[i, j], l, h, dim) for l in range(dim)]
    inv_c = _trim(inv, dim, lead=2)
    gam = np.empty((dim, dim, dim) + dg[0][0][0].shape)
    for k in range(dim):
        for i in range(dim):
            for j in range(i, dim):
                tot = 0.0
                for l in range(dim):
                    tot = tot + inv_c[k, l] * (dg[l][j][i] + dg[l][i][j] - dg[i][j][l])
                gam[k, i, j] = gam[k, j, i] = 0.5 * tot
    return det, inv, gam


def action_density_2d(fields: dict[str, np.ndarray], h: float) -> np.ndarray:
    """Discrete reduced-action density: central differences throughout.
    Returns the density two cells in from each end of both spatial axes."""
    det, inv, gam = discrete_christoffel(fields, h, 2)
    dgam = [[[[_d(gam[k, i, j], l, h, 2) for l in range(2)] for j in range(2)] for i in range(2)] for k in range(2)]
    gam = _trim(gam, 2, lead=3)
    ric = np.empty((2, 2) + dgam[0][0][0][0].shape)
    for s in range(2):
        for m_ in range(2):
            tot = 0.0
            for lam in range(2):
                tot = tot + dgam[lam][lam][s][m_] - dgam[lam][m_][s][lam]
                for rho in range(2):
                    tot = tot + gam[lam, m_, rho] * gam[rho, lam, s]
                    tot = tot - gam[lam, lam, rho] * gam[rho, m_, s]
            ric[s, m_] = tot
    r = np.einsum("sm...,sm...->...", _trim(inv, 2, k=2, lead=2), ric)
    F = _trim(_d(fields["ax"], 0, h, 2) - _d(fields["at"], 1, h, 2), 2)
    return ACTION_COUPLING * (F * r + F ** 3 / (-_trim(det, 2, k=2)))


def cs_density_3d(fields: dict[str, np.ndarray], h: float) -> np.ndarray:
    """Discrete density of the 3D connection functional (the one whose
    metric variation produces the Cotton tensor).  Returns the density two
    cells in from each end of the three spatial axes."""
    gam = discrete_christoffel(fields, h, 3)[2]
    dgam = {}

    def dG(b, s, gpair):
        key = (b, s, gpair)
        if key not in dgam:
            dgam[key] = _d(gam[s, gpair[0], gpair[1]], b, h, 3)
        return dgam[key]

    gam_c = _trim(gam, 3, lead=3)
    dens = 0.0
    eps = _eps3(1)
    for perm in itertools.permutations(range(3)):
        sign = eps[perm]
        al, be, ga_ = perm
        for rho in range(3):
            for sig in range(3):
                dens = dens + sign * 0.5 * gam_c[rho, al, sig] * dG(be, sig, (ga_, rho))
                for tau in range(3):
                    dens = dens + sign * (1.0 / 3.0) * gam_c[rho, al, sig] * gam_c[sig, be, tau] * gam_c[tau, ga_, rho]
    return dens / (4.0 * math.pi ** 2)


def fd_site_gradient(fields: dict, name: str, sites, h: float, density_fn, eps_scale: float = 1e-6) -> np.ndarray:
    """d(sum density * h^dim)/d(field value at each site) by central
    differences, recomputing only the stencil neighborhood (radius 4) of a
    site.  The patches of all sites are gathered by one fancy index and
    stacked along a trailing batch axis, so the density runs once per sign."""
    sites = np.asarray(sites, dtype=int)
    n, dim = sites.shape
    offsets = np.arange(-4, 5)
    at = tuple(
        (offsets.reshape([9 if a == d else 1 for a in range(dim)] + [1]) + sites[:, d]) % fields[name].shape[d]
        for d in range(dim)
    )
    patch = {k: v[at] for k, v in fields.items()}
    center = (4,) * dim + (np.arange(n),)
    base = patch[name][center]
    eps = eps_scale * (1.0 + np.abs(base))
    sums = []
    for value in (base + eps, base - eps):
        varied = patch[name].copy()
        varied[center] = value
        dens = density_fn({**patch, name: varied}, h)
        # one contiguous row per patch: sums in the order of np.sum over a single core
        sums.append(np.ascontiguousarray(np.moveaxis(dens, -1, 0)).reshape(n, -1).sum(axis=1))
    return (sums[0] - sums[1]) / (2.0 * eps) * h ** dim


def fd_patch_gradient(fields: dict, sites, h: float, gradient_fn) -> dict:
    """``reduction._patch_gradient`` by finite differences: one batched
    sweep per field of the slicing reference density that ``gradient_fn``
    differentiates."""
    density = {
        reduction._action_gradient_2d: action_density_2d,
        reduction._cs_gradient_3d: cs_density_3d,
    }[gradient_fn]
    return {name: fd_site_gradient(fields, name, sites, h, density) for name in fields}


# -- jets-fd references ------------------------------------------------------------


def _linear_text(rng, coords):
    parts = []
    for c in coords:
        parts.append(f"{rng.uniform(-1, 1):.6f}*{c}")
    parts.append(f"{rng.uniform(-1, 1):.6f}")
    return "(" + "+".join(parts).replace("+-", "-") + ")"


def _bounded_text(rng, coords, depth):
    if depth <= 0:
        return f"tanh({_linear_text(rng, coords)})"
    r = rng.random()
    inner = lambda: _bounded_text(rng, coords, depth - 1)
    if r < 0.18:
        return f"sin({inner()})"
    if r < 0.36:
        return f"cos({_linear_text(rng, coords)}+{inner()})"
    if r < 0.5:
        return f"tanh({inner()})"
    if r < 0.6:
        return f"arctan({inner()}+{_linear_text(rng, coords)})"
    if r < 0.68:
        return f"ln(2.2+{inner()})"
    if r < 0.76:
        return f"sqrt(2.2+{inner()})"
    if r < 0.82:
        return f"exp(0.5*{inner()})*0.6"
    if r < 0.88:
        return f"({inner()})*({inner()})*0.5"
    if r < 0.94:
        return f"(2.2+{inner()})^1.7*0.2"
    return f"({inner()}+{inner()})*0.5"


def random_safe_expr_text(rng, coords, depth=3):
    """``oracles.random_safe_expr`` as formatted text parsed back."""
    return parse_expr(_bounded_text(rng, list(coords), depth))


def telescope_jet(expr, coords, point, order: int, step: float = 1e-3) -> Jet:
    """One jet of ``expr`` on the 1 + 4·nv ``telescope_seeds`` columns."""
    return _expr_jet(expr, telescope_seeds(coords, point, order, step))


def fd_partial_telescoped(expr, coords, point, alphas, step: float = 1e-3) -> np.ndarray:
    """``telescope_partials`` of one ``telescope_jet`` of order max|alpha| - 1."""
    order = max(sum(alpha) for alpha in alphas) - 1
    return telescope_partials(telescope_jet(expr, coords, point, order, step), alphas, step)


def check_jets_fd_per_expression(n=1000, seed=11):
    """``suite.check_jets_fd`` with one telescope jet walk and one
    ``eval_array`` stencil walk per expression; (max_residual, details)."""
    rng = np.random.default_rng(seed)
    worst, worst_case = 0.0, {}
    for _ in range(n):
        nv = int(rng.integers(1, 4))
        coords = ["t", "x", "y"][:nv]
        expr = random_safe_expr_text(rng, coords, depth=int(rng.integers(1, 4)))
        point = tuple(rng.uniform(-0.8, 0.8, nv))
        space = JetSpace.get(nv, 4)
        alphas = [alpha for alpha in itertools.product(range(5), repeat=nv) if sum(alpha) <= 4]
        low = np.array([sum(alpha) <= 2 for alpha in alphas])
        rows = np.array([space.index[alpha] for alpha in alphas])
        j = telescope_jet(expr, coords, point, 4, step=1e-3)
        got = j.coeffs[rows, 0] * space.factorials[rows]
        want = np.empty(len(alphas))
        lows = [a for a, keep in zip(alphas, low) if keep]
        highs = [a for a, keep in zip(alphas, low) if not keep]
        want[low] = fd_partial(lambda q: eval_array(expr, dict(zip(coords, q.T))), point, lows, step=1e-3)
        want[~low] = telescope_partials(j, highs, step=1e-3)
        value, i = _argworst(np.abs(got - want) / (1.0 + np.maximum(np.abs(got), np.abs(want))))
        if _argworst([worst, value])[1] == 1:
            worst = value
            worst_case = {"expr": to_text(expr), "alpha": list(alphas[i]), "point": list(point)}
    return worst, worst_case
