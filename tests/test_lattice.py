import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cottonkit import reduction
from cottonkit.catalog import SolutionCase, solution_2d
from cottonkit.exprlang import parse_expr
from cottonkit.geometry import GeometryError, MetricSpec, flat_metric
from cottonkit.reduction import (
    Lattice2D,
    Lattice3D,
    ReducedData,
    Window1D,
    lattice_cotton_variation_check_3d,
    lattice_variation_check_2d,
)
from cottonkit.suite import check_lattice_2d, check_lattice_3d
from fd_oracles import action_density_2d, cs_density_3d, discrete_christoffel, fd_patch_gradient, fd_site_gradient


def random_periodic_rd():
    g2 = MetricSpec.from_components(
        ("t", "x"),
        {
            "t,t": "1+0.1*sin(t+0.3)*cos(x)",
            "t,x": "0.05*sin(x+1.0)*sin(t)",
            "x,x": "-1+0.1*cos(t-0.5)*sin(x+0.2)",
        },
        env={"C": 1.0},
    )
    return ReducedData(g2=g2, a=(parse_expr("0.1*sin(x)*cos(t)"), parse_expr("0.08*sin(t+0.7)")))


PERTURBED_3D = MetricSpec.from_components(
    ("t", "x", "y"),
    {
        "t,t": "1+0.05*sin(x)*sin(y)",
        "x,x": "-1+0.04*cos(t)*sin(y+0.3)",
        "y,y": "-1+0.03*sin(t+x)",
        "t,x": "0.02*sin(y+1.0)",
    },
)


def test_2d_random_fields_match_analytic_eom():
    rd = random_periodic_rd()
    ds = []
    for n in (16, 32):
        h = 2 * math.pi / n
        rep = lattice_variation_check_2d(rd, Lattice2D(0.0, 0.0, n, n), h)
        assert rep.passed, rep.line()
        ds.append(rep.max_residual)
    # halving h cuts the discrepancy by 4, within 20 percent
    ratio = ds[0] / ds[1]
    assert 4.0 * 0.8 < ratio < 4.0 * 1.2


def test_2d_windowed_solution_gradient_vanishes_at_second_order():
    rd = solution_2d(SolutionCase("c+", 1.0)).rd
    window = Window1D(center=1.5, flat_radius=0.55, support_radius=0.95, compare_radius=0.2)
    ds = []
    for n in (24, 48):
        h = 2.0 / n
        rep = lattice_variation_check_2d(rd, Lattice2D(0.0, 0.5, n, n), h, window=window)
        assert rep.passed, rep.line()
        ds.append(rep.max_residual)
    assert ds[1] < ds[0] / 2.5  # clearly decreasing under refinement


def test_window_needs_margin():
    rd = solution_2d(SolutionCase("c+", 1.0)).rd
    window = Window1D(center=1.5, flat_radius=0.2, support_radius=0.9, compare_radius=0.2)
    with pytest.raises(Exception):
        lattice_variation_check_2d(rd, Lattice2D(0.0, 0.5, 16, 16), 2.0 / 16, window=window)


def test_lattice_narrower_than_the_stencil_has_no_core_sites():
    # every column is in the flat zone, but no 9-wide stencil fits on 5 columns
    rd = solution_2d(SolutionCase("c+", 1.0)).rd
    window = Window1D(center=1.5, flat_radius=1.0, support_radius=1.2)
    with pytest.raises(GeometryError, match="no comparable core sites"):
        lattice_variation_check_2d(rd, Lattice2D(0.0, 1.25, 5, 5), 0.125, window=window)


def test_3d_flat_metric_both_sides_zero():
    rep = lattice_cotton_variation_check_3d(flat_metric(), Lattice3D(8), 2 * math.pi / 8)
    assert rep.max_residual < 1e-8


def test_3d_perturbed_convergence():
    ds = []
    for n in (8, 16):
        h = 2 * math.pi / n
        rep = lattice_cotton_variation_check_3d(PERTURBED_3D, Lattice3D(n), h)
        assert rep.passed, rep.line()
        ds.append(rep.max_residual)
    assert 2.0 < ds[0] / ds[1] < 8.0


def test_3d_linearity_in_perturbation_scale():
    # to leading order the discrete gradient and the Cotton density both
    # scale linearly with the perturbation amplitude
    def metric(s):
        return MetricSpec.from_components(
            ("t", "x", "y"),
            {"t,t": f"1+{s}*sin(x)*sin(y)", "x,x": "-1", "y,y": "-1"},
        )

    from cottonkit.geometry import cotton_grid
    from cottonkit.reduction import _cs_gradient_3d, _patch_gradient
    from cottonkit.exprlang import eval_array

    n = 16
    h = 2 * math.pi / n
    lat = Lattice3D(n)
    axes = lat.axes(h)
    idx = (5, 3, 7)
    p = np.array([[axes[0][idx[0]], axes[1][idx[1]], axes[2][idx[2]]]])
    pos = {"tt": (0, 0), "tx": (0, 1), "ty": (0, 2), "xx": (1, 1), "xy": (1, 2), "yy": (2, 2)}
    grads, cots = [], []
    for s in (0.01, 0.02):
        m = metric(s)
        Tg, Xg, Yg = np.meshgrid(*axes, indexing="ij")
        bind = {"t": Tg, "x": Xg, "y": Yg}
        fields = {}
        for c, (i, j) in pos.items():
            fields["g" + c] = np.broadcast_to(
                eval_array(m.components[i][j], bind), Tg.shape
            ).astype(float).copy()
        grad = _patch_gradient(fields, [idx], h, _cs_gradient_3d)
        grads.append(np.array([grad["g" + c][0] / h ** 3 for c in pos]))
        cots.append(cotton_grid(m, p)["cotton"][..., 0])
    # both sides must scale the same way with the amplitude; compare the
    # least-squares scaling factors of the two component vectors
    ratio_grad = float(grads[0] @ grads[1] / (grads[0] @ grads[0]))
    c0, c1 = cots[0].ravel(), cots[1].ravel()
    ratio_cot = float(c0 @ c1 / (c0 @ c0))
    assert ratio_grad == pytest.approx(ratio_cot, rel=0.02)


def _smooth_fields(names, n, dim, seed):
    """Periodic low-mode fields near the flat metric diag(1, -1, ...)."""
    rng = np.random.default_rng(seed)
    axes = np.meshgrid(*[2 * np.pi * np.arange(n) / n] * dim, indexing="ij")
    fields = {}
    for name in names:
        phase = rng.uniform(0, 2 * np.pi, dim)
        wave = np.prod([np.sin(a + p) for a, p in zip(axes, phase)], axis=0)
        diag = name[1:] in ("tt", "xx", "yy")
        fields[name] = (1.0 if name == "gtt" else -1.0 if diag else 0.0) + 0.05 * wave
    return fields


_NAMES = {2: ("gtt", "gtx", "gxx", "at", "ax"), 3: ("gtt", "gtx", "gty", "gxx", "gxy", "gyy")}
_REFERENCE = {2: action_density_2d, 3: cs_density_3d}
_GRADIENT = {2: reduction._action_gradient_2d, 3: reduction._cs_gradient_3d}


# the finite-difference reference (fd_oracles) batches its patches


@pytest.mark.parametrize("dim", [2, 3])
def test_patch_gradient_same_bits_alone_or_batched(dim):
    if dim == 2:
        n = 10
        sites = [(a, b) for a in range(n) for b in range(0, n, 3)]
    else:
        n = 8
        sites = [(a, b, c) for a in (0, 3, 7) for b in (1, 6) for c in (0, 2, 5)]
    names, density = _NAMES[dim], _REFERENCE[dim]
    fields = _smooth_fields(names, n, dim, seed=dim)
    h = 2 * math.pi / n
    for name in names:
        batched = fd_site_gradient(fields, name, sites[::-1], h, density)[::-1]
        alone = [fd_site_gradient(fields, name, [idx], h, density)[0] for idx in sites]
        np.testing.assert_array_equal(batched, alone)


def test_padded_lattice_density_matches_patch_density():
    n = 8
    fields = _smooth_fields(_NAMES[2], n, 2, seed=5)
    h = 2 * math.pi / n
    whole = action_density_2d({k: np.pad(v, 2, mode="wrap") for k, v in fields.items()}, h)
    assert whole.shape == (n, n)
    for a in range(n):
        for b in range(n):
            rows, cols = np.arange(a - 4, a + 5) % n, np.arange(b - 4, b + 5) % n
            patch = {k: v[np.ix_(rows, cols)] for k, v in fields.items()}
            # the 9-wide patch leaves a 5-wide core centred on the site
            assert action_density_2d(patch, h)[2, 2] == whole[a, b]


# the exact gradient of reduction


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("n", [8, 11])
def test_periodic_density_equals_reference_density(dim, n):
    # the periodic Christoffel data, which both densities and their
    # gradients read, equals the reference on the fields wrapped by one
    # cell, and the 2D density the reference on the fields wrapped by two
    fields = _smooth_fields(_NAMES[dim], n, dim, seed=n + dim)
    h = 2 * math.pi / n
    det, inv, _, gam = reduction._christoffel(fields, h, dim)
    ref_det, ref_inv, ref_gam = discrete_christoffel({k: np.pad(v, 1, mode="wrap") for k, v in fields.items()}, h, dim)
    core = (slice(1, -1),) * dim
    np.testing.assert_array_equal(det, ref_det[core])
    np.testing.assert_array_equal(inv, ref_inv[(slice(None),) * 2 + core])
    np.testing.assert_array_equal(gam, ref_gam)
    if dim == 2:
        padded = {k: np.pad(v, 2, mode="wrap") for k, v in fields.items()}
        np.testing.assert_array_equal(reduction._action_density_2d(fields, h), action_density_2d(padded, h))


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("n", [10, 13])
def test_patch_gradient_same_bits_on_patches_or_whole_lattice(dim, n):
    # one site alone goes through its 9^dim patch (n^dim > 9^dim), every
    # site at once through the whole lattice
    fields = _smooth_fields(_NAMES[dim], n, dim, seed=3 * n + dim)
    h = 2 * math.pi / n
    sites = list(np.ndindex(*(n,) * dim))
    whole = reduction._patch_gradient(fields, sites, h, _GRADIENT[dim])
    step = 7 if dim == 2 else 97
    for k, site in enumerate(sites[::step]):
        alone = reduction._patch_gradient(fields, [site], h, _GRADIENT[dim])
        for name in fields:
            assert alone[name][0] == whole[name][k * step], (name, site)


def test_patch_gradient_batches_patches():
    # 27 sites of a 32^3 lattice go through patches, at most
    # _PATCH_BATCH_CELLS cells per gradient call
    calls = []

    def recording(block, h):
        calls.append(block["gtt"].shape)
        return reduction._cs_gradient_3d(block, h)

    n = 32
    fields = _smooth_fields(_NAMES[3], n, 3, seed=7)
    sites = [(a, b, c) for a in range(0, n, 8) for b in range(0, n, 8) for c in range(0, n, 8)][:27]
    h = 2 * math.pi / n
    got = reduction._patch_gradient(fields, sites, h, recording)
    sizes = [shape[0] for shape in calls]
    assert len(calls) > 1 and sum(sizes) == 27
    assert max(sizes) * 9 ** 3 <= reduction._PATCH_BATCH_CELLS
    assert all(shape[1:] == (9, 9, 9) for shape in calls)
    for k in (0, 26):
        want = reduction._patch_gradient(fields, [sites[k]], h, reduction._cs_gradient_3d)
        assert all(got[name][k] == want[name][0] for name in fields)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("n", range(8, 14))
@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2 ** 16), nsites=st.integers(1, 3))
def test_property_exact_gradient_matches_finite_differences(dim, n, seed, nsites):
    # nsites * 9^dim against n^dim decides between patches and the whole
    # lattice; both occur over the strategy's range
    fields = _smooth_fields(_NAMES[dim], n, dim, seed=seed)
    rng = np.random.default_rng(seed)
    sites = [tuple(int(v) for v in rng.integers(0, n, dim)) for _ in range(nsites)]
    h = 2 * math.pi / n
    new = reduction._patch_gradient(fields, sites, h, _GRADIENT[dim])
    fd = fd_patch_gradient(fields, sites, h, _GRADIENT[dim])
    scale = max(float(np.max(np.abs(v))) for v in fd.values())
    for name in fields:
        np.testing.assert_allclose(new[name], fd[name], rtol=0, atol=1e-8 * scale, err_msg=name)


@pytest.mark.parametrize(
    "ladder, C", [(kind, C) for kind in ("2d-random", "2d-solution") for C in (0.25, 1.0, 9.0)] + [("3d", None)]
)
def test_suite_ladder_gradients_match_finite_differences(monkeypatch, ladder, C):
    # at every varied site of every rung, in residual units, within 1e-5 of
    # the rung's tolerance (the 3D ladder has no coupling)
    exact = reduction._patch_gradient
    gaps = []

    def both(fields, sites, h, gradient_fn):
        new = exact(fields, sites, h, gradient_fn)
        fd = fd_patch_gradient(fields, sites, h, gradient_fn)
        gaps.append(max(float(np.max(np.abs(new[k] - fd[k]))) for k in fields) / h ** len(sites[0]))
        return new

    monkeypatch.setattr(reduction, "_patch_gradient", both)
    rep = check_lattice_3d() if ladder == "3d" else check_lattice_2d(ladder[3:], C)
    tolerances = [rung["tolerance"] for rung in rep.details["per_h"]]
    assert len(gaps) == len(tolerances) == 3
    for gap, tol in zip(gaps, tolerances):
        assert gap <= 1e-5 * tol, (gaps, tolerances)


def test_suite_ladders():
    rep = check_lattice_2d("random")
    assert rep.passed, rep.line()
    assert abs(rep.details["fitted_order"] - 2.0) <= 0.3

    rep = check_lattice_3d()
    assert rep.passed, rep.line()
    assert abs(rep.details["fitted_order"] - 2.0) <= 0.3


def _scaled(monkeypatch, name, keys, eps):
    original = getattr(reduction, name)

    def scaled(*args, **kwargs):
        out = original(*args, **kwargs)
        return {**out, **{k: out[k] * (1.0 + eps) for k in keys}}

    monkeypatch.setattr(reduction, name, scaled)


@pytest.mark.parametrize("eps, passed, order", [(0.0, True, 1.896), (3e-2, False, 1.428)])
def test_2d_random_ladder_fails_a_scaled_analytic_side(monkeypatch, eps, passed, order):
    _scaled(monkeypatch, "eom_grid", ("eq11", "eq11_vector", "eq12"), eps)
    rep = check_lattice_2d("random")
    assert rep.passed is passed, rep.line()
    assert rep.details["fitted_order"] == pytest.approx(order, abs=0.005)


@pytest.mark.parametrize("eps, passed, order", [(0.0, True, 1.908), (1e-2, False, 1.636)])
def test_3d_ladder_fails_a_scaled_analytic_side(monkeypatch, eps, passed, order):
    _scaled(monkeypatch, "cotton_grid", ("cotton",), eps)
    rep = check_lattice_3d()
    assert rep.passed is passed, rep.line()
    assert rep.details["fitted_order"] == pytest.approx(order, abs=0.005)


@pytest.mark.parametrize("dim", [2, 3])
def test_patch_gradient_one_density_call_per_sign(dim):
    if dim == 2:
        n, name = 10, "gtx"
        sites = [(a, b) for a in (0, 3, 4, 9) for b in (1, 5, 8)]
    else:
        n, name = 8, "gxy"
        sites = [(a, b, c) for a in (0, 3, 7) for b in (1, 6) for c in (0, 5)]
    batches = []

    def counting(fields, h):
        batches.append(fields[name].shape[-1])
        return _REFERENCE[dim](fields, h)

    fields = _smooth_fields(_NAMES[dim], n, dim, seed=dim)
    fd_site_gradient(fields, name, sites, 2 * math.pi / n, counting)
    # every site of every row in one batch, once per sign
    assert batches == [len(sites), len(sites)]


# the smallest rung of each suite ladder (suite.check_lattice_2d / _3d)
_SMALLEST_RUNGS = {
    "2d-random": lambda: lattice_variation_check_2d(
        random_periodic_rd(), Lattice2D(0.0, 0.0, 12, 12), 2 * math.pi / 12
    ),
    "2d-windowed": lambda: lattice_variation_check_2d(
        solution_2d(SolutionCase("c+", 1.0)).rd,
        Lattice2D(0.0, 0.5, 24, 24),
        2.0 / 24,
        window=Window1D(center=1.5, flat_radius=0.55, support_radius=0.95, compare_radius=0.55 - 4 * 2.0 / 24),
    ),
    "3d": lambda: lattice_cotton_variation_check_3d(PERTURBED_3D, Lattice3D(8), 2 * math.pi / 8),
}


@pytest.mark.parametrize("rung", sorted(_SMALLEST_RUNGS))
def test_lattice_check_same_report_batched_or_site_by_site(monkeypatch, rung):
    # the finite-difference reference in place of the exact gradient
    def one_site_per_call(fields, sites, h, gradient_fn):
        alone = [fd_patch_gradient(fields, [s], h, gradient_fn) for s in sites]
        return {k: np.array([g[k][0] for g in alone]) for k in fields}

    monkeypatch.setattr(reduction, "_patch_gradient", fd_patch_gradient)
    want = _SMALLEST_RUNGS[rung]().to_dict(stable=True)
    monkeypatch.setattr(reduction, "_patch_gradient", one_site_per_call)
    assert _SMALLEST_RUNGS[rung]().to_dict(stable=True) == want


@pytest.mark.parametrize(
    "flat, support, compare",
    [(0.5, 0.5, None), (0.9, 0.5, None), (math.nan, 0.9, None), (0.5, math.inf, None), (0.5, 0.9, math.nan)],
)
def test_window_rejects_degenerate_radii(flat, support, compare):
    # equal radii divided by zero in profile; a smaller support inverted the window
    with pytest.raises(GeometryError, match="window"):
        Window1D(center=1.5, flat_radius=flat, support_radius=support, compare_radius=compare)
