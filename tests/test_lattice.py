import math

import numpy as np
import pytest

from cottonkit.catalog import SolutionCase, solution_2d
from cottonkit.exprlang import parse_expr
from cottonkit.geometry import MetricSpec, flat_metric
from cottonkit.reduction import (
    Lattice2D,
    Lattice3D,
    ReducedData,
    Window1D,
    lattice_cotton_variation_check_3d,
    lattice_variation_check_2d,
)


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
    from cottonkit.reduction import _cs_density_3d, _patch_gradient
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
        grads.append(
            np.array([
                _patch_gradient(fields, "g" + c, [idx], h, _cs_density_3d)[0] / h ** 3
                for c in pos
            ])
        )
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


@pytest.mark.parametrize("dim", [2, 3])
def test_patch_gradient_same_bits_alone_or_batched(dim):
    from cottonkit.reduction import _action_density_2d, _cs_density_3d, _patch_gradient

    if dim == 2:
        n, names, density = 10, ("gtt", "gtx", "gxx", "at", "ax"), _action_density_2d
        sites = [(a, b) for a in range(n) for b in range(0, n, 3)]
    else:
        n, names, density = 8, ("gtt", "gtx", "gty", "gxx", "gxy", "gyy"), _cs_density_3d
        sites = [(a, b, c) for a in (0, 3, 7) for b in (1, 6) for c in (0, 2, 5)]
    fields = _smooth_fields(names, n, dim, seed=dim)
    h = 2 * math.pi / n
    for name in names:
        batched = _patch_gradient(fields, name, sites[::-1], h, density)[::-1]
        alone = [_patch_gradient(fields, name, [idx], h, density)[0] for idx in sites]
        np.testing.assert_array_equal(batched, alone)


def test_padded_lattice_density_matches_patch_density():
    from cottonkit.reduction import _action_density_2d

    n = 8
    fields = _smooth_fields(("gtt", "gtx", "gxx", "at", "ax"), n, 2, seed=5)
    h = 2 * math.pi / n
    whole = _action_density_2d({k: np.pad(v, 2, mode="wrap") for k, v in fields.items()}, h)
    assert whole.shape == (n, n)
    for a in range(n):
        for b in range(n):
            rows, cols = np.arange(a - 4, a + 5) % n, np.arange(b - 4, b + 5) % n
            patch = {k: v[np.ix_(rows, cols)] for k, v in fields.items()}
            # the 9-wide patch leaves a 5-wide core centred on the site
            assert _action_density_2d(patch, h)[2, 2] == whole[a, b]


def test_suite_ladders():
    from cottonkit.suite import check_lattice_2d, check_lattice_3d

    rep = check_lattice_2d("random")
    assert rep.passed, rep.line()
    assert abs(rep.details["fitted_order"] - 2.0) <= 0.3

    rep = check_lattice_3d()
    assert rep.passed, rep.line()
    assert abs(rep.details["fitted_order"] - 2.0) <= 0.3


@pytest.mark.parametrize("dim", [2, 3])
def test_patch_gradient_one_density_call_per_sign(dim):
    from cottonkit import reduction

    if dim == 2:
        n, name, density = 10, "gtx", reduction._action_density_2d
        names = ("gtt", "gtx", "gxx", "at", "ax")
        sites = [(a, b) for a in (0, 3, 4, 9) for b in (1, 5, 8)]
    else:
        n, name, density = 8, "gxy", reduction._cs_density_3d
        names = ("gtt", "gtx", "gty", "gxx", "gxy", "gyy")
        sites = [(a, b, c) for a in (0, 3, 7) for b in (1, 6) for c in (0, 5)]
    batches = []

    def counting(fields, h):
        batches.append(fields[name].shape[-1])
        return density(fields, h)

    fields = _smooth_fields(names, n, dim, seed=dim)
    reduction._patch_gradient(fields, name, sites, 2 * math.pi / n, counting)
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
    from cottonkit import reduction

    batched = reduction._patch_gradient

    def one_site_per_call(fields, name, sites, h, density_fn):
        return np.array([batched(fields, name, [s], h, density_fn)[0] for s in sites])

    want = _SMALLEST_RUNGS[rung]().to_dict(stable=True)
    monkeypatch.setattr(reduction, "_patch_gradient", one_site_per_call)
    assert _SMALLEST_RUNGS[rung]().to_dict(stable=True) == want
