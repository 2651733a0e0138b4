"""Batched evaluation against the per-point loops it replaced.

The radial sweep, the Lipschitz grid and the finite-difference jet stencil
each evaluate their whole point set in one call, and matched row pairs go
through one distance kernel.  Every row keeps the arithmetic of a lone
point, so on maps with identity (or extended-precision) automorphism factors
the results must be bit-identical to the old loops, which are kept here as
references.  Complex128 automorphism factors go through BLAS, whose batched
and one-row products may round differently; there the comparison uses a
budget fixed from float64 eps.
"""

import json
import math

import numpy as np
import pytest

from ballmaps import cli
from ballmaps import group_models as gm
from ballmaps import kobayashi as kb
from ballmaps import proper_maps as pm
from ballmaps.errors import InputError
from ballmaps.numerics import (
    interior_points,
    one_minus_norm,
    rng_from_seed,
    unit_vectors,
)

EPS = float(np.finfo(np.float64).eps)
MAX_FLOW = 1.0


# --- references: the per-point loops -------------------------------------------

def _sweep_rows_reference(f, directions, t_values):
    rows = []
    for i, v in enumerate(directions):
        fv = f.eval(v)
        fv = fv / np.linalg.norm(fv)
        for t in t_values:
            rows.append((i, t, kb.dist_ball(f.eval(t * v), t * fv)))
    return rows


def _lipschitz_reference(f, directions, radii):
    best = 0.0
    for r in radii:
        pts = r * directions
        num = one_minus_norm(f.eval(pts))
        den = one_minus_norm(pts)
        best = max(best, float(np.max((num / den).astype(np.float64))))
    return best


def _lipschitz_grid(m, grid_density=64, radii_count=24, seed=11):
    """The directions and radii lipschitz_boundary_constant samples by default."""
    dirs = [np.eye(m, dtype=complex)[0]]
    if m > 1:
        dirs.append(np.eye(m, dtype=complex)[m - 1])
        dirs.append(np.ones(m, dtype=complex) / math.sqrt(m))
    dirs.append(unit_vectors(rng_from_seed(seed), grid_density, m))
    directions = np.concatenate([np.atleast_2d(d) for d in dirs], axis=0)
    return directions, 1.0 - np.logspace(-1, -8, radii_count)


def _fd_jet_reference(g, h):
    m = g.m
    e = np.eye(m)
    f0 = g.eval(np.zeros(m, dtype=complex))
    first = np.zeros((g.M, m), dtype=complex)
    second = np.zeros((g.M, m, m), dtype=complex)
    plus = [g.eval(h * e[k]) for k in range(m)]
    minus = [g.eval(-h * e[k]) for k in range(m)]
    for k in range(m):
        first[:, k] = (plus[k] - minus[k]) / (2 * h)
        second[:, k, k] = (plus[k] - 2 * f0 + minus[k]) / h**2
    for k in range(m):
        for l in range(k + 1, m):
            pp = g.eval(h * e[k] + h * e[l])
            pm_ = g.eval(h * e[k] - h * e[l])
            mp = g.eval(-h * e[k] + h * e[l])
            mm = g.eval(-h * e[k] - h * e[l])
            mixed = (pp - pm_ - mp + mm) / (4 * h**2)
            second[:, k, l] = mixed
            second[:, l, k] = mixed
    return f0, first, second


def _dressed(spec, seed):
    """spec between random complex128 automorphisms of flow time <= MAX_FLOW."""
    rng = rng_from_seed(seed)
    pre = gm.random_automorphism(rng, spec.m, max_flow=MAX_FLOW)
    post = gm.random_automorphism(rng, spec.M, max_flow=MAX_FLOW)
    return pm.TransformedMap(pre, spec, post)


def _eval_budget(f):
    """|batched - per-point| allowed on one coordinate of post o core o pre.

    Each fractional-linear stage forms (dim+1)-term complex dot products of a
    matrix row with (x, 1).  Another summation order moves one by at most
    2 (dim+2) eps times the sum of the moduli of its terms, which by
    Cauchy-Schwarz is at most sqrt(2) |A| <= sqrt(2) e^T for a flow time T;
    the denominator has modulus at least e^-T, so the stage's quotient moves
    by at most 4 (dim+2) eps e^{2T}.  The core stretches an input change by
    at most the sum over its monomials of degree times |coefficient|, and
    the post stage by at most e^{2T}; the budget is the pre stage's change
    carried through both, plus the post stage's own.
    """
    m, M = f.m, f.M
    stretch = math.exp(2.0 * MAX_FLOW)
    stage = lambda dim: 4.0 * (dim + 2) * EPS * stretch
    core = sum(sum(e) * abs(c) for comp in f.core.components for e, c in comp)
    return stage(m) * core * stretch + stage(M)


# --- radial sweep ----------------------------------------------------------------

SWEEP_MAPS = (
    ["--map", "linear", "--m", "2", "--M", "4"],
    ["--map", "whitney"],
    ["--map", "power", "--m", "2", "--d", "2"],
)


def _run_sweep(capsys, flags, seed, directions=12):
    code = cli.main(["radial-sweep", *flags, "--directions", str(directions),
                     "--seed", str(seed), "--morse-trials", "0", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    return json.loads(out[:out.rindex("}") + 1])


@pytest.mark.parametrize("flags", SWEEP_MAPS + (None,),
                         ids=["linear", "whitney", "power", "spec-file"])
def test_radial_sweep_rows_match_per_point_loop(capsys, tmp_path, flags):
    if flags is None:
        spec = pm.catalog("power", m=3, d=3)
        path = tmp_path / "spec.json"
        pm.save_map_spec(spec, path)
        flags = ["--spec-file", str(path)]
    else:
        spec = cli._resolve_map(cli._build_parser().parse_args(["radial-sweep", *flags]))
    f = pm.as_transformed(spec)
    seed, count = 5, 12
    directions = np.concatenate(
        [np.eye(f.m, dtype=complex)[:1], unit_vectors(rng_from_seed(seed), count - 1, f.m)])
    t_values = [1.0 - 10.0 ** (-k) for k in range(1, 7)]
    doc = _run_sweep(capsys, flags, seed, count)
    got = [(r["direction"], r["t"], r["deviation"]) for r in doc["rows"]]
    ref = _sweep_rows_reference(f, directions, t_values)
    assert got == ref
    assert doc["sup_deviation"] == max([0.0] + [dev for _, _, dev in ref])
    C = pm.lipschitz_boundary_constant(f).C
    assert doc["C"] == C
    assert doc["beta"] == pm.beta_constant(f, C)
    assert doc["base_offset"] == kb.dist_ball(np.zeros(f.M), f.eval(np.zeros(f.m, dtype=complex)))


# --- Lipschitz grid --------------------------------------------------------------

@pytest.mark.parametrize("name,kw", [("linear", dict(m=2, M=4)), ("whitney", {}),
                                     ("power", dict(m=2, d=2)), ("power", dict(m=3, d=3))])
def test_lipschitz_grid_matches_per_radius_loop(name, kw):
    spec = pm.catalog(name, **kw)
    directions, radii = _lipschitz_grid(spec.m)
    est = pm.lipschitz_boundary_constant(spec)
    assert est.C == _lipschitz_reference(pm.as_transformed(spec), directions, radii)
    assert est.grid_size == directions.shape[0] * radii.size


@pytest.mark.parametrize("seed", range(4))
def test_lipschitz_grid_dressed_map_within_budget(seed):
    f = _dressed(pm.catalog("whitney"), seed)
    directions, radii = _lipschitz_grid(f.m)
    # each coordinate of f(z) moves by at most the budget, so 1 - |f(z)| by
    # sqrt(M) times it, and each ratio by that over 1 - |z|
    budget = math.sqrt(f.M) * _eval_budget(f) / (1.0 - radii.max())
    assert abs(pm.lipschitz_boundary_constant(f).C
               - _lipschitz_reference(f, directions, radii)) <= budget


# --- finite-difference stencil ---------------------------------------------------

@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_fd_jet_matches_per_point_loop(m):
    rng = rng_from_seed(40 + m)
    spec = pm.catalog("power", m=m, d=2)
    pre = gm.random_automorphism(rng, spec.m)
    post = gm.random_automorphism(rng, spec.M)
    for f in (spec, pm.TransformedMap(pre, spec, post)):
        g = pm.siegel_conjugate(f)
        for got, ref in zip(pm._fd_jet(g, 1e-4), _fd_jet_reference(g, 1e-4)):
            assert got.shape == ref.shape
            assert np.array_equal(got, ref)


# --- the row kernel --------------------------------------------------------------

def test_dist_rows_equals_dist_matrix_entries():
    rng = rng_from_seed(8)
    a = interior_points(rng, 9, 3, max_norm=0.999)
    b = interior_points(rng, 9, 3, max_norm=0.999)
    d = kb.dist_matrix(a, b)
    assert np.array_equal(kb.dist_rows(a, b), np.diag(d))
    assert np.array_equal(kb.dist_rows(a[:, None], b[None]), d)
    assert np.array_equal(kb.dist_rows(a[2], b), d[2])
    assert kb.dist_ball(a[4], b[7]) == d[4, 7]


def test_dist_rows_boundary_rows_are_infinite():
    a = np.array([[0.2, 0.1j], [1.0, 0.0], [0.3, 0.0]])
    b = np.array([[0.0, 0.0], [0.1, 0.0], [0.6, 0.8]])
    d = kb.dist_rows(a, b)
    assert np.isfinite(d[0]) and d[1] == np.inf and d[2] == np.inf


def test_dist_rows_dimension_mismatch():
    with pytest.raises(InputError):
        kb.dist_rows(np.zeros((2, 2)), np.zeros((2, 3)))
    with pytest.raises(InputError):
        kb.dist_matrix(np.zeros((2, 2)), np.zeros((4, 3)))


def test_certificate_reads_only_upper_triangle_pairs():
    rng = rng_from_seed(2)
    curve = kb.SampledCurve("ball", np.linspace(0.0, 2.0, 17),
                            interior_points(rng, 17, 2, max_norm=0.9))
    alpha, beta = 1.5, 0.3
    # reference: the full matrix, strict upper triangle read afterwards
    d = kb.dist_matrix(curve.points, curve.points)
    gaps = np.abs(curve.params[:, None] - curve.params[None, :])
    viol = np.maximum(d - (alpha * gaps + beta), (gaps / alpha - beta) - d)
    i, j = np.triu_indices(len(curve), k=1)
    worst = int(np.argmax(viol[i, j]))
    cert = kb.certify_quasi_geodesic(curve, alpha, beta)
    assert cert.max_violation == viol[i[worst], j[worst]]
    assert cert.worst_pair == (curve.params[i[worst]], curve.params[j[worst]])


# --- complex128 automorphism factors ---------------------------------------------

@pytest.mark.parametrize("seed", range(8))
def test_dressed_map_batched_eval_within_budget(seed):
    f = _dressed(pm.catalog("power", m=2, d=2), seed)
    pts = interior_points(rng_from_seed(100 + seed), 40, f.m, max_norm=0.999)
    batched = f.eval(pts)
    single = np.array([f.eval(p) for p in pts])
    assert np.max(np.abs(batched - single)) <= _eval_budget(f)
