"""Stacked Siegel chains against one chain at a time, and the jet fold
against independent references.

`build_sequence` takes the jets of all h_n chains in one pass and of all
g_n chains in a second one.  Each chain of a stack keeps the arithmetic of a
lone chain, so stacked jets, evaluations and pair residuals must equal a
loop of one-chain calls bit for bit.  The polynomial stage is compiled into
tables and must equal the per-monomial loop it replaced (kept here) bit for
bit.  The Hessian fold J_r^T H_s J_r sums in another order than the einsum
it replaced (kept here); the two must agree within a budget fixed from the
extended-precision eps and the chain's conditioning, and the fold must stay
within that budget of a 50-digit mpmath evaluation of the chain.
"""

import mpmath
import numpy as np
import pytest

import ballmaps as bm
from ballmaps import group_models as gm
from ballmaps import proper_maps as pm
from ballmaps import rescaling as rs
from ballmaps.errors import InputError, NumericError
from ballmaps.numerics import (
    WIDE_COMPLEX,
    WIDE_REAL,
    as_wide_complex,
    interior_points,
    one_minus_norm,
    random_unitary,
    rng_from_seed,
    siegel_interior_points,
)

EPS = float(np.finfo(np.float64).eps)
EPS_WIDE = float(np.finfo(WIDE_REAL).eps)
N_VALUES = range(1, 11)
MAPS = {
    "linear(2,4)": lambda: bm.catalog("linear", m=2, M=4),
    "linear(3,5)": lambda: bm.catalog("linear", m=3, M=5),
    "whitney": lambda: bm.catalog("whitney"),
    "power(2,2)": lambda: bm.catalog("power", m=2, d=2),
}
SEQUENCES = ("cartan", "rotated")


def same_bits(a, b):
    """Equal values and equal signs of zero (NaN matching NaN), any dtype."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape or a.dtype != b.dtype:
        return False
    for x, y in ((a.real, b.real), (a.imag, b.imag)):
        ok = ((x == y) & (np.signbit(x) == np.signbit(y))) | (np.isnan(x) & np.isnan(y))
        if not np.all(ok):
            return False
    return True


def sequence(m, M, kind, seed=7):
    """The cartan sequence, or k a_n k^-1 with a seeded Haar unitary k."""
    if kind == "cartan":
        pairs = rs.cartan_sequence(m, M, N_VALUES)
        return [p for p, _ in pairs], [q for _, q in pairs]
    k = np.eye(m + 1, dtype=WIDE_COMPLEX)
    k[:m, :m] = random_unitary(rng_from_seed(seed), m)
    phis = [gm.Automorphism(k @ gm.cartan(float(n), m, dtype=WIDE_COMPLEX).matrix @ k.conj().T)
            for n in N_VALUES]
    return phis, [pm.block_extend(phi, M) for phi in phis]


def chains(name, kind):
    """The h_n and g_n maps build_sequence forms: sequence mode for the
    linear maps, flow conjugation for whitney and power."""
    f = pm.as_transformed(MAPS[name]())
    conjugate = not name.startswith("linear")
    phis, psis = sequence(f.m, f.M, kind)
    phis, phi0, psi0, _ = rs._orbit_pass(phis, None if conjugate else psis, f)
    frames = [rs._frame(f, phi, p, q, None if conjugate else psi)
              for phi, p, q, psi in zip(phis, phi0, psi0, psis)]
    h = [f.with_precomposition(fr.k_n).with_postcomposition(fr.l_inv) for fr in frames]
    g = [f.with_precomposition(fr.pre_g).with_postcomposition(fr.post_g) for fr in frames]
    return h, g


def origin_image(matrix):
    """g(0) for one widened matrix alone: the reference for the stacked
    orbit pass."""
    return gm._mobius_apply(as_wide_complex(matrix),
                            np.zeros(matrix.shape[0] - 1, dtype=WIDE_COMPLEX))


def moebius_stack(*matrices, name="pre"):
    """A one-stage chain per matrix, stacked."""
    stage = pm._MoebiusStage(np.stack([np.asarray(a, dtype=complex) for a in matrices]), name=name)
    dim = stage.dim_in
    return pm.SiegelMap([stage], dim, dim, (len(matrices),))


# --- stacking changes no bit ------------------------------------------------------

@pytest.mark.parametrize("kind", SEQUENCES)
@pytest.mark.parametrize("name", MAPS)
def test_stacked_jets_equal_one_chain_loop(name, kind):
    conj_pts = siegel_interior_points(rng_from_seed(31), 20, MAPS[name]().m, scale=0.25)
    for maps in chains(name, kind):
        stack = pm.siegel_conjugate(maps)
        zero = np.zeros(stack.m)
        wide = stack._jet_wide(zero)
        jets = pm.jet_at_zero(stack, fd_tol=np.inf)
        values = stack.eval(conj_pts)
        assert len(jets) == len(maps) and values.shape[0] == len(maps)
        for i, one in enumerate(maps):
            single = pm.siegel_conjugate(one)
            for got, ref in zip(wide, single._jet_wide(zero)):
                assert same_bits(got[i], ref[0])
            ref_jet = pm.jet_at_zero(single, fd_tol=np.inf)
            for field in ("value", "first", "second"):
                assert same_bits(getattr(jets[i], field), getattr(ref_jet, field))
            assert same_bits(jets[i].error_norm, ref_jet.error_norm)
            assert same_bits(values[i], single.eval(conj_pts))


@pytest.mark.parametrize("double", (False, True))
@pytest.mark.parametrize("kind", SEQUENCES)
@pytest.mark.parametrize("name", MAPS)
def test_orbit_pass_equals_per_index_images(name, kind, double):
    # phi acts by its wide canonical matrix, the one t_n comes from; psi by
    # its own matrix widened; without psi, psi_n(0) = f(phi_n(0)).  Double
    # matrices stand for file sequences, whose canonical phase moves in
    # extended precision.
    f = pm.as_transformed(MAPS[name]())
    phis, psis = sequence(f.m, f.M, kind)
    if double:
        phis, psis = [p.as_double() for p in phis], [q.as_double() for q in psis]
    wide, phi0, psi0, _ = rs._orbit_pass(phis, psis, f)
    f_phi0 = rs._orbit_pass(phis, None, f)[2]
    for i, (phi, psi) in enumerate(zip(phis, psis)):
        canonical = gm.Automorphism(as_wide_complex(phi.matrix)).matrix
        assert same_bits(wide[i].matrix, canonical)
        p = origin_image(canonical)
        assert same_bits(phi0[i], p)
        assert same_bits(psi0[i], origin_image(psi.matrix))
        assert same_bits(f_phi0[i], f.eval(p))


@pytest.mark.parametrize("conjugate", (False, True))
@pytest.mark.parametrize("seed", (7, 8, 10))
def test_phi_gap_is_the_gap_behind_t_n(seed, conjugate):
    # a file sequence: double matrices, recanonicalised in extended precision
    f = pm.as_transformed(bm.catalog("linear", m=3, M=5))
    phis, psis = sequence(3, 5, "rotated", seed=seed)
    phis, psis = [p.as_double() for p in phis], [q.as_double() for q in psis]
    trace = rs.build_sequence(f, phis, psis, conjugate=conjugate)
    for idx, phi in zip(trace.indices, phis):
        p = origin_image(gm.Automorphism(as_wide_complex(phi.matrix)).matrix)
        assert idx.t_n == float(np.arctanh(np.sqrt((np.abs(p) ** 2).sum().real)))
        assert idx.phi_gap == float(one_minus_norm(p))


def _pair_residual_reference(f, phi, psi, sample_count, seed):
    """verify_symmetry_pair as one pair and two 2-D actions, before stacking."""
    pts = interior_points(rng_from_seed(seed), sample_count, f.m, max_norm=0.95)
    lhs = _mobius_2d_reference(psi.matrix, f.eval(pts))
    rhs = f.eval(_mobius_2d_reference(phi.matrix, pts))
    return float(np.max(np.linalg.norm((lhs - rhs).astype(np.complex128), axis=1)))


@pytest.mark.parametrize("kind", SEQUENCES)
@pytest.mark.parametrize("name", MAPS)
def test_stacked_pair_residuals_equal_per_pair_calls(name, kind):
    # whitney and power are no members: their residuals are large, still exact
    f = pm.as_transformed(MAPS[name]())
    phis, psis = sequence(f.m, f.M, kind)
    for wide in (False, True):
        pairs = [(p, q) if wide else (p.as_double(), q.as_double()) for p, q in zip(phis, psis)]
        stacked = pm.symmetry_residuals(f, *zip(*pairs), sample_count=64, seed=29)
        for (phi, psi), got in zip(pairs, stacked):
            one = pm.verify_symmetry_pair(f, phi, psi, sample_count=64, seed=29).residual
            assert same_bits(got, one)
            assert same_bits(one, _pair_residual_reference(f, phi, psi, 64, 29))


def _mobius_2d_reference(matrix, points, den_tol=1e-13):
    """The 2-D fractional-linear action that a stack of one replaced."""
    pts = np.atleast_2d(np.asarray(points))
    if pts.dtype != matrix.dtype:
        common = np.result_type(pts.dtype, matrix.dtype)
        pts, matrix = pts.astype(common), matrix.astype(common)
    a, b, c, d = matrix[:-1, :-1], matrix[:-1, -1], matrix[-1, :-1], matrix[-1, -1]
    num = pts @ a.T + b
    den = pts @ c + d
    scale = float(np.max(np.abs(matrix[-1]))) * float(max(1.0, np.max(np.abs(pts)))) if pts.size else 1.0
    if np.any(np.abs(den) <= den_tol * max(scale, 1.0)):
        raise NumericError("fractional-linear action undefined: denominator vanishes")
    out = num / den[:, None]
    return out[0] if np.ndim(points) == 1 else out


@pytest.mark.parametrize("dtype", (np.complex128, WIDE_COMPLEX))
def test_stacked_mobius_slices_equal_2d_action(dtype):
    rng = rng_from_seed(5)
    mats = np.stack([gm.random_automorphism(rng, 3, max_flow=3.0).matrix for _ in range(6)])
    mats = mats.astype(dtype)
    shared = interior_points(rng, 40, 3).astype(dtype)
    own = np.stack([interior_points(rng, 40, 3) for _ in range(6)]).astype(dtype)
    for pts, pick in ((shared, lambda i: shared), (own, lambda i: own[i])):
        out = gm._mobius_apply(mats, pts)
        assert out.shape == (6, 40, 3) and out.dtype == dtype
        for i in range(6):
            assert same_bits(out[i], _mobius_2d_reference(mats[i], pick(i)))
    single = gm._mobius_apply(mats, shared[0])
    assert same_bits(single, np.stack([_mobius_2d_reference(a, shared[0]) for a in mats]))


@pytest.mark.parametrize("pts_dtype", (np.complex128, WIDE_COMPLEX))
@pytest.mark.parametrize("mat_dtype", (np.complex128, WIDE_COMPLEX))
def test_single_matrix_is_a_stack_of_one(mat_dtype, pts_dtype):
    # a 2-D matrix runs the stacked body as a stack of one; its results keep
    # the bits of the 2-D action, for a batch, one point, no points, mixed
    # dtypes, the Cayley matrices and flows out to t = 12
    rng = rng_from_seed(11)
    mats = [gm.random_automorphism(rng, 4, max_flow=3.0).matrix, bm.cartan(12.0, 4).matrix,
            gm.cayley_matrix(4), gm.cayley_inverse_matrix(4)]
    batches = [interior_points(rng, 33, 4), interior_points(rng, 1, 4)[0],
               np.zeros((0, 4), dtype=complex), np.zeros(4, dtype=complex)]
    for mat in mats:
        mat = np.asarray(mat).astype(mat_dtype)
        for pts in batches:
            pts = pts.astype(pts_dtype)
            got = gm._mobius_apply(mat, pts)
            assert same_bits(got, _mobius_2d_reference(mat, pts))
    flat = np.array([[1.0, 0.0], [1.0, -1.0]], dtype=complex)
    with pytest.raises(NumericError, match="denominator vanishes"):
        gm._mobius_apply(flat, np.array([1.0 + 0.0j]))


# --- the compiled polynomial stage ------------------------------------------------

def _monomial(z, exps):
    out = WIDE_COMPLEX(1.0)
    for k, e in enumerate(exps):
        if e:
            out = out * z[k] ** e
    return out


def _poly_jet_reference(spec, z):
    """The per-monomial loop the compiled tables replaced, at one point."""
    m, M = spec.m, spec.M
    val = np.zeros(M, dtype=WIDE_COMPLEX)
    jac = np.zeros((M, m), dtype=WIDE_COMPLEX)
    hess = np.zeros((M, m, m), dtype=WIDE_COMPLEX)
    for j, comp in enumerate(spec.components):
        for exps, coef in comp:
            cw = WIDE_COMPLEX(coef)
            val[j] += cw * _monomial(z, exps)
            for k, ek in enumerate(exps):
                if ek == 0:
                    continue
                lowered = list(exps)
                lowered[k] -= 1
                jac[j, k] += cw * ek * _monomial(z, lowered)
                if ek >= 2:
                    lowered2 = list(lowered)
                    lowered2[k] -= 1
                    hess[j, k, k] += cw * ek * (ek - 1) * _monomial(z, lowered2)
                for l, el in enumerate(exps):
                    if l == k or el == 0:
                        continue
                    mixed = list(lowered)
                    mixed[l] -= 1
                    hess[j, k, l] += cw * ek * el * _monomial(z, mixed)
    return val, jac, hess


def _mixed_spec(seed):
    """Seeded monomials of degree 0..MAX_DEGREE in three variables, several
    per component, a repeated monomial and a top-degree mixed one included."""
    rng = rng_from_seed(seed)
    comps = []
    for j in range(4):
        terms = []
        for _ in range(j + 2):
            deg = int(rng.integers(0, pm.MAX_DEGREE + 1))
            cuts = np.sort(rng.integers(0, deg + 1, size=2))
            exps = tuple(int(e) for e in np.diff([0, *cuts, deg]))
            terms.append((exps, complex(*rng.uniform(-3.0, 3.0, size=2))))
        comps.append(tuple(terms))
    comps[0] += ((comps[0][0][0], 0.5 - 0.25j), ((3, 3, pm.MAX_DEGREE - 6), 1.0 + 2.0j))
    return pm.ProperMapSpec(3, 4, tuple(comps))


POLY_SPECS = {
    "whitney": lambda: bm.catalog("whitney"),
    "power(3,3)": lambda: bm.catalog("power", m=3, d=3),
    "power(2,4)": lambda: bm.catalog("power", m=2, d=4),
    "mixed": lambda: _mixed_spec(17),
}


@pytest.mark.parametrize("name", POLY_SPECS)
def test_compiled_poly_jet_equals_monomial_loop(name):
    spec = POLY_SPECS[name]()
    rng = rng_from_seed(19)
    z = as_wide_complex(rng.standard_normal((6, spec.m)) + 1j * rng.standard_normal((6, spec.m)))
    z[0] = 0.0
    z[1, 0] = -0.0  # signed zeros, where z**2 by squaring would differ
    z[2, -1] = complex(0.0, -0.0)
    val, jac, hess = pm._PolyStage(spec).jet(z)
    for i in range(z.shape[0]):
        ref = _poly_jet_reference(spec, z[i])
        for got, want in zip((val[i], jac[i], hess[i]), ref):
            assert same_bits(got, want)


# --- the Hessian fold: contraction order and an mpmath oracle ---------------------

def _einsum_fold(g, w0):
    """The fold before stacking: einsum over one chain."""
    z = as_wide_complex(w0)
    jac = np.eye(g.m, dtype=WIDE_COMPLEX)
    hess = np.zeros((g.m,) * 3, dtype=WIDE_COMPLEX)
    val = z
    for stage in g.stages:
        sval, sjac, shess = (arr[0] for arr in stage.jet(val[None]))
        hess = (np.einsum("jpq,pk,ql->jkl", shess, jac, jac)
                + np.einsum("jp,pkl->jkl", sjac, hess))
        jac = sjac @ jac
        val = sval
    return val, jac, hess


def _conditioning(tmap):
    """cond of build_sequence: the largest entries (at least 1) of the two
    automorphism factors, multiplied."""
    return (max(1.0, float(np.max(np.abs(tmap.pre.matrix.astype(np.complex128)))))
            * max(1.0, float(np.max(np.abs(tmap.post.matrix.astype(np.complex128))))))


def _fold_budget(g, cond, hess):
    """Two summation orders of the same K = P^2 + P products per entry and
    stage differ by at most 2 K eps |terms|; over S stages, with terms scaled
    by the conditioning and the size of the Hessian."""
    p = max(g.m, g.M)
    return 2 * len(g.stages) * (p * p + p) * EPS_WIDE * cond * max(1.0, float(np.max(np.abs(hess))))


@pytest.mark.parametrize("kind", SEQUENCES)
@pytest.mark.parametrize("name", MAPS)
def test_sandwich_fold_within_budget_of_einsum(name, kind):
    for maps in chains(name, kind):
        for tmap in maps:
            g = pm.siegel_conjugate(tmap)
            zero = np.zeros(g.m)
            val, jac, hess = (arr[0] for arr in g._jet_wide(zero))
            ref_val, ref_jac, ref_hess = _einsum_fold(g, zero)
            # the fold moved only the Hessian
            assert same_bits(val, ref_val) and same_bits(jac, ref_jac)
            diff = float(np.max(np.abs(hess - ref_hess)))
            assert diff <= _fold_budget(g, _conditioning(tmap), ref_hess)


def _mp(x):
    """A clongdouble (or complex) as an exact mpc: double head plus tail."""
    parts = []
    for r in (np.real(x), np.imag(x)):
        head = float(r)
        parts.append(mpmath.mpf(head) + mpmath.mpf(float(WIDE_REAL(r) - WIDE_REAL(head))))
    return mpmath.mpc(*parts)


def _mp_chain(g):
    """The one-chain map g at 50 digits, from the exact stage data."""
    steps = []
    for stage in g.stages:
        if isinstance(stage, pm._PolyStage):
            spec = stage.spec
            steps.append(lambda z, spec=spec: [
                mpmath.fsum(_mp(c) * mpmath.fprod(z[k] ** e for k, e in enumerate(exps))
                            for exps, c in comp)
                for comp in spec.components])
        else:
            mat = [[_mp(x) for x in row] for row in stage.matrix[0]]

            def step(z, mat=mat):
                d = len(z)
                den = mpmath.fsum(mat[d][k] * z[k] for k in range(d)) + mat[d][d]
                return [(mpmath.fsum(mat[i][k] * z[k] for k in range(d)) + mat[i][d]) / den
                        for i in range(len(mat) - 1)]
            steps.append(step)

    def chain(z):
        for step in steps:
            z = step(z)
        return z
    return chain


def _mp_jet(g, step=mpmath.mpf("1e-12")):
    """Value, first and second derivatives at 0 by 50-digit central differences."""
    chain = _mp_chain(g)
    m = g.m

    def at(*moves):
        z = [mpmath.mpc(0)] * m
        for k, s in moves:
            z[k] += s * step
        return chain(z)

    f0 = at()
    first = np.empty((g.M, m), dtype=object)
    second = np.empty((g.M, m, m), dtype=object)
    for k in range(m):
        plus, minus = at((k, 1)), at((k, -1))
        for j in range(g.M):
            first[j, k] = (plus[j] - minus[j]) / (2 * step)
            second[j, k, k] = (plus[j] - 2 * f0[j] + minus[j]) / step**2
        for l in range(k + 1, m):
            pp, pm_, mp_, mm = (at((k, a), (l, b)) for a, b in ((1, 1), (1, -1), (-1, 1), (-1, -1)))
            for j in range(g.M):
                second[j, k, l] = second[j, l, k] = (pp[j] - pm_[j] - mp_[j] + mm[j]) / (4 * step**2)
    return np.array(f0, dtype=object), first, second


@pytest.mark.parametrize("name", ("linear(3,5)", "whitney", "power(2,2)"))
def test_h_chain_jet_against_mpmath(name):
    h_maps, _ = chains(name, "rotated")
    with mpmath.workdps(50):
        for n in (2, 6, 10):
            tmap = h_maps[n - 1]
            g = pm.siegel_conjugate(tmap)
            wide = [arr[0] for arr in g._jet_wide(np.zeros(g.m))]
            doubles = g.jet_at(np.zeros(g.m))
            budget = _fold_budget(g, _conditioning(tmap), wide[2])
            for got_wide, got, ref in zip(wide, doubles, _mp_jet(g)):
                for x_wide, x, r in zip(got_wide.ravel(), got.ravel(), ref.ravel()):
                    # the extended-precision fold, then its rounding to double
                    assert float(abs(_mp(x_wide) - r)) <= budget
                    assert float(abs(_mp(x) - r)) <= EPS * float(abs(r)) + budget


# --- failures stay per chain ------------------------------------------------------

INVERSION = [[0.0, 1.0], [1.0, 0.0]]  # z -> 1/z: its denominator vanishes at 0
IDENTITY = np.eye(2)


def test_vanishing_denominator_fails_its_chain_only():
    message = "^pre stage undefined: denominator vanishes$"
    with pytest.raises(NumericError, match=message) as info:
        moebius_stack(IDENTITY, INVERSION, IDENTITY).jet_at(np.zeros(1))
    assert info.value.chain == 1
    with pytest.raises(NumericError, match=message):
        moebius_stack(INVERSION).jet_at(np.zeros(1))
    moebius_stack(IDENTITY, IDENTITY).jet_at(np.zeros(1))
    with pytest.raises(NumericError, match="^fractional-linear action undefined") as info:
        moebius_stack(IDENTITY, INVERSION).eval(np.zeros((1, 1)))
    assert info.value.chain == 1
    moebius_stack(IDENTITY, IDENTITY).eval(np.zeros((1, 1)))


def test_denominator_scale_is_per_chain():
    # z -> 1e12 z has denominator 1e-12, far above 1e-13 times its own scale
    # 1; pooled with z -> 1e-3 z (scale 1e3) it would fall below 1e-13 * 1e3
    tiny = [[1.0, 0.0], [0.0, 1e-12]]
    large = [[1.0, 0.0], [0.0, 1e3]]
    jets = pm.jet_at_zero(moebius_stack(tiny, large))
    for jet, mat in zip(jets, (tiny, large)):
        alone = pm.jet_at_zero(moebius_stack(mat))[0]
        assert same_bits(jet.first, alone.first) and same_bits(jet.second, alone.second)
    assert jets[0].first[0, 0] == pytest.approx(1e12, rel=1e-15)
    pts = np.array([[0.3 + 0.1j]])
    out = gm._mobius_apply(np.stack([tiny, large]).astype(complex), pts)
    assert same_bits(out[0], _mobius_2d_reference(np.array(tiny, dtype=complex), pts))
    # per-chain points: the denominator 1e-11 of z -> z / (z - 0.3 + 1e-11)
    # at 0.3 passes against its points' reach 1; pooled with a neighbour's
    # point 1e3 it would fall below 1e-13 * 1e3
    near = np.array([[1.0, 0.0], [1.0, -0.3 + 1e-11]], dtype=complex)
    own = np.array([[[0.3]], [[1e3]]], dtype=complex)
    out = gm._mobius_apply(np.stack([near, np.eye(2, dtype=complex)]), own)
    assert same_bits(out[0], _mobius_2d_reference(near, own[0]))


def test_fd_tolerance_is_per_chain():
    h_maps, _ = chains("whitney", "rotated")
    stack = pm.siegel_conjugate(h_maps)
    errs = np.array([jet.error_norm for jet in pm.jet_at_zero(stack, fd_tol=np.inf)])
    assert errs.max() > errs.min() > 0.0
    # every chain at its own error passes, though a pooled check would not
    pm.jet_at_zero(stack, fd_tol=errs)
    tol = errs.copy()
    tol[3] = errs[3] / 2
    message = f"chain-rule jet disagrees with finite differences: {errs[3]:.3g}"
    with pytest.raises(NumericError) as info:
        pm.jet_at_zero(stack, fd_tol=tol)
    assert str(info.value) == message and info.value.chain == 3
    with pytest.raises(NumericError) as info:
        pm.jet_at_zero(pm.siegel_conjugate(h_maps[3]), fd_tol=tol[3])
    assert str(info.value) == message
    pm.jet_at_zero(pm.siegel_conjugate(h_maps[:3] + h_maps[4:]), fd_tol=np.delete(tol, 3))


def test_build_sequence_raises_the_first_failure_in_index_order():
    # index 0 (t = 16) fails in its conjugation residual, index 1 (t = 19) at
    # the flow cap; a build of one index at a time meets the numeric failure
    # first, and so must the stacked build
    f = bm.catalog("linear", m=3, M=5)
    pairs = rs.cartan_sequence(3, 5, [16, 19])
    phis, psis = [p for p, _ in pairs], [q for _, q in pairs]
    with pytest.raises(InputError, match="exceeds the cap"):
        rs.build_sequence(f, phis[1:], psis[1:], allow_non_escaping=True)
    with pytest.raises(NumericError) as alone:
        rs.build_sequence(f, phis[:1], psis[:1], allow_non_escaping=True)
    with pytest.raises(NumericError) as both:
        rs.build_sequence(f, phis, psis)
    assert str(both.value) == str(alone.value)
    assert "denominator vanishes" in str(both.value)


PHASES = ("h jet", "g jet", "conjugation of g", "conjugation of conjugate", "compactness")


@pytest.mark.parametrize("seed", range(8))
def test_stacked_failures_surface_in_index_order(monkeypatch, seed):
    # a stand-in for the stacked pass, whose stacks (the conjugation one holds
    # the g chains, then their conjugates) each raise at their first failing
    # chain; the build must raise the failure of the lowest failing index
    rng = np.random.default_rng(seed)
    n = 12
    failing = rng.choice(n, size=rng.integers(1, 5), replace=False)
    fails = {int(i): PHASES[rng.integers(len(PHASES))] for i in failing}

    def stacked_pass(f, frames, conj_pts, conjugate):
        stacks = ([("h jet", i) for i in frames], [("g jet", i) for i in frames],
                  [("conjugation of g", i) for i in frames]
                  + [("conjugation of conjugate", i) for i in frames],
                  [("compactness", i) for i in frames])
        for stack in stacks:
            for chain, (phase, i) in enumerate(stack):
                if fails.get(i) == phase:
                    raise NumericError(f"index {i}: {phase}", chain=chain)
        return "columns"

    monkeypatch.setattr(rs, "_frame_jets", stacked_pass)
    first = min(fails)
    with pytest.raises(NumericError, match=f"^index {first}: {fails[first]}$"):
        rs._frame_jets_in_order(None, list(range(n)), None, False)
    healthy = [i for i in range(n) if i not in fails]
    assert rs._frame_jets_in_order(None, healthy, None, False) == "columns"


def test_stack_must_share_its_core():
    with pytest.raises(InputError, match="one polynomial core"):
        pm.siegel_conjugate([bm.catalog("whitney"), bm.catalog("power", m=2, d=2)])
