"""Stacked frames, group primitives and trace documents against one index at a time.

`build_sequence` computes the frame of every index (t_n, k_n, l_n and the
automorphisms dressing f into h_n and g_n) as one pass over stacks, the
group primitives act on a leading stack axis, and the trace document
converts each per-index field once for all indices.  One matrix, one vector
or one index is a stack of one.  Each result must equal, bit for bit, the
per-index computation kept here as the reference: the single-matrix group
algorithms as they were before stacking, the per-index frame, and the
per-index trace document.
"""

import json
from dataclasses import dataclass

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
    one_minus_norm,
    rng_from_seed,
)

from test_stacked_jets import same_bits, sequence

DTYPES = (np.complex128, WIDE_COMPLEX)


# --- the single-matrix algorithms before stacking ---------------------------------

def _canonical_phase_reference(matrix):
    row = matrix[-1]
    idx = int(np.argmax(np.abs(row)))
    pivot = row[idx]
    mod = abs(pivot)
    out = matrix * (mod / pivot)
    out[-1, idx] = out[-1, idx].real
    return out


def _unitary_completion_reference(columns):
    given = as_wide_complex(columns)
    if given.ndim == 1:
        given = given[:, None]
    dim, count = given.shape
    cols = []
    for i, r in enumerate([*given.T, *np.eye(dim, dtype=WIDE_COMPLEX)]):
        if i >= count and len(cols) == dim:
            break
        for u in cols:
            r = r - (r * np.conj(u)).sum() * u
        rn = np.sqrt(float((np.abs(r) ** 2).sum().real))
        if rn < gm.GRAM_SCHMIDT_SKIP:
            if i < count:
                raise NumericError("Gram-Schmidt completion degenerated: dependent input columns")
            continue
        cols.append(r / rn)
    if len(cols) != dim:
        raise NumericError("Gram-Schmidt completion degenerated")
    return np.stack(cols, axis=1)


def _rotation_reference(v, dtype):
    u = _unitary_completion_reference(v)
    mat = np.eye(v.shape[0] + 1, dtype=WIDE_COMPLEX)
    mat[:-1, :-1] = u
    return _canonical_phase_reference(mat.astype(dtype))


def _cartan_reference(t, dim, dtype):
    tw = WIDE_REAL(t)
    mat = np.eye(dim + 1, dtype=WIDE_COMPLEX)
    mat[0, 0] = mat[-1, -1] = np.cosh(tw)
    mat[0, -1] = mat[-1, 0] = np.sinh(tw)
    return _canonical_phase_reference(mat.astype(dtype))


def _compose_reference(*mats):
    out = as_wide_complex(mats[0])
    for mat in mats[1:]:
        out = out @ as_wide_complex(mat)
    return _canonical_phase_reference(out.astype(np.result_type(*(a.dtype for a in mats))))


def _inverse_reference(mat):
    """J g* J when it is the inverse to 1e-8 (the acceptance before the
    roundoff-scaled one), else None."""
    j = gm.signature_matrix(mat.shape[0] - 1, dtype=mat.dtype)
    candidate = j @ mat.conj().T @ j
    check = as_wide_complex(candidate) @ as_wide_complex(mat)
    scale = abs(check[0, 0])
    if scale > 0 and np.max(np.abs(check / scale - np.eye(mat.shape[0]))) < 1e-8:
        return _canonical_phase_reference((as_wide_complex(candidate) / scale).astype(mat.dtype))
    return None


def _unit_rows(rng, count, dim):
    v = rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _test_vectors(rng, count, dim):
    """Seeded unit vectors, with e1-aligned and nearly e1-aligned rows."""
    v = _unit_rows(rng, count, dim)
    v[0] = np.eye(dim)[0]
    v[1] = -1j * np.eye(dim)[0]
    if count > 2:
        v[2, 1:] *= 1e-9
        v[2] /= np.linalg.norm(v[2])
    return v


@pytest.mark.parametrize("dtype", DTYPES)
def test_group_primitives_keep_their_bits(dtype):
    rng = rng_from_seed(13)
    for dim in range(1, 10):
        v = _test_vectors(rng, 5, dim).astype(dtype)
        stack = gm.rotations_e1(v, dtype=dtype)
        for i in range(v.shape[0]):
            ref = _rotation_reference(v[i], dtype)
            assert same_bits(stack[i], ref)
            assert same_bits(gm.rotation_mapping_e1(v[i], dtype=dtype).matrix, ref)
        t = rng.uniform(-17.9, 17.9, 4).astype(WIDE_REAL)
        flows = gm.cartans(t, dim, dtype=dtype)
        for i in range(t.shape[0]):
            assert same_bits(flows[i], _cartan_reference(t[i], dim, dtype))
            assert same_bits(gm.cartan(t[i], dim, dtype=dtype).matrix, flows[i])
        mats = np.stack([gm.random_automorphism(rng, dim, max_flow=4.0).matrix.astype(dtype)
                         * np.exp(0.7j * i) for i in range(4)])
        for i in range(4):
            assert same_bits(gm.Automorphism(mats[i]).matrix, _canonical_phase_reference(mats[i]))
        canonical = gm._canonical_phase(mats)
        inv = gm.inverses(canonical)
        both = gm.compose_stacks(canonical[0], canonical, inv)
        for i in range(4):
            ref = _inverse_reference(canonical[i])
            assert ref is not None and same_bits(inv[i], ref)
            one = gm.Automorphism._of_canonical(canonical[i])
            assert same_bits(gm.inverse(one).matrix, ref)
            assert same_bits(both[i], _compose_reference(canonical[0], canonical[i], inv[i]))


def test_stacked_completion_slices_equal_a_stack_of_one():
    rng = rng_from_seed(21)
    for dim in range(2, 10):
        for count in range(1, dim + 1):
            cols = np.linalg.qr(rng.standard_normal((3, dim, count))
                                + 1j * rng.standard_normal((3, dim, count)))[0]
            if count == 1:
                cols[0, :, 0] = np.eye(dim)[0]
            # final_normalization's columns: U / sqrt(lambda), orthonormal up to roundoff
            cols[1] *= 1.0 + 1e-12
            stack = gm._unitary_completion(cols)
            for i in range(3):
                one = gm._unitary_completion(cols[i][None])[0]
                assert same_bits(stack[i], one)
                assert same_bits(one, _unitary_completion_reference(cols[i]))


def test_stacked_completion_names_the_first_failing_entry():
    cols = np.zeros((4, 3, 2), dtype=complex)
    cols[:, :, 0] = np.eye(3)[0]
    cols[:, :, 1] = np.eye(3)[1]
    cols[2, :, 1] = cols[2, :, 0]  # dependent columns
    cols[3, :, 1] = cols[3, :, 0]
    with pytest.raises(NumericError, match="dependent input columns") as info:
        gm._unitary_completion(cols)
    assert info.value.chain == 2
    with pytest.raises(NumericError, match="dependent input columns"):
        _unitary_completion_reference(cols[2])
    v = _unit_rows(rng_from_seed(2), 4, 3)
    v[1] *= 0.5
    v[3] *= 2.0
    with pytest.raises(InputError, match=r"needs a unit vector, got \|v\| = 0\.5$"):
        gm.rotations_e1(v)


@pytest.mark.parametrize("dtype", DTYPES)
def test_inverse_of_large_flows_is_exact(monkeypatch, dtype):
    # J g* J g - I of a_t rounded to its dtype is roundoff of size eps e^{2t}:
    # the exact J g* J is accepted out to the flow cap, never a numerical inverse
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.inv called")

    monkeypatch.setattr(np.linalg, "inv", refuse)
    flows = [gm.cartan(float(t), 3, dtype=dtype) for t in range(8, 19)]
    stack = gm.inverses(np.stack([g.matrix for g in flows]))
    for t, g, inv in zip(range(8, 19), flows, stack):
        assert same_bits(gm.inverse(g).matrix, inv)
        # J g* J is a_{-t} up to a real scale
        exact = gm.cartan(-float(t), 3, dtype=dtype).matrix
        assert np.max(np.abs(inv / inv[-1, -1] - exact / exact[-1, -1])) <= 4 * np.finfo(dtype).eps


def test_stacked_inverse_falls_back_per_matrix():
    members = [gm.random_automorphism(rng_from_seed(s), 2).matrix for s in range(3)]
    outside = gm.Automorphism(np.diag([2.0, 1.0, 1.0]).astype(complex)).matrix
    stack = gm.inverses(np.stack(members[:2] + [outside] + members[2:]))
    for mat, inv in zip(members[:2] + [outside] + members[2:], stack):
        assert same_bits(inv, gm.inverse(gm.Automorphism._of_canonical(mat.copy())).matrix)
    assert np.abs(gm.compose_stacks(outside, stack[2])[0] - np.eye(3)).max() <= 1e-12


# --- stacked frames ---------------------------------------------------------------

@dataclass(frozen=True)
class _Frame:
    t: np.longdouble
    k_n: gm.Automorphism
    l_n: gm.Automorphism
    l_inv: gm.Automorphism
    pre_g: gm.Automorphism
    post_g: gm.Automorphism
    pre_conj: gm.Automorphism
    post_conj: gm.Automorphism
    psi0: np.ndarray


def _frame_reference(f, phi, p, psi0, psi):
    """One index's frame as build_sequence computed it before stacking."""
    m, M = f.m, f.M
    r = np.sqrt((np.abs(p) ** 2).sum().real)
    if float(r) <= 0:
        raise InputError("sequence element fixes 0; no flow parameter exists")
    t = np.arctanh(WIDE_REAL(r))
    if float(t) > rs.FLOW_PARAMETER_CAP:
        raise InputError(
            f"flow parameter {float(t):.3g} exceeds the cap {rs.FLOW_PARAMETER_CAP}; "
            "the boundary gap underflows beyond it")
    v = p / r
    k_n = gm.rotation_mapping_e1(v, dtype=WIDE_COMPLEX)
    fv = f.eval(v)
    fv_gap = abs(float(one_minus_norm(fv)))
    if fv_gap > 1e-9:
        raise InputError(
            f"map is not proper enough at the sequence direction: | |f(v)|-1 | = {fv_gap:.3g}")
    l_n = gm.rotation_mapping_e1(fv / np.sqrt((np.abs(fv) ** 2).sum().real), dtype=WIDE_COMPLEX)
    a_t_m = gm.cartan(t, m, dtype=WIDE_COMPLEX)
    a_mt_M = gm.cartan(-t, M, dtype=WIDE_COMPLEX)
    l_inv = gm.inverse(l_n)
    pre_conj = gm.compose(k_n, a_t_m)
    post_conj = gm.compose(a_mt_M, l_inv)
    if psi is None:
        pre_g, post_g = pre_conj, post_conj
    else:
        pre_g = gm.compose(gm.inverse(phi), pre_conj)
        post_g = gm.compose(post_conj, gm.Automorphism(as_wide_complex(psi.matrix)))
    return _Frame(t, k_n, l_n, l_inv, pre_g, post_g, pre_conj, post_conj, psi0)


FRAME_CASES = [(kind, double, conjugate) for kind, double in
               (("cartan", False), ("rotated", False), ("rotated", True))
               for conjugate in (False, True)]


def _assert_frames_equal_per_index(f, phis, psis):
    """Stacked frames, chain ends and alpha_n against the per-index frame;
    returns every stacked product."""
    phis, phi0, psi0, _ = rs._orbit_pass(phis, psis, f)
    frames, failure = rs._frames(f, phis, phi0, psi0, psis)
    assert failure is None and len(frames) == len(phis)
    h_ends, g_ends, conj_ends = rs._chain_ends(f, frames)
    alphas = gm.inverses(frames.pre_g)
    wrap = gm.Automorphism._of_canonical
    for i, phi in enumerate(phis):
        ref = _frame_reference(f, wrap(phi), phi0[i], psi0[i],
                               None if psis is None else wrap(psis[i]))
        assert same_bits(frames.t[i], ref.t) and same_bits(frames.psi0[i], ref.psi0)
        for name in ("k_n", "l_n", "l_inv", "pre_g", "post_g", "pre_conj", "post_conj"):
            assert same_bits(getattr(frames, name)[i], getattr(ref, name).matrix), name
        assert same_bits(alphas[i], gm.inverse(ref.pre_g).matrix)
        # each product canonicalized once, as the per-index compositions are
        for (pre, post), (a, b) in zip((h_ends, g_ends, conj_ends),
                                       ((ref.k_n, ref.l_inv), (ref.pre_g, ref.post_g),
                                        (ref.pre_conj, ref.post_conj))):
            one = f.with_precomposition(a).with_postcomposition(b)
            assert same_bits(pre[i], one.pre.matrix) and same_bits(post[i], one.post.matrix)
    return [frames.pre_g, frames.post_g, frames.pre_conj, frames.post_conj, alphas,
            *h_ends, *g_ends, *conj_ends]


def _file_sequence(dims, kind, seed, double):
    phis, psis = sequence(*dims, kind, seed=seed)
    if double:
        phis, psis = gm.as_double_stack(phis), gm.as_double_stack(psis)
    return phis, psis


@pytest.mark.parametrize("kind,double,conjugate", FRAME_CASES)
@pytest.mark.parametrize("dims", ((2, 4), (3, 5), (4, 7)))
def test_stacked_frames_equal_per_index_frames(dims, kind, double, conjugate):
    # double matrices stand for file sequences
    f = pm.as_transformed(bm.catalog("linear", m=dims[0], M=dims[1]))
    phis, psis = _file_sequence(dims, kind, sum(dims), double)
    _assert_frames_equal_per_index(f, phis, None if conjugate else psis)


@pytest.mark.parametrize("dims,seed,conjugate", (((2, 4), 0, True), ((2, 4), 1, False),
                                                 ((4, 7), 1, True), ((6, 9), 7, True)))
def test_each_product_is_canonicalized_once(dims, seed, conjugate):
    # seeded file sequences holding a product that a second canonical phase
    # would move: rounding |pivot| / pivot can leave a factor other than 1
    f = pm.as_transformed(bm.catalog("linear", m=dims[0], M=dims[1]))
    phis, psis = _file_sequence(dims, "rotated", seed, True)
    products = _assert_frames_equal_per_index(f, phis, None if conjugate else psis)
    assert any(not same_bits(mats, gm._canonical_phase(mats)) for mats in products)


def _trace_document_reference(result):
    """The trace document as written one index at a time, from the rows of
    the trace's columns."""
    def complex_json(arr):
        a = np.asarray(arr, dtype=np.complex128)
        return np.stack([a.real, a.imag], axis=-1).tolist()

    def jet_json(jet, i):
        return {"value": complex_json(jet.value[i]), "first": complex_json(jet.first[i]),
                "second": complex_json(jet.second[i]), "error_norm": float(jet.error_norm[i])}

    def matrix_json(stack, i):
        return complex_json(gm.Automorphism._of_canonical(stack[i]).as_double().matrix)

    def residual(column, i):
        return None if column is None else float(column[i])

    trace = result.trace
    doc = rs.trace_document(result)
    doc["indices"] = [{
        "order": i, "t_n": float(trace.t_n[i]), "phi_gap": float(trace.phi_gap[i]),
        "psi_gap": float(trace.psi_gap[i]),
        "compactness_dist": float(trace.compactness_dist[i]),
        "g_value_norm": float(np.linalg.norm(trace.g_jet.value[i])),
        "symmetry_residual": residual(trace.symmetry_residual, i),
        "conjugation_residual": residual(trace.conjugation_residual, i),
        "k_n": matrix_json(trace.k_n, i), "l_n": matrix_json(trace.l_n, i),
        "alpha_n": matrix_json(trace.alpha_n, i), "beta_n": matrix_json(trace.beta_n, i),
        "h_jet": jet_json(trace.h_jet, i), "g_jet": jet_json(trace.g_jet, i),
    } for i in range(len(trace))]
    return doc


@pytest.mark.parametrize("kind,double,conjugate", FRAME_CASES)
def test_trace_document_is_byte_identical(kind, double, conjugate):
    f = bm.catalog("linear", m=3, M=5)
    phis, psis = sequence(3, 5, kind, seed=4)
    phis, psis = phis[:8], psis[:8]
    if double:
        phis, psis = gm.as_double_stack(phis), gm.as_double_stack(psis)
    result = rs.run_pipeline(f, phis, psis, conjugate=conjugate, morse_trials=1)
    assert json.dumps(rs.trace_document(result)) == json.dumps(_trace_document_reference(result))


# --- a failing frame: first index, first check, prefix jets first -----------------

def _on_sphere(m):
    """A matrix whose image of 0 lies exactly on the unit sphere: t_n = inf."""
    mat = np.eye(m + 1, dtype=complex)
    mat[0, -1] = 1.0
    return gm.Automorphism(mat)


def _half_map():
    """z -> (z1, z2/2, 0): proper only in the e1 direction."""
    return pm.as_transformed(pm.ProperMapSpec(2, 3, ((((1, 0), 1.0),), (((0, 1), 0.5),), ())))


def _along_e2(t):
    swap = np.eye(3, dtype=WIDE_COMPLEX)[[1, 0, 2]]
    return gm.Automorphism(swap @ gm.cartan(t, 2, dtype=WIDE_COMPLEX).matrix @ swap)


FAILURES = {
    # name: (map, phis, index that fails, message)
    "fixes 0": (lambda: pm.as_transformed(bm.catalog("linear", m=2, M=4)),
                lambda: [gm.cartan(1.0, 2), gm.cartan(2.0, 2), gm.Automorphism.identity(2),
                         _on_sphere(2), gm.cartan(3.0, 2)],
                2, "^sequence element fixes 0; no flow parameter exists$"),
    "cap": (lambda: pm.as_transformed(bm.catalog("linear", m=2, M=4)),
            lambda: [gm.cartan(1.0, 2), gm.cartan(19.0, 2, dtype=WIDE_COMPLEX),
                     gm.Automorphism.identity(2), _on_sphere(2)],
            1, "^flow parameter 19 exceeds the cap 18.0; the boundary gap underflows beyond it$"),
    "not proper": (_half_map,
                   lambda: [gm.cartan(1.0, 2, dtype=WIDE_COMPLEX), _along_e2(2.0),
                            _on_sphere(2), gm.cartan(19.0, 2, dtype=WIDE_COMPLEX)],
                   1, r"^map is not proper enough at the sequence direction: \| \|f\(v\)\|-1 \| = 0\.5$"),
    # beyond the cap and not proper in its direction: the cap comes first
    "cap before properness": (_half_map,
                              lambda: [gm.cartan(1.0, 2, dtype=WIDE_COMPLEX), _along_e2(19.0),
                                       gm.Automorphism.identity(2)],
                              1, "^flow parameter 19 exceeds the cap"),
}


@pytest.mark.parametrize("case", FAILURES)
def test_failing_frame_raises_the_first_failure_after_prefix_jets(monkeypatch, case):
    # conjugate mode needs no certified pairs; later rows would warn on
    # arctanh(1) or fail other checks if the pass reached them (warnings are
    # errors in this suite)
    make_map, make_phis, index, message = FAILURES[case]
    f, phis = make_map(), np.stack([phi.matrix for phi in make_phis()])
    prefixes = []
    jets = rs._frame_jets_in_order

    def spy(f, frames, conj_pts, conjugate):
        prefixes.append(len(frames))
        return jets(f, frames, conj_pts, conjugate)

    monkeypatch.setattr(rs, "_frame_jets_in_order", spy)
    with pytest.raises(InputError, match=message) as info:
        rs.build_sequence(f, phis, conjugate=True, allow_non_escaping=True)
    assert prefixes == [index]
    # one index at a time meets the same failure first, with the same message
    wide, phi0, psi0, _ = rs._orbit_pass(phis, None, f)
    with pytest.raises(InputError) as alone:
        for phi, p, q in zip(wide, phi0, psi0):
            _frame_reference(f, phi, p, q, None)
    assert str(alone.value) == str(info.value)
