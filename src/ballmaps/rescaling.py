"""Rescaling a proper map along a diverging symmetry sequence to its normal form.

Given a proper polynomial map f fixing 0 and a sequence of symmetry pairs
(phi_n, psi_n) whose orbits escape to the boundary, the engine recenters f
along the sequence,

    h_n = l_n^{-1} o f o k_n,      g_n = beta_n o f o alpha_n^{-1},

with k_n, l_n rotations aligning e1 with the escape directions,
t_n = artanh|phi_n(0)|, alpha_n = a_{-t_n} k_n^{-1} phi_n and
beta_n = a_{-t_n} l_n^{-1} psi_n.  The two recenterings are conjugate by the
hyperbolic flow, which in Siegel coordinates is a diagonal dilation; the
induced exact scaling of every first- and second-order jet coefficient is
tabulated here and verified numerically.  Coefficients suppressed by the
scaling die off, the surviving jet is a quadratic polynomial with a rigid
structure (a positive dilation lambda, a scaled-isometric linear block U,
and a vanishing quadratic block L), and a final unitary completion flattens
the limit to the linear embedding (z, 0).

All matrix products run in extended precision: the factors have entries of
size e^{t_n} while the products are O(1), so double-precision accumulation
would inject noise of order e^{2 t_n} * 1e-16 into every jet.
"""

import json
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import (
    DiagnosticError,
    InputError,
    NumericError,
    PatternViolationError,
    SymmetryError,
)
from . import group_models as gm
from . import kobayashi as kb
from . import proper_maps as pm
from .numerics import (
    WIDE_COMPLEX,
    WIDE_REAL,
    as_wide_complex,
    one_minus_norm,
    rng_from_seed,
    siegel_interior_points,
    unit_vectors,
)

FLOW_PARAMETER_CAP = 18.0
GAP_THRESHOLD = 1e-2
PATTERN_TOL = 1e-6

# The ball flow a_t acts on Siegel coordinates as the dilation with
# parameter 2t, so scaling exponents tabulated for the dilation are
# evaluated at s = 2 t_n.
SIEGEL_PARAMETER_RATIO = 2.0

TRACE_FORMAT = "ballmaps-trace-v1"


# --- the scaling tables -------------------------------------------------------

@dataclass(frozen=True)
class ScalingProfile:
    """Exponent tables: coefficient (j,k[,l]) of g_n equals
    exp(e * s_n) times the one of h_n, s_n the Siegel dilation parameter."""

    first_exponents: np.ndarray
    second_exponents: np.ndarray

    def __post_init__(self):
        for arr in (self.first_exponents, self.second_exponents):
            np.asarray(arr).setflags(write=False)


def scaling_profile(m, M):
    """The table from the dilation's weights w = (1, 1/2, ..., 1/2) on C^m and
    w' on C^M: coefficient (j, k) scales by w'_j - w_k, (j, k, l) by
    w'_j - w_k - w_l."""
    w, w_target = (np.r_[1.0, np.full(d - 1, 0.5)] for d in (m, M))
    first = w_target[:, None] - w
    return ScalingProfile(first, first[:, :, None] - w)


def scaling_factors(query, t, m, M):
    """The multiplier for one coefficient: query is (j, k) or (j, k, l), 1-based."""
    q = tuple(int(i) for i in query)
    if len(q) not in (2, 3):
        raise InputError("query must be (j, k) or (j, k, l)")
    j, k = q[0], q[1]
    if not (1 <= j <= M) or not (1 <= k <= m) or (len(q) == 3 and not (1 <= q[2] <= m)):
        raise InputError(f"query {q} out of range for dimensions ({m}, {M})")
    profile = scaling_profile(m, M)
    if len(q) == 2:
        e = profile.first_exponents[j - 1, k - 1]
    else:
        e = profile.second_exponents[j - 1, k - 1, q[2] - 1]
    return float(np.exp(e * t))


# --- sequence preparation -----------------------------------------------------

def cartan_sequence(m, M, n_values):
    """The built-in diverging sequence: the stacks (a_n, block-extended a_n)."""
    phis = gm.cartans(np.asarray(n_values, dtype=float), m, dtype=WIDE_COMPLEX)
    return phis, pm.block_extend(phis, M)


def _pair_residuals(f, phis, psis, seed):
    return pm.symmetry_residuals(f, gm.as_double_stack(phis), gm.as_double_stack(psis),
                                 sample_count=64, seed=seed)


def _certify_pairs(f, phis, psis, tol, seed):
    residuals = _pair_residuals(f, phis, psis, seed)
    worst = float(np.max(residuals))  # NaN if any residual is NaN
    if not worst <= tol:
        raise SymmetryError("sequence is not certified in the symmetry group of the map", worst)
    return residuals


def _recentre(f, psis):
    """Post-compose f with the transport sending f(0) to 0 and conjugate the
    stack psis (None passes through) by it, so pairs stay symmetries of f."""
    f0 = f.eval(np.zeros(f.m, dtype=complex))
    if float(np.linalg.norm(f0)) <= 1e-14:
        return f, psis
    tau = gm.transport_to_origin(f0)
    if psis is not None:
        psis = gm.compose_stacks(tau.matrix, psis, gm.inverse(tau).matrix)
    return f.with_postcomposition(tau), psis


def normalize_map(f, phis, psis, *, residual_tol=pm.SYMMETRY_TOL):
    """Arrange f(0) = 0 and align the escape directions with e1 and e1'.

    Certifies the input pairs, recentres f(0) to 0 (conjugating psi to
    match), then pre/post-rotates so the final sequence element's orbit
    directions land on the first basis vectors.  phis and psis are
    (n, d+1, d+1) stacks; returns the transformed map and the conjugated
    stacks (f, phis, psis), whose pairs build_sequence certifies.
    """
    f = pm.as_transformed(f)
    if not len(phis) or len(phis) != len(psis):
        raise InputError("normalize_map needs nonempty sequences of equal length")
    _certify_pairs(f, phis, psis, residual_tol, seed=29)
    f, psis = _recentre(f, psis)

    x = gm._mobius_apply(gm.as_double_stack(phis[-1:])[0], np.zeros(f.m, dtype=complex))
    y = gm._mobius_apply(gm.as_double_stack(psis[-1:])[0], np.zeros(f.M, dtype=complex))
    r1 = (gm.rotation_mapping_e1(x / np.linalg.norm(x))
          if np.linalg.norm(x) > 1e-8 else gm.Automorphism.identity(f.m))
    r2 = (gm.rotation_mapping_e1(y / np.linalg.norm(y))
          if np.linalg.norm(y) > 1e-8 else gm.Automorphism.identity(f.M))
    r1_inv, r2_inv = gm.inverse(r1), gm.inverse(r2)
    f = f.with_precomposition(r1).with_postcomposition(r2_inv)
    return (f, gm.compose_stacks(r1_inv.matrix, phis, r1.matrix),
            gm.compose_stacks(r2_inv.matrix, psis, r2.matrix))


@dataclass(frozen=True)
class EscapeReport:
    """Orbit gaps 1 - |phi_n(0)| and 1 - |psi_n(0)| and whether they escape."""

    phi_gaps: tuple
    psi_gaps: tuple
    monotone: bool
    escaped: bool


def _orbit_pass(phis, psis, f):
    """(wide canonical phi_n, phi_n(0) rows, psi_n(0) rows, EscapeReport).

    Each side is one stacked action: phi_n by the wide canonical matrix the
    frames reuse for t_n, psi_n by its widened matrix; without psis,
    psi_n(0) = f(phi_n(0)) from one evaluation (no psi side without f).
    """
    if np.ndim(phis) != 3 or not len(phis) or psis is not None and len(psis) != len(phis):
        raise InputError("phi and psi sequences must be nonempty stacks of equal length")
    if f is not None and (phis.shape[1:] != (f.m + 1,) * 2
                          or psis is not None and psis.shape[1:] != (f.M + 1,) * 2):
        raise InputError("symmetry pair dimensions must match the map")
    wide = gm._canonical_phase(as_wide_complex(phis))
    phi0 = gm._mobius_apply(wide, np.zeros(phis.shape[-1] - 1, dtype=WIDE_COMPLEX))
    if psis is not None:
        psi0 = gm._mobius_apply(as_wide_complex(psis),
                                np.zeros(psis.shape[-1] - 1, dtype=WIDE_COMPLEX))
    else:
        psi0 = f.eval(phi0) if f is not None else None
    gaps = one_minus_norm(phi0).astype(np.float64)
    psi_gaps = None if psi0 is None else one_minus_norm(psi0).astype(np.float64)
    monotone = bool(np.all(np.diff(gaps) < 1e-15))
    escaped = monotone and 0 < gaps[-1] <= GAP_THRESHOLD
    if psi_gaps is not None:
        escaped = escaped and 0 < psi_gaps[-1] <= math.sqrt(GAP_THRESHOLD)
        psi_gaps = tuple(psi_gaps.tolist())
    return wide, phi0, psi0, EscapeReport(tuple(gaps.tolist()), psi_gaps, monotone, bool(escaped))


def escape_check(phis, psis=None, *, f=None):
    """Verify the orbit of 0 escapes to the boundary along the sequence.

    phis and psis are (n, d+1, d+1) stacks; psi orbits come from psis when
    given, otherwise from f(phi_n(0)).  A non-escaping sequence is reported,
    not raised; pipelines that need the limit raise DiagnosticError on a
    negative report.
    """
    return _orbit_pass(phis, psis, f)[-1]


# --- trace construction ---------------------------------------------------------

@dataclass(frozen=True)
class RescalingTrace:
    """The recentred maps of every sequence index, one column per field with
    a row per index (the row number is the index's order).

    The float columns are (n,) arrays; k_n, l_n, alpha_n and beta_n are
    stacks of wide canonical matrices; h_jet and g_jet are stacked jets.  A
    residual column not measured in the trace's mode is None.
    """

    m: int
    M: int
    mode: str  # 'sequence' (g_n from the pair) or 'conjugate' (g_n by flow conjugation)
    map_normalized: pm.TransformedMap
    t_n: np.ndarray
    phi_gap: np.ndarray
    psi_gap: np.ndarray
    compactness_dist: np.ndarray
    g_value_norm: np.ndarray
    k_n: np.ndarray
    l_n: np.ndarray
    alpha_n: np.ndarray
    beta_n: np.ndarray
    h_jet: pm.JetExpansion
    g_jet: pm.JetExpansion
    symmetry_residual: np.ndarray | None = None
    conjugation_residual: np.ndarray | None = None

    def __post_init__(self):
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)

    def __len__(self):
        return self.t_n.shape[0]


def build_sequence(f, phis, psis=None, *, conjugate=False,
                   membership_tol=pm.SYMMETRY_TOL, allow_non_escaping=False, seed=31):
    """Construct the recentred maps h_n, g_n and their boundary jets.

    In 'sequence' mode (the default) g_n = beta_n o f o alpha_n^{-1} and the
    pairs must certify as symmetries.  With conjugate=True, g_n is built as
    a_{-t_n} o h_n o a_{t_n} directly; no symmetry is required, which makes
    the scaling table testable on maps whose symmetry group is compact.
    alpha_n and beta_n always satisfy g_n = beta_n o f o alpha_n^{-1}.

    The jets of all h_n come from one stacked pass and those of all g_n from
    a second; each chain of a stack has the arithmetic of a lone chain.
    """
    f = pm.as_transformed(f)
    if not conjugate and psis is None:
        raise InputError("sequence mode needs the psi sequence")

    f0 = f.eval(np.zeros(f.m, dtype=complex))
    if float(np.linalg.norm(f0)) > 1e-10:
        raise InputError("build_sequence needs f(0) = 0; run normalize_map first")

    wide, phi0, psi0, report = _orbit_pass(phis, psis, f)
    if not report.escaped and not allow_non_escaping:
        raise DiagnosticError(
            f"sequence does not escape to the boundary (final gap {report.phi_gaps[-1]:.3g})")

    residuals = None
    if not conjugate:
        residuals = _certify_pairs(f, phis, psis, membership_tol, seed)
    elif psis is not None:
        residuals = _pair_residuals(f, phis, psis, seed)

    conj_pts = siegel_interior_points(rng_from_seed(seed), 20, f.m, scale=0.25)
    frames, failure = _frames(f, wide, phi0, psi0, None if conjugate else psis)
    if failure is not None:
        # the indices before the failing frame come first in index order
        if len(frames):
            _frame_jets_in_order(f, frames, conj_pts, conjugate)
        raise failure
    h_jet, g_jet, conj_residuals, compactness = _frame_jets_in_order(f, frames, conj_pts, conjugate)
    # per row, the norm np.linalg.norm takes of one vector: two dot products
    re, im = g_jet.value.real, g_jet.value.imag
    g_value_norm = np.sqrt((re[:, None, :] @ re[:, :, None])[:, 0, 0]
                           + (im[:, None, :] @ im[:, :, None])[:, 0, 0])
    return RescalingTrace(
        f.m, f.M, "conjugate" if conjugate else "sequence", f,
        t_n=frames.t.astype(np.float64), phi_gap=np.array(report.phi_gaps),
        psi_gap=np.array(report.psi_gaps), compactness_dist=compactness,
        g_value_norm=g_value_norm, k_n=frames.k_n, l_n=frames.l_n,
        alpha_n=gm.inverses(frames.pre_g), beta_n=frames.post_g, h_jet=h_jet, g_jet=g_jet,
        symmetry_residual=residuals, conjugation_residual=conj_residuals)


@dataclass(frozen=True)
class _Frames:
    """The recentring of a stack of sequence indices: t_n, the rotations, and
    the automorphisms that dress f into h_n, g_n and the flow conjugate of
    h_n, each a stack of canonical extended-precision matrices with one row
    per index.  Slicing slices every field."""

    t: np.ndarray
    k_n: np.ndarray
    l_n: np.ndarray
    l_inv: np.ndarray
    pre_g: np.ndarray
    post_g: np.ndarray
    pre_conj: np.ndarray
    post_conj: np.ndarray
    psi0: np.ndarray

    def __len__(self):
        return self.t.shape[0]

    def __getitem__(self, rows):
        return _Frames(*(getattr(self, fl.name)[rows] for fl in fields(self)))


def _frames(f, phis, p, psi0, psis):
    """The frames of every index from the orbit pass: the stack of wide
    canonical phi_n, rows p = phi_n(0) and psi0 = psi_n(0); g_n comes from
    the pairs with the stack psis, by flow conjugation if psis is None.

    Returns (frames, failure).  `frames` holds the indices before the first
    one whose frame fails and `failure` that index's error, None if every
    index passes; within an index the checks run in the order of a build of
    one index at a time.  Rows past a failure are cut from every later
    check, and floating-point warnings are off while the checks run, so a
    row that a build of one index at a time never reaches (say arctanh(1)
    at |phi_n(0)| = 1) prints nothing.
    """
    passed, failure = len(p), None  # rows that passed every check so far, the first failure

    def check(bad, error):
        nonlocal passed, failure
        hits = np.flatnonzero(bad[:passed])
        if hits.size:
            passed, failure = int(hits[0]), error(int(hits[0]))

    with np.errstate(all="ignore"):
        r = np.sqrt((np.abs(p) ** 2).sum(axis=-1).real)
        check(r <= 0, lambda j: InputError("sequence element fixes 0; no flow parameter exists"))
        t = np.arctanh(r)
        check(t.astype(np.float64) > FLOW_PARAMETER_CAP, lambda j: InputError(
            f"flow parameter {float(t[j]):.3g} exceeds the cap {FLOW_PARAMETER_CAP}; "
            "the boundary gap underflows beyond it"))
        v = p[:passed] / r[:passed, None]
        fv = f.eval(v)
        fv_gap = np.abs(one_minus_norm(fv).astype(np.float64))
        check(fv_gap > 1e-9, lambda j: InputError(
            "map is not proper enough at the sequence direction: "
            f"| |f(v)|-1 | = {fv_gap[j]:.3g}"))
    # the unit vectors v and f(v) / |f(v)| complete to rotations without fail
    t, v, fv = t[:passed], v[:passed], fv[:passed]
    k_n = gm.rotations_e1(v, dtype=WIDE_COMPLEX)
    l_n = gm.rotations_e1(fv / np.sqrt((np.abs(fv) ** 2).sum(axis=-1).real)[:, None],
                          dtype=WIDE_COMPLEX)
    l_inv = gm.inverses(l_n)
    pre_conj = gm.compose_stacks(k_n, gm.cartans(t, f.m, dtype=WIDE_COMPLEX))
    post_conj = gm.compose_stacks(gm.cartans(-t, f.M, dtype=WIDE_COMPLEX), l_inv)
    if psis is None:
        pre_g, post_g = pre_conj, post_conj
    else:
        pre_g = gm.compose_stacks(gm.inverses(phis[:passed]), pre_conj)
        post_g = gm.compose_stacks(post_conj, gm._canonical_phase(as_wide_complex(psis[:passed])))
    return _Frames(t, k_n, l_n, l_inv, pre_g, post_g, pre_conj, post_conj, psi0[:passed]), failure


def _chain_ends(f, frames):
    """The (pre, post) matrix stacks of the h_n, g_n and flow-conjugate
    chains: f's own pre and post composed with each index's frame."""
    pre, post = f.pre.matrix, f.post.matrix
    return ((gm.compose_stacks(pre, frames.k_n), gm.compose_stacks(frames.l_inv, post)),
            (gm.compose_stacks(pre, frames.pre_g), gm.compose_stacks(frames.post_g, post)),
            (gm.compose_stacks(pre, frames.pre_conj), gm.compose_stacks(frames.post_conj, post)))


def _frame_jets_in_order(f, frames, conj_pts, conjugate):
    """_frame_jets, raising the error that a build of one index at a time
    meets first: when chain j of a stacked pass fails, the indices before j
    are checked as a stack, then index j alone."""
    try:
        return _frame_jets(f, frames, conj_pts, conjugate)
    except NumericError as exc:
        if exc.chain is None:
            raise
        # the conjugation residuals stack the g chains before their conjugates
        j = exc.chain % len(frames)
        if j:
            _frame_jets_in_order(f, frames[:j], conj_pts, conjugate)
        _frame_jets(f, frames[j:j + 1], conj_pts, conjugate)
        raise


def _frame_jets(f, frames, conj_pts, conjugate):
    """The columns (h jets, g jets, conjugation residuals or None, compactness
    distances): one stacked jet pass for all h_n and one for all g_n."""
    n = len(frames)
    h_ends, g_ends, conj_ends = _chain_ends(f, frames)
    h_jets = pm.jet_at_zero(pm.siegel_chains(f.core, *h_ends))
    # the finite-difference oracle degrades with the chain conditioning
    # (intermediate roundoff times e^{2t} divided by step^2); the scaling
    # law against the strictly-checked h jets is the oracle at large t
    eps_wide = float(np.finfo(WIDE_REAL).eps)
    g_tols = np.maximum(1e-4, 1e5 * eps_wide * _conditioning(frames) / pm.FD_STEP**2)
    g_jets = pm.jet_at_zero(pm.siegel_chains(f.core, *g_ends), fd_tol=g_tols)

    conj_residuals = None
    if not conjugate:
        chains = pm.siegel_chains(f.core, *(np.concatenate(pair) for pair in zip(g_ends, conj_ends)))
        values = chains.eval(conj_pts)
        conj_residuals = np.max(np.linalg.norm(values[:n] - values[n:], axis=-1), axis=-1)

    compact_pts = gm._mobius_apply(frames.post_conj, frames.psi0[:, None, :])
    compactness = kb.dist_rows(np.zeros((n, f.M)), compact_pts[:, 0].astype(np.complex128))
    return h_jets, g_jets, conj_residuals, compactness


def _conditioning(frames):
    """Per index, the product of the largest entries (at least 1) of the g
    chain's two factors."""
    return (np.maximum(1.0, np.max(np.abs(frames.pre_g.astype(np.complex128)), axis=(1, 2)))
            * np.maximum(1.0, np.max(np.abs(frames.post_g.astype(np.complex128)), axis=(1, 2))))


# --- verification against the scaling tables ------------------------------------

def verify_scaling_law(trace):
    """Worst mixed relative error of g-coefficients against sigma * h-coefficients.

    The identity is exact algebra, so the return value measures only jet
    arithmetic error; anything above ~1e-8 indicates a defect.
    """
    profile = scaling_profile(trace.m, trace.M)
    s = SIEGEL_PARAMETER_RATIO * trace.t_n
    worst = 0.0
    for exps, g_arr, h_arr in (
        (profile.first_exponents, trace.g_jet.first, trace.h_jet.first),
        (profile.second_exponents, trace.g_jet.second, trace.h_jet.second),
    ):
        expected = np.exp(exps * s.reshape(s.shape + (1,) * exps.ndim)) * h_arr
        denom = np.maximum(1.0, np.maximum(np.abs(g_arr), np.abs(expected)))
        worst = max(worst, float(np.max(np.abs(g_arr - expected) / denom)))
    return worst


@dataclass(frozen=True)
class ConvergenceReport:
    """Tail behaviour of the g_n jets: Cauchy differences and suppressed decay.

    suppressed_normalized divides each suppressed magnitude by the slowest
    scheduled factor exp(-s_n/2); it should stay bounded along the tail.
    """

    tail: int
    cauchy_diffs: tuple
    suppressed_max: tuple
    suppressed_normalized: tuple
    decay_ok: bool


def _suppressed_magnitude(jet, profile):
    """Per row of a stacked jet, the largest coefficient the table suppresses."""
    vals = [np.zeros(jet.value.shape[0])]
    for arr, exps in ((jet.first, profile.first_exponents), (jet.second, profile.second_exponents)):
        suppressed = exps < 0
        if suppressed.any():
            vals.append(np.max(np.abs(arr[:, suppressed]), axis=-1))
    return np.maximum.reduce(vals)


def extract_limit_jet(trace, tail=3):
    """The jet at the largest index, with a Cauchy/decay report over the tail.

    Raises DiagnosticError when the tail differences grow instead of
    settling (no limit can be claimed).
    """
    if tail < 1:
        raise InputError("tail must be at least 1")
    if len(trace) < tail + 1:
        raise InputError(f"need at least {tail + 1} trace indices for tail={tail}")
    window = trace.g_jet[-(tail + 1):]
    diffs = np.maximum.reduce([
        np.max(np.abs(np.diff(arr, axis=0)).reshape(tail, -1), axis=-1)
        for arr in (window.value, window.first, window.second)]).tolist()
    suppressed = _suppressed_magnitude(window, scaling_profile(trace.m, trace.M)).tolist()
    normalized = [s / math.exp(-SIEGEL_PARAMETER_RATIO * t_n / 2.0)
                  for s, t_n in zip(suppressed, trace.t_n[-(tail + 1):].tolist())]
    decay_ok = suppressed[-1] <= max(1.05 * suppressed[0], 1e-8)
    if len(diffs) > 1 and all(d2 > d1 for d1, d2 in zip(diffs[:-1], diffs[1:])) \
            and diffs[-1] > 1e-6:
        raise DiagnosticError("g_n jets diverge along the tail; no limit can be extracted")
    report = ConvergenceReport(tail, tuple(diffs), tuple(suppressed),
                               tuple(normalized), bool(decay_ok))
    return trace.g_jet[-1], report


# --- the quadratic normal form ---------------------------------------------------

@dataclass(frozen=True)
class NormalFormResiduals:
    vanishing_pattern: float
    lambda_phase: float


@dataclass(frozen=True)
class QuadraticNormalForm:
    """The limit data: dilation lambda, linear block U, quadratic block L."""

    lam: float
    U: np.ndarray
    L: np.ndarray
    residuals: NormalFormResiduals

    def __post_init__(self):
        for arr in (self.U, self.L):
            np.asarray(arr).setflags(write=False)


_FIRST_CLASSES = (
    ("first j=1,k>=2", lambda first: first[0, 1:]),
    ("first j>=2,k=1", lambda first: first[1:, 0]),
)
_SECOND_CLASSES = (
    ("second j=1,k=l=1", lambda sec: sec[0, 0, 0]),
    ("second j=1,k=1,l>=2", lambda sec: np.concatenate([sec[0, 0, 1:], sec[0, 1:, 0]])),
    ("second j>=2,k=l=1", lambda sec: sec[1:, 0, 0]),
    ("second j>=2,k=1,l>=2", lambda sec: np.concatenate(
        [sec[1:, 0, 1:].reshape(-1), sec[1:, 1:, 0].reshape(-1)])),
    ("second j>=2,k>=2,l>=2", lambda sec: sec[1:, 1:, 1:].reshape(-1)),
)


def quadratic_normal_form(jet):
    """Assert the limit vanishing pattern and extract (lambda, U, L).

    The only coefficients allowed to survive are the value-preserving
    diagonal blocks: d[g]_1/dz_1 (the dilation), the (j>=2, k>=2) first-order
    block (U), and the (j=1; k,l>=2) second-order block (L).  Any other
    coefficient above PATTERN_TOL raises PatternViolationError naming its
    class; the dilation must be real positive up to a phase of 1e-6.
    """
    first, second = jet.first, jet.second
    classes = [("value", float(np.max(np.abs(jet.value))) if jet.value.size else 0.0)]
    for arr, table in ((first, _FIRST_CLASSES), (second, _SECOND_CLASSES)):
        for name, pick in table:
            block = np.asarray(pick(arr)).reshape(-1)
            if block.size:
                classes.append((name, float(np.max(np.abs(block)))))
    violations = [(name, mag) for name, mag in classes if mag > PATTERN_TOL]
    if violations:
        name, mag = max(violations, key=lambda nv: nv[1])
        raise PatternViolationError(name, mag)

    lam_hat = complex(first[0, 0])
    if abs(lam_hat) <= PATTERN_TOL:
        raise NumericError("degenerate limit: the dilation coefficient vanishes")
    phase = abs(lam_hat.imag) / abs(lam_hat)
    if phase > 1e-6:
        raise NumericError(f"dilation coefficient is not real: phase residual {phase:.3g}")
    if lam_hat.real <= 0:
        raise NumericError("dilation coefficient is not positive")

    U = first[1:, 1:].copy()
    L = 0.5 * second[0, 1:, 1:].copy()
    return QuadraticNormalForm(
        lam=float(lam_hat.real), U=U, L=L,
        residuals=NormalFormResiduals(vanishing_pattern=max(mag for _, mag in classes),
                                      lambda_phase=phase))


@dataclass(frozen=True)
class BoundaryResiduals:
    """Residuals of the boundary identity Im(lam i|w|^2 + e^{2i theta} w^T L w) = |Uw|^2.

    im_L must vanish (certifying L = 0); unitarity certifies U*U = lam I,
    i.e. orthogonal columns of length sqrt(lam).
    """

    im_L: float
    unitarity: float


def verify_boundary_identity(nf):
    dim = nf.U.shape[1]
    if dim == 0:
        return BoundaryResiduals(0.0, 0.0)
    rng = rng_from_seed(37)
    w = np.concatenate([np.eye(dim, dtype=complex),
                        unit_vectors(rng, 200, dim) * rng.random((200, 1))])
    quad = np.einsum("kl,nk,nl->n", nf.L, w, w)
    thetas = np.linspace(0.0, np.pi, 16, endpoint=False)
    phases = np.exp(2j * thetas)
    im_L = float(np.max(np.abs(np.imag(phases[:, None] * quad[None, :]))))
    norms_U = (np.abs(w @ nf.U.T) ** 2).sum(axis=1)
    norms_w = (np.abs(w) ** 2).sum(axis=1)
    unitarity = float(np.max(np.abs(norms_U - nf.lam * norms_w)))
    return BoundaryResiduals(im_L, unitarity)


@dataclass(frozen=True)
class FinalNormalization:
    A: gm.Automorphism
    U_prime: np.ndarray
    flatten_residual: float
    boundary: BoundaryResiduals
    unitarity_defect: float


def final_normalization(nf, limit):
    """Complete U/sqrt(lambda) to a unitary and flatten the limit to (z, 0).

    `limit` is the limit jet, evaluated as its quadratic polynomial.  Returns
    the unitary-block automorphism A and the worst sample residual of
    A o (dilation by log lambda) o g against the linear embedding.
    """
    bres = verify_boundary_identity(nf)
    if max(bres.im_L, bres.unitarity) > 1e-8 * max(1.0, nf.lam):
        raise InputError(
            f"boundary identity residuals too large for flattening: "
            f"im_L={bres.im_L:.3g}, unitarity={bres.unitarity:.3g}")

    M_minus_1 = nf.U.shape[0]
    scaled = nf.U / math.sqrt(nf.lam)
    u_prime = gm._unitary_completion(scaled[None])[0].astype(np.complex128)
    eye = np.eye(M_minus_1)
    unitarity_defect = float(np.max(np.abs(u_prime.conj().T @ u_prime - eye))) if M_minus_1 else 0.0

    M = M_minus_1 + 1
    a_mat = np.eye(M + 1, dtype=np.complex128)
    a_mat[1:M, 1:M] = u_prime.conj().T
    A = gm.Automorphism(a_mat)

    m = nf.U.shape[1] + 1
    pts = siegel_interior_points(rng_from_seed(41), 50, m, scale=0.3)
    flowed = pm.jet_quadratic_eval(limit, pts)
    flowed[:, 0] /= nf.lam
    flowed[:, 1:] /= math.sqrt(nf.lam)
    flattened = np.concatenate(
        [flowed[:, :1], flowed[:, 1:] @ u_prime.conj()], axis=1)
    target = np.concatenate([pts, np.zeros((pts.shape[0], M - m), dtype=complex)], axis=1)
    residual = float(np.max(np.linalg.norm(flattened - target, axis=1)))
    return FinalNormalization(A, u_prime, residual, bres, unitarity_defect)


# --- end-to-end pipeline ----------------------------------------------------------

@dataclass(frozen=True)
class PipelineResult:
    map_normalized: pm.TransformedMap
    trace: RescalingTrace
    scaling_error: float
    limit_jet: pm.JetExpansion
    convergence: ConvergenceReport
    normal_form: QuadraticNormalForm
    final: FinalNormalization
    constants: kb.RadialBoundConstants | None = None
    compactness_within_bound: bool | None = None


class _Stage:
    """Annotates exceptions with the pipeline stage they came from."""

    def __init__(self, name):
        self.name = name

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc is not None and isinstance(exc, (InputError, NumericError, DiagnosticError)):
            exc.args = (f"[{self.name}] {exc}",)
        return False


def run_pipeline(f, phis, psis=None, *, conjugate=False, tail=3,
                 membership_tol=pm.SYMMETRY_TOL, morse_trials=0, seed=31):
    """normalize -> escape gate -> build -> scaling law -> limit -> normal form -> flatten.

    phis and psis are (n, d+1, d+1) stacks, as cartan_sequence gives them.
    Every failure carries the name of the stage it occurred in.
    """
    if morse_trials < 0:
        raise InputError(f"morse_trials must be nonnegative, got {morse_trials}")
    if len(phis) < 2:
        raise InputError(f"the sequence needs at least 2 pairs, got {len(phis)}")
    with _Stage("normalize_map"):
        if conjugate:
            f_n, psis = _recentre(pm.as_transformed(f), psis)
        elif psis is None:
            raise InputError("sequence mode needs the psi sequence")
        else:
            f_n, phis, psis = normalize_map(f, phis, psis, residual_tol=membership_tol)

    with _Stage("build_sequence"):
        trace = build_sequence(f_n, phis, psis, conjugate=conjugate,
                               membership_tol=membership_tol, seed=seed)
    with _Stage("verify_scaling_law"):
        scaling_error = verify_scaling_law(trace)
    with _Stage("extract_limit_jet"):
        limit_jet, convergence = extract_limit_jet(trace, tail=min(tail, len(trace) - 1))
    with _Stage("quadratic_normal_form"):
        nf = quadratic_normal_form(limit_jet)
    with _Stage("final_normalization"):
        final = final_normalization(nf, limit_jet)

    constants = within = None
    if morse_trials > 0:
        with _Stage("radial_bound"):
            constants = pm.radial_bound_constants(f_n, morse_trials, 53)
            within = bool(np.all(trace.compactness_dist <= constants.bound))
    return PipelineResult(f_n, trace, scaling_error, limit_jet, convergence,
                          nf, final, constants, within)


# --- trace documents --------------------------------------------------------------

def _complex_to_json(arr):
    a = np.asarray(arr, dtype=np.complex128)
    return np.stack([a.real, a.imag], axis=-1).tolist()


def _jets_to_json(jet):
    """The document of each row of a stacked jet, its fields converted once."""
    columns = [_complex_to_json(getattr(jet, name)) for name in ("value", "first", "second")]
    return [{"value": value, "first": first, "second": second, "error_norm": error_norm}
            for value, first, second, error_norm in zip(*columns, jet.error_norm.tolist())]


def trace_document(result):
    """A JSON-ready document with every trace and normal-form field.

    Floats are emitted through repr and so round-trip exactly.
    """
    trace = result.trace
    n = len(trace)
    floats = ("t_n", "phi_gap", "psi_gap", "compactness_dist", "g_value_norm",
              "symmetry_residual", "conjugation_residual")
    columns = {"order": range(n)}
    columns.update((name, [None] * n if getattr(trace, name) is None
                    else getattr(trace, name).tolist()) for name in floats)
    # the frame stacks are wide; each is rounded to double as one stack
    columns.update((name, _complex_to_json(gm.as_double_stack(getattr(trace, name))))
                   for name in ("k_n", "l_n", "alpha_n", "beta_n"))
    columns.update((name, _jets_to_json(getattr(trace, name))) for name in ("h_jet", "g_jet"))
    doc = {
        "format": TRACE_FORMAT,
        "m": trace.m,
        "M": trace.M,
        "mode": trace.mode,
        "indices": [dict(zip(columns, row)) for row in zip(*columns.values())],
        "scaling_law_error": result.scaling_error,
        "convergence": {
            "tail": result.convergence.tail,
            "cauchy_diffs": list(result.convergence.cauchy_diffs),
            "suppressed_max": list(result.convergence.suppressed_max),
            "suppressed_normalized": list(result.convergence.suppressed_normalized),
            "decay_ok": result.convergence.decay_ok,
        },
        "normal_form": {
            "lambda": result.normal_form.lam,
            "U": _complex_to_json(result.normal_form.U),
            "L": _complex_to_json(result.normal_form.L),
            "U_prime": _complex_to_json(result.final.U_prime),
            "A": _complex_to_json(result.final.A.matrix),
            "vanishing_pattern_residual": result.normal_form.residuals.vanishing_pattern,
            "lambda_phase_residual": result.normal_form.residuals.lambda_phase,
            "boundary_im_L": result.final.boundary.im_L,
            "boundary_unitarity": result.final.boundary.unitarity,
            "flatten_residual": result.final.flatten_residual,
            "unitarity_defect": result.final.unitarity_defect,
        },
    }
    if result.constants is not None:
        doc["constants"] = {
            "C": result.constants.C,
            "beta": result.constants.beta,
            "base_offset": result.constants.base_offset,
            "D": result.constants.D,
            "bound": result.constants.bound,
            "compactness_within_bound": result.compactness_within_bound,
        }
    return doc


def save_trace(result, path):
    """Write the trace document as one line of JSON.

    A one-shot ``json.dumps`` without indent runs the C encoder; it prints
    floats by ``float.__repr__`` like the streaming one.  The text is encoded
    before the file is opened, so a failure leaves an existing trace intact.
    """
    text = json.dumps(trace_document(result)) + "\n"
    with open(path, "w") as fh:
        fh.write(text)
