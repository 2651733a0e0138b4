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
from dataclasses import dataclass, replace

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
    first = np.zeros((M, m))
    first[0, 1:] = 0.5
    first[1:, 0] = -0.5
    second = np.zeros((M, m, m))
    second[0, 0, 0] = -1.0
    second[0, 0, 1:] = -0.5
    second[0, 1:, 0] = -0.5
    second[1:, 1:, 1:] = -0.5
    second[1:, 0, :] = -1.0
    second[1:, :, 0] = -1.0
    second[1:, 0, 0] = -1.5
    return ScalingProfile(first, second)


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
    """The built-in diverging sequence: (a_n, block-extended a_n)."""
    pairs = []
    for n in n_values:
        phi = gm.cartan(float(n), m, dtype=WIDE_COMPLEX)
        pairs.append((phi, pm.block_extend(phi, M)))
    return pairs


def _origin_image(g):
    return gm._mobius_apply(as_wide_complex(g.matrix), np.zeros(g.dim, dtype=WIDE_COMPLEX))


def _pair_residuals(f, phi_seq, psi_seq, seed):
    return pm.symmetry_residuals(f, [phi.as_double() for phi in phi_seq],
                                 [psi.as_double() for psi in psi_seq],
                                 sample_count=64, seed=seed).tolist()


def _certify_pairs(f, phi_seq, psi_seq, tol, seed):
    residuals = _pair_residuals(f, phi_seq, psi_seq, seed)
    worst = max(residuals)
    if worst > tol:
        raise SymmetryError("sequence is not certified in the symmetry group of the map", worst)
    return residuals


def _recentre(f, psi_seq):
    """Post-compose f with the transport sending f(0) to 0 and conjugate
    psi_seq (None passes through) by it, so pairs stay symmetries of f."""
    f0 = f.eval(np.zeros(f.m, dtype=complex))
    if float(np.linalg.norm(f0)) <= 1e-14:
        return f, psi_seq
    tau = gm.transport_to_origin(f0)
    tau_inv = gm.inverse(tau)
    if psi_seq is not None:
        psi_seq = [gm.compose(tau, psi, tau_inv) for psi in psi_seq]
    return f.with_postcomposition(tau), psi_seq


def normalize_map(f, phi_seq, psi_seq, *, residual_tol=pm.SYMMETRY_TOL):
    """Arrange f(0) = 0 and align the escape directions with e1 and e1'.

    Certifies the input pairs, recentres f(0) to 0 (conjugating psi to
    match), then pre/post-rotates so the final sequence element's orbit
    directions land on the first basis vectors.  Returns the transformed
    map and pairs; build_sequence certifies the transformed pairs.
    """
    f = pm.as_transformed(f)
    phi_seq, psi_seq = list(phi_seq), list(psi_seq)
    if not phi_seq or len(phi_seq) != len(psi_seq):
        raise InputError("normalize_map needs nonempty sequences of equal length")
    _certify_pairs(f, phi_seq, psi_seq, residual_tol, seed=29)
    f, psi_seq = _recentre(f, psi_seq)

    x = gm._mobius_apply(phi_seq[-1].as_double().matrix, np.zeros(f.m, dtype=complex))
    y = gm._mobius_apply(psi_seq[-1].as_double().matrix, np.zeros(f.M, dtype=complex))
    r1 = (gm.rotation_mapping_e1(x / np.linalg.norm(x))
          if np.linalg.norm(x) > 1e-8 else gm.Automorphism.identity(f.m))
    r2 = (gm.rotation_mapping_e1(y / np.linalg.norm(y))
          if np.linalg.norm(y) > 1e-8 else gm.Automorphism.identity(f.M))
    r1_inv, r2_inv = gm.inverse(r1), gm.inverse(r2)
    f = f.with_precomposition(r1).with_postcomposition(r2_inv)
    pairs = [(gm.compose(r1_inv, phi, r1), gm.compose(r2_inv, psi, r2))
             for phi, psi in zip(phi_seq, psi_seq)]
    return f, pairs


@dataclass(frozen=True)
class EscapeReport:
    """Orbit gaps 1 - |phi_n(0)| and 1 - |psi_n(0)| and whether they escape."""

    phi_gaps: tuple
    psi_gaps: tuple
    monotone: bool
    escaped: bool


def escape_check(phi_seq, psi_seq=None, *, f=None):
    """Verify the orbit of 0 escapes to the boundary along the sequence.

    psi orbits come from psi_seq when given, otherwise from f(phi_n(0)).
    A non-escaping sequence is reported, not raised; pipelines that need the
    limit raise DiagnosticError on a negative report.
    """
    phi0 = [_origin_image(phi) for phi in phi_seq]
    if psi_seq is not None and len(psi_seq) != len(phi0):
        raise InputError("phi and psi sequences must have equal length")
    phi_gaps = [float(one_minus_norm(p)) for p in phi0]
    psi_gaps = []
    if psi_seq is not None:
        psi_gaps = [float(one_minus_norm(_origin_image(psi))) for psi in psi_seq]
    elif f is not None:
        psi_gaps = [float(one_minus_norm(f.eval(p))) for p in phi0]
    gaps = np.asarray(phi_gaps)
    monotone = bool(np.all(np.diff(gaps) < 1e-15)) if gaps.size > 1 else True
    escaped = monotone and gaps[-1] <= GAP_THRESHOLD and gaps[-1] > 0
    if psi_gaps:
        escaped = escaped and psi_gaps[-1] <= math.sqrt(GAP_THRESHOLD) and psi_gaps[-1] > 0
    return EscapeReport(tuple(phi_gaps), tuple(psi_gaps) if psi_gaps else None,
                        monotone, bool(escaped))


# --- trace construction ---------------------------------------------------------

@dataclass(frozen=True)
class TraceIndex:
    """Everything recorded at one sequence index."""

    order: int
    t_n: float
    k_n: gm.Automorphism
    l_n: gm.Automorphism
    alpha_n: gm.Automorphism
    beta_n: gm.Automorphism
    h_jet: pm.JetExpansion
    g_jet: pm.JetExpansion
    phi_gap: float
    psi_gap: float
    compactness_dist: float
    g_value_norm: float
    symmetry_residual: float | None = None
    conjugation_residual: float | None = None


@dataclass(frozen=True)
class RescalingTrace:
    m: int
    M: int
    mode: str  # 'sequence' (g_n from the pair) or 'conjugate' (g_n by flow conjugation)
    indices: tuple
    map_normalized: pm.TransformedMap

    def __len__(self):
        return len(self.indices)


def build_sequence(f, phi_seq, psi_seq=None, *, conjugate=False,
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
    m, M = f.m, f.M
    phi_seq = list(phi_seq)
    psi_seq = list(psi_seq) if psi_seq is not None else None
    if not phi_seq:
        raise InputError("build_sequence needs a nonempty sequence")
    if not conjugate and psi_seq is None:
        raise InputError("sequence mode needs the psi sequence")

    f0 = f.eval(np.zeros(m, dtype=complex))
    if float(np.linalg.norm(f0)) > 1e-10:
        raise InputError("build_sequence needs f(0) = 0; run normalize_map first")

    report = escape_check(phi_seq, psi_seq, f=f)
    if not report.escaped and not allow_non_escaping:
        raise DiagnosticError(
            f"sequence does not escape to the boundary (final gap {report.phi_gaps[-1]:.3g})")

    residuals = [None] * len(phi_seq)
    if not conjugate:
        residuals = _certify_pairs(f, phi_seq, psi_seq, membership_tol, seed)
    elif psi_seq is not None:
        residuals = _pair_residuals(f, phi_seq, psi_seq, seed)

    conj_pts = siegel_interior_points(rng_from_seed(seed), 20, m, scale=0.25)
    psis = psi_seq if psi_seq is not None else [None] * len(phi_seq)
    frames = []
    try:
        for phi, psi in zip(phi_seq, psis):
            frames.append(_frame(f, phi, psi, conjugate))
    except (InputError, NumericError):
        # the indices before the failing frame come first in index order
        if frames:
            _frame_jets_in_order(f, frames, conj_pts, conjugate)
        raise
    columns = _frame_jets_in_order(f, frames, conj_pts, conjugate)
    indices = []
    for i, (frame, h_jet, g_jet, conj_residual, compactness) in enumerate(zip(frames, *columns)):
        indices.append(TraceIndex(
            order=i,
            t_n=float(frame.t),
            k_n=frame.k_n,
            l_n=frame.l_n,
            alpha_n=gm.inverse(frame.pre_g),
            beta_n=frame.post_g,
            h_jet=h_jet,
            g_jet=g_jet,
            phi_gap=report.phi_gaps[i],
            psi_gap=report.psi_gaps[i],
            compactness_dist=compactness,
            g_value_norm=float(np.linalg.norm(g_jet.value)),
            symmetry_residual=residuals[i],
            conjugation_residual=conj_residual,
        ))
    return RescalingTrace(m, M, "conjugate" if conjugate else "sequence",
                          tuple(indices), f)


@dataclass(frozen=True)
class _Frame:
    """The recentring of one sequence index: t_n, the rotations, and the
    automorphisms that dress f into h_n, g_n and the flow conjugate of h_n."""

    t: np.longdouble
    k_n: gm.Automorphism
    l_n: gm.Automorphism
    l_inv: gm.Automorphism
    pre_g: gm.Automorphism
    post_g: gm.Automorphism
    pre_conj: gm.Automorphism
    post_conj: gm.Automorphism
    psi0: np.ndarray


def _frame(f, phi, psi, conjugate):
    m, M = f.m, f.M
    phi_w = gm.Automorphism(as_wide_complex(phi.matrix))
    p = gm._mobius_apply(phi_w.matrix, np.zeros(m, dtype=WIDE_COMPLEX))
    r = np.sqrt((np.abs(p) ** 2).sum().real)
    if float(r) <= 0:
        raise InputError("sequence element fixes 0; no flow parameter exists")
    t = np.arctanh(WIDE_REAL(r))
    if float(t) > FLOW_PARAMETER_CAP:
        raise InputError(
            f"flow parameter {float(t):.3g} exceeds the cap {FLOW_PARAMETER_CAP}; "
            "the boundary gap underflows beyond it")
    v = p / r
    k_n = gm.rotation_mapping_e1(v, dtype=WIDE_COMPLEX)
    fv = f.eval(v)
    fv_gap = abs(float(one_minus_norm(fv)))
    if fv_gap > 1e-9:
        raise InputError(
            f"map is not proper enough at the sequence direction: | |f(v)|-1 | = {fv_gap:.3g}")
    l_n = gm.rotation_mapping_e1(fv / np.sqrt((np.abs(fv) ** 2).sum().real),
                                 dtype=WIDE_COMPLEX)
    a_t_m = gm.cartan(t, m, dtype=WIDE_COMPLEX)
    a_mt_M = gm.cartan(-t, M, dtype=WIDE_COMPLEX)
    l_inv = gm.inverse(l_n)
    pre_conj = gm.compose(k_n, a_t_m)
    post_conj = gm.compose(a_mt_M, l_inv)
    if conjugate:
        pre_g, post_g = pre_conj, post_conj
    else:
        pre_g = gm.compose(gm.inverse(phi_w), pre_conj)
        post_g = gm.compose(post_conj, gm.Automorphism(as_wide_complex(psi.matrix)))
    psi0 = _origin_image(psi) if psi is not None else f.eval(p)
    return _Frame(t, k_n, l_n, l_inv, pre_g, post_g, pre_conj, post_conj, psi0)


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
    """Per-index columns (h jets, g jets, conjugation residuals, compactness
    distances): one stacked jet pass for all h_n and one for all g_n."""
    n = len(frames)
    h_maps = [f.with_precomposition(fr.k_n).with_postcomposition(fr.l_inv)
              for fr in frames]
    g_maps = [f.with_precomposition(fr.pre_g).with_postcomposition(fr.post_g) for fr in frames]
    h_jets = pm.jet_at_zero(pm.siegel_conjugate(h_maps))
    # the finite-difference oracle degrades with the chain conditioning
    # (intermediate roundoff times e^{2t} divided by step^2); the scaling
    # law against the strictly-checked h jets is the oracle at large t
    eps_wide = float(np.finfo(WIDE_REAL).eps)
    g_tols = [max(1e-4, 1e5 * eps_wide * _conditioning(fr) / 1e-4**2) for fr in frames]
    g_jets = pm.jet_at_zero(pm.siegel_conjugate(g_maps), fd_tol=np.array(g_tols))

    conj_residuals = [None] * n
    if not conjugate:
        others = [f.with_precomposition(fr.pre_conj).with_postcomposition(fr.post_conj)
                  for fr in frames]
        values = pm.siegel_conjugate(g_maps + others).eval(conj_pts)
        diff = values[:n] - values[n:]
        conj_residuals = np.max(np.linalg.norm(diff, axis=-1), axis=-1).tolist()

    compact_pts = gm._mobius_apply(np.stack([fr.post_conj.matrix for fr in frames]),
                                   np.stack([fr.psi0 for fr in frames])[:, None, :])
    compactness = kb.dist_rows(np.zeros((n, f.M)), compact_pts[:, 0].astype(np.complex128))
    return h_jets, g_jets, conj_residuals, compactness.tolist()


def _conditioning(frame):
    """Product of the largest entries (at least 1) of the g chain's two factors."""
    return (max(1.0, float(np.max(np.abs(frame.pre_g.matrix.astype(np.complex128)))))
            * max(1.0, float(np.max(np.abs(frame.post_g.matrix.astype(np.complex128))))))


# --- verification against the scaling tables ------------------------------------

def verify_scaling_law(trace):
    """Worst mixed relative error of g-coefficients against sigma * h-coefficients.

    The identity is exact algebra, so the return value measures only jet
    arithmetic error; anything above ~1e-8 indicates a defect.
    """
    profile = scaling_profile(trace.m, trace.M)
    worst = 0.0
    for idx in trace.indices:
        s = SIEGEL_PARAMETER_RATIO * idx.t_n
        for exps, g_arr, h_arr in (
            (profile.first_exponents, idx.g_jet.first, idx.h_jet.first),
            (profile.second_exponents, idx.g_jet.second, idx.h_jet.second),
        ):
            expected = np.exp(exps * s) * h_arr
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
    vals = [0.0]
    mask1 = profile.first_exponents < 0
    mask2 = profile.second_exponents < 0
    if mask1.any():
        vals.append(float(np.max(np.abs(jet.first[mask1]))))
    if mask2.any():
        vals.append(float(np.max(np.abs(jet.second[mask2]))))
    return max(vals)


def extract_limit_jet(trace, tail=3):
    """The jet at the largest index, with a Cauchy/decay report over the tail.

    Raises DiagnosticError when the tail differences grow instead of
    settling (no limit can be claimed).
    """
    if tail < 1:
        raise InputError("tail must be at least 1")
    if len(trace) < tail + 1:
        raise InputError(f"need at least {tail + 1} trace indices for tail={tail}")
    window = trace.indices[-(tail + 1):]
    diffs = []
    for a, b in zip(window[:-1], window[1:]):
        diffs.append(max(
            float(np.max(np.abs(b.g_jet.value - a.g_jet.value))),
            float(np.max(np.abs(b.g_jet.first - a.g_jet.first))),
            float(np.max(np.abs(b.g_jet.second - a.g_jet.second))),
        ))
    profile = scaling_profile(trace.m, trace.M)
    suppressed = [_suppressed_magnitude(idx.g_jet, profile) for idx in window]
    normalized = [s / math.exp(-SIEGEL_PARAMETER_RATIO * idx.t_n / 2.0)
                  for s, idx in zip(suppressed, window)]
    decay_ok = suppressed[-1] <= max(1.05 * suppressed[0], 1e-8)
    if len(diffs) > 1 and all(d2 > d1 for d1, d2 in zip(diffs[:-1], diffs[1:])) \
            and diffs[-1] > 1e-6:
        raise DiagnosticError("g_n jets diverge along the tail; no limit can be extracted")
    report = ConvergenceReport(tail, tuple(diffs), tuple(suppressed),
                               tuple(normalized), bool(decay_ok))
    return trace.indices[-1].g_jet, report


# --- the quadratic normal form ---------------------------------------------------

@dataclass(frozen=True)
class NormalFormResiduals:
    vanishing_pattern: float
    lambda_phase: float
    boundary_im_L: float | None = None
    boundary_unitarity: float | None = None
    final_flatten: float | None = None


@dataclass(frozen=True)
class QuadraticNormalForm:
    """The limit data: dilation lambda, linear block U, quadratic block L.

    U_prime is filled by final_normalization: a unitary whose first columns
    are U / sqrt(lambda).
    """

    lam: float
    U: np.ndarray
    L: np.ndarray
    residuals: NormalFormResiduals
    U_prime: np.ndarray | None = None

    def __post_init__(self):
        for arr in (self.U, self.L, self.U_prime):
            if arr is not None:
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

    `limit` is the limit map: a JetExpansion (evaluated as its quadratic
    polynomial) or any object with a batch eval.  Returns the unitary-block
    automorphism A and the worst sample residual of
    A o (dilation by log lambda) o g against the linear embedding.
    """
    bres = verify_boundary_identity(nf)
    if max(bres.im_L, bres.unitarity) > 1e-8 * max(1.0, nf.lam):
        raise InputError(
            f"boundary identity residuals too large for flattening: "
            f"im_L={bres.im_L:.3g}, unitarity={bres.unitarity:.3g}")

    M_minus_1 = nf.U.shape[0]
    scaled = nf.U / math.sqrt(nf.lam)
    u_prime = gm._unitary_completion(scaled).astype(np.complex128)
    eye = np.eye(M_minus_1)
    unitarity_defect = float(np.max(np.abs(u_prime.conj().T @ u_prime - eye))) if M_minus_1 else 0.0

    M = M_minus_1 + 1
    a_mat = np.eye(M + 1, dtype=np.complex128)
    a_mat[1:M, 1:M] = u_prime.conj().T
    A = gm.Automorphism(a_mat)

    m = nf.U.shape[1] + 1
    pts = siegel_interior_points(rng_from_seed(41), 50, m, scale=0.3)
    if isinstance(limit, pm.JetExpansion):
        values = pm.jet_quadratic_eval(limit, pts)
    else:
        values = np.atleast_2d(limit.eval(pts))
    flowed = values.copy()
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


def run_pipeline(f, phi_seq, psi_seq=None, *, conjugate=False, tail=3,
                 membership_tol=pm.SYMMETRY_TOL, morse_trials=0, seed=31):
    """normalize -> escape gate -> build -> scaling law -> limit -> normal form -> flatten.

    Every failure carries the name of the stage it occurred in.
    """
    if morse_trials < 0:
        raise InputError(f"morse_trials must be nonnegative, got {morse_trials}")
    with _Stage("normalize_map"):
        if conjugate:
            f_n, pairs_psi = _recentre(pm.as_transformed(f), psi_seq)
            pairs_phi = phi_seq
        elif psi_seq is None:
            raise InputError("sequence mode needs the psi sequence")
        else:
            f_n, pairs = normalize_map(f, phi_seq, psi_seq, residual_tol=membership_tol)
            pairs_phi, pairs_psi = zip(*pairs)

    with _Stage("build_sequence"):
        trace = build_sequence(f_n, pairs_phi, pairs_psi, conjugate=conjugate,
                               membership_tol=membership_tol, seed=seed)
    with _Stage("verify_scaling_law"):
        scaling_error = verify_scaling_law(trace)
    with _Stage("extract_limit_jet"):
        limit_jet, convergence = extract_limit_jet(trace, tail=min(tail, len(trace) - 1))
    with _Stage("quadratic_normal_form"):
        nf = quadratic_normal_form(limit_jet)
    with _Stage("final_normalization"):
        final = final_normalization(nf, limit_jet)
    nf = replace(nf, U_prime=final.U_prime,
                 residuals=replace(nf.residuals,
                                   boundary_im_L=final.boundary.im_L,
                                   boundary_unitarity=final.boundary.unitarity,
                                   final_flatten=final.flatten_residual))

    constants = None
    within = None
    if morse_trials > 0:
        with _Stage("radial_bound"):
            C = pm.lipschitz_boundary_constant(f_n).C
            base = pm.base_offset(f_n)
            beta = kb.quasi_geodesic_beta(C, base)
            D = kb.estimate_morse_constant(f_n.M, 1.0, beta, base, morse_trials, 53)
            constants = kb.RadialBoundConstants(C=C, D=D, base_offset=base)
            within = all(idx.compactness_dist <= constants.bound for idx in trace.indices)
    return PipelineResult(f_n, trace, scaling_error, limit_jet, convergence,
                          nf, final, constants, within)


# --- trace documents --------------------------------------------------------------

def _complex_to_json(arr):
    a = np.asarray(arr, dtype=np.complex128)
    return np.stack([a.real, a.imag], axis=-1).tolist()


def _jet_to_json(jet):
    return {
        "value": _complex_to_json(jet.value),
        "first": _complex_to_json(jet.first),
        "second": _complex_to_json(jet.second),
        "error_norm": jet.error_norm,
    }


def trace_document(result):
    """A JSON-ready document with every trace and normal-form field.

    Floats are emitted through repr and so round-trip exactly.
    """
    trace = result.trace
    doc = {
        "format": "ballmaps-trace-v1",
        "m": trace.m,
        "M": trace.M,
        "mode": trace.mode,
        "indices": [],
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
    for idx in trace.indices:
        doc["indices"].append({
            "order": idx.order,
            "t_n": idx.t_n,
            "phi_gap": idx.phi_gap,
            "psi_gap": idx.psi_gap,
            "compactness_dist": idx.compactness_dist,
            "g_value_norm": idx.g_value_norm,
            "symmetry_residual": idx.symmetry_residual,
            "conjugation_residual": idx.conjugation_residual,
            "k_n": _complex_to_json(idx.k_n.as_double().matrix),
            "l_n": _complex_to_json(idx.l_n.as_double().matrix),
            "alpha_n": _complex_to_json(idx.alpha_n.as_double().matrix),
            "beta_n": _complex_to_json(idx.beta_n.as_double().matrix),
            "h_jet": _jet_to_json(idx.h_jet),
            "g_jet": _jet_to_json(idx.g_jet),
        })
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
