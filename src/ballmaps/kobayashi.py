"""Kobayashi distance on the ball, sampled curves, and quasi-geodesic analysis.

The distance has the closed form

    dist(z, w) = acosh sqrt( |1 - <z,w>|^2 / ((1 - |z|^2)(1 - |w|^2)) )

and the radial curves t -> tanh(t) v are its unit-speed geodesics through 0.
All distance kernels run in extended precision because the pipelines evaluate
them at points with 1 - |z| down to 1e-12, where double precision would lose
the gap entirely.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericError
from . import group_models as gm
from .numerics import (
    WIDE_REAL,
    as_wide_complex,
    one_minus_sq_norm,
    rng_from_seed,
    unit_vectors,
)


def _coords(z):
    if isinstance(z, gm.BallPoint):
        return z.coords
    return np.asarray(z, dtype=np.complex128).reshape(-1)


def _cosh_minus_one(a, b, ga, gb, work=(None, None)):
    """Numerator of cosh^2(dist) - 1 for broadcast rows a, b with gaps ga, gb.

    The closed form has cosh^2(dist) - 1 = N / (ga gb) with
    N = |1 - <z,w>|^2 - (1-|z|^2)(1-|w|^2) and ga = 1-|z|^2, gb = 1-|w|^2;
    forming N as that difference cancels for nearby points.  By the Lagrange
    identity N = |z-w|^2 minus the Gram determinant of (z, w), which equals
    the Gram determinant of (d, s) with d = z - w, s = (z+w)/2, so
    N = |d|^2 (1 - |s|^2) + |<d,s>|^2: two non-negative terms, O(m) work per
    pair.  The parallelogram law gives 1 - |s|^2 = (ga + gb)/2 + |d|^2/4,
    again without cancellation.  Coinciding points give exactly 0, tiny
    distances keep full relative accuracy, and swapping z and w only flips
    the sign of d, so the result is bitwise symmetric.  a and b are wide
    complex arrays whose last axis is the coordinate.  `work` may hold two
    wide complex arrays of their broadcast shape that receive d and 2 conj(s)
    (see hausdorff_pseudo_distance).
    """
    d = np.subtract(a, b, out=work[0])
    two_s_conj = np.add(np.conj(a), np.conj(b), out=work[1])
    d_parts = d.view(WIDE_REAL)
    d_sq = np.einsum("...k,...k->...", d_parts, d_parts)
    d_dot_2s = np.einsum("...k,...k->...", d, two_s_conj)
    s_gap = 0.5 * (ga + gb) + 0.25 * d_sq
    return d_sq * s_gap + 0.25 * (d_dot_2s.real ** 2 + d_dot_2s.imag ** 2)


def _acosh_from_excess(excess):
    """acosh(sqrt(1 + e)) for e >= 0 (clamped), accurate down to e = 0."""
    e = np.maximum(np.asarray(excess), 0.0)
    # log(sqrt(x) + sqrt(x-1)) with x = 1 + e, written to avoid cancellation
    root = np.sqrt(e)
    return np.asarray(np.log1p(e / (1.0 + np.sqrt(1.0 + e)) + root),
                      dtype=np.float64)


def dist_rows(points_a, points_b):
    """Distances between matched rows of two broadcastable (..., m) arrays.

    Leading axes broadcast as in NumPy, the last axis is the coordinate; a
    row pair with a point off the open ball gets inf.
    """
    a = as_wide_complex(points_a)
    b = as_wide_complex(points_b)
    if a.shape[-1] != b.shape[-1]:
        raise InputError("distances need point batches of equal dimension")
    return _dist_from_gaps(a, b, one_minus_sq_norm(a), one_minus_sq_norm(b))


def _dist_from_gaps(a, b, ga, gb):
    """dist_rows on wide rows whose gaps 1 - |row|^2 are already formed."""
    numerator = _cosh_minus_one(a, b, ga, gb)
    out = np.full(numerator.shape, np.inf)
    ok = (ga > 0) & (gb > 0)
    if np.any(ok):
        den = ga * gb
        out[ok] = _acosh_from_excess(numerator[ok] / den[ok])
    return out


def dist_matrix(points_a, points_b):
    """All pairwise distances between two (n, m) batches; inf off the open ball."""
    a = np.atleast_2d(points_a)
    b = np.atleast_2d(points_b)
    return dist_rows(a[:, None, :], b[None, :, :])


def dist_ball(z, w):
    """Distance between two points of the ball; inf signals a boundary input.

    The infinite value is a signal distinct from a numeric error: boundary
    points are legitimate inputs at infinite distance from the interior.
    """
    return float(dist_rows(_coords(z), _coords(w)))


@dataclass(frozen=True)
class SampledCurve:
    """A curve sampled at strictly increasing parameter values.

    `model` tags the coordinates ('ball' or 'siegel'); all points must lie in
    the open model domain so distances stay finite.
    """

    model: str
    params: np.ndarray
    points: np.ndarray

    def __post_init__(self):
        if self.model not in ("ball", "siegel"):
            raise InputError(f"unknown model tag {self.model!r}")
        params = np.asarray(self.params, dtype=np.float64).reshape(-1)
        points = np.atleast_2d(np.asarray(self.points, dtype=np.complex128))
        if params.size == 0 or points.shape[0] != params.size:
            raise InputError("params and points must be nonempty and of equal length")
        if params.size > 1 and not np.all(np.diff(params) > 0):
            raise InputError("curve parameters must be strictly increasing")
        if not np.all(np.isfinite(points)):
            raise InputError("curve points must be finite")
        if self.model == "ball":
            if np.any(one_minus_sq_norm(points) <= 0):
                raise InputError("ball-model curve points must be interior")
        else:
            rho = np.imag(points[:, 0]) - (np.abs(points[:, 1:]) ** 2).sum(axis=1)
            if np.any(rho <= 0):
                raise InputError("siegel-model curve points must be interior")
        params.setflags(write=False)
        points.setflags(write=False)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "points", points)

    def __len__(self):
        return self.params.size

    def to_ball(self):
        if self.model == "ball":
            return self
        return SampledCurve("ball", self.params, gm.cayley_siegel_to_ball_array(self.points))


def radial_geodesic(v, t_values):
    """The sampled radial geodesic t -> tanh(t) v; unit speed by construction."""
    v = np.asarray(v, dtype=np.complex128).reshape(-1)
    if abs(float(np.linalg.norm(v)) - 1.0) > gm.TOL_CLOSURE:
        raise InputError("radial_geodesic needs a unit direction vector")
    t = np.asarray(t_values, dtype=np.float64).reshape(-1)
    if np.any(t < 0):
        raise InputError("radial_geodesic needs t >= 0")
    return SampledCurve("ball", t, np.tanh(t)[:, None] * v)


@dataclass(frozen=True)
class QuasiGeodesicCertificate:
    """Worst signed violation of the two-sided quasi-geodesic inequality.

    max_violation <= 0 means every sampled pair satisfies
    |t-s|/alpha - beta <= dist <= alpha |t-s| + beta.
    """

    alpha: float
    beta: float
    max_violation: float
    worst_pair: tuple


def certify_quasi_geodesic(curve, alpha, beta):
    """Check the (alpha, beta) inequalities on all n(n-1)/2 sampled pairs."""
    if alpha < 1.0 or beta < 0.0:
        raise InputError("need alpha >= 1 and beta >= 0")
    curve = curve.to_ball()
    if len(curve) < 2:
        raise InputError("certify_quasi_geodesic needs at least 2 samples")
    # only the pairs i < j; each sample's gap is formed once, not per pair
    i, j = np.triu_indices(len(curve), k=1)
    p = as_wide_complex(curve.points)
    g = one_minus_sq_norm(p)
    d = _dist_from_gaps(p[i], p[j], g[i], g[j])
    gaps = np.abs(curve.params[i] - curve.params[j])
    upper = d - (alpha * gaps + beta)
    lower = (gaps / alpha - beta) - d
    flat = np.maximum(upper, lower)
    worst = int(np.argmax(flat))
    pair = (float(curve.params[i[worst]]), float(curve.params[j[worst]]))
    return QuasiGeodesicCertificate(float(alpha), float(beta), float(flat[worst]), pair)


@dataclass(frozen=True)
class HausdorffEstimate:
    """Sampled Hausdorff pseudo-distance with its discretization slack.

    The true value for the underlying continuous curves lies within
    [value - slack, value + slack].
    """

    value: float
    slack: float


def _max_adjacent(points):
    if points.shape[0] < 2:
        return 0.0
    return float(dist_rows(points[:-1], points[1:]).max())


# Rows of the first curve per block of hausdorff_pseudo_distance: a block
# against all of the second curve has at most this many (row, point,
# coordinate) entries, so each of its two wide complex (32-byte) work arrays
# takes 1 MiB and a block stays near a 2 MiB L2 cache.  Chosen by measurement
# in a fresh process on 256 x 256 pairs: in m = 8, 2^15 to 2^17 are fastest,
# while 2^12 and one block of all pairs (2^19 entries) are 1.25x and 1.4x
# slower; m = 3 is flat from 2^12 up.  Any value gives the same bits.
BLOCK_ENTRIES = 2 ** 15

# Entries whose excess cosh^2(dist) - 1 lies within this factor of their row
# or column minimum go through acosh; no other entry can hold a minimum
# distance.  _acosh_from_excess is within a few wide ulps (about 1e-18
# relative) of acosh(sqrt(1 + e)), which increases, and a relative step of
# 1e-12 in e >= 0 moves that function by more than 8e-17 relative for every
# finite wide e, so an entry outside the band never rounds to a smaller
# distance than its row's or column's minimum.  The rounded map itself does
# step down by a wide ulp here and there, so applying acosh to the minimum
# excess alone could miss the minimum distance by a double ulp.
_NEAR_MIN = 1 + WIDE_REAL(1e-12)


def hausdorff_pseudo_distance(curve_a, curve_b):
    """Max of the two directed sup-inf quantities over the sample grids.

    The value is bit for bit max(d.min(1).max(), d.min(0).max()) of
    d = dist_matrix of the two point sets, computed over blocks of rows (see
    BLOCK_ENTRIES) on the wide excess cosh^2(dist) - 1, with acosh applied
    only to the entries near a row or column minimum (see _NEAR_MIN).  The
    points of a SampledCurve are interior, so every excess is finite.
    """
    if curve_a.model != curve_b.model:
        raise InputError("hausdorff_pseudo_distance needs curves in the same model")
    ca, cb = curve_a.to_ball(), curve_b.to_ball()
    a = as_wide_complex(ca.points)
    b = as_wide_complex(cb.points)
    if a.shape[-1] != b.shape[-1]:
        raise InputError("distances need point batches of equal dimension")
    ga, gb = one_minus_sq_norm(a), one_minus_sq_norm(b)[None]
    step = max(1, BLOCK_ENTRIES // b.size)
    # one pair of work arrays serves every block: fresh 1 MiB temporaries per
    # block made glibc map or trim and then fault in their pages on every
    # block (9.7k page faults per 256 x 256 call in m = 8, a third of its time)
    work = np.empty((2, min(step, a.shape[0])) + b.shape, dtype=a.dtype)
    row_min = np.empty(a.shape[0])
    col_min = np.full(b.shape[0], np.inf)
    for start in range(0, a.shape[0], step):
        rows = slice(start, start + step)
        gap_a = ga[rows, None]
        numerator = _cosh_minus_one(a[rows, None, :], b[None], gap_a, gb,
                                    work[:, :gap_a.shape[0]])
        excess = numerator / (gap_a * gb)
        near = ((excess <= excess.min(axis=1, keepdims=True) * _NEAR_MIN)
                | (excess <= excess.min(axis=0) * _NEAR_MIN))
        d = np.full(excess.shape, np.inf)
        d[near] = _acosh_from_excess(excess[near])
        row_min[rows] = d.min(axis=1)
        np.minimum(col_min, d.min(axis=0), out=col_min)
    value = max(float(row_min.max()), float(col_min.max()))
    slack = max(_max_adjacent(ca.points), _max_adjacent(cb.points))
    return HausdorffEstimate(value, slack)


def quasi_geodesic_beta(C, base):
    """0.5 log(2C) + base, for a map's boundary Lipschitz constant C and base = dist(0, f(0))."""
    return 0.5 * math.log(2.0 * C) + base


@dataclass(frozen=True)
class RadialBoundConstants:
    """Constants entering the radial-deviation bound 2D + beta + dist(0, f(0)).

    beta is recomputed from C and the base offset, never stored on its own.
    """

    C: float
    D: float
    base_offset: float

    def __post_init__(self):
        if self.C <= 0:
            raise InputError("the boundary Lipschitz constant must be positive")

    @property
    def beta(self):
        return quasi_geodesic_beta(self.C, self.base_offset)

    @property
    def bound(self):
        return 2.0 * self.D + self.beta + self.base_offset


# Distance from 0 of the largest double below 1 on an axis, atanh(1 - 2^-53):
# a point farther out cannot be stored strictly inside the ball.
MAX_DOUBLE_DIST = math.atanh(1.0 - 2.0 ** -53)


def _boost(t, x):
    """The flow a_t of `cartan` on the rows of x, in closed form.

    a_t(x) = (x1 cosh t + sinh t, x') / (x1 sinh t + cosh t); t is a scalar
    or one flow time per row.  The denominator is at least 1 - |x1|, so it
    never vanishes on the open ball.
    """
    t = np.reshape(t, (-1, 1))
    ch, sh = np.cosh(t), np.sinh(t)
    x1 = x[:, :1]
    return np.concatenate([x1 * ch + sh, x[:, 1:]], axis=1) / (x1 * sh + ch)


def _offset_samples(k, u, directions, radii):
    """Move each base point tanh(u_i) v by hyperbolic distance radii_i.

    The automorphism carrying 0 to tanh(u) v is the rotation k (the unitary
    block of rotation_mapping_e1(v)) after the flow a_u, i.e. the inverse of
    transport_to_origin (Rudin, Function Theory in the Unit Ball of C^n,
    2.2), so the offset of base point i is k a_{u_i}(tanh(radii_i)
    directions_i), evaluated for all samples at once.  transport_to_origin(0)
    is the identity, so a sample at u = 0 stays unrotated.
    """
    moved = _boost(u, np.tanh(radii)[:, None] * directions)
    return np.where(u[:, None] > 0, moved @ k.T, moved)


def _perp_directions(rng, v, count):
    """`count` unit vectors orthogonal to the complex line through v, from one draw.

    Row i takes the i-th consecutive slice of the generator's stream (a sign
    for m = 1, m real then m imaginary parts otherwise), so the rows are the
    directions that `count` one-at-a-time draws would give, bit for bit.  Each
    row keeps its own np.linalg.norm, and a row whose projection is below
    1e-12 falls back to i v.
    """
    m = v.shape[0]
    if m == 1:
        return 1j * v * np.sign(rng.standard_normal(count))[:, None]
    parts = rng.standard_normal((count, 2, m))
    w = parts[:, 0] + 1j * parts[:, 1]
    w = w - (w * np.conj(v)).sum(axis=1)[:, None] * v
    norms = np.array([np.linalg.norm(row) for row in w])
    out = np.empty_like(w)
    ok = norms >= 1e-12
    out[ok] = w[ok] / norms[ok, None]
    out[~ok] = 1j * v
    return out


def estimate_morse_constant(m, alpha, beta, R, trials, seed):
    """Empirical lower estimate of the stability constant for quasi-geodesics.

    Each trial perturbs a radial geodesic segment by a certified (alpha, beta)
    quasi-geodesic (piecewise-linear time reparametrization with slopes in
    [1/alpha, alpha], plus transverse jitter of hyperbolic size < beta/2,
    endpoints offset by at most min(R, beta/2)), then measures the sampled
    Hausdorff pseudo-distance to the geodesic joining the same endpoints.
    Returns the sample maximum; deterministic for a fixed seed.
    """
    if m < 1:
        raise InputError(f"need a ball dimension m >= 1, got m = {m}")
    for name, value, low in (("alpha", alpha, 1.0), ("beta", beta, 0.0), ("R", R, 0.0)):
        if not (math.isfinite(value) and value >= low):
            raise InputError(f"need a finite {name} >= {low:g}, got {name} = {value}")
    if trials < 1:
        raise InputError("need at least one trial")
    samples, span, pieces = 64, 6.0, 6
    end_cap = min(R, 0.49 * beta)
    # Samples lie within span + 0.49 beta of 0, and the geodesic joining the
    # endpoints is sampled out to their distance, at most span + 2 end_cap,
    # from one of them; past MAX_DOUBLE_DIST a double point rounds onto the
    # sphere.
    beta_max = (MAX_DOUBLE_DIST - span) / 0.49
    if beta > beta_max:
        raise InputError(f"beta = {beta} puts samples up to {span + 0.49 * beta:.4g} from 0, "
                         f"past the {MAX_DOUBLE_DIST:.4g} that double precision resolves; "
                         f"need beta <= {beta_max:.6g}")
    cap_max = 0.5 * (MAX_DOUBLE_DIST - span)
    if end_cap > cap_max:
        raise InputError(f"R = {R} with beta = {beta} puts the endpoints up to "
                         f"{span + 2.0 * end_cap:.4g} apart, past the {MAX_DOUBLE_DIST:.4g} "
                         f"that double precision resolves; "
                         f"need min(R, 0.49 beta) <= {cap_max:.6g}")
    rng = rng_from_seed(seed)
    best = 0.0
    for _ in range(trials):
        v = unit_vectors(rng, 1, m)[0]
        log_s = rng.uniform(-np.log(alpha), np.log(alpha), pieces) if alpha > 1.0 else np.zeros(pieces)
        slopes = np.exp(log_s)
        geo_breaks = np.linspace(0.0, span, pieces + 1)
        param_lengths = (span / pieces) / slopes
        param_breaks = np.concatenate([[0.0], np.cumsum(param_lengths)])
        p = np.linspace(0.0, param_breaks[-1], samples)
        u = np.interp(p, param_breaks, geo_breaks)
        k = gm.rotation_mapping_e1(v).matrix[:-1, :-1]

        dirs = _perp_directions(rng, v, samples)
        radii = rng.random(samples) * 0.49 * beta
        radii[0] = rng.random() * end_cap
        radii[-1] = rng.random() * end_cap
        # jitter below beta/2 certifies by the triangle inequality, up to the
        # cosh^2(t) * eps noise of double samples; five halvings are a safety net
        for _ in range(6):
            pts = _offset_samples(k, u, dirs, radii)
            curve = SampledCurve("ball", p, pts)
            if certify_quasi_geodesic(curve, alpha, beta).max_violation <= 1e-9:
                break
            radii *= 0.5
        else:
            raise NumericError("failed to certify a generated quasi-geodesic")

        a, b = pts[0], pts[-1]
        d_ab = dist_ball(a, b)
        if d_ab <= 0.0:
            continue
        # the geodesic from a to b is k_a a_t of the radial one from 0 to
        # a_{-t}(k_a^* b), where k_a a_t carries 0 to a
        r_a = float(np.linalg.norm(a))
        t_a = np.arctanh(r_a)
        k_a = gm.rotation_mapping_e1(a / r_a).matrix[:-1, :-1] if r_a > 0 else np.eye(m)
        image = _boost(-t_a, (b @ k_a.conj())[None, :])[0]
        w = image / np.linalg.norm(image)
        arc = np.linspace(0.0, d_ab, samples)
        geo_pts = _boost(t_a, np.tanh(arc)[:, None] * w) @ k_a.T
        geodesic = SampledCurve("ball", arc, geo_pts)
        best = max(best, hausdorff_pseudo_distance(curve, geodesic).value)
    return float(best)
