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


def _cosh_minus_one(a, b, ga, gb):
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
    complex arrays whose last axis is the coordinate.
    """
    d = a - b
    two_s_conj = np.conj(a) + np.conj(b)
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


def hausdorff_pseudo_distance(curve_a, curve_b):
    """Max of the two directed sup-inf quantities over the sample grids."""
    if curve_a.model != curve_b.model:
        raise InputError("hausdorff_pseudo_distance needs curves in the same model")
    ca, cb = curve_a.to_ball(), curve_b.to_ball()
    d = dist_matrix(ca.points, cb.points)
    directed_ab = float(d.min(axis=1).max())
    directed_ba = float(d.min(axis=0).max())
    slack = max(_max_adjacent(ca.points), _max_adjacent(cb.points))
    return HausdorffEstimate(max(directed_ab, directed_ba), slack)


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


def _perp_direction(rng, v):
    """A unit vector orthogonal to the complex line through v."""
    m = v.shape[0]
    if m == 1:
        return 1j * v * np.sign(rng.standard_normal())
    w = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    w = w - (w * np.conj(v)).sum() * v
    n = np.linalg.norm(w)
    if n < 1e-12:
        return 1j * v
    return w / n


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
    if alpha < 1.0 or beta < 0.0 or R < 0.0:
        raise InputError("need alpha >= 1, beta >= 0, R >= 0")
    if trials < 1:
        raise InputError("need at least one trial")
    samples, span, pieces = 64, 6.0, 6
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

        dirs = np.array([_perp_direction(rng, v) for _ in range(samples)])
        radii = rng.random(samples) * 0.49 * beta
        end_cap = min(R, 0.49 * beta)
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
