"""The batched Kobayashi kernels against independent references.

The distance kernel is checked against a 50-digit mpmath oracle and against
the Gram-minors form of the same Lagrange identity that it replaced.  The
row-blocked Hausdorff pseudo-distance, which applies acosh only near the
minima of the excess, must equal the max-min of dist_matrix bit for bit.  The
closed-form Morse sample offsets are checked against the per-sample path
through the group API, and the one-draw Morse directions against the
per-sample draws they replaced (kept here).
"""

import mpmath
import numpy as np
import pytest

from ballmaps import group_models as gm
from ballmaps import kobayashi as kb
from ballmaps.errors import InputError
from ballmaps.numerics import (
    WIDE_REAL,
    as_wide_complex,
    one_minus_sq_norm,
    rng_from_seed,
    siegel_interior_points,
    unit_vectors,
)

EPS_WIDE = float(np.finfo(np.longdouble).eps)
EPS = float(np.finfo(np.float64).eps)
DPS = 50


# --- references ------------------------------------------------------------------

def _mp_dist_and_gap(z, w):
    """(dist, min(1-|z|^2, 1-|w|^2)) at 50 digits from the exact double inputs."""
    with mpmath.workdps(DPS):
        zs = [mpmath.mpc(complex(x)) for x in z]
        ws = [mpmath.mpc(complex(x)) for x in w]
        inner = mpmath.fsum(a * mpmath.conj(b) for a, b in zip(zs, ws))
        gz = 1 - mpmath.fsum(abs(x) ** 2 for x in zs)
        gw = 1 - mpmath.fsum(abs(x) ** 2 for x in ws)
        d = mpmath.acosh(mpmath.sqrt(abs(1 - inner) ** 2 / (gz * gw)))
        return float(d), float(min(gz, gw))


def _minors_numerator(a, b):
    """The kernel this one replaced: |z-w|^2 minus sum_{i<j} |z_i w_j - z_j w_i|^2.

    O(m^2) work per pair; kept as a reference for the O(m) d/s form.
    """
    diff_sq = (np.abs(a - b) ** 2).sum(axis=-1)
    minors = a[..., :, None] * b[..., None, :] - a[..., None, :] * b[..., :, None]
    return diff_sq - 0.5 * (np.abs(minors) ** 2).sum(axis=(-2, -1))


def _dist_tolerance(m, gap):
    """Relative error budget of one distance, fixed from the error model.

    Each gap 1 - |z|^2 sums 2m rounded squares in extended precision, so its
    relative error is about (2m+1) eps_wide / gap; the numerator's two terms
    and the quotient add the same order again, and acosh(sqrt(1+e)) at most
    halves a relative error in e.  The result is rounded once to double.
    """
    return 8.0 * (m + 1) * EPS_WIDE / gap + 2.0 * EPS


def _minors_tolerance(m, gap, sep):
    """The budget above plus the minors' own cancellation.

    Each minor z_i w_j - z_j w_i has size about |z-w| but is formed from
    products of size 1, so it carries eps_wide / |z-w| relative error; m^2
    of them enter the Gram defect.
    """
    return _dist_tolerance(m, gap) + m * m * EPS_WIDE / (sep * gap)


def _perp_direction(rng, v):
    """The per-sample draw that kobayashi._perp_directions replaced."""
    m = v.shape[0]
    if m == 1:
        return 1j * v * np.sign(rng.standard_normal())
    w = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    w = w - (w * np.conj(v)).sum() * v
    n = np.linalg.norm(w)
    if n < 1e-12:
        return 1j * v
    return w / n


def _offset_point(point, direction, radius):
    """Per-sample reference: move `point` by `radius` along a transported direction."""
    if radius <= 0.0:
        return point
    move = gm.inverse(gm.transport_to_origin(point))
    return gm.apply_ball(move, np.tanh(radius) * direction)


# --- point sets ------------------------------------------------------------------

def _kernel_points(m, seed):
    """Generic interior points, points within 1e-12 of the sphere, and near-coinciding pairs."""
    rng = rng_from_seed(seed)
    generic = unit_vectors(rng, 6, m) * (0.9 * rng.random(6) ** (1.0 / (2 * m)))[:, None]
    gaps = 10.0 ** -np.arange(1, 13)
    v = unit_vectors(rng, 1, m)[0]
    boundary = [(1.0 - g) * v for g in gaps[::3]]
    boundary += [(1.0 - g) * u for g, u in zip(gaps, unit_vectors(rng, gaps.size, m))]
    near = []
    z = boundary[-1]
    for delta in 10.0 ** -np.arange(3, 13, 3):
        step = delta * unit_vectors(rng, 1, m)[0]
        along_sphere = z + step
        near += [generic[0] + step, (1.0 - delta) * z,
                 np.linalg.norm(z) * along_sphere / np.linalg.norm(along_sphere)]
    pts = np.concatenate([generic, np.array(boundary), np.array(near)])
    assert np.all(one_minus_sq_norm(pts) > 0)
    return pts


@pytest.mark.parametrize("m", range(1, 9))
def test_distance_kernel_against_oracle(m):
    pts = _kernel_points(m, 100 + m)
    d = kb.dist_matrix(pts, pts)
    wide = as_wide_complex(pts)
    gaps = one_minus_sq_norm(wide)
    old = _minors_numerator(wide[:, None, :], wide[None, :, :]) / (gaps[:, None] * gaps[None, :])
    d_old = kb._acosh_from_excess(old)
    worst = worst_old = 0.0
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            ref, gap = _mp_dist_and_gap(pts[i], pts[j])
            sep = np.linalg.norm(pts[i] - pts[j])
            worst = max(worst, abs(d[i, j] - ref) / ref / _dist_tolerance(m, gap))
            worst_old = max(worst_old,
                            abs(d_old[i, j] - ref) / ref / _minors_tolerance(m, gap, sep))
    assert worst <= 1.0
    assert worst_old <= 1.0


@pytest.mark.parametrize("m", [1, 3, 8])
def test_distance_kernel_exact_zero_and_symmetry(m):
    pts = _kernel_points(m, 200 + m)
    d = kb.dist_matrix(pts, pts)
    assert np.all(np.diag(d) == 0.0)
    assert np.array_equal(d, d.T)
    # symmetric already in extended precision, before rounding to double
    wide = as_wide_complex(pts)
    gaps = one_minus_sq_norm(wide)
    numerator = kb._cosh_minus_one(wide[:, None, :], wide[None, :, :], gaps[:, None], gaps[None, :])
    assert np.array_equal(numerator, numerator.T)
    # dist_ball and the Hausdorff slack run the same kernel on the same values
    assert kb.dist_ball(pts[1], pts[-1]) == d[1, -1]
    assert kb._max_adjacent(pts) == max(d[i, i + 1] for i in range(len(pts) - 1))


# --- row blocks and the Hausdorff reduction -----------------------------------------

def _hausdorff_pair(rng, m, n_a, n_b, model):
    """Two curves whose points include near-coinciding pairs and points near the sphere."""
    if model == "siegel":
        pts_a, pts_b = (siegel_interior_points(rng, n, m) for n in (n_a, n_b))
    else:
        radii = 1.0 - 10.0 ** -rng.uniform(0.5, 12, n_a + n_b)
        pts = unit_vectors(rng, n_a + n_b, m) * radii[:, None]
        pts_a, pts_b = pts[:n_a], pts[n_a:]
    # every third point of b sits about 1e-12 from a point of a, the last one on it
    k = min(n_a, n_b)
    pts_b[:k:3] = pts_a[:k:3] + 1e-12 * unit_vectors(rng, k, m)[::3]
    if model == "ball":
        pts_b[:k:3] *= (1.0 - 1e-12)
    pts_b[k - 1] = pts_a[k - 1]
    return (kb.SampledCurve(model, np.arange(n_a, dtype=float), pts_a),
            kb.SampledCurve(model, np.arange(n_b, dtype=float), pts_b))


@pytest.mark.parametrize("m", [1, 3, 8])
@pytest.mark.parametrize("model", ["ball", "siegel"])
def test_blocked_hausdorff_matches_max_min(m, model):
    rng = rng_from_seed(500 + m)
    for n_a, n_b in [(1, 7), (7, 1), (40, 64), (257, 64), (64, 257)]:
        ca, cb = _hausdorff_pair(rng, m, n_a, n_b, model)
        d = kb.dist_matrix(ca.to_ball().points, cb.to_ball().points)
        assert np.all(np.isfinite(d))
        ref = max(float(d.min(axis=1).max()), float(d.min(axis=0).max()))
        assert kb.hausdorff_pseudo_distance(ca, cb).value == ref
        assert kb.hausdorff_pseudo_distance(cb, ca).value == ref


def test_excess_outside_the_band_never_gives_a_smaller_distance():
    # what the band of hausdorff_pseudo_distance needs: acosh of an excess past
    # _NEAR_MIN times a minimum is never below acosh of that minimum
    rng = rng_from_seed(600)
    x = np.concatenate([[0.0], 10.0 ** rng.uniform(-36, 36, 100_000)]).astype(WIDE_REAL)
    x = np.concatenate([x, [np.finfo(WIDE_REAL).max / 2]])
    past = np.nextafter(x * kb._NEAR_MIN, WIDE_REAL(np.inf))
    assert np.all(kb._acosh_from_excess(past) >= kb._acosh_from_excess(x))


def test_distance_batches_of_unequal_dimension_rejected():
    with pytest.raises(InputError, match="equal dimension"):
        kb.dist_matrix(np.zeros((2, 2)), np.zeros((3, 3)))
    with pytest.raises(InputError, match="equal dimension"):
        kb.dist_rows(np.zeros((2, 2)), np.zeros((2, 3)))
    with pytest.raises(InputError, match="equal dimension"):
        kb.hausdorff_pseudo_distance(kb.radial_geodesic([1.0, 0.0], [0.0, 1.0]),
                                     kb.radial_geodesic([1.0], [0.0, 1.0]))


# --- one-draw Morse directions --------------------------------------------------------

@pytest.mark.parametrize("m", [1, 2, 3, 5, 8])
def test_one_draw_directions_match_per_sample_draws(m):
    for seed in range(20):
        per_sample, batched = rng_from_seed(seed), rng_from_seed(seed)
        v = unit_vectors(per_sample, 1, m)[0]
        unit_vectors(batched, 1, m)
        ref = np.array([_perp_direction(per_sample, v) for _ in range(64)])
        got = kb._perp_directions(batched, v, 64)
        assert got.tobytes() == ref.tobytes()
        assert batched.bit_generator.state == per_sample.bit_generator.state
    if m > 1:
        # a draw along v projects below 1e-12 and falls back to i v, as one draw at a time did
        e1 = np.eye(m)[0]
        assert np.array_equal(kb._perp_directions(_AlongV(), e1, 2), [np.eye(m)[-1], 1j * e1])


class _AlongV:
    """A generator stub: the first direction draw is e_m, the second e1."""

    def standard_normal(self, shape):
        out = np.zeros(shape)
        out[0, 0, -1] = 1.0
        out[1, 0, 0] = 1.0
        return out


# --- closed-form Morse offsets ------------------------------------------------------

SPAN = 6.0


@pytest.mark.parametrize("m", [1, 2, 3, 8])
def test_offset_samples_match_per_sample_transport(m):
    rng = rng_from_seed(300 + m)
    samples = 40
    v = unit_vectors(rng, 1, m)[0]
    u = np.linspace(0.0, SPAN, samples)
    dirs = kb._perp_directions(rng, v, samples)
    radii = rng.random(samples) * 0.49
    radii[[0, samples // 2, -1]] = [0.3, 0.0, 0.0]
    k = gm.rotation_mapping_e1(v).matrix[:-1, :-1]
    got = kb._offset_samples(k, u, dirs, radii)
    base = np.tanh(u)[:, None] * v
    ref = np.array([_offset_point(base[i], dirs[i], float(radii[i])) for i in range(samples)])
    # double-stored points carry cosh^2(t) eps of hyperbolic noise at distance t from 0
    tol = 16.0 * np.cosh(SPAN + radii.max()) ** 2 * EPS
    moved_by = [kb.dist_ball(a, b) for a, b in zip(got, ref)]
    assert max(moved_by) <= tol
    # the u = 0 sample is offset from 0 without rotation, as by the identity transport
    assert np.array_equal(got[0], np.tanh(0.3) * dirs[0])


# (m, alpha, beta, R, trials, seed, estimate) from the per-sample implementation
# these offsets replaced; the closed form reorders roundoff, so values agree to
# roundoff rather than bit for bit.
MORSE_BEFORE = [
    (1, 1.0, 1.0, 0.0, 6, 1, 0.4769950163354745),
    (2, 1.2, 0.5, 0.1, 6, 9, 0.30811180362153173),
    (3, 1.0, 1.0, 0.5, 6, 4242, 0.5867772221866374),
    (3, 1.5, 2.0, 0.3, 4, 7, 1.0759622861888158),
    (8, 1.0, 1.0, 0.5, 4, 11, 0.5271230504184224),
    (8, 1.3, 0.8, 0.0, 4, 12, 0.39272150316691223),
]


@pytest.mark.parametrize("case", MORSE_BEFORE, ids=lambda c: f"m{c[0]}-seed{c[5]}")
def test_seeded_morse_estimates_unchanged(case):
    *args, before = case
    assert abs(kb.estimate_morse_constant(*args) - before) <= 1e-10 * before
