"""The batched Kobayashi kernels against independent references.

The distance kernel is checked against a 50-digit mpmath oracle and against
the Gram-minors form of the same Lagrange identity that it replaced; the
closed-form Morse sample offsets are checked against the per-sample path
through the group API.
"""

import mpmath
import numpy as np
import pytest

from ballmaps import group_models as gm
from ballmaps import kobayashi as kb
from ballmaps.numerics import (
    as_wide_complex,
    one_minus_sq_norm,
    rng_from_seed,
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


# --- closed-form Morse offsets ------------------------------------------------------

SPAN = 6.0


@pytest.mark.parametrize("m", [1, 2, 3, 8])
def test_offset_samples_match_per_sample_transport(m):
    rng = rng_from_seed(300 + m)
    samples = 40
    v = unit_vectors(rng, 1, m)[0]
    u = np.linspace(0.0, SPAN, samples)
    dirs = np.array([kb._perp_direction(rng, v) for _ in range(samples)])
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
