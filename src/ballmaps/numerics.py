"""Extended-precision kernels and deterministic sampling helpers.

Several pipelines here evaluate quantities like 1 - ||z||^2 at
||z|| ~ 1 - 1e-12, or multiply automorphism matrices whose entries grow
like e^t while the product stays O(1).  Plain double precision loses the
entire result to cancellation in those regimes, so the hot kernels
accumulate in 80-bit extended precision (numpy longdouble on x86) and
round once at the end.
"""

import numpy as np

from .errors import NumericError

WIDE_REAL = np.longdouble
WIDE_COMPLEX = np.clongdouble

WIDE_ONE = WIDE_REAL(1.0)


def check_wide_precision(dtype):
    """Fail loudly where longdouble is plain double (Windows, macOS arm64)."""
    eps = float(np.finfo(dtype).eps)
    if eps > 1e-18:
        raise NumericError(f"{np.dtype(dtype).name} has eps {eps:.3g} > 1e-18; "
                           "ballmaps needs an extended-precision longdouble")


check_wide_precision(WIDE_REAL)


def as_wide_complex(a):
    return np.asarray(a, dtype=WIDE_COMPLEX)


def as_wide_real(a):
    return np.asarray(a, dtype=WIDE_REAL)


def one_minus_sq_norm(points):
    """1 - ||row||^2 along the last axis, accumulated in extended precision.

    Accepts real or complex input of any float width; returns a longdouble
    array (scalar array for 1-d input).  Absolute error stays near 1e-19
    even when the gap itself is 1e-12.
    """
    z = np.asarray(points)
    re = as_wide_real(np.real(z))
    im = as_wide_real(np.imag(z))
    sq = (re * re).sum(axis=-1) + (im * im).sum(axis=-1)
    return WIDE_ONE - sq


def one_minus_norm(points):
    """1 - ||row||, via the gap of the squared norm (no cancellation)."""
    gap2 = one_minus_sq_norm(points)
    z = np.asarray(points)
    re = as_wide_real(np.real(z))
    im = as_wide_real(np.imag(z))
    nrm = np.sqrt((re * re).sum(axis=-1) + (im * im).sum(axis=-1))
    return gap2 / (WIDE_ONE + nrm)


# --- deterministic sampling -------------------------------------------------

def rng_from_seed(seed):
    return np.random.default_rng(seed)


def complex_normals(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def unit_vectors(rng, count, dim):
    """Deterministic pseudo-random points on the unit sphere of C^dim."""
    v = complex_normals(rng, (count, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def interior_points(rng, count, dim, max_norm=0.9):
    """Points in the open ball, radius law uniform in volume up to max_norm."""
    v = unit_vectors(rng, count, dim)
    r = max_norm * rng.random(count) ** (1.0 / (2 * dim))
    return v * r[:, None]


def siegel_interior_points(rng, count, dim, scale=0.3):
    """Points of the unbounded model with Im(z1) - ||z'||^2 > 0, near 0."""
    if dim > 1:
        w = scale * complex_normals(rng, (count, dim - 1))
    else:
        w = np.zeros((count, 0), dtype=complex)
    height = scale * (0.05 + rng.random(count))
    x = scale * rng.standard_normal(count)
    z1 = x + 1j * ((np.abs(w) ** 2).sum(axis=1) + height)
    return np.concatenate([z1[:, None], w], axis=1)


def random_unitary(rng, dim):
    """Haar-ish unitary, deterministic for a given generator state."""
    a = complex_normals(rng, (dim, dim))
    q, r = np.linalg.qr(a)
    d = np.diag(r).copy()
    d /= np.abs(d)
    return q * d.conj()[None, :]
