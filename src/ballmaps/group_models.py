"""The unit ball, its unbounded (Siegel) model, and the matrix group acting on both.

The ball B^m carries the fractional-linear action of the (m+1)x(m+1)
matrices preserving the Hermitian form
``z_1 conj(w_1) + ... + z_m conj(w_m) - z_{m+1} conj(w_{m+1})``.
A matrix acts through ``z -> (A z + b) / (c^T z + d)`` in the affine chart,
so a scalar multiple acts identically; we fix that ambiguity by a canonical
phase normalization.  The Cayley transform carries everything to the Siegel
model ``Im(z_1) > |z_2|^2 + ... + |z_m|^2``, where the one-parameter
hyperbolic flow becomes a plain coordinate dilation.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, NumericError
from .numerics import (
    WIDE_COMPLEX,
    WIDE_REAL,
    as_wide_complex,
    as_wide_real,
    random_unitary,
)

TOL_GROUP = 1e-10
TOL_CLOSURE = 1e-9
# A fractional-linear denominator at most this times its matrix's scale vanishes.
TOL_DENOMINATOR = 1e-13

# Residual below which a Gram-Schmidt candidate is considered dependent.
GRAM_SCHMIDT_SKIP = 1e-8


def signature_matrix(dim, dtype=np.complex128):
    """diag(1, ..., 1, -1) of size dim+1."""
    j = np.eye(dim + 1, dtype=dtype)
    j[-1, -1] = -1.0
    return j


def hermitian_form(z, w):
    """The indefinite form: sum of z_i conj(w_i) minus the last product."""
    z = np.asarray(z)
    w = np.asarray(w)
    if z.ndim != 1 or w.ndim != 1 or z.shape != w.shape or z.shape[0] < 2:
        raise InputError("hermitian_form needs two equal-length vectors of length >= 2")
    prods = z * np.conj(w)
    return complex(prods[:-1].sum() - prods[-1])


def _canonical_phase(matrix):
    """Scale by a unit scalar so the largest-modulus entry of the last row is
    real positive; this pins down a unique representative of the projective class."""
    row = matrix[-1]
    idx = int(np.argmax(np.abs(row)))
    pivot = row[idx]
    mod = abs(pivot)
    if mod == 0.0:
        raise NumericError("degenerate matrix: last row is zero")
    out = matrix * (mod / pivot)
    out[-1, idx] = out[-1, idx].real  # exact realness for deterministic equality
    return out


@dataclass(frozen=True)
class BallPoint:
    """A point of the closed unit ball in C^m."""

    coords: np.ndarray
    tol: float = field(default=TOL_CLOSURE, compare=False)

    def __post_init__(self):
        c = np.asarray(self.coords, dtype=np.complex128).reshape(-1)
        if c.size < 1:
            raise InputError("BallPoint needs at least one coordinate")
        if float(np.linalg.norm(c)) > 1.0 + self.tol:
            raise InputError(f"point outside the closed ball: |z| = {np.linalg.norm(c):.6g}")
        c.setflags(write=False)
        object.__setattr__(self, "coords", c)

    @property
    def dim(self):
        return self.coords.shape[0]

    @property
    def norm(self):
        return float(np.linalg.norm(self.coords))

    @property
    def is_interior(self):
        return self.norm < 1.0


def siegel_rho(coords):
    """Defining function of the Siegel domain: Im(z1) - sum_{k>=2} |z_k|^2."""
    c = np.asarray(coords)
    return float(np.imag(c[..., 0]) - (np.abs(c[..., 1:]) ** 2).sum(axis=-1))


@dataclass(frozen=True)
class SiegelPoint:
    """A point of the closed Siegel domain Im(z1) >= |z'|^2."""

    coords: np.ndarray
    tol: float = field(default=TOL_CLOSURE, compare=False)

    def __post_init__(self):
        c = np.asarray(self.coords, dtype=np.complex128).reshape(-1)
        if c.size < 1:
            raise InputError("SiegelPoint needs at least one coordinate")
        if siegel_rho(c) < -self.tol:
            raise InputError(f"point outside the closed Siegel domain: rho = {siegel_rho(c):.6g}")
        c.setflags(write=False)
        object.__setattr__(self, "coords", c)

    @property
    def dim(self):
        return self.coords.shape[0]

    @property
    def rho(self):
        return siegel_rho(self.coords)

    @property
    def is_interior(self):
        return self.rho > 0.0


@dataclass(frozen=True, eq=False)
class Automorphism:
    """A ball automorphism as a canonically normalized (m+1)x(m+1) matrix.

    The matrix may be complex128 or clongdouble; extended precision matters
    when entries grow like e^t and downstream products cancel.
    """

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] < 2:
            raise InputError("Automorphism needs a square matrix of size >= 2")
        if mat.dtype not in (np.complex128, WIDE_COMPLEX):
            mat = mat.astype(np.complex128)
        mat = _canonical_phase(mat)
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self):
        return self.matrix.shape[0] - 1

    @classmethod
    def identity(cls, dim):
        return cls(np.eye(dim + 1, dtype=np.complex128))

    def as_double(self):
        if self.matrix.dtype == np.complex128:
            return self
        return Automorphism(self.matrix.astype(np.complex128))


def verify_membership(g):
    """Frobenius norm of g* J g - J after canonical normalization.

    Values at or below TOL_GROUP certify membership for matrices with
    moderate entries; entries of size e^t carry an intrinsic residual of
    order e^{2t} times the unit roundoff.
    """
    mat = g.matrix
    j = signature_matrix(g.dim, dtype=mat.dtype)
    defect = mat.conj().T @ j @ mat - j
    return float(np.linalg.norm(defect.astype(np.complex128)))


def _mobius_apply(matrix, points):
    """Fractional-linear action of `matrix` on an (n, m) batch of points.

    A stack of k matrices (k, m+1, m+1) acts matrix by matrix on (n, m)
    points shared by the stack, or on a (k, n, m) stack of batches, and
    gives (k, n, m_out); a single matrix acts as a stack of one.  Each matrix
    checks its denominators against its own scale, so every slice is the
    action of its matrix alone.
    """
    pts = np.asarray(points)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    dim = matrix.shape[-1] - 1
    if pts.shape[-1] != dim:
        raise InputError(f"point dimension {pts.shape[-1]} does not match matrix dimension {dim}")
    if pts.dtype != matrix.dtype:
        common = np.result_type(pts.dtype, matrix.dtype)
        pts = pts.astype(common)
        matrix = matrix.astype(common)
    stacked = matrix.ndim == 3
    if not stacked:
        matrix = matrix[None]
    a = matrix[:, :-1, :-1]
    b = matrix[:, None, :-1, -1]
    c = matrix[:, -1, :-1]
    d = matrix[:, -1, -1]
    # each slice takes gemm for num and gemv for den, as one 2-D matrix would
    num = pts @ a.transpose(0, 2, 1) + b
    den = (pts @ c[:, :, None])[..., 0] + d[:, None]
    if pts.size:
        top = np.max(np.abs(matrix[:, -1]), axis=-1).astype(np.float64)
        reach = np.max(np.abs(pts), axis=(-2, -1)).astype(np.float64)
        scale = np.maximum(top * np.maximum(reach, 1.0), 1.0)
    else:
        scale = np.ones(matrix.shape[0])
    vanishing = np.any(np.abs(den) <= TOL_DENOMINATOR * scale[:, None], axis=-1)
    if np.any(vanishing):
        raise NumericError("fractional-linear action undefined: denominator vanishes",
                           chain=int(np.argmax(vanishing)))
    out = num / den[..., None]
    if not stacked:
        out = out[0]
    return out[..., 0, :] if single else out


def apply_ball(g, z):
    """Apply an automorphism to a BallPoint (or a raw coordinate array)."""
    if isinstance(z, BallPoint):
        out = _mobius_apply(g.matrix, z.coords)
        return BallPoint(np.asarray(out, dtype=np.complex128))
    return _mobius_apply(g.matrix, z)


def cartan(t, dim, dtype=np.complex128):
    """The hyperbolic one-parameter flow: cosh/sinh corner blocks.

    Its orbit through 0 is the radial line, ``a_t(0) = (tanh t, 0, ..., 0)``.
    Built in extended precision so cosh^2 - sinh^2 = 1 holds to ~1e-19.
    """
    tw = WIDE_REAL(t)
    mat = np.eye(dim + 1, dtype=WIDE_COMPLEX)
    ch, sh = np.cosh(tw), np.sinh(tw)
    mat[0, 0] = ch
    mat[-1, -1] = ch
    mat[0, -1] = sh
    mat[-1, 0] = sh
    return Automorphism(mat.astype(dtype))


def _unitary_completion(columns):
    """Complete given columns to a unitary matrix by Gram-Schmidt.

    `columns` is a vector (one starting column) or a (dim, k) matrix of
    starting columns, which are orthonormalized in order and must be
    independent.  Deterministic completion rule: seed with the standard
    basis in order, skip any candidate whose orthogonalized residual has
    norm below GRAM_SCHMIDT_SKIP.  Runs in extended precision; the caller
    chooses the output dtype.
    """
    given = as_wide_complex(columns)
    if given.ndim == 1:
        given = given[:, None]
    dim, count = given.shape
    if dim == 0:
        return np.zeros((0, 0), dtype=WIDE_COMPLEX)
    cols = []
    for i, r in enumerate([*given.T, *np.eye(dim, dtype=WIDE_COMPLEX)]):
        if i >= count and len(cols) == dim:
            break
        for u in cols:
            r = r - (r * np.conj(u)).sum() * u
        rn = np.sqrt(float((np.abs(r) ** 2).sum().real))
        if rn < GRAM_SCHMIDT_SKIP:
            if i < count:
                raise NumericError("Gram-Schmidt completion degenerated: dependent input columns")
            continue
        cols.append(r / rn)
    if len(cols) != dim:
        raise NumericError("Gram-Schmidt completion degenerated")
    return np.stack(cols, axis=1)


def rotation_mapping_e1(v, dtype=np.complex128):
    """The stabilizer-of-0 element k with k(e1) = v, for a unit vector v."""
    v = np.asarray(v).reshape(-1)
    if abs(float(np.linalg.norm(v.astype(np.complex128))) - 1.0) > TOL_CLOSURE:
        raise InputError(f"rotation_mapping_e1 needs a unit vector, got |v| = {np.linalg.norm(v):.6g}")
    u = _unitary_completion(v)
    dim = v.shape[0]
    mat = np.eye(dim + 1, dtype=WIDE_COMPLEX)
    mat[:dim, :dim] = u
    return Automorphism(mat.astype(dtype))


def transport_to_origin(p):
    """The automorphism sending an interior point p to 0: (k a_t)^{-1}."""
    coords = p.coords if isinstance(p, BallPoint) else np.asarray(p).reshape(-1)
    r = float(np.linalg.norm(coords.astype(np.complex128)))
    if r >= 1.0:
        raise InputError(f"transport_to_origin needs an interior point, got |p| = {r:.6g}")
    dim = coords.shape[0]
    if r == 0.0:
        return Automorphism.identity(dim)
    t = np.arctanh(as_wide_real(r))
    k = rotation_mapping_e1(coords / r, dtype=WIDE_COMPLEX)
    return compose(cartan(-t, dim, dtype=WIDE_COMPLEX), inverse(k), dtype=np.complex128)


def compose(g, h, *more, dtype=None):
    """Matrix product of automorphisms (left acts last), renormalized.

    Accumulates in extended precision; the result keeps the widest input
    dtype unless `dtype` overrides it.
    """
    factors = (g, h) + more
    dims = {f.dim for f in factors}
    if len(dims) != 1:
        raise InputError("compose needs automorphisms of equal dimension")
    out = as_wide_complex(factors[0].matrix)
    for f in factors[1:]:
        out = out @ as_wide_complex(f.matrix)
    if dtype is None:
        dtype = np.result_type(*(f.matrix.dtype for f in factors))
    return Automorphism(out.astype(dtype))


def inverse(g):
    """Group inverse.

    For a form-preserving matrix the inverse is J g* J, which needs no
    arithmetic and so loses no precision even when entries are huge; we fall
    back to a numerical inverse only when the analytic candidate fails.
    """
    mat = g.matrix
    j = signature_matrix(g.dim, dtype=mat.dtype)
    candidate = j @ mat.conj().T @ j
    check = as_wide_complex(candidate) @ as_wide_complex(mat)
    scale = abs(check[0, 0])
    eye = np.eye(g.dim + 1)
    if scale > 0 and np.max(np.abs(check / scale - eye)) < 1e-8:
        return Automorphism((as_wide_complex(candidate) / scale).astype(mat.dtype))
    inv = np.linalg.inv(mat.astype(np.complex128))
    return Automorphism(inv.astype(mat.dtype))


# --- the two models and the transforms between them -------------------------

def cayley_matrix(dim):
    """Matrix of the ball -> Siegel transform in the affine chart."""
    mat = np.eye(dim + 1, dtype=np.complex128)
    mat[0, 0] = -1j
    mat[0, -1] = 1j
    mat[-1, 0] = 1.0
    mat[-1, -1] = 1.0
    return mat


def cayley_inverse_matrix(dim):
    """Matrix of the Siegel -> ball transform in the affine chart."""
    mat = 2j * np.eye(dim + 1, dtype=np.complex128)
    mat[0, 0] = -1.0
    mat[0, -1] = 1j
    mat[-1, 0] = 1.0
    mat[-1, -1] = 1j
    return mat


def cayley_ball_to_siegel_array(points):
    pts = np.asarray(points)
    z1 = pts[..., 0]
    if np.any(np.abs(1.0 + z1) <= 1e-12):
        raise NumericError("Cayley transform undefined at the excluded boundary point z1 = -1")
    return _mobius_apply(cayley_matrix(pts.shape[-1]), pts)


def cayley_siegel_to_ball_array(points):
    pts = np.asarray(points)
    z1 = pts[..., 0]
    if np.any(np.abs(1j + z1) <= 1e-12):
        raise NumericError("inverse Cayley transform undefined at the excluded boundary point z1 = -i")
    return _mobius_apply(cayley_inverse_matrix(pts.shape[-1]), pts)


def cayley_to_siegel(z):
    """Ball -> Siegel biholomorphism; e1 goes to 0, 0 goes to (i, 0, ..., 0)."""
    coords = z.coords if isinstance(z, BallPoint) else np.asarray(z).reshape(-1)
    return SiegelPoint(cayley_ball_to_siegel_array(coords))


def cayley_to_ball(z):
    """Siegel -> ball biholomorphism, the exact inverse of cayley_to_siegel."""
    coords = z.coords if isinstance(z, SiegelPoint) else np.asarray(z).reshape(-1)
    return BallPoint(cayley_siegel_to_ball_array(coords))


def cartan_siegel_array(t, points):
    pts = np.asarray(points, dtype=np.complex128).copy()
    pts[..., 0] *= np.exp(-t)
    pts[..., 1:] *= np.exp(-t / 2.0)
    return pts


def cartan_siegel(t, z):
    """The hyperbolic flow in Siegel coordinates: (e^{-t} z1, e^{-t/2} z').

    Under the Cayley transform this dilation corresponds to the ball flow at
    half the parameter: cartan_siegel(t) = cayley o cartan(t/2) o cayley^{-1}.
    It scales the defining function by e^{-t} exactly.
    """
    if isinstance(z, SiegelPoint):
        return SiegelPoint(cartan_siegel_array(t, z.coords))
    return cartan_siegel_array(t, z)


def random_automorphism(rng, dim, max_flow=2.0):
    """k1 a_t k2 with Haar-ish rotations and t uniform in [0, max_flow]."""
    u1 = np.eye(dim + 1, dtype=np.complex128)
    u2 = np.eye(dim + 1, dtype=np.complex128)
    u1[:dim, :dim] = random_unitary(rng, dim)
    u2[:dim, :dim] = random_unitary(rng, dim)
    t = float(rng.uniform(0.0, max_flow))
    return compose(Automorphism(u1), cartan(t, dim), Automorphism(u2))
