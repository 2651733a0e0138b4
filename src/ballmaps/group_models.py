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
# J g* J g - I of a group member, computed in extended precision from a
# matrix rounded to its dtype, is at most about (d+1) eps max|g|^2; this
# factor is the margin over that roundoff before `inverse` falls back.
INVERSE_DEFECT_FACTOR = 4.0


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


def _canonical_phase(matrices):
    """Scale each matrix of a (n, d, d) stack by a unit scalar so the
    largest-modulus entry of its last row is real positive; this pins down a
    unique representative of the projective class.  Normalizing a canonical
    matrix again is not the identity: the rounded scale can move the pivot."""
    at = np.arange(matrices.shape[0])
    rows = matrices[:, -1]
    idx = np.argmax(np.abs(rows), axis=-1)
    pivot = rows[at, idx]
    # abs() of one complex scalar is hypot; np.abs of a complex128 array can
    # round differently
    mod = np.hypot(pivot.real, pivot.imag)
    if not mod.all():
        raise NumericError("degenerate matrix: last row is zero", chain=int(np.argmin(mod != 0.0)))
    out = matrices * (mod / pivot)[:, None, None]
    out[at, -1, idx] = out[at, -1, idx].real  # exact realness for deterministic equality
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
        mat = _canonical_phase(mat[None])[0]
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @classmethod
    def _of_canonical(cls, matrix):
        """Wrap a matrix that _canonical_phase already normalized, as it is."""
        g = object.__new__(cls)
        matrix.setflags(write=False)
        object.__setattr__(g, "matrix", matrix)
        return g

    @property
    def dim(self):
        return self.matrix.shape[0] - 1

    @classmethod
    def identity(cls, dim):
        return cls(np.eye(dim + 1, dtype=np.complex128))

    def as_double(self):
        return Automorphism._of_canonical(as_double_stack(self.matrix[None])[0])


def as_double_stack(matrices):
    """A canonical (n, d, d) stack in double precision: a wide one rounded
    and put in canonical phase again, a double one as it is."""
    if matrices.dtype == np.complex128:
        return matrices
    return _canonical_phase(matrices.astype(np.complex128))


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


def cartans(t, dim, dtype=np.complex128):
    """The hyperbolic flow a_t for each parameter of a 1-d array, as a
    (n, dim+1, dim+1) stack of canonical matrices: cosh/sinh corner blocks.

    Its orbit through 0 is the radial line, ``a_t(0) = (tanh t, 0, ..., 0)``.
    Built in extended precision so cosh^2 - sinh^2 = 1 holds to ~1e-19.
    """
    tw = as_wide_real(t)
    mat = np.zeros((tw.shape[0], dim + 1, dim + 1), dtype=WIDE_COMPLEX)
    mat[:] = np.eye(dim + 1)
    ch, sh = np.cosh(tw), np.sinh(tw)
    mat[:, 0, 0] = ch
    mat[:, -1, -1] = ch
    mat[:, 0, -1] = sh
    mat[:, -1, 0] = sh
    return _canonical_phase(mat.astype(dtype))


def cartan(t, dim, dtype=np.complex128):
    """The flow a_t for one parameter; see cartans."""
    return Automorphism._of_canonical(cartans([t], dim, dtype)[0])


def _unitary_completion(columns):
    """Complete a (n, dim, k) stack of starting columns to unitary matrices
    by Gram-Schmidt.

    The k columns of each entry are orthonormalized in order and must be
    independent.  Deterministic completion rule: seed with the standard
    basis in order, skip any candidate whose orthogonalized residual has
    norm below GRAM_SCHMIDT_SKIP; each entry keeps its own skip pattern and
    the arithmetic of a lone entry.  Runs in extended precision; the caller
    chooses the output dtype.  NumericError names the first entry that
    degenerates.
    """
    given = as_wide_complex(columns)
    n, dim, count = given.shape
    basis = np.zeros((2, n, dim, dim), dtype=WIDE_COMPLEX)  # accepted columns and conjugates
    slots = [(basis[0, :, s], basis[1, :, s]) for s in range(dim)]
    held = 0  # columns held by every entry while all hold the same number
    filled = None  # columns per entry, once the entries' skip patterns part
    dependent = np.zeros(n, dtype=bool)
    eye = np.eye(dim, dtype=WIDE_COMPLEX)[:, None]  # each row broadcasts over the entries
    for i in range(count + dim):
        if i >= count and (held == dim if filled is None else np.all(dependent | (filled == dim))):
            break
        r = given[:, :, i] if i < count else eye[i - count]
        # an entry with fewer columns projects on zero slots, which leave r as it is
        for u, u_conj in slots[:held]:
            r = r - (r * u_conj).sum(axis=-1)[:, None] * u
        rn = np.sqrt((np.abs(r) ** 2).sum(axis=-1).real.astype(np.float64))
        skip = rn < GRAM_SCHMIDT_SKIP
        if filled is None and not skip.any():
            u, u_conj = slots[held]
            np.conjugate(np.divide(r, rn[:, None], out=u), out=u_conj)
            held += 1
            continue
        if i < count:
            dependent |= skip
        if filled is None and skip.all():
            continue
        # the skip patterns part: each entry fills its own slots
        if filled is None:
            filled = np.full(n, held)
        take = np.flatnonzero(~skip & ~dependent & (filled < dim))
        col = r[take] / rn[take, None]
        basis[0, take, filled[take]] = col
        basis[1, take, filled[take]] = np.conj(col)
        filled[take] += 1
        held = int(filled.max())
    failed = dependent | ((filled if filled is not None else held) != dim)
    if failed.any():
        j = int(np.argmax(failed))
        raise NumericError("Gram-Schmidt completion degenerated: dependent input columns"
                           if dependent[j] else "Gram-Schmidt completion degenerated", chain=j)
    return basis[0].swapaxes(1, 2)


def rotations_e1(v, dtype=np.complex128):
    """The stabilizer-of-0 elements k with k(e1) = v for each unit vector of
    a (n, dim) stack, as a stack of canonical matrices; InputError names the
    first vector that is not a unit vector, unless an earlier entry fails."""
    v = np.asarray(v)
    n, dim = v.shape
    vd = v.astype(np.complex128)
    re, im = vd.real, vd.imag
    # per row, the norm np.linalg.norm takes of one vector: two dot products
    norms = np.sqrt((re[:, None, :] @ re[:, :, None])[:, 0, 0]
                    + (im[:, None, :] @ im[:, :, None])[:, 0, 0])
    off = np.abs(norms - 1.0) > TOL_CLOSURE
    rows = int(np.argmax(off)) if off.any() else n
    u = _unitary_completion(v[:rows, :, None])
    if rows < n:
        raise InputError(f"rotation_mapping_e1 needs a unit vector, got |v| = {np.linalg.norm(v[rows]):.6g}")
    mat = np.zeros((n, dim + 1, dim + 1), dtype=WIDE_COMPLEX)
    mat[:, :dim, :dim] = u
    mat[:, dim, dim] = 1.0
    return _canonical_phase(mat.astype(dtype))


def rotation_mapping_e1(v, dtype=np.complex128):
    """The stabilizer-of-0 element k with k(e1) = v, for a unit vector v."""
    return Automorphism._of_canonical(rotations_e1(np.asarray(v).reshape(1, -1), dtype)[0])


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


def compose_stacks(*factors, dtype=None):
    """Matrix products of stacks of matrices (left acts last), canonical.

    Each factor is one (d, d) matrix or a (n, d, d) stack; a single matrix
    acts on every entry.  Accumulates in extended precision; the result
    keeps the widest input dtype unless `dtype` overrides it, and is a
    (n, d, d) stack (n = 1 for single matrices).
    """
    out = as_wide_complex(factors[0])
    for f in factors[1:]:
        out = out @ as_wide_complex(f)
    if dtype is None:
        dtype = np.result_type(*(f.dtype for f in factors))
    return _canonical_phase(out.astype(dtype).reshape((-1,) + out.shape[-2:]))


def compose(g, h, *more, dtype=None):
    """Matrix product of automorphisms (left acts last), renormalized; see
    compose_stacks."""
    factors = (g, h) + more
    dims = {f.dim for f in factors}
    if len(dims) != 1:
        raise InputError("compose needs automorphisms of equal dimension")
    return Automorphism._of_canonical(compose_stacks(*(f.matrix for f in factors), dtype=dtype)[0])


def inverses(matrices):
    """Group inverses of a (n, d+1, d+1) stack of matrices, canonical.

    For a form-preserving matrix the inverse is J g* J, which needs no
    arithmetic and so loses no precision even when entries are huge.  It is
    accepted when J g* J g is the identity up to INVERSE_DEFECT_FACTOR (d+1)
    eps max|g|^2, the roundoff of that product, or up to 1e-8 if larger; a
    matrix that fails falls back to a numerical inverse.
    """
    size = matrices.shape[-1]
    j = signature_matrix(size - 1, dtype=matrices.dtype)
    candidate = as_wide_complex(j @ matrices.conj().swapaxes(-1, -2) @ j)
    check = candidate @ as_wide_complex(matrices)
    scale = np.abs(check[:, 0, 0])
    top = np.max(np.abs(matrices), axis=(-2, -1)).astype(np.float64)
    tol = np.maximum(1e-8, INVERSE_DEFECT_FACTOR * size * float(np.finfo(matrices.dtype).eps) * top**2)
    member = scale > 0
    scale = np.where(member, scale, 1.0)[:, None, None]
    defect = np.max(np.abs(check / scale - np.eye(size)), axis=(-2, -1))
    member &= defect < tol
    out = (candidate / scale).astype(matrices.dtype)
    if not member.all():
        out[~member] = np.linalg.inv(matrices[~member].astype(np.complex128)).astype(matrices.dtype)
    return _canonical_phase(out)


def inverse(g):
    """Group inverse; see inverses."""
    return Automorphism._of_canonical(inverses(g.matrix[None])[0])


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
