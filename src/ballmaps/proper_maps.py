"""Polynomial proper maps between balls, their symmetries, and exact boundary jets.

A map spec stores each output component as a list of (multi-index, coefficient)
monomials.  Properness (boundary to boundary) is certified on a deterministic
sphere sample.  Conjugating by the Cayley transforms gives the same map in
Siegel coordinates as a chain of fractional-linear and polynomial stages, and
the chain rule through those stages yields exact values, first and second
derivatives at the distinguished boundary point 0; an independent central
finite-difference pass cross-checks every jet.
"""

import itertools
import json
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import InputError, NumericError
from . import group_models as gm
from . import kobayashi as kb
from .numerics import (
    WIDE_COMPLEX,
    as_wide_complex,
    interior_points,
    one_minus_norm,
    rng_from_seed,
    unit_vectors,
)

MAX_DEGREE = 8
MAX_COEFFICIENT = 10.0
PROPERNESS_TOL = 1e-9
SYMMETRY_TOL = 1e-9
FD_STEP = 1e-4  # step of the finite-difference stencil that cross-checks each jet


@dataclass(frozen=True)
class ProperMapSpec:
    """A polynomial map C^m -> C^M given by per-component monomial lists.

    components[j] is a tuple of (exponents, coefficient) pairs where
    exponents is a length-m tuple of nonnegative ints.
    """

    m: int
    M: int
    components: tuple

    def __post_init__(self):
        if self.m < 1 or self.M < self.m:
            raise InputError("need target dimension M >= domain dimension m >= 1")
        if len(self.components) != self.M:
            raise InputError("component count must equal the target dimension")
        normalized = []
        for comp in self.components:
            terms = []
            for exponents, coef in comp:
                exps = tuple(int(e) for e in exponents)
                if len(exps) != self.m or any(e < 0 for e in exps):
                    raise InputError("monomial exponents must be nonnegative, one per variable")
                if sum(exps) > MAX_DEGREE:
                    raise InputError(f"monomial degree exceeds the cap {MAX_DEGREE}")
                c = complex(coef)
                if abs(c) > MAX_COEFFICIENT:
                    raise InputError(f"coefficient magnitude exceeds the cap {MAX_COEFFICIENT}")
                terms.append((exps, c))
            normalized.append(tuple(terms))
        object.__setattr__(self, "components", tuple(normalized))

    def eval(self, z):
        """Evaluate at a single point (m,) or a batch (n, m); dtype is preserved."""
        pts = np.asarray(z)
        single = pts.ndim == 1
        pts = np.atleast_2d(pts)
        if pts.shape[1] != self.m:
            raise InputError(f"point dimension {pts.shape[1]} does not match domain {self.m}")
        dtype = np.dtype(pts.dtype if pts.dtype in (np.complex128, WIDE_COMPLEX)
                         else np.complex128)
        pts = pts.astype(dtype)
        out = np.zeros((pts.shape[0], self.M), dtype=dtype)
        for j, comp in enumerate(self.components):
            for exps, coef in comp:
                term = np.full(pts.shape[0], dtype.type(coef))
                for k, e in enumerate(exps):
                    if e:
                        term = term * pts[:, k] ** e
                out[:, j] += term
        return out[0] if single else out

    def properness_residual(self, count=None):
        """max | ||f(v)|| - 1 | over a deterministic boundary sample."""
        count = count or 32 * self.m
        v = unit_vectors(rng_from_seed(23), count, self.m)
        gap = one_minus_norm(self.eval(v))
        return float(np.max(np.abs(gap.astype(np.float64))))


def validate_properness(spec):
    res = spec.properness_residual()
    if res > PROPERNESS_TOL:
        raise InputError(f"map fails the properness certificate: residual {res:.3g}")


def catalog(name, m=None, M=None, d=None):
    """Built-in proper maps: linear(m, M), whitney(), power(m, d)."""
    if name == "linear":
        if m is None or M is None:
            raise InputError("linear needs m and M")
        if M < m:
            raise InputError("linear embedding needs M >= m")
        comps = []
        for j in range(m):
            exps = tuple(1 if k == j else 0 for k in range(m))
            comps.append(((exps, 1.0),))
        comps.extend(() for _ in range(M - m))
        spec = ProperMapSpec(m, M, tuple(comps))
    elif name == "whitney":
        spec = ProperMapSpec(2, 3, (
            (((1, 0), 1.0),),
            (((1, 1), 1.0),),
            (((0, 2), 1.0),),
        ))
    elif name == "power":
        if m is None or d is None:
            raise InputError("power needs m and d")
        if d < 1 or d > MAX_DEGREE:
            raise InputError(f"power needs 1 <= d <= {MAX_DEGREE}")
        exps = sorted(
            (e for e in itertools.product(range(d + 1), repeat=m) if sum(e) == d),
            reverse=True,
        )
        comps = tuple(
            ((e, math.sqrt(math.factorial(d) / math.prod(math.factorial(k) for k in e))),)
            for e in exps
        )
        spec = ProperMapSpec(m, len(exps), comps)
    else:
        raise InputError(f"unknown catalog map {name!r}")
    validate_properness(spec)
    return spec


def standard_catalog():
    """The fixture set used across the verification suites."""
    return [
        ("linear(2,4)", catalog("linear", m=2, M=4)),
        ("whitney()", catalog("whitney")),
        ("power(2,2)", catalog("power", m=2, d=2)),
    ]


# --- maps dressed with automorphisms ----------------------------------------

@dataclass(frozen=True)
class TransformedMap:
    """post o core o pre, with `pre`/`post` ball automorphisms.

    This is the closure of the polynomial catalog under the normalizations
    and recenterings the rescaling pipeline performs.
    """

    pre: gm.Automorphism
    core: ProperMapSpec
    post: gm.Automorphism

    def __post_init__(self):
        if self.pre.dim != self.core.m or self.post.dim != self.core.M:
            raise InputError("automorphism dimensions must match the map")

    @property
    def m(self):
        return self.core.m

    @property
    def M(self):
        return self.core.M

    @classmethod
    def from_spec(cls, spec):
        return cls(gm.Automorphism.identity(spec.m), spec, gm.Automorphism.identity(spec.M))

    def eval(self, z):
        inner = gm._mobius_apply(self.pre.matrix, z)
        return gm._mobius_apply(self.post.matrix, self.core.eval(inner))

    def with_precomposition(self, g):
        """The map self o g."""
        return TransformedMap(gm.compose(self.pre, g), self.core, self.post)

    def with_postcomposition(self, h):
        """The map h o self."""
        return TransformedMap(self.pre, self.core, gm.compose(h, self.post))


def as_transformed(f):
    if isinstance(f, TransformedMap):
        return f
    return TransformedMap.from_spec(f)


# --- boundary Lipschitz constant and the additive constant -------------------

@dataclass(frozen=True)
class LipschitzConstant:
    """Grid estimate of inf{C : 1 - ||f(z)|| <= C (1 - ||z||)}."""

    C: float
    grid_size: int


def lipschitz_boundary_constant(f, grid_density=64, *, radii_count=24):
    """Maximize (1 - ||f(z)||) / (1 - ||z||) over a deterministic near-boundary grid.

    Radii are log-spaced in [0.9, 1 - 1e-8]; directions are grid_density
    pseudo-random unit vectors plus a few distinguished ones.  Overestimates
    are safe for every downstream use (they only enlarge beta).
    """
    f = as_transformed(f)
    m = f.m
    dirs = [np.eye(m, dtype=complex)[0]]
    if m > 1:
        dirs.append(np.eye(m, dtype=complex)[m - 1])
        dirs.append(np.ones(m, dtype=complex) / math.sqrt(m))
    dirs.append(unit_vectors(rng_from_seed(11), grid_density, m))
    directions = np.concatenate([np.atleast_2d(d) for d in dirs], axis=0)
    radii = 1.0 - np.logspace(-1, -8, radii_count)
    pts = (radii[:, None, None] * directions).reshape(-1, m)
    ratio = (one_minus_norm(f.eval(pts)) / one_minus_norm(pts)).astype(np.float64)
    return LipschitzConstant(max(0.0, float(np.max(ratio))), pts.shape[0])


def beta_constant(f, C):
    """The additive quasi-geodesic constant: 0.5 log(2C) + dist(0, f(0)).

    C must dominate the grid estimate of the boundary Lipschitz constant.
    """
    f = as_transformed(f)
    estimate = lipschitz_boundary_constant(f).C
    if C < estimate * (1.0 - 1e-9):
        raise InputError(
            f"C = {C:.6g} is below the boundary Lipschitz estimate {estimate:.6g}")
    return kb.quasi_geodesic_beta(C, base_offset(f))


def base_offset(f):
    """dist(0, f(0)), the offset of the image of the origin."""
    f = as_transformed(f)
    return kb.dist_ball(np.zeros(f.M), f.eval(np.zeros(f.m, dtype=complex)))


def radial_bound_constants(f, trials, seed):
    """The constants of the radial-deviation bound 2D + beta + dist(0, f(0)):
    D is the Morse estimate over `trials` seeded trials, 0 for no trials."""
    C = lipschitz_boundary_constant(f).C
    base = base_offset(f)
    D = (kb.estimate_morse_constant(f.M, 1.0, kb.quasi_geodesic_beta(C, base), base, trials, seed)
         if trials > 0 else 0.0)
    return kb.RadialBoundConstants(C=C, D=D, base_offset=base)


# --- symmetry pairs ----------------------------------------------------------

@dataclass(frozen=True)
class SymmetryPair:
    """A candidate pair (phi, psi) with its commutation residual on a sample."""

    phi: gm.Automorphism
    psi: gm.Automorphism
    residual: float

    @property
    def certified(self):
        return self.residual <= SYMMETRY_TOL


def symmetry_residuals(f, phis, psis, sample_count=128, seed=3):
    """Residuals of psi(f(z)) - f(phi(z)) for the (n, d+1, d+1) stacks phis
    and psis on shared deterministic interior samples.

    f is evaluated on the samples once and on the images of every phi in one
    more call; each stack acts through one stacked _mobius_apply.
    """
    f = as_transformed(f)
    if phis.shape[1:] != (f.m + 1,) * 2 or psis.shape[1:] != (f.M + 1,) * 2:
        raise InputError("symmetry pair dimensions must match the map")
    if len(phis) != len(psis):
        raise InputError(f"symmetry pair stacks differ in length: {len(phis)} phi, {len(psis)} psi")
    pts = interior_points(rng_from_seed(seed), sample_count, f.m, max_norm=0.95)
    lhs = gm._mobius_apply(psis, f.eval(pts))
    moved = gm._mobius_apply(phis, pts)
    rhs = f.eval(moved.reshape(-1, f.m)).reshape(lhs.shape)
    return np.max(np.linalg.norm((lhs - rhs).astype(np.complex128), axis=-1), axis=-1)


def verify_symmetry_pair(f, phi, psi, sample_count=128, seed=3):
    """Residual of psi(f(z)) - f(phi(z)) over deterministic interior samples."""
    residual = symmetry_residuals(f, phi.matrix[None], psi.matrix[None], sample_count, seed)
    return SymmetryPair(phi, psi, float(residual[0]))


def block_extend(phis, M):
    """Extend a (n, m+1, m+1) stack of dim-m automorphisms to dim M, acting
    trivially on the new coordinates; a canonical (n, M+1, M+1) stack.

    Together with the linear embedding f(z) = (z, 0) this satisfies
    psi o f = f o phi exactly.
    """
    m = phis.shape[-1] - 1
    if M < m:
        raise InputError("block_extend needs M >= m")
    out = np.broadcast_to(np.eye(M + 1, dtype=phis.dtype), phis.shape[:-2] + (M + 1, M + 1)).copy()
    keep = np.r_[:m, M]  # the rows and columns of phi in the extension
    out[..., keep[:, None], keep] = phis
    return gm._canonical_phase(out)


# --- Siegel-coordinate conjugates with exact 2-jets --------------------------

def _chain_rule(sjac, jac, hess):
    """J_s J_r and J_s H_r, the terms of the jet of s o r that need only the
    stage's Jacobian J_s and the jet (J_r, H_r) of r; H_u adds the sandwich
    sum_pq H_s[j,p,q] J_r[p,k] J_r[q,l]."""
    rows, m = hess.shape[0], hess.shape[-1]
    folded = sjac @ hess.reshape(rows, -1, m * m)
    return sjac @ jac, folded.reshape(folded.shape[:2] + (m, m))


class _MoebiusStage:
    """One fractional-linear factor per chain, with closed-form first and
    second derivatives; `matrices` is a (n, d+1, d+1) stack, or (1, d+1, d+1)
    for one matrix shared by every chain, which broadcasting carries."""

    def __init__(self, matrices, name="moebius"):
        self.matrix = as_wide_complex(matrices)
        self.name = name
        self.dim_in = self.matrix.shape[2] - 1
        self.dim_out = self.matrix.shape[1] - 1

    def value(self, pts):
        return gm._mobius_apply(self.matrix, pts)

    def fold(self, z, jac, hess):
        """The jet of this stage after one with value z, Jacobian jac and
        Hessian hess.

        For w = (a z + b) / (c.z + d) the Hessian is H_w[j,p,q] =
        -(J_w[j,p] c_q + J_w[j,q] c_p) / den, so its sandwich with J needs
        only the new Jacobian J_w J and c^T J, never H_w itself; the
        Hessian inherits the cancellation already done in J_w.
        """
        a = self.matrix[:, :-1, :-1]
        b = self.matrix[:, :-1, -1]
        c = self.matrix[:, -1, :-1]
        d = self.matrix[:, -1, -1]
        num = (a @ z[:, :, None])[..., 0] + b
        den = (c * z).sum(axis=-1) + d
        # each chain against the scale of its own matrix, never the stack's
        scale = np.maximum(1.0, np.max(np.abs(self.matrix[:, -1]), axis=-1).astype(np.float64))
        vanishing = np.abs(den.astype(np.complex128)) <= gm.TOL_DENOMINATOR * scale
        if np.any(vanishing):
            raise NumericError(f"{self.name} stage undefined: denominator vanishes",
                               chain=int(np.argmax(vanishing)))
        # np.power, not **, which squares by a path that differs on signed zeros
        val = num / den[:, None]
        sjac = a / den[:, None, None] - num[:, :, None] * c[:, None, :] / np.power(den, 2)[:, None, None]
        new_jac, folded = _chain_rule(sjac, jac, hess)
        cj = (c[:, None, :] @ jac)[:, 0]
        sandwich = -(new_jac[:, :, :, None] * cj[:, None, None, :]
                     + new_jac[:, :, None, :] * cj[:, None, :, None]) / den[:, None, None, None]
        return val, new_jac, sandwich + folded


class _PolyStage:
    """A polynomial factor shared by every chain, compiled once into tables.

    The tables hold each distinct monomial that the value and the first and
    second derivatives need, and for every output slot its contributions
    (coefficient, monomial) in the order of the spec's terms.  A jet forms
    each monomial as 1 times z_k^e_k, variable by variable, and adds the
    contributions slot by slot, so each chain gets the arithmetic of
    differentiating one monomial at a time.
    """

    def __init__(self, spec):
        self.spec = spec
        m, M = self.dim_in, self.dim_out = spec.m, spec.M
        monomials = {}
        slots = {}

        def add(slot, exps, coef):
            index = monomials.setdefault(tuple(exps), len(monomials))
            slots.setdefault(slot, []).append((coef, index))

        def hess_slot(j, k, l):
            return M + M * m + (j * m + k) * m + l

        for j, comp in enumerate(spec.components):
            for exps, coef in comp:
                cw = WIDE_COMPLEX(coef)
                add(j, exps, cw)
                for k, ek in enumerate(exps):
                    if ek == 0:
                        continue
                    lowered = list(exps)
                    lowered[k] -= 1
                    add(M + j * m + k, lowered, cw * ek)
                    if ek >= 2:
                        lowered2 = list(lowered)
                        lowered2[k] -= 1
                        add(hess_slot(j, k, k), lowered2, cw * ek * (ek - 1))
                    for l, el in enumerate(exps):
                        if l == k or el == 0:
                            continue
                        mixed = list(lowered)
                        mixed[l] -= 1
                        add(hess_slot(j, k, l), mixed, cw * ek * el)
        exponents = np.array(list(monomials), dtype=np.int64).reshape(-1, m)
        self._monomial_count = exponents.shape[0]
        self._degrees = np.arange(1, max(1, int(exponents.max(initial=0))) + 1)
        # per variable: the monomials it enters, and the index of its power
        self._factors = [(np.flatnonzero(exponents[:, k]), exponents[exponents[:, k] > 0, k] - 1)
                         for k in range(m)]
        # rank r adds the r-th contribution of every slot that has one
        self._ranks = []
        for r in range(max((len(c) for c in slots.values()), default=0)):
            hits = [(slot, c[r]) for slot, c in slots.items() if len(c) > r]
            self._ranks.append((np.array([slot for slot, _ in hits]),
                                np.array([index for _, (_, index) in hits]),
                                np.array([coef for _, (coef, _) in hits], dtype=WIDE_COMPLEX)))

    def value(self, pts):
        flat = self.spec.eval(pts.reshape(-1, self.dim_in))
        return flat.reshape(pts.shape[:-1] + (self.dim_out,))

    def jet(self, z):
        n, m, M = z.shape[0], self.dim_in, self.dim_out
        # an exponent array keeps z^2 off the squaring path of **
        powers = np.power(z[:, :, None], self._degrees)
        mono = np.ones((n, self._monomial_count), dtype=WIDE_COMPLEX)
        for k, (cols, power) in enumerate(self._factors):
            mono[:, cols] = mono[:, cols] * powers[:, k, power]
        flat = np.zeros((n, M + M * m + M * m * m), dtype=WIDE_COMPLEX)
        for slots, index, coef in self._ranks:
            flat[:, slots] += coef * mono[:, index]
        return (flat[:, :M], flat[:, M:M + M * m].reshape(n, M, m),
                flat[:, M + M * m:].reshape(n, M, m, m))

    def fold(self, z, jac, hess):
        """The jet of this stage after one with value z, Jacobian jac and
        Hessian hess: the sandwich J^T H_s J of the tabulated Hessian."""
        val, sjac, shess = self.jet(z)
        sandwich = np.swapaxes(jac, 1, 2)[:, None] @ shess @ jac[:, None]
        new_jac, folded = _chain_rule(sjac, jac, hess)
        return val, new_jac, sandwich + folded


class SiegelMap:
    """A stack of maps between Siegel domains, each a chain of explicit stages.

    Every stage holds one factor per chain, or one factor that all chains
    share, so evaluation and exact 2-jets fold all chains at once: for
    u = s o r, J_u = J_s J_r and H_u = J_r^T H_s J_r + J_s H_r.  A shared
    stage acts once on points (or a jet) that every chain shares.  `shape`
    is the stack shape of every output: (n,) for n chains, or () for a
    single map, which runs as a stack of one.
    """

    def __init__(self, stages, m, M, shape=()):
        self.stages = tuple(stages)
        self.m = m
        self.M = M
        self.shape = tuple(shape)
        self.size = math.prod(self.shape)

    @classmethod
    def from_polynomial(cls, spec):
        return cls([_PolyStage(spec)], spec.m, spec.M)

    def eval(self, w):
        """Values at one point (m,) or a batch (p, m) shared by every chain."""
        pts = np.asarray(w)
        single = pts.ndim == 1
        pts = np.atleast_2d(pts).astype(WIDE_COMPLEX)[None]
        for stage in self.stages:
            pts = stage.value(pts)
        out = pts.astype(np.complex128)
        if single:
            out = out[:, 0]
        return out.reshape(self.shape + out.shape[1:])

    def _jet_wide(self, w0):
        z = as_wide_complex(np.asarray(w0)).reshape(-1)
        if z.shape[0] != self.m:
            raise InputError(f"jet point has dimension {z.shape[0]}, expected {self.m}")
        m = self.m
        # one jet at w0, shared by every chain until a stage of its own
        val = z[None]
        jac = np.eye(m, dtype=WIDE_COMPLEX)[None]
        hess = np.zeros((1, m, m, m), dtype=WIDE_COMPLEX)
        for stage in self.stages:
            val, jac, hess = stage.fold(val, jac, hess)
        return val, jac, hess

    def jet_at(self, w0):
        return tuple(arr.astype(np.complex128).reshape(self.shape + arr.shape[1:])
                     for arr in self._jet_wide(w0))


def siegel_chains(core, pres, posts, shape=None):
    """The stack of Siegel-coordinate conjugates of post[i] o core o pre[i].

    Chain: inverse Cayley (domain), pre automorphism, polynomial core, post
    automorphism, Cayley (target); `pres` and `posts` are (n, d+1, d+1)
    stacks, the Cayley stages one matrix for every chain.  `shape` defaults
    to (n,).
    """
    m, M = core.m, core.M
    stages = [
        _MoebiusStage(gm.cayley_inverse_matrix(m)[None], name="cayley"),
        _MoebiusStage(pres, name="pre"),
        _PolyStage(core),
        _MoebiusStage(posts, name="post"),
        _MoebiusStage(gm.cayley_matrix(M)[None], name="cayley"),
    ]
    return SiegelMap(stages, m, M, (len(pres),) if shape is None else shape)


def siegel_conjugate(f):
    """The map in Siegel coordinates on both sides, with exact jets.

    A list of maps sharing one core gives a stack with one chain per map;
    see siegel_chains.
    """
    stacked = isinstance(f, (list, tuple))
    maps = [as_transformed(g) for g in f] if stacked else [as_transformed(f)]
    core = maps[0].core
    if any(g.core != core for g in maps[1:]):
        raise InputError("a stack of maps must share one polynomial core")
    return siegel_chains(core, np.stack([g.pre.matrix for g in maps]),
                         np.stack([g.post.matrix for g in maps]), None if stacked else ())


@dataclass(frozen=True)
class JetExpansion:
    """Value, first and second complex derivatives at the Siegel origin of one
    map, or of a stack of maps along the leading axes of every field.

    `second` holds true second partials, symmetric in its last two slots.
    `error_norm` is the worst finite-difference disagreement, measured
    relative to max(1, |coefficient|): a float for one map, one value per map
    for a stack.  Indexing slices every field.
    """

    value: np.ndarray
    first: np.ndarray
    second: np.ndarray
    error_norm: float | np.ndarray = field(default=0.0, compare=False)

    def __post_init__(self):
        value = np.asarray(self.value, dtype=np.complex128)
        first = np.asarray(self.first, dtype=np.complex128)
        second = np.asarray(self.second, dtype=np.complex128)
        if (first.ndim < 2 or value.shape != first.shape[:-1]
                or second.shape != first.shape + first.shape[-1:]
                or np.shape(self.error_norm) not in ((), value.shape[:-1])):
            raise InputError("jet arrays have inconsistent shapes")
        # one error per map: a scalar spreads over a stack, read-only
        error_norm = np.broadcast_to(np.asarray(self.error_norm, dtype=np.float64),
                                     value.shape[:-1])
        second = 0.5 * (second + second.swapaxes(-1, -2))
        for arr in (value, first, second):
            arr.setflags(write=False)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "first", first)
        object.__setattr__(self, "second", second)
        object.__setattr__(self, "error_norm", error_norm if error_norm.ndim else float(error_norm))

    def __getitem__(self, rows):
        # the rows as they are, not symmetrized a second time
        jet = object.__new__(JetExpansion)
        for fl in fields(self):
            object.__setattr__(jet, fl.name, getattr(self, fl.name)[rows])
        return jet

    @property
    def M(self):
        return self.value.shape[-1]

    @property
    def m(self):
        return self.first.shape[-1]


def _fd_jet(g, step):
    """Central finite-difference value/first/second at 0 (independent oracle).

    The whole stencil, 1 + 2m + 2m(m-1) points, goes through one g.eval; for
    a stack of chains every array gains the stack's leading axes.
    """
    m = g.m
    h = step
    e = np.eye(m)
    mixed_pairs = list(itertools.combinations(range(m), 2))
    stencil = [np.zeros(m)]
    stencil += [h * e[k] for k in range(m)]
    stencil += [-h * e[k] for k in range(m)]
    for k, l in mixed_pairs:
        stencil += [h * e[k] + h * e[l], h * e[k] - h * e[l],
                    -h * e[k] + h * e[l], -h * e[k] - h * e[l]]
    values = g.eval(np.array(stencil, dtype=complex))
    lead = values.shape[:-2]
    f0 = values[..., 0, :]
    plus, minus = values[..., 1:1 + m, :], values[..., 1 + m:1 + 2 * m, :]
    corners = values[..., 1 + 2 * m:, :].reshape(lead + (-1, 4, g.M))
    first = np.zeros(lead + (g.M, m), dtype=complex)
    second = np.zeros(lead + (g.M, m, m), dtype=complex)
    for k in range(m):
        first[..., k] = (plus[..., k, :] - minus[..., k, :]) / (2 * h)
        second[..., k, k] = (plus[..., k, :] - 2 * f0 + minus[..., k, :]) / h**2
    for i, (k, l) in enumerate(mixed_pairs):
        pp, pm, mp, mm = (corners[..., i, c, :] for c in range(4))
        mixed = (pp - pm - mp + mm) / (4 * h**2)
        second[..., k, l] = mixed
        second[..., l, k] = mixed
    return f0, first, second


def jet_at_zero(g, *, fd_tol=1e-4):
    """Exact chain-rule jet at 0, cross-checked against finite differences.

    Raises NumericError when the two routes disagree beyond fd_tol; the
    observed disagreement is recorded as error_norm either way.  Callers
    composing ill-conditioned chains (factors with entries of size e^t whose
    roundoff the finite differences divide by step^2) must widen fd_tol
    accordingly; the finite-difference oracle, not the chain rule, is the
    side that degrades.

    A stack of n chains (g.shape == (n,)) gives one stacked expansion from
    one fold and one stencil evaluation; fd_tol is then a scalar or one
    tolerance per chain, and each chain is checked against its own.
    """
    value, first, second = g.jet_at(np.zeros(g.m, dtype=complex))
    fd_value, fd_first, fd_second = _fd_jet(g, FD_STEP)
    lead = value.shape[:-1]
    err = np.zeros(lead)
    for exact, fd in ((first, fd_first), (second, fd_second)):
        denom = np.maximum(1.0, np.abs(exact))
        worst = np.max((np.abs(fd - exact) / denom).reshape(lead + (-1,)), axis=-1)
        err = np.maximum(err, worst)
    # a NaN disagreement fails too
    over = np.flatnonzero(~(err <= fd_tol))
    if over.size:
        raise NumericError(
            f"chain-rule jet disagrees with finite differences: {err.flat[over[0]]:.3g}",
            chain=int(over[0]))
    return JetExpansion(value, first, second, error_norm=err)


def jet_quadratic_eval(jet, pts):
    """Evaluate the quadratic polynomial defined by a jet (batch, n x m)."""
    z = np.atleast_2d(np.asarray(pts, dtype=np.complex128))
    out = (jet.value[None, :] + z @ jet.first.T
           + 0.5 * np.einsum("jkl,nk,nl->nj", jet.second, z, z))
    return out


# --- map-spec files ----------------------------------------------------------

def map_spec_to_dict(spec):
    return {
        "domain_dim": spec.m,
        "target_dim": spec.M,
        "components": [
            [{"exponents": list(exps), "coef": [coef.real, coef.imag]}
             for exps, coef in comp]
            for comp in spec.components
        ],
    }


def map_spec_from_dict(doc):
    try:
        comps = tuple(
            tuple((tuple(term["exponents"]), complex(term["coef"][0], term["coef"][1]))
                  for term in comp)
            for comp in doc["components"]
        )
        spec = ProperMapSpec(int(doc["domain_dim"]), int(doc["target_dim"]), comps)
    except (KeyError, TypeError, IndexError) as exc:
        raise InputError(f"malformed map spec document: {exc}") from exc
    validate_properness(spec)
    return spec


def save_map_spec(spec, path):
    with open(path, "w") as fh:
        json.dump(map_spec_to_dict(spec), fh, indent=1)
        fh.write("\n")


def load_map_spec(path):
    with open(path) as fh:
        return map_spec_from_dict(json.load(fh))
