"""50-digit mpmath references for every distance the benchmark checks.

Nothing here imports ballmaps: the formulas are written out again from their
definitions so that the program is compared against independent arithmetic.
Inputs are the exact double values the benchmark wrote into the program's
input files, so the reference describes the same points the program saw.
"""

import mpmath
import numpy as np

DPS = 50


def _mp_vec(vec):
    return [x if isinstance(x, mpmath.mpc) else mpmath.mpc(complex(x)) for x in vec]


def _sq_norm(z):
    return mpmath.fsum(abs(x) ** 2 for x in z)


def dist(z, w):
    """Kobayashi distance acosh sqrt(|1-<z,w>|^2 / ((1-|z|^2)(1-|w|^2)))."""
    with mpmath.workdps(DPS):
        zs, ws = _mp_vec(z), _mp_vec(w)
        inner = mpmath.fsum(a * mpmath.conj(b) for a, b in zip(zs, ws))
        num = abs(1 - inner) ** 2
        den = (1 - _sq_norm(zs)) * (1 - _sq_norm(ws))
        return mpmath.acosh(mpmath.sqrt(num / den))


def siegel_to_ball(w):
    """Inverse Cayley transform: z1 = (i - w1)/(i + w1), z_k = 2i w_k/(i + w1)."""
    with mpmath.workdps(DPS):
        ws = _mp_vec(w)
        den = ws[0] + 1j
        return [(1j - ws[0]) / den] + [2j * x / den for x in ws[1:]]


def _dist_double(a, b):
    """All-pairs distances in double precision, for candidate selection only."""
    inner = a @ b.conj().T
    ga = 1.0 - (np.abs(a) ** 2).sum(axis=1)
    gb = 1.0 - (np.abs(b) ** 2).sum(axis=1)
    excess = (np.abs(1.0 - inner) ** 2 - ga[:, None] * gb[None, :]) / (ga[:, None] * gb[None, :])
    return np.arccosh(np.sqrt(1.0 + np.maximum(excess, 0.0)))


# Double-precision distances of points with |z| <= 0.95 are good to far
# better than this; every candidate within the margin is re-evaluated at
# 50 digits, so the margin only has to cover the double error.
_CANDIDATE_MARGIN = 1e-6


def _directed(a_mp, b_mp, d64):
    """max_i min_j dist(a_i, b_j), exact for every row and column that can matter."""
    row_min = d64.min(axis=1)
    top = row_min.max()
    best = mpmath.mpf(0)
    for i in np.nonzero(row_min >= top - _CANDIDATE_MARGIN)[0]:
        cols = np.nonzero(d64[i] <= row_min[i] + _CANDIDATE_MARGIN)[0]
        best = max(best, min(dist(a_mp[i], b_mp[j]) for j in cols))
    return best


def _ball_points(model, points):
    if model == "ball":
        return [list(p) for p in points]
    return [siegel_to_ball(p) for p in points]


def hausdorff(curve_a, curve_b):
    """(value, slack) of the sampled Hausdorff pseudo-distance of two curves.

    A curve is (model, points) with points an (n, m) complex array.  The slack
    is the largest distance between adjacent samples of either curve.
    """
    with mpmath.workdps(DPS):
        a_mp = _ball_points(*curve_a)
        b_mp = _ball_points(*curve_b)
        a64 = np.array([[complex(x) for x in p] for p in a_mp])
        b64 = np.array([[complex(x) for x in p] for p in b_mp])
        d64 = _dist_double(a64, b64)
        value = max(_directed(a_mp, b_mp, d64), _directed(b_mp, a_mp, d64.T))
        slack = max(max(dist(p, q) for p, q in zip(pts[:-1], pts[1:]))
                    for pts in (a_mp, b_mp))
        return float(value), float(slack)


def poly_eval(components, z):
    """Evaluate a map spec (lists of (exponents, coefficient)) at one point."""
    with mpmath.workdps(DPS):
        zs = _mp_vec(z)
        out = []
        for comp in components:
            acc = mpmath.mpc(0)
            for exps, coef in comp:
                term = mpmath.mpc(coef)
                for x, e in zip(zs, exps):
                    if e:
                        term *= x ** e
                acc += term
            out.append(acc)
        return out


def radial_deviations(components, directions, t_values):
    """dist(f(t v), t f(v)/|f(v)|) for every direction and t, row-major.

    `t v` is formed in double precision exactly as a caller passing the
    double direction would form it; everything after that is exact.
    """
    rows = []
    with mpmath.workdps(DPS):
        for v in directions:
            fv = poly_eval(components, v)
            norm = mpmath.sqrt(_sq_norm(fv))
            for t in t_values:
                image = poly_eval(components, t * np.asarray(v))
                target = [t * x / norm for x in fv]
                rows.append(float(dist(image, target)))
    return rows
