"""Seeded inputs, op pools and output checks for the three workloads.

A workload run cycles through a pool of 8 or 10 ops.  The seed decides the
data of every op (rotations, curves, directions, radii, RNG seeds passed on the
command line); the position of each op in the pool decides its shape (map,
dimension, sequence length, batch size), so that the cost of a pool is the
same for every seed and latency quantiles stay put between seeds.  Pools are
listed in order of cost: the two middle ops cost about the same and hold the
median, and so do the dearest three or four, which hold every tail
percentile from 75 to 95.

Nothing here imports ballmaps: the program sees only the files written here
and the command lines built here.
"""

import json
import math
from dataclasses import dataclass, field
from itertools import product

import numpy as np

import reference

WORKLOADS = ("rescale", "geodesics", "sweep")

# Tolerances pinned by the library and its acceptance suite; checks never
# use looser ones.  C6 pins the scaling-law error, C7 lambda and the flatten
# residual, and rescaling.final_normalization the boundary unitarity.
LAMBDA_TOL = 1e-6
SCALING_LAW_TOL = 1e-8
FLATTEN_TOL = 1e-8
UNITARITY_TOL = 1e-8

# Distances are compared relative to max(reference, 1): relative above 1 and
# absolute below, because radial deviations of the linear map are pure
# roundoff around 0.
DIST_FLOOR = 1.0
# A printed value carries 15 significant digits (hausdorff, dist) or 17
# (radial-sweep rows).  Near the boundary a position rounded to double moves
# a distance by about eps / (1 - |z|); DEVIATION_ULPS such roundings are
# allowed on top of the print precision.
PRINT15_TOL = 1e-14
DEVIATION_ULPS = 64
EPS = float(np.finfo(np.float64).eps)

# Morse trial curves stay within 0.49 beta of a geodesic with endpoints moved
# by at most 0.49 beta, and samples lie span/(samples-1) apart, so the sampled
# Hausdorff distance is at most 0.98 beta + 6/63 for the CLI's defaults.
MORSE_BETA = 1.0
MORSE_R = 0.5
MORSE_BOUND = 0.98 * MORSE_BETA + 6.0 / 63.0


@dataclass
class Op:
    """One `ballmaps` command line with what its check needs."""

    kind: str
    argv: list
    out: str | None = None
    info: dict = field(default_factory=dict)


def _complex_json(arr):
    a = np.asarray(arr, dtype=np.complex128)
    return np.stack([a.real, a.imag], axis=-1).tolist()


def _write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def _unit_rows(rng, count, dim):
    v = rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _haar_unitary(rng, dim):
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    d = np.diag(r)
    return q * (np.abs(d) / d)[None, :]


# --- rescale ---------------------------------------------------------------------

# (m, M, sequence source, n_end, --allow-non-member) per pool position.  The
# built-in n_end = 12 ops bound every residual metric from above on every
# seed: their roundoff grows like e^{2 n_end}, and the seeded file sequences
# stop at n_end = 7, two below the file path's horizon of 9.
RESCALE_POOL = (
    (2, 4, "file", 7, False),
    (2, 4, "builtin", 12, False),
    (3, 5, "builtin", 12, True),
    (4, 7, "file", 7, False),
    (4, 7, "file", 7, False),
    (6, 9, "builtin", 10, True),
    (6, 9, "builtin", 11, False),
    (6, 9, "builtin", 10, False),
)
HORIZON_MAP = (3, 5)
HORIZON_START = 8
# horizon_n_max.file is the median over this many seeded rotations: single
# rotations pass one n_end more or less than the typical one.
HORIZON_ROTATIONS = 9


def _cartan_wide(t, dim):
    mat = np.eye(dim + 1, dtype=np.clongdouble)
    tw = np.longdouble(t)
    mat[0, 0] = mat[-1, -1] = np.cosh(tw)
    mat[0, -1] = mat[-1, 0] = np.sinh(tw)
    return mat


def _block_extend(mat, M):
    m = mat.shape[0] - 1
    out = np.eye(M + 1, dtype=mat.dtype)
    out[:m, :m] = mat[:m, :m]
    out[:m, -1] = mat[:m, -1]
    out[-1, :m] = mat[-1, :m]
    out[-1, -1] = mat[-1, -1]
    return out


def rotated_sequence(rng, m, M, n_end):
    """Pairs (k a_n k^-1, its block extension) for n = 1..n_end, k Haar in U(m).

    Products run in extended precision and are rounded once, as a caller
    writing exact matrices to a file would.
    """
    k = np.eye(m + 1, dtype=np.clongdouble)
    k[:m, :m] = _haar_unitary(rng, m)
    k_inv = k.conj().T
    pairs = []
    for n in range(1, n_end + 1):
        phi = k @ _cartan_wide(float(n), m) @ k_inv
        pairs.append({"phi": _complex_json(phi), "psi": _complex_json(_block_extend(phi, M))})
    return {"pairs": pairs}


def _rescale_argv(m, M, source, n_end, nonmember, seq_file, out, seed):
    argv = ["rescale", "--map", "linear", "--m", str(m), "--M", str(M),
            "--n-end", str(n_end), "--seed", str(seed)]
    if source == "file":
        argv += ["--seq", "custom-file", "--seq-file", seq_file]
    if nonmember:
        argv.append("--allow-non-member")
    if out:
        argv += ["--out", out]
    return argv


def rescale_pool(rng):
    ops = []
    for pos, (m, M, source, n_end, nonmember) in enumerate(RESCALE_POOL):
        seq_file = None
        if source == "file":
            seq_file = f"seq_{pos}.json"
            _write_json(seq_file, rotated_sequence(rng, m, M, n_end))
        argv = _rescale_argv(m, M, source, n_end, nonmember, seq_file, "trace.json",
                             int(rng.integers(1, 10**6)))
        ops.append(Op("rescale", argv, "trace.json",
                      {"mode": "conjugate" if nonmember else "sequence", "pairs": n_end}))
    return ops


def horizon_probes(rng, cap):
    """Command lines scanning n_end upward to the flow cap on both sequence paths.

    The built-in path is one scan; the file path is one scan per seeded
    rotation of the cartan sequence.
    """
    m, M = HORIZON_MAP
    n_values = range(HORIZON_START, cap + 1)
    builtin = [(n, _rescale_argv(m, M, "builtin", n, False, None, "probe.json", 31))
               for n in n_values]
    rotations = []
    for r in range(HORIZON_ROTATIONS):
        pairs = rotated_sequence(rng, m, M, cap)["pairs"]
        scan = []
        for n in n_values:
            path = f"probe_seq_{r}_{n}.json"
            _write_json(path, {"pairs": pairs[:n]})
            scan.append((n, _rescale_argv(m, M, "file", n, False, path, "probe.json", 31)))
        rotations.append(scan)
    return builtin, rotations


NON_MEMBER_PROBES = (
    ("whitney", ["rescale", "--map", "whitney", "--allow-non-member"]),
    ("power(2,2)", ["rescale", "--map", "power", "--m", "2", "--d", "2", "--allow-non-member"]),
)


def check_rescale(doc):
    """Residuals of a trace document, and a message naming the failed check or None."""
    nf = doc["normal_form"]
    res = {"scaling_law_error": doc["scaling_law_error"],
           "flatten_residual": nf["flatten_residual"],
           "unitarity_residual": nf["boundary_unitarity"]}
    lam = nf["lambda"]
    if abs(lam - 1.0) > LAMBDA_TOL:
        return res, f"lambda {lam!r} is not 1"
    for name, tol in (("scaling_law_error", SCALING_LAW_TOL), ("flatten_residual", FLATTEN_TOL),
                      ("unitarity_residual", UNITARITY_TOL * max(1.0, lam))):
        if not res[name] <= tol:
            return res, f"{name} {res[name]:.3g} > {tol:.3g}"
    return res, None


# --- geodesics -------------------------------------------------------------------

CURVE_DIM = 8
CURVE_RADIUS = 0.95
# ("morse", m, trials) or ("hausdorff", n, model) per pool position.
GEODESICS_POOL = (
    ("morse", 3, 2),
    ("morse", 3, 3),
    ("hausdorff", 128, "ball"),
    ("hausdorff", 128, "siegel"),
    ("morse", 8, 2),
    ("morse", 8, 2),
    ("hausdorff", 256, "ball"),
    ("hausdorff", 256, "siegel"),
    ("hausdorff", 256, "ball"),
    ("hausdorff", 256, "siegel"),
)


def _ball_to_siegel(z):
    den = 1.0 + z[:, :1]
    return np.concatenate([1j * (1.0 - z[:, :1]) / den, z[:, 1:] / den], axis=1)


def curve_pair(rng, n, model):
    """Two wobbling curves from near 0 out to |z| = CURVE_RADIUS along one direction."""
    u = _unit_rows(rng, 1, CURVE_DIM)[0]
    u = u * (abs(u[0]) / u[0])  # Re u1 >= 0 keeps both curves away from -e1
    s = np.linspace(0.0, 1.0, n)
    curves = []
    for _ in range(2):
        w = _unit_rows(rng, 1, CURVE_DIM)[0]
        w = w - (w @ u.conj()) * u
        w /= np.linalg.norm(w)
        freq, phase = rng.uniform(1.0, 4.0), rng.uniform(0.0, 2.0 * np.pi)
        wobble = 0.15 * np.sin(2.0 * np.pi * freq * s + phase) * (1.0 - s)
        pts = (CURVE_RADIUS * s)[:, None] * u + wobble[:, None] * w
        norms = np.linalg.norm(pts, axis=1)
        pts *= np.minimum(1.0, CURVE_RADIUS / np.maximum(norms, 1e-300))[:, None]
        if model == "siegel":
            pts = _ball_to_siegel(pts)
        curves.append({"model": model, "params": s.tolist(), "points": _complex_json(pts)})
    return curves


def geodesics_pool(rng):
    ops = []
    for pos, (kind, size, extra) in enumerate(GEODESICS_POOL):
        if kind == "morse":
            argv = ["morse", "--m", str(size), "--beta", repr(MORSE_BETA), "--R", repr(MORSE_R),
                    "--trials", str(extra), "--seed", str(int(rng.integers(1, 10**6)))]
            ops.append(Op("morse", argv, None, {"trials": extra}))
            continue
        paths = []
        for i, doc in enumerate(curve_pair(rng, size, extra)):
            paths.append(f"curve_{pos}_{i}.json")
            _write_json(paths[-1], doc)
        ops.append(Op("hausdorff", ["hausdorff", "--curve1", paths[0], "--curve2", paths[1]],
                      None, {"curves": paths}))
    return ops


def _load_curve(path):
    with open(path) as fh:
        doc = json.load(fh)
    pts = np.asarray(doc["points"], dtype=float)
    return doc["model"], pts[..., 0] + 1j * pts[..., 1]


def hausdorff_reference(op):
    return reference.hausdorff(*(_load_curve(p) for p in op.info["curves"]))


def check_hausdorff(stdout, ref):
    """Errors of `value slack s` against the reference, and a message or None."""
    words = stdout.split()
    value, slack = float(words[0]), float(words[2])
    err = dist_error(value, ref[0])
    if not err <= PRINT15_TOL:
        return [err], f"Hausdorff value {value!r} vs reference {ref[0]!r}"
    # the slack is printed to 6 significant digits
    if not abs(slack - ref[1]) <= 5e-6 * ref[1]:
        return [err], f"slack {slack!r} vs reference {ref[1]!r}"
    return [err], None


def check_morse(stdout, expected):
    """A Morse estimate is finite, within MORSE_BOUND, and the same on every run."""
    value = float(stdout)
    if not 0.0 < value <= MORSE_BOUND:
        return f"Morse estimate {value!r} outside (0, {MORSE_BOUND:.6g}]"
    if stdout != expected:
        return f"Morse estimate {stdout.strip()} differs from the first run {expected.strip()}"
    return None


# --- sweep -----------------------------------------------------------------------

# (map, m, M or degree, directions) per pool position.
SWEEP_POOL = (
    ("power", 2, 2, 64),
    ("power", 3, 2, 64),
    ("linear", 3, 5, 64),
    ("whitney", 2, None, 128),
    ("power", 2, 3, 128),
    ("power", 3, 3, 256),
    ("power", 3, 3, 256),
    ("power", 3, 3, 256),
)
T_GRID_SIZE = 7
T_MIN_GAP = 1e-6


def map_components(name, m, arg):
    """Monomial lists of the catalog maps, from their closed forms."""
    if name == "linear":
        return [[(tuple(int(k == j) for k in range(m)), 1.0)] for j in range(m)] + [[]] * (arg - m)
    if name == "whitney":
        return [[((1, 0), 1.0)], [((1, 1), 1.0)], [((0, 2), 1.0)]]
    exps = sorted((e for e in product(range(arg + 1), repeat=m) if sum(e) == arg), reverse=True)
    return [[(e, math.sqrt(math.factorial(arg) / math.prod(math.factorial(k) for k in e)))]
            for e in exps]


def _spec_doc(components, m):
    return {"domain_dim": m, "target_dim": len(components),
            "components": [[{"exponents": list(e), "coef": [c, 0.0]} for e, c in comp]
                           for comp in components]}


def sweep_directions(seed, count, m):
    """The directions radial-sweep draws for --seed: e1, then seeded unit vectors."""
    dirs = [np.eye(m, dtype=complex)[:1]]
    if count > 1:
        dirs.append(_unit_rows(np.random.default_rng(seed), count - 1, m))
    return np.concatenate(dirs, axis=0)


def sweep_pool(rng):
    ops = []
    for pos, (name, m, arg, count) in enumerate(SWEEP_POOL):
        comps = map_components(name, m, arg)
        spec = f"map_{pos}.json"
        _write_json(spec, _spec_doc(comps, m))
        gaps = np.sort(10.0 ** -rng.uniform(0.5, 5.5, T_GRID_SIZE - 1))[::-1]
        t_values = [float(t) for t in 1.0 - gaps] + [1.0 - T_MIN_GAP]
        seed = int(rng.integers(1, 10**6))
        argv = ["radial-sweep", "--morse-trials", "0", "--spec-file", spec,
                "--directions", str(count), "--seed", str(seed),
                "--t-grid", ",".join(repr(t) for t in t_values), "--out", "sweep.csv"]
        ops.append(Op("sweep", argv, "sweep.csv",
                      {"components": comps, "seed": seed, "count": count, "m": m,
                       "t_values": t_values}))
    return ops


def sweep_reference(op):
    i = op.info
    return reference.radial_deviations(i["components"], sweep_directions(i["seed"], i["count"], i["m"]),
                                       i["t_values"])


def check_sweep(csv_text, op, ref):
    """Row errors of a radial-sweep CSV against the reference, and a message or None."""
    rows = [line.split(",") for line in csv_text.splitlines() if not line.startswith("#")]
    if len(rows) != len(ref):
        return [], f"{len(rows)} rows, expected {len(ref)}"
    t_values = op.info["t_values"]
    errs = []
    for k, ((_, t, dev), r) in enumerate(zip(rows, ref)):
        t_k = t_values[k % len(t_values)]
        errs.append(dist_error(float(dev), r))
        if float(t) != t_k:
            return errs, f"row {k}: t {t} is not {t_k!r}"
        if not errs[-1] <= PRINT15_TOL + DEVIATION_ULPS * EPS / (1.0 - t_k):
            return errs, f"row {k}: deviation {dev} vs reference {r!r}"
    return errs, None


# --- distance panel --------------------------------------------------------------

DIST_PANEL_SIZE = 768
DIST_PANEL_RADIUS = 0.9
# Generic pairs sit at distances in [1, 1.3], where 15 printed digits resolve
# a relative error of 5e-15, so the panel's worst error is the program's
# and not the luck of which values print with a small leading digit.
DIST_PANEL_RANGE = (1.0, 1.3)


def _involution(a, z):
    """The ball automorphism exchanging 0 and a (Rudin, Function Theory in the Unit Ball, 2.2.1)."""
    aa = (abs(a) ** 2).sum()
    za = (z * a.conj()).sum()
    proj = za / aa * a
    return (a - proj - np.sqrt(1.0 - aa) * (z - proj)) / (1.0 - za)


def dist_panel(rng):
    """`dist` command lines on seeded pairs: a quarter nearly coinciding, the rest generic."""
    pairs = []
    for i in range(DIST_PANEL_SIZE):
        m = int(rng.integers(1, 9))
        z = _unit_rows(rng, 1, m)[0] * DIST_PANEL_RADIUS * rng.random() ** (1.0 / (2 * m))
        if i % 4 == 0:
            w = z + 10.0 ** -rng.uniform(3.0, 8.0) * _unit_rows(rng, 1, m)[0]
        else:
            step = np.tanh(rng.uniform(*DIST_PANEL_RANGE)) * _unit_rows(rng, 1, m)[0]
            w = _involution(z, step)
        argv = ["dist", "--m", str(m), "--z", ",".join(repr(complex(x)) for x in z),
                "--w", ",".join(repr(complex(x)) for x in w)]
        pairs.append((argv, z, w))
    return pairs


def dist_error(value, ref):
    return abs(value - ref) / max(ref, DIST_FLOOR)


def check_dist(stdout, ref):
    err = dist_error(float(stdout), ref)
    return err, (None if err <= PRINT15_TOL else f"distance {stdout.strip()} vs reference {ref!r}")


# --- pools -----------------------------------------------------------------------

POOLS = {"rescale": rescale_pool, "geodesics": geodesics_pool, "sweep": sweep_pool}


def _rng(seed, stream):
    return np.random.default_rng([seed, stream])


def make_inputs(workload, seed):
    """Write the op pool's input files into the current directory; return the pool.

    A pure function of (workload, seed): the manifest and all files are
    byte-identical for equal arguments.
    """
    ops = POOLS[workload](_rng(seed, WORKLOADS.index(workload)))
    _write_json(f"ops_{workload}.json", [op.argv for op in ops])
    return ops


def make_probes(seed, cap):
    """Write the untimed probes' input files; return (horizon scans, distance panel).

    Every workload runs the same probes for a seed.
    """
    builtin, rotations = horizon_probes(_rng(seed, len(WORKLOADS)), cap)
    panel = dist_panel(_rng(seed, len(WORKLOADS) + 1))
    _write_json("probes.json", {"builtin": builtin, "rotations": rotations,
                                "dist": [argv for argv, _, _ in panel]})
    return builtin, rotations, panel
