"""Command-line front end: batch computations with machine-readable output.

Exit codes: 0 success, 2 validation error, 3 numeric failure, 4 diagnostic
(structural check failed, e.g. a non-escaping sequence).  Output is
deterministic for a fixed seed: machine formats carry 17 significant digits,
human-readable summaries 6.
"""

import argparse
import functools
import json
import sys

import numpy as np

from .errors import DiagnosticError, InputError, NumericError
from . import group_models as gm
from . import kobayashi as kb
from . import proper_maps as pm
from . import rescaling as rs
from .numerics import rng_from_seed, unit_vectors

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3
EXIT_DIAGNOSTIC = 4


def _parse_complex_vector(text):
    try:
        return np.array([complex(part.strip().replace(" ", ""))
                         for part in text.split(",")], dtype=complex)
    except ValueError as exc:
        raise InputError(f"cannot parse complex vector {text!r}: {exc}") from exc


def _json_to_complex(nested, non_finite="a non-finite entry"):
    """The complex array of nested [re, im] pairs; ValueError(non_finite) on
    an entry that is not finite, before 1j * inf can warn in the product."""
    arr = np.asarray(nested, dtype=float)
    if not np.isfinite(arr).all():
        raise ValueError(non_finite)
    return arr[..., 0] + 1j * arr[..., 1]


def _load_matrix(path):
    with open(path) as fh:
        doc = json.load(fh)
    if isinstance(doc, dict):
        doc = doc.get("matrix")
    try:
        return _json_to_complex(doc)
    except (TypeError, IndexError, ValueError) as exc:
        raise InputError(f"malformed matrix file {path}: {exc}") from exc


def _load_curve(path):
    with open(path) as fh:
        doc = json.load(fh)
    try:
        return kb.SampledCurve(doc["model"], np.asarray(doc["params"], dtype=float),
                               _json_to_complex(doc["points"], "curve points must be finite"))
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, InputError):
            raise
        raise InputError(f"malformed curve file {path}: {exc}") from exc


def _resolve_map(args):
    if getattr(args, "spec_file", None):
        return pm.load_map_spec(args.spec_file)
    if args.map is None:
        raise InputError("provide --map or --spec-file")
    return pm.catalog(args.map, m=args.m, M=args.M, d=args.d)


def _fmt(x):
    return f"{x:.17g}"


def _write_lines(path, lines):
    text = "\n".join(lines) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# --- commands -----------------------------------------------------------------

def cmd_dist(args):
    z = _parse_complex_vector(args.z)
    w = _parse_complex_vector(args.w)
    if z.size != args.m or w.size != args.m:
        raise InputError(f"points must have dimension m = {args.m}")
    zp = gm.BallPoint(z)
    wp = gm.BallPoint(w)
    d = kb.dist_ball(zp, wp)
    if not np.isfinite(d):
        raise NumericError("infinite distance: at least one point lies on the boundary")
    print(f"{d:.15g}")
    return EXIT_OK


def cmd_radial_sweep(args):
    if args.directions < 1:
        raise InputError(f"--directions must be at least 1, got {args.directions}")
    if args.morse_trials < 0:
        raise InputError(f"--morse-trials must be nonnegative, got {args.morse_trials}")
    spec = _resolve_map(args)
    f = pm.as_transformed(spec)
    rng = rng_from_seed(args.seed)
    m = f.m
    dirs = [np.eye(m, dtype=complex)[0]]
    if args.directions > 1:
        dirs.append(unit_vectors(rng, args.directions - 1, m))
    directions = np.concatenate([np.atleast_2d(d) for d in dirs], axis=0)
    if args.t_grid is not None:
        try:
            t_values = [float(x) for x in args.t_grid.split(",")]
        except ValueError as exc:
            raise InputError(f"cannot parse --t-grid {args.t_grid!r}: {exc}") from exc
    else:
        t_values = [1.0 - 10.0 ** (-k) for k in range(1, 7)]
    if any(t < 0 or t >= 1 for t in t_values):
        raise InputError("t values must lie in [0, 1)")

    constants = pm.radial_bound_constants(f, args.morse_trials, args.seed)
    C, beta, D = constants.C, constants.beta, constants.D

    # one evaluation per point set; each row is the arithmetic of a lone point
    # (norm(axis=1) would sum in another order than the per-row norm)
    fv = f.eval(directions)
    fv = fv / np.array([np.linalg.norm(row) for row in fv])[:, None]
    ts = np.array(t_values)[None, :, None]
    deviations = kb.dist_rows(f.eval((ts * directions[:, None, :]).reshape(-1, m)),
                              (ts * fv[:, None, :]).reshape(-1, f.M))
    deviations = deviations.reshape(len(directions), len(t_values)).tolist()
    rows = [(i, t, dev) for i, devs in enumerate(deviations)
            for t, dev in zip(t_values, devs)]
    sup = max([0.0] + [dev for _, _, dev in rows])

    if args.format == "json":
        doc = {
            "format": "ballmaps-radial-sweep-v1",
            "rows": [{"direction": i, "t": t, "deviation": dev} for i, t, dev in rows],
            "sup_deviation": sup,
            "C": C, "beta": beta, "base_offset": constants.base_offset,
            "D": D, "bound": constants.bound,
        }
        # one line: a one-shot dumps without indent runs the C encoder
        _write_lines(args.out, [json.dumps(doc)])
    else:
        t_text = [_fmt(t) for t in t_values]
        lines = ["# ballmaps radial_sweep v1: direction,t,deviation"]
        lines += [f"{i},{t},{_fmt(dev)}" for i, devs in enumerate(deviations)
                  for t, dev in zip(t_text, devs)]
        lines.append(f"# sup={_fmt(sup)} C={_fmt(C)} beta={_fmt(beta)} "
                     f"D={_fmt(D)} bound={_fmt(constants.bound)}")
        _write_lines(args.out, lines)
    print(f"sup deviation {sup:.6g}, C {C:.6g}, beta {beta:.6g}, "
          f"bound {constants.bound:.6g}" + ("" if sup <= constants.bound or args.morse_trials == 0
                                            else "  [FLAG: sup exceeds empirical bound]"))
    return EXIT_OK


def _load_sequence(path, m, M):
    """The (phis, psis) stacks of a sequence file for a map B^m -> B^M, each side
    parsed and put in canonical phase at once; InputError names a bad pair."""
    with open(path) as fh:
        doc = json.load(fh)
    try:
        if not doc["pairs"]:
            raise ValueError("no pairs")
        sides = [np.array([pair[side] for pair in doc["pairs"]], dtype=object)
                 for side in ("phi", "psi")]
        # pairs of mixed sizes parse to fewer axes
        if any(raw.shape[1:] != (dim + 1, dim + 1, 2) for raw, dim in zip(sides, (m, M))):
            raise ValueError(f"symmetry pair dimensions must match the map B^{m} -> B^{M}")
        parts = [np.asarray(raw, dtype=float) for raw in sides]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"malformed sequence file {path}: {exc}") from exc
    bad = np.flatnonzero(~np.logical_and(*(np.isfinite(raw).all(axis=(1, 2, 3)) for raw in parts)))
    if bad.size:
        raise InputError(f"malformed sequence file {path}: pairs[{bad[0]}] has a non-finite entry")
    for i, side in enumerate(("phi", "psi")):
        try:
            parts[i] = gm._canonical_phase(_json_to_complex(parts[i]))
        except NumericError as exc:
            raise InputError(
                f"malformed sequence file {path}: pairs[{exc.chain}].{side}: {exc}") from exc
    return tuple(parts)


def cmd_rescale(args):
    spec = _resolve_map(args)
    f = pm.as_transformed(spec)
    if args.seq == "cartan":
        phis, psis = rs.cartan_sequence(f.m, f.M, range(args.n_start, args.n_end + 1))
    elif not args.seq_file:
        raise InputError("--seq custom-file needs --seq-file")
    else:
        phis, psis = _load_sequence(args.seq_file, f.m, f.M)
    result = rs.run_pipeline(
        f, phis, psis, conjugate=args.allow_non_member,
        tail=args.tail, membership_tol=args.tol,
        morse_trials=args.morse_trials, seed=args.seed)
    nf = result.normal_form
    print(f"lambda {nf.lam:.6g}  (phase residual {nf.residuals.lambda_phase:.3g})")
    print(f"vanishing-pattern residual {nf.residuals.vanishing_pattern:.3g}")
    print(f"scaling-law error {result.scaling_error:.3g}")
    print(f"boundary residuals: im_L {result.final.boundary.im_L:.3g}, "
          f"unitarity {result.final.boundary.unitarity:.3g}")
    print(f"flatten residual {result.final.flatten_residual:.3g}")
    if result.constants is not None:
        flag = "" if result.compactness_within_bound else "  [FLAG: compactness bound exceeded]"
        print(f"radial bound {result.constants.bound:.6g}{flag}")
    if args.out:
        rs.save_trace(result, args.out)
        print(f"trace written to {args.out}")
    return EXIT_OK


def _check_fields(obj, where, kinds):
    """Raise an InputError naming the first field of obj (at `where`) missing or not of its kind."""
    for key, kind in kinds.items():
        value = obj.get(key) if isinstance(obj, dict) else None
        if not isinstance(value, kind) or isinstance(value, bool) != (kind is bool):
            name = getattr(kind, "__name__", "number")
            raise InputError(f"trace field {where}{key} is missing or not of type {name}")


def cmd_report(args):
    with open(args.trace) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or doc.get("format") != rs.TRACE_FORMAT:
        raise InputError(f"{args.trace} is not a trace document")
    num = (int, float)
    _check_fields(doc, "", {"m": num, "M": num, "mode": str, "indices": list,
                            "scaling_law_error": num, "normal_form": dict})
    for i, idx in enumerate(doc["indices"]):
        _check_fields(idx, f"indices[{i}].", dict.fromkeys(
            ("order", "t_n", "phi_gap", "compactness_dist", "g_value_norm"), num))
    _check_fields(doc["normal_form"], "normal_form.", dict.fromkeys(
        ("lambda", "vanishing_pattern_residual", "flatten_residual"), num))
    if "constants" in doc:
        _check_fields(doc["constants"], "constants.", {
            "C": num, "beta": num, "D": num, "bound": num, "compactness_within_bound": bool})
    nf = doc["normal_form"]
    print(f"trace: {doc['m']} -> {doc['M']}, mode {doc['mode']}, "
          f"{len(doc['indices'])} indices")
    for idx in doc["indices"]:
        print(f"  n={idx['order']}: t_n {idx['t_n']:.6g}, phi gap {idx['phi_gap']:.3g}, "
              f"compactness {idx['compactness_dist']:.3g}, "
              f"|g(0)| {idx['g_value_norm']:.3g}")
    print(f"scaling-law error {doc['scaling_law_error']:.3g}")
    print(f"lambda {nf['lambda']:.6g}, vanishing-pattern {nf['vanishing_pattern_residual']:.3g}, "
          f"flatten residual {nf['flatten_residual']:.3g}")
    if "constants" in doc:
        c = doc["constants"]
        flag = "" if c["compactness_within_bound"] else "  [FLAG: compactness bound exceeded]"
        print(f"C {c['C']:.6g}, beta {c['beta']:.6g}, D {c['D']:.6g}, "
              f"bound {c['bound']:.6g}{flag}")
    return EXIT_OK


def cmd_hausdorff(args):
    c1 = _load_curve(args.curve1)
    c2 = _load_curve(args.curve2)
    est = kb.hausdorff_pseudo_distance(c1, c2)
    print(f"{est.value:.15g} slack {est.slack:.6g}")
    return EXIT_OK


def cmd_morse(args):
    d = kb.estimate_morse_constant(args.m, args.alpha, args.beta, args.R,
                                   args.trials, args.seed)
    print(f"{d:.15g}")
    return EXIT_OK


def cmd_verify_group(args):
    mat = _load_matrix(args.matrix_file)
    g = gm.Automorphism(mat)
    res = gm.verify_membership(g)
    print(f"{res:.15g}")
    if not res <= args.tol:
        raise NumericError(f"matrix fails the membership check: residual {res:.3g}")
    return EXIT_OK


def cmd_catalog(args):
    if args.map:
        spec = _resolve_map(args)
        if args.out:
            pm.save_map_spec(spec, args.out)
            print(f"map spec written to {args.out}")
        else:
            print(json.dumps(pm.map_spec_to_dict(spec), indent=1))
        return EXIT_OK
    print("name      domain        notes")
    print("linear    B^m -> B^M    the flat embedding (z, 0); needs --m and --M")
    print("whitney   B^2 -> B^3    (z1, z1 z2, z2^2)")
    print("power     B^m -> B^M    degree-d homogeneous sphere map; needs --m and --d")
    return EXIT_OK


# --- parser -------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _build_parser():
    """The argparse tree, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="ballmaps",
        description="Complex hyperbolic ball geometry, proper polynomial maps, "
                    "and automorphism rescaling.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_map_flags(p):
        p.add_argument("--map", help="catalog map name (linear | whitney | power)")
        p.add_argument("--spec-file", help="path to a map-spec JSON file")
        p.add_argument("--m", type=int, default=2, help="domain dimension")
        p.add_argument("--M", type=int, default=3, help="target dimension")
        p.add_argument("--d", type=int, default=2, help="degree for power maps")

    p = sub.add_parser("dist", help="Kobayashi distance between two interior points")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--z", required=True, help="comma-separated complex coordinates")
    p.add_argument("--w", required=True)

    p = sub.add_parser("radial-sweep",
                       help="deviation of f(t v) from t f(v) over directions and radii")
    add_map_flags(p)
    p.add_argument("--directions", type=int, default=16)
    p.add_argument("--t-grid", help="comma-separated t values in [0, 1); "
                                    "default 1 - 10^-k for k = 1..6")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--morse-trials", type=int, default=24)
    p.add_argument("--out")
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("rescale", help="run the full rescaling pipeline")
    add_map_flags(p)
    p.add_argument("--seq", choices=("cartan", "custom-file"), default="cartan")
    p.add_argument("--seq-file", help="JSON file with matrix pairs for --seq custom-file")
    p.add_argument("--n-start", type=int, default=1)
    p.add_argument("--n-end", type=int, default=10)
    p.add_argument("--tail", type=int, default=3)
    p.add_argument("--tol", type=float, default=1e-9,
                   help="symmetry-certification residual tolerance")
    p.add_argument("--seed", type=int, default=31)
    p.add_argument("--allow-non-member", action="store_true",
                   help="build g_n by flow conjugation instead of requiring "
                        "certified symmetry pairs")
    p.add_argument("--morse-trials", type=int, default=0)
    p.add_argument("--out", help="write the trace document (JSON)")

    p = sub.add_parser("report", help="summarize a saved trace document")
    p.add_argument("--trace", required=True)

    p = sub.add_parser("hausdorff", help="sampled Hausdorff pseudo-distance of two curves")
    p.add_argument("--curve1", required=True)
    p.add_argument("--curve2", required=True)

    p = sub.add_parser("morse", help="empirical quasi-geodesic stability constant")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--R", type=float, default=0.0)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("verify-group", help="membership residual of a matrix")
    p.add_argument("--matrix-file", required=True,
                   help="JSON matrix with [re, im] entries")
    p.add_argument("--tol", type=float, default=gm.TOL_GROUP)

    p = sub.add_parser("catalog", help="list or export the built-in proper maps")
    add_map_flags(p)
    p.add_argument("--out")

    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    # looked up per call: the cached parser pins no command function, so one
    # replaced at run time (a tracer's wrapper, a test's stub) is the one run
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except (InputError, OSError, json.JSONDecodeError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except DiagnosticError as exc:
        print(f"diagnostic: {exc}", file=sys.stderr)
        return EXIT_DIAGNOSTIC


def script():
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
