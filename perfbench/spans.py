"""Outside-in tracing of ballmaps: spans around calls into each module.

The tracer replaces module attributes (every function defined in a traced
module) and three class attributes with wrappers that record one span per
call: name, start, end, parent span and op id, plus a size attribute for the
kernels whose work depends on batch shape.  Because callers look functions up
through the module at call time, calls across modules and within a module are
both caught.  `numerics` helpers are imported by name into their callers, so
their time counts in the caller's self time; `errors` does no work.

Spans are kept in typed arrays and written out when the run ends.
"""

import functools
import inspect
from array import array
from time import perf_counter_ns

import numpy as np

MODULES = ("cli", "rescaling", "proper_maps", "kobayashi", "group_models")
METHODS = (("proper_maps", "SiegelMap", "eval"),
           ("proper_maps", "SiegelMap", "jet_at"),
           ("proper_maps", "TransformedMap", "eval"))
RESCALING_STAGES = ("normalize_map", "escape_check", "build_sequence", "verify_scaling_law",
                    "extract_limit_jet", "quadratic_normal_form", "final_normalization")

# Per-layer metrics: (name, unit, better, what it should move).
LAYER_METRICS = (
    ("cli.self_ms_per_op", "ms", "lower", "latency_p50_ms on sweep; flat on geodesics"),
    ("rescaling.self_ms_per_op", "ms", "lower", "throughput/latency on rescale only"),
    ("proper_maps.self_ms_per_op", "ms", "lower", "throughput on rescale and sweep"),
    ("kobayashi.self_ms_per_op", "ms", "lower", "throughput on geodesics and sweep"),
    ("group_models.self_ms_per_op", "ms", "lower", "throughput on all workloads"),
    *((f"rescaling.{s}.ms_per_op", "ms", "lower", "throughput/latency on rescale only")
      for s in RESCALING_STAGES),
    ("rescaling.save_trace.ms_per_op", "ms", "lower", "throughput/latency on rescale only"),
    ("rescaling.trace_bytes_per_op", "bytes", "lower", "throughput/latency on rescale only"),
    ("proper_maps.jet_at_zero.calls_per_op", "count", "lower", "latency on rescale"),
    ("proper_maps.jet_at_zero.ms_per_op", "ms", "lower", "throughput/latency on rescale"),
    ("proper_maps.jet_at_zero.fd_share", "fraction", "lower", "throughput/latency on rescale"),
    ("proper_maps.SiegelMap.jet_at.ms_per_op", "ms", "lower", "latency on rescale"),
    ("proper_maps.SiegelMap.eval.calls_per_jet", "count", "lower", "latency on rescale"),
    ("proper_maps.verify_symmetry_pair.per_pair", "count", "lower",
     "throughput/latency on rescale (sequence-mode ops)"),
    ("proper_maps.verify_symmetry_pair.ms_per_op", "ms", "lower", "latency on rescale"),
    ("proper_maps.lipschitz_boundary_constant.per_op", "count", "lower", "throughput on sweep"),
    ("proper_maps.lipschitz_boundary_constant.ms_per_op", "ms", "lower", "throughput on sweep"),
    ("proper_maps.TransformedMap.eval.ms_per_op", "ms", "lower", "throughput on sweep"),
    ("proper_maps.TransformedMap.eval.points_per_op", "count", "lower", "throughput on sweep"),
    ("kobayashi.dist_matrix.calls_per_op", "count", "lower",
     "geodesics throughput, latency_tail_ms, peak_rss_mb; must not worsen sweep"),
    ("kobayashi.dist_matrix.ms_per_op", "ms", "lower",
     "geodesics throughput, latency_tail_ms; must not worsen sweep"),
    ("kobayashi.dist_matrix.pairs_per_op", "count", "lower", "geodesics throughput"),
    ("kobayashi.dist_matrix.ns_per_pair", "ns", "lower",
     "geodesics throughput and latency_tail_ms; must not worsen sweep"),
    ("kobayashi.dist_matrix.bytes_computed_per_op", "bytes", "lower",
     "peak_rss_mb on geodesics (computed n_a*n_b*m^2*itemsize(clongdouble))"),
    ("kobayashi.dist_ball.calls_per_op", "count", "lower", "throughput on sweep"),
    ("kobayashi.certify_quasi_geodesic.per_trial", "count", "lower", "throughput on geodesics"),
    ("kobayashi.hausdorff_pseudo_distance.ms_per_op", "ms", "lower", "throughput on geodesics"),
    ("kobayashi.estimate_morse_constant.self_ms_per_op", "ms", "lower", "throughput on geodesics"),
    ("group_models._mobius_apply.calls_per_op", "count", "lower", "throughput on all workloads"),
    ("group_models._mobius_apply.ms_per_op", "ms", "lower", "throughput on all workloads"),
    ("group_models._mobius_apply.points_per_op.wide", "count", "lower", "throughput on rescale"),
    ("group_models._mobius_apply.points_per_op.double", "count", "lower",
     "throughput on sweep and geodesics"),
    ("group_models.transport_to_origin.calls_per_op", "count", "lower",
     "throughput on geodesics; must not worsen rescale"),
    ("group_models.inverse.calls_per_op", "count", "lower",
     "throughput on geodesics; must not worsen rescale"),
    ("group_models.inverse.ms_per_op", "ms", "lower",
     "throughput on geodesics; must not worsen rescale"),
    ("group_models.compose.ms_per_op", "ms", "lower",
     "throughput on geodesics; must not worsen rescale"),
    ("group_models.rotation_mapping_e1.ms_per_op", "ms", "lower",
     "throughput on geodesics; must not worsen rescale"),
    ("trace.overhead_frac", "fraction", "lower", "none: tracing cost against the untraced ops"),
)


def _rows(points):
    pts = np.asarray(points)
    return 1 if pts.ndim == 1 else pts.shape[0]


def _mobius_size(matrix, points, *args, **kwargs):
    pts = np.asarray(points)
    wide = np.clongdouble in (pts.dtype.type, np.asarray(matrix).dtype.type)
    return _rows(pts), int(wide)


def _dist_matrix_size(points_a, points_b):
    a, b = np.atleast_2d(points_a), np.atleast_2d(points_b)
    return a.shape[0] * b.shape[0], a.shape[1]


def _eval_size(self, z):
    return _rows(z), 0


# Kernels whose work depends on batch shape: (size, aux) recorded per span.
SIZERS = {
    "group_models._mobius_apply": _mobius_size,
    "kobayashi.dist_matrix": _dist_matrix_size,
    "proper_maps.TransformedMap.eval": _eval_size,
}


class Tracer:
    """Records spans while installed; install() and uninstall() patch and restore."""

    def __init__(self, package):
        self.names = []
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.size = array("q")
        self.aux = array("q")
        self.current_op = -1
        self._stack = []
        self._patches = []
        for short in MODULES:
            mod = getattr(package, short)
            for attr, fn in vars(mod).items():
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    self._patches.append((mod, attr, fn, self._wrap(fn, f"{short}.{attr}")))
        for short, cls_name, attr in METHODS:
            cls = getattr(getattr(package, short), cls_name)
            fn = cls.__dict__[attr]
            self._patches.append((cls, attr, fn, self._wrap(fn, f"{short}.{cls_name}.{attr}")))

    def _wrap(self, fn, name):
        span_name = len(self.names)
        self.names.append(name)
        sizer = SIZERS.get(name)
        stack = self._stack
        name_id, start, end, parent = self.name_id, self.start, self.end, self.parent
        op, size, aux = self.op, self.size, self.aux

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(span_name)
            parent.append(stack[-1] if stack else -1)
            op.append(self.current_op)
            s, a = sizer(*args, **kwargs) if sizer else (0, 0)
            size.append(s)
            aux.append(a)
            end.append(0)
            stack.append(idx)
            start.append(perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter_ns()
                stack.pop()
        return traced

    def install(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def arrays(self):
        return {
            "names": np.array(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "start_ns": np.frombuffer(self.start, dtype=np.int64),
            "end_ns": np.frombuffer(self.end, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "size": np.frombuffer(self.size, dtype=np.int64),
            "aux": np.frombuffer(self.aux, dtype=np.int64),
        }

    def save(self, path):
        np.savez(path, **self.arrays())


def _self_ns(spans):
    """Each span's duration minus the durations of its child spans."""
    parent = spans["parent"]
    dur = (spans["end_ns"] - spans["start_ns"]).astype(np.float64)
    has_parent = parent >= 0
    return dur, dur - np.bincount(parent[has_parent], weights=dur[has_parent],
                                  minlength=dur.size)


def _span_modules(spans):
    return np.array([n.split(".", 1)[0] for n in spans["names"]])[spans["name_id"]]


def module_shares(spans, op_wall_seconds):
    """Each module's self time as a share of the traced ops' wall time.

    `outside_spans` is what no span covers: the benchmark's own op harness
    around cli.main.  A wrapper that failed to catch calls would move time
    between modules, which these shares show and the span sums cannot.
    """
    _, self_ns = _self_ns(spans)
    module_of = _span_modules(spans) if self_ns.size else np.array([])
    total_ns = op_wall_seconds * 1e9
    shares = {m: float(self_ns[module_of == m].sum()) / total_ns for m in MODULES}
    shares["outside_spans"] = 1.0 - sum(shares.values())
    return shares


def layer_metrics(spans, ops, trace_bytes):
    """Per-layer metrics from the spans of the traced ops.

    `ops` lists the traced ops by op id and `trace_bytes` the bytes of trace
    documents written.
    """
    names = list(spans["names"])
    nid, parent, op_of = spans["name_id"], spans["parent"], spans["op"]
    dur, self_ns = _self_ns(spans)
    n_ops = max(len(ops), 1)
    ms = 1e-6 / n_ops

    def sel(name):
        return nid == names.index(name) if name in names else np.zeros(dur.size, bool)

    def calls(name):
        return int(sel(name).sum())

    def total_ms(name, of=None):
        return float((dur if of is None else of)[sel(name)].sum()) * ms

    out = {}
    module_of = _span_modules(spans) if dur.size else np.array([])
    for module in MODULES:
        out[f"{module}.self_ms_per_op"] = float(self_ns[module_of == module].sum()) * ms
    for stage in RESCALING_STAGES + ("save_trace",):
        out[f"rescaling.{stage}.ms_per_op"] = total_ms(f"rescaling.{stage}")
    out["rescaling.trace_bytes_per_op"] = trace_bytes / n_ops

    # SiegelMap.eval calls made on behalf of jet_at_zero (its finite differences)
    jet_id = names.index("proper_maps.jet_at_zero") if "proper_maps.jet_at_zero" in names else -2
    under_jet = np.zeros(dur.size, bool)
    for i in range(dur.size):
        p = parent[i]
        under_jet[i] = p >= 0 and (nid[p] == jet_id or under_jet[p])
    fd = sel("proper_maps.SiegelMap.eval") & under_jet
    jets = calls("proper_maps.jet_at_zero")
    jet_ns = float(dur[sel("proper_maps.jet_at_zero")].sum())
    out["proper_maps.jet_at_zero.calls_per_op"] = jets / n_ops
    out["proper_maps.jet_at_zero.ms_per_op"] = jet_ns * ms
    out["proper_maps.jet_at_zero.fd_share"] = float(dur[fd].sum()) / jet_ns if jet_ns else 0.0
    out["proper_maps.SiegelMap.jet_at.ms_per_op"] = total_ms("proper_maps.SiegelMap.jet_at")
    out["proper_maps.SiegelMap.eval.calls_per_jet"] = int(fd.sum()) / jets if jets else 0.0

    seq_ops = [i for i, op in enumerate(ops) if op.info.get("mode") == "sequence"]
    pairs = sum(ops[i].info["pairs"] for i in seq_ops)
    vsp = sel("proper_maps.verify_symmetry_pair")
    out["proper_maps.verify_symmetry_pair.per_pair"] = (
        int((vsp & np.isin(op_of, seq_ops)).sum()) / pairs if pairs else 0.0)
    out["proper_maps.verify_symmetry_pair.ms_per_op"] = total_ms("proper_maps.verify_symmetry_pair")
    out["proper_maps.lipschitz_boundary_constant.per_op"] = (
        calls("proper_maps.lipschitz_boundary_constant") / n_ops)
    out["proper_maps.lipschitz_boundary_constant.ms_per_op"] = (
        total_ms("proper_maps.lipschitz_boundary_constant"))
    tm = sel("proper_maps.TransformedMap.eval")
    out["proper_maps.TransformedMap.eval.ms_per_op"] = float(dur[tm].sum()) * ms
    out["proper_maps.TransformedMap.eval.points_per_op"] = float(spans["size"][tm].sum()) / n_ops

    dm = sel("kobayashi.dist_matrix")
    dm_pairs = float(spans["size"][dm].sum())
    dm_ns = float(dur[dm].sum())
    itemsize = np.dtype(np.clongdouble).itemsize
    out["kobayashi.dist_matrix.calls_per_op"] = int(dm.sum()) / n_ops
    out["kobayashi.dist_matrix.ms_per_op"] = dm_ns * ms
    out["kobayashi.dist_matrix.pairs_per_op"] = dm_pairs / n_ops
    out["kobayashi.dist_matrix.ns_per_pair"] = dm_ns / dm_pairs if dm_pairs else 0.0
    out["kobayashi.dist_matrix.bytes_computed_per_op"] = float(
        (spans["size"][dm] * spans["aux"][dm] ** 2).sum()) * itemsize / n_ops
    out["kobayashi.dist_ball.calls_per_op"] = calls("kobayashi.dist_ball") / n_ops
    trials = sum(op.info.get("trials", 0) for op in ops)
    out["kobayashi.certify_quasi_geodesic.per_trial"] = (
        calls("kobayashi.certify_quasi_geodesic") / trials if trials else 0.0)
    out["kobayashi.hausdorff_pseudo_distance.ms_per_op"] = (
        total_ms("kobayashi.hausdorff_pseudo_distance"))
    out["kobayashi.estimate_morse_constant.self_ms_per_op"] = (
        total_ms("kobayashi.estimate_morse_constant", of=self_ns))

    mob = sel("group_models._mobius_apply")
    wide = spans["aux"] == 1
    out["group_models._mobius_apply.calls_per_op"] = int(mob.sum()) / n_ops
    out["group_models._mobius_apply.ms_per_op"] = float(dur[mob].sum()) * ms
    out["group_models._mobius_apply.points_per_op.wide"] = (
        float(spans["size"][mob & wide].sum()) / n_ops)
    out["group_models._mobius_apply.points_per_op.double"] = (
        float(spans["size"][mob & ~wide].sum()) / n_ops)
    out["group_models.transport_to_origin.calls_per_op"] = (
        calls("group_models.transport_to_origin") / n_ops)
    out["group_models.inverse.calls_per_op"] = calls("group_models.inverse") / n_ops
    out["group_models.inverse.ms_per_op"] = total_ms("group_models.inverse")
    out["group_models.compose.ms_per_op"] = total_ms("group_models.compose")
    out["group_models.rotation_mapping_e1.ms_per_op"] = total_ms("group_models.rotation_mapping_e1")
    return out
