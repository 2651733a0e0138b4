#!/usr/bin/env python3
"""Benchmark of the ballmaps command line, run in-process.

    python3 perfbench/run.py --workload {rescale,geodesics,sweep} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout.  One process, one closed-loop client: an op
is one `ballmaps.cli.main(argv)` call on input files generated from the seed,
and the next op starts when the previous one returns.  Every op's output is
checked.  With --trace 0 the last line of standard output is a JSON object
with the end-to-end metrics; with --trace 1 it holds the per-layer metrics of
a traced run, whose ops alternate with untraced runs of the same op.  The
line before it is the run record (versions, precision, probe outcomes).

Op latencies, throughput and set-up time are process CPU time (user plus
system), scaled to the speed of a reference core.  On a shared virtual
machine the speed of a core follows the load that other tenants put on the
same physical core, its caches and its clock.  It changes over seconds to
minutes, by up to about 1.9x, in CPU time as much as in wall time, which
swamps the program's own changes.  So a fixed calibration kernel that does
not touch ballmaps runs before every op, and each time is multiplied by
CALIBRATION_REF_S over the median calibration time of its pool cycle (or of
the set-up runs).  A change to the program moves the op times and not the
calibration; a change of host speed moves both.  Raw CPU and wall times and
the calibration times are kept in the run record.
"""

import os

# Pinned before numpy is imported anywhere in this process.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
os.environ.update({var: "1" for var in THREAD_VARS})

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import reference  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

# setup_s is the median scaled CPU time of this many fresh interpreters, each
# importing ballmaps and running the pool's first op once.
SETUP_REPEATS = 6
SETUP_SNIPPET = ("import sys, json; sys.path.insert(0, sys.argv[1]); import ballmaps.cli as cli; "
                 "raise SystemExit(cli.main(json.loads(sys.argv[2])))")
# The tail is the highest of these percentiles with at least MIN_BEYOND
# samples above it.
TAIL_GRID = (50, 75, 80, 85, 90, 95, 99, 99.9)
MIN_BEYOND = 10
# Below this extended-precision epsilon longdouble is plain double, and the
# accuracy figures would describe a different program.
MAX_WIDE_EPS = 1e-18
# Typical CPU seconds of calibration() on the reference machine, a 2-vCPU
# x86_64 virtual machine.  It only sets the scale of the reported times.
CALIBRATION_REF_S = 0.020

END_TO_END_UNITS = {
    "throughput_ops_s": "1/s", "latency_p50_ms": "ms", "latency_tail_ms": "ms",
    "setup_s": "s", "peak_rss_mb": "MB", "scaling_law_error": "1", "flatten_residual": "1",
    "unitarity_residual": "1", "horizon_n_max.builtin": "n_end", "horizon_n_max.file": "n_end",
    "dist_rel_error": "1",
}


def import_program():
    """Import ballmaps from this checkout's sources, and nowhere else."""
    if not (SRC / "ballmaps" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no ballmaps sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import ballmaps
    import ballmaps.cli
    if Path(ballmaps.__file__).resolve().parent != SRC / "ballmaps":
        raise SystemExit(f"perfbench: imported ballmaps from {ballmaps.__file__}, not {SRC}")
    return ballmaps


def calibration():
    """CPU seconds of a fixed kernel shaped like the program's work.

    Interpreter-bound dictionary updates, small extended-precision complex
    matrix products, passes over a float array larger than the L2 cache and
    a JSON round trip with a regular-expression scan and a sort, like the
    command line's file handling.
    """
    start = time.process_time()
    counts = {}
    for i in range(20000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    a = (np.arange(64, dtype=np.clongdouble).reshape(8, 8) + 1j) / 300
    for _ in range(150):
        a = a @ a.conj().T + np.eye(8) * 0.5
        a /= np.abs(a).max()
    b = np.linspace(-1.0, 1.0, 1 << 18)
    for _ in range(4):
        b = np.sqrt(np.abs(b) + 1.0) - 0.5
    text = json.dumps({"rows": [[i * 0.5, str(i), [i, i + 1]] for i in range(1500)]})
    re.findall(r"\d+\.\d+", text)
    sorted(json.loads(text)["rows"], key=lambda row: -row[0])
    return time.process_time() - start


def run_op(package, argv):
    """One op: (exit code, stdout, stderr, CPU seconds, wall seconds) of cli.main(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            code = package.cli.main(argv)
        except SystemExit as exc:  # argparse rejects a command line this way
            code = exc.code
        cpu, wall = time.process_time() - cpu, time.perf_counter() - wall
    return code, out.getvalue(), err.getvalue(), cpu, wall


def read_output(op):
    if op.out is None:
        return b""
    with open(op.out, "rb") as fh:
        return fh.read()


class Checker:
    """Checks every op against the references and keeps the worst errors."""

    def __init__(self, pool):
        self.pool = pool
        self.refs = {}
        for pos, op in enumerate(pool):
            if op.kind == "hausdorff":
                self.refs[pos] = wl.hausdorff_reference(op)
            elif op.kind == "sweep":
                self.refs[pos] = wl.sweep_reference(op)
        self.expected = {}
        self.worst = {"scaling_law_error": 0.0, "flatten_residual": 0.0,
                      "unitarity_residual": 0.0, "dist_rel_error": 0.0}

    def _keep(self, name, values):
        self.worst[name] = max([self.worst[name], *values])

    def check(self, pos, code, stdout, stderr, output):
        """None when the op at pool position `pos` is correct, else a message."""
        op = self.pool[pos]
        if code != 0:
            return f"exit {code}: {stderr.strip()}"
        if op.kind == "rescale":
            residuals, msg = wl.check_rescale(json.loads(output))
            for name, value in residuals.items():
                self._keep(name, [value])
            return msg
        if op.kind == "morse":
            return wl.check_morse(stdout, self.expected.setdefault(pos, stdout))
        if op.kind == "hausdorff":
            errs, msg = wl.check_hausdorff(stdout, self.refs[pos])
        else:
            errs, msg = wl.check_sweep(output.decode(), op, self.refs[pos])
        self._keep("dist_rel_error", errs)
        return msg


def tail(latencies):
    """(value, percentile, samples beyond it) for the highest qualifying percentile."""
    n = len(latencies)
    ordered = sorted(latencies)
    pct = max((q for q in TAIL_GRID if n * (1.0 - q / 100.0) >= MIN_BEYOND), default=TAIL_GRID[0])
    idx = max(math.ceil(pct / 100.0 * n) - 1, 0)
    return ordered[idx], pct, n - idx - 1


def _children_cpu():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def measure_setup(op):
    """Scaled CPU time of fresh interpreters importing ballmaps and running one op.

    Returns the median, every interpreter's CPU time and the calibration times.
    """
    times, calibrations = [], []
    for _ in range(SETUP_REPEATS):
        calibrations.append(calibration())
        start = _children_cpu()
        proc = subprocess.run([sys.executable, "-c", SETUP_SNIPPET, str(SRC), json.dumps(op.argv)],
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, check=False)
        times.append(_children_cpu() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up op failed: {proc.stderr.decode().strip()}")
    scale = CALIBRATION_REF_S / statistics.median(calibrations)
    return statistics.median(times) * scale, times, calibrations


def _stage_message(stderr):
    line = stderr.strip().splitlines()[-1] if stderr.strip() else ""
    stage = re.search(r"\[([a-z_]+)\]", line)
    return {"stage": stage.group(1) if stage else None, "message": line}


def run_probes(package, checker, seed, cap):
    """Untimed probes: accuracy panels, horizon scans and non-member outcomes."""
    builtin, rotations, panel = wl.make_probes(seed, cap)
    failures = []
    if not any(op.kind == "rescale" for op in checker.pool):
        rescale = Checker(wl.make_inputs("rescale", seed))
        for pos, op in enumerate(rescale.pool):
            code, out, err, *_ = run_op(package, op.argv)
            msg = rescale.check(pos, code, out, err, read_output(op) if code == 0 else b"")
            if msg:
                failures.append({"argv": op.argv, "error": msg})
        for name in ("scaling_law_error", "flatten_residual", "unitarity_residual"):
            checker.worst[name] = rescale.worst[name]
    for argv, z, w in panel:
        code, out, err, *_ = run_op(package, argv)
        err_value, msg = wl.check_dist(out, float(reference.dist(z, w))) if code == 0 \
            else (0.0, f"exit {code}: {err.strip()}")
        checker.worst["dist_rel_error"] = max(checker.worst["dist_rel_error"], err_value)
        if msg:
            failures.append({"argv": argv, "error": msg})

    def scan(probes, stop_at_failure):
        outcomes = []
        for n_end, argv in probes:
            code, _, err, *_ = run_op(package, argv)
            if code == 0:
                _, msg = wl.check_rescale(json.loads(Path("probe.json").read_text()))
                if msg is None:
                    continue
                code, err = "check", msg
            outcomes.append({"n_end": n_end, "exit": code, **_stage_message(err)})
            if stop_at_failure:
                break
        first_fail = min((o["n_end"] for o in outcomes), default=cap + 1)
        return first_fail - 1, outcomes

    horizon_builtin, builtin_fails = scan(builtin, stop_at_failure=False)
    file_scans = [scan(r, stop_at_failure=True) for r in rotations]
    non_member = []
    for name, argv in wl.NON_MEMBER_PROBES:
        code, out, err, *_ = run_op(package, argv)
        non_member.append({"map": name, "exit": code, **_stage_message(err)})
    probes = {
        "horizon_builtin": {"map": wl.HORIZON_MAP, "n_end_max": horizon_builtin,
                            "failures": builtin_fails},
        "horizon_file": [{"n_end_max": h, "failures": f} for h, f in file_scans],
        "non_member": non_member,
        "panel_failures": failures,
    }
    return horizon_builtin, statistics.median(h for h, _ in file_scans), probes


def timed_run(package, pool, checker, seconds):
    """Closed loop over whole pool cycles until `seconds` of wall time have passed.

    Each op follows one calibration run.  Returns each op's scaled, CPU and
    wall seconds, the calibration times and the failures.
    """
    cpu_s, wall_s, calibrations, failures = [], [], [], []
    while sum(wall_s) < seconds or len(cpu_s) % len(pool):
        pos = len(cpu_s) % len(pool)
        op = pool[pos]
        calibrations.append(calibration())
        code, out, err, cpu, wall = run_op(package, op.argv)
        cpu_s.append(cpu)
        wall_s.append(wall)
        msg = checker.check(pos, code, out, err, read_output(op) if code == 0 else b"")
        if msg:
            failures.append({"argv": op.argv, "error": msg})
    size = len(pool)
    scaled_s = [dt * CALIBRATION_REF_S / statistics.median(calibrations[i - i % size:][:size])
                for i, dt in enumerate(cpu_s)]
    return scaled_s, cpu_s, wall_s, calibrations, failures


def traced_run(package, pool, checker, seconds):
    """Whole pool cycles of each op untraced and traced; outputs must be byte-identical.

    The second run of an op finds warmer caches and allocator pools than the
    first, so odd cycles run the traced op first and even cycles the untraced.
    """
    tracer = spans.Tracer(package)
    traced_ops, traced_s, plain_s, traced_wall_s, failures = [], [], [], [], []
    trace_bytes, wall = 0, 0.0

    def plain_op():
        result = run_op(package, op.argv)
        return result, read_output(op) if result[0] == 0 else b""

    def traced_op():
        tracer.current_op = len(traced_ops)
        tracer.install()
        try:
            result = run_op(package, op.argv)
        finally:
            tracer.uninstall()
        return result, read_output(op) if result[0] == 0 else b""

    while wall < seconds or len(traced_ops) % len(pool):
        pos = len(traced_ops) % len(pool)
        op = pool[pos]
        if len(traced_ops) // len(pool) % 2:
            traced, traced_out = traced_op()
            plain, plain_out = plain_op()
        else:
            plain, plain_out = plain_op()
            traced, traced_out = traced_op()
        traced_ops.append(op)
        plain_s.append(plain[3])
        traced_s.append(traced[3])
        traced_wall_s.append(traced[4])
        wall += plain[4] + traced[4]
        if op.kind == "rescale":
            trace_bytes += len(traced_out)
        msg = checker.check(pos, *traced[:3], traced_out)
        if msg is None and (plain[:3] != traced[:3] or plain_out != traced_out):
            msg = "traced output differs from the untraced output"
        if msg:
            failures.append({"argv": op.argv, "error": msg})
    arrays = tracer.arrays()
    metrics = spans.layer_metrics(arrays, traced_ops, trace_bytes)
    metrics["trace.overhead_frac"] = 1.0 - sum(plain_s) / sum(traced_s)
    shares = spans.module_shares(arrays, sum(traced_wall_s))
    return len(traced_ops), failures, metrics, shares, tracer


def run_record(args):
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "longdouble_eps": float(np.finfo(np.longdouble).eps),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "client": "one closed-loop client, in-process, no worker threads or processes",
    }


def run(args, package, record):
    phases = record["phase_s"] = {}
    mark = time.perf_counter()

    def phase(name):
        nonlocal mark
        now = time.perf_counter()
        phases[name] = now - mark
        mark = now

    pool = wl.make_inputs(args.workload, args.seed)
    checker = Checker(pool)
    phase("inputs_and_references")
    for pos, op in enumerate(pool):  # warm-up; also fixes each Morse op's expected output
        code, out, err, *_ = run_op(package, op.argv)
        msg = checker.check(pos, code, out, err, read_output(op) if code == 0 else b"")
        if msg:
            raise RuntimeError(f"warm-up op {op.argv} failed: {msg}")
    phase("warm_up")

    if args.trace:
        attempted, failures, metrics, shares, tracer = traced_run(
            package, pool, checker, args.seconds)
        phase("traced_ops")
        record["module_self_share"] = shares
        tracer.save(OUT / f"spans-{args.workload}.npz")
        record["layer_moves"] = {name: moves for name, _, _, moves in spans.LAYER_METRICS}
        units = {name: unit for name, unit, _, _ in spans.LAYER_METRICS}
        correct = not failures
    else:
        setup_s, setup_cpu, setup_calibrations = measure_setup(pool[0])
        phase("setup_runs")
        latencies, cpu_s, wall_s, calibrations, failures = timed_run(
            package, pool, checker, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        phase("timed_ops")
        cap = int(package.rescaling.FLOW_PARAMETER_CAP)
        horizon_builtin, horizon_file, probes = run_probes(package, checker, args.seed, cap)
        phase("probes")
        attempted = len(latencies)
        tail_ms, tail_pct, beyond = tail(latencies)
        metrics = {
            "throughput_ops_s": attempted / sum(latencies),
            "latency_p50_ms": statistics.median(latencies) * 1e3,
            "latency_tail_ms": tail_ms * 1e3,
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
            **{name: checker.worst[name] for name in
               ("scaling_law_error", "flatten_residual", "unitarity_residual")},
            "horizon_n_max.builtin": horizon_builtin,
            "horizon_n_max.file": horizon_file,
            "dist_rel_error": checker.worst["dist_rel_error"],
        }
        units = END_TO_END_UNITS
        by_position = [statistics.median(latencies[pos::len(pool)]) * 1e3
                       for pos in range(min(len(pool), attempted))]
        record.update({"samples": attempted, "busy_scaled_s": sum(latencies),
                       "busy_cpu_s": sum(cpu_s), "busy_wall_s": sum(wall_s),
                       "tail_percentile": tail_pct,
                       "latency_p50_ms_by_pool_position": by_position,
                       "latencies_ms": [dt * 1e3 for dt in latencies],
                       "cpu_latencies_ms": [dt * 1e3 for dt in cpu_s],
                       "wall_latencies_ms": [dt * 1e3 for dt in wall_s],
                       "calibration_ms": [dt * 1e3 for dt in calibrations],
                       "tail_samples_beyond": beyond, "failed_frac": len(failures) / attempted,
                       "setup_cpu_s": setup_cpu, "setup_calibration_s": setup_calibrations,
                       "probes": probes})
        correct = not failures and not probes["panel_failures"]
    record["failures"] = failures[:20]
    return {"correct": correct, "attempted": attempted, "failed": len(failures),
            "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                        for name, unit in units.items()}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package = import_program()
    record = run_record(args)
    if record["longdouble_eps"] > MAX_WIDE_EPS:
        record["invalid"] = "longdouble is plain double; accuracy metrics would not apply"
        print(json.dumps({"record": record}), file=sys.stderr)
        return 3

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    os.chdir(workdir)
    try:
        result = run(args, package, record)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir)
    with open(OUT / f"record-{args.workload}-{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"record": record, "result": result}, fh, indent=1)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
