#!/usr/bin/env python3
"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Run from the root of a checkout.  Checks that generated inputs are a pure
function of the seed, that the correctness checks reject perturbed outputs
and references (negative controls), that a tiny run of every workload emits
every metric named in BENCHMARK.json with its unit, and that the benchmark
fails without a result where the program's sources are missing.
"""

import filecmp
import json
import os
import shutil
import subprocess
import sys

import run  # pins BLAS threads before numpy loads
import workloads as wl

ROOT = run.ROOT
SCRATCH = run.OUT / "selftest"


def _generate(workload, seed, where):
    where.mkdir(parents=True)
    cwd = os.getcwd()
    os.chdir(where)
    try:
        wl.make_inputs(workload, seed)
        wl.make_probes(seed, 18)
    finally:
        os.chdir(cwd)


def _same_tree(a, b):
    names = sorted(p.name for p in a.iterdir())
    if names != sorted(p.name for p in b.iterdir()):
        return False
    _, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    return not mismatch and not errors


def verify_inputs_are_a_function_of_the_seed():
    for workload in wl.WORKLOADS:
        first, again, other = (SCRATCH / f"inputs-{workload}-{tag}" for tag in ("a", "b", "c"))
        _generate(workload, 5, first)
        _generate(workload, 5, again)
        _generate(workload, 6, other)
        assert _same_tree(first, again), f"{workload}: same seed, different inputs"
        assert not _same_tree(first, other), f"{workload}: different seeds, same inputs"


def _first(pool, kind):
    return next(pos for pos, op in enumerate(pool) if op.kind == kind)


def verify_negative_controls(package):
    workdir = SCRATCH / "controls"
    workdir.mkdir(parents=True)
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        # rescale: the real trace passes; a residual or lambda past its pin fails
        pool = wl.make_inputs("rescale", 5)
        pos = _first(pool, "rescale")
        code, *_ = run.run_op(package, pool[pos].argv)
        doc = json.loads(run.read_output(pool[pos]))
        assert code == 0 and wl.check_rescale(doc)[1] is None
        bad = json.loads(json.dumps(doc))
        bad["scaling_law_error"] = 2 * wl.SCALING_LAW_TOL
        assert wl.check_rescale(bad)[1] is not None
        for key, value in (("lambda", 1.0 + 10 * wl.LAMBDA_TOL),
                           ("flatten_residual", 2 * wl.FLATTEN_TOL),
                           ("boundary_unitarity", 2 * wl.UNITARITY_TOL)):
            bad = json.loads(json.dumps(doc))
            bad["normal_form"][key] = value
            assert wl.check_rescale(bad)[1] is not None, key

        # geodesics: a perturbed reference and a changed Morse output fail
        pool = wl.make_inputs("geodesics", 5)
        pos = _first(pool, "hausdorff")
        code, out, *_ = run.run_op(package, pool[pos].argv)
        ref = wl.hausdorff_reference(pool[pos])
        assert code == 0 and wl.check_hausdorff(out, ref)[1] is None
        assert wl.check_hausdorff(out, (ref[0] * (1 + 1e-12), ref[1]))[1] is not None
        pos = _first(pool, "morse")
        code, out, *_ = run.run_op(package, pool[pos].argv)
        assert code == 0 and wl.check_morse(out, out) is None
        assert wl.check_morse(out, f"{float(out) * (1 + 1e-9):.15g}\n") is not None

        # sweep: one deviation moved by 1e-7 fails against the reference
        pool = wl.make_inputs("sweep", 5)
        pos = _first(pool, "sweep")
        code, *_ = run.run_op(package, pool[pos].argv)
        text = run.read_output(pool[pos]).decode()
        ref = wl.sweep_reference(pool[pos])
        assert code == 0 and wl.check_sweep(text, pool[pos], ref)[1] is None
        lines = text.splitlines()
        i, t, dev = lines[5].split(",")
        lines[5] = f"{i},{t},{float(dev) + 1e-7!r}"
        assert wl.check_sweep("\n".join(lines), pool[pos], ref)[1] is not None
        bad_ref = list(ref)
        bad_ref[3] += 1e-7
        assert wl.check_sweep(text, pool[pos], bad_ref)[1] is not None

        # dist panel: a perturbed reference fails
        argv, z, w = wl.make_probes(5, 18)[2][0]
        code, out, *_ = run.run_op(package, argv)
        ref = float(run.reference.dist(z, w))
        assert code == 0 and wl.check_dist(out, ref)[1] is None
        assert wl.check_dist(out, ref * (1 + 1e-12) + 1e-12)[1] is not None
    finally:
        os.chdir(cwd)


def _last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def verify_tiny_runs_emit_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in wl.WORKLOADS:
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                 "--seed", "3", "--seconds", "1", "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=180, check=False)
            assert proc.returncode == 0, proc.stderr
            result = _last_json(proc.stdout)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
            units = {m["name"]: m["unit"] for m in listed}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == units, (workload, trace, set(got) ^ set(units))


def verify_fails_without_the_program():
    bare = SCRATCH / "bare"
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "rescale",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180, check=False)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def verify_spec_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [row[:3] for row in run.spans.LAYER_METRICS]


def main():
    if SCRATCH.exists():
        shutil.rmtree(SCRATCH)
    package = run.import_program()
    try:
        verify_spec_matches_the_code()
        verify_inputs_are_a_function_of_the_seed()
        verify_negative_controls(package)
        verify_fails_without_the_program()
        verify_tiny_runs_emit_every_metric()
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    print("perfbench self-test passed")


if __name__ == "__main__":
    main()
