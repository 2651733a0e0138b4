import json

import numpy as np

import ballmaps as bm
from ballmaps import cli
from ballmaps import proper_maps as pm
from ballmaps import rescaling as rs


def run(capsys, args):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def complex_json(a):
    a = np.asarray(a, dtype=complex)
    return np.stack([a.real, a.imag], axis=-1).tolist()


class TestDist:
    def test_zero(self, capsys):
        code, out, _ = run(capsys, ["dist", "--m", "2", "--z", "0,0", "--w", "0,0"])
        assert code == 0
        assert out.strip() == "0"

    def test_radial_value(self, capsys):
        code, out, _ = run(capsys, ["dist", "--m", "1", "--z", "0", "--w", "0.5"])
        assert code == 0
        assert out.strip() == "0.549306144334055"

    def test_boundary_exit(self, capsys):
        code, _, err = run(capsys, ["dist", "--m", "1", "--z", "0", "--w", "1"])
        assert code == 3
        assert "infinite" in err

    def test_parse_error_exit(self, capsys):
        code, _, err = run(capsys, ["dist", "--m", "1", "--z", "0", "--w", "oops"])
        assert code == 2


class TestRadialSweep:
    def test_linear_all_zero(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code, out, _ = run(capsys, [
            "radial-sweep", "--map", "linear", "--m", "2", "--M", "4",
            "--directions", "4", "--seed", "1", "--morse-trials", "0",
            "--out", str(out_path)])
        assert code == 0
        rows = [line for line in out_path.read_text().splitlines()
                if not line.startswith("#")]
        devs = [float(line.split(",")[2]) for line in rows]
        assert max(devs) <= 1e-9

    def test_whitney_first_direction_axis(self, capsys, tmp_path):
        # direction 0 is always e1, a radial monomial line of the map
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run(capsys, [
            "radial-sweep", "--map", "whitney", "--directions", "3",
            "--seed", "1", "--morse-trials", "0", "--out", str(out_path)])
        assert code == 0
        rows = [line.split(",") for line in out_path.read_text().splitlines()
                if not line.startswith("#")]
        axis_devs = [float(r[2]) for r in rows if r[0] == "0"]
        assert max(axis_devs) <= 1e-9

    def test_json_format(self, capsys, tmp_path):
        args = ["radial-sweep", "--map", "power", "--m", "2", "--d", "2",
                "--directions", "2", "--morse-trials", "2"]
        out_path = tmp_path / "sweep.json"
        csv_path = tmp_path / "sweep.csv"
        code, _, _ = run(capsys, args + ["--format", "json", "--out", str(out_path)])
        assert code == 0
        text = out_path.read_text()
        assert text.endswith("}\n") and text.count("\n") == 1
        doc = json.loads(text)
        assert doc["C"] >= 1.0
        assert doc["bound"] >= doc["beta"]
        # the same command in csv: 17 significant digits round-trip exactly
        assert run(capsys, args + ["--out", str(csv_path)])[0] == 0
        lines = csv_path.read_text().splitlines()
        csv_rows = [(int(i), float(t), float(dev)) for i, t, dev in
                    (line.split(",") for line in lines if not line.startswith("#"))]
        json_rows = [(r["direction"], r["t"], r["deviation"]) for r in doc["rows"]]
        assert json_rows == csv_rows
        summary = dict(item.split("=") for item in lines[-1][2:].split())
        for key, json_key in (("sup", "sup_deviation"), ("C", "C"), ("beta", "beta"),
                              ("D", "D"), ("bound", "bound")):
            assert float(summary[key]) == doc[json_key]

    def test_t_grid_parse_error_exit(self, capsys):
        code, _, err = run(capsys, [
            "radial-sweep", "--map", "linear", "--m", "2", "--M", "4",
            "--directions", "2", "--morse-trials", "0", "--t-grid", "0.5,abc"])
        assert code == 2
        assert "--t-grid" in err

    def test_empty_t_grid_exit(self, capsys):
        code, out, err = run(capsys, [
            "radial-sweep", "--map", "linear", "--m", "2", "--M", "4",
            "--directions", "2", "--morse-trials", "0", "--t-grid", ""])
        assert code == 2
        assert "--t-grid" in err and out == ""

    def test_constants_are_the_radial_bound_of_the_pipeline(self, capsys, tmp_path):
        # one recipe: the sweep's constants are those of radial_bound_constants
        # for its map, trial count and seed, and on the linear map (which the
        # pipeline leaves as it is) those of the pipeline's radial_bound stage
        out_path = tmp_path / "sweep.json"
        for flags, spec in ((["--map", "whitney"], bm.catalog("whitney")),
                            (["--map", "power", "--m", "3", "--d", "3"],
                             bm.catalog("power", m=3, d=3)),
                            (["--map", "linear", "--m", "2", "--M", "4"],
                             bm.catalog("linear", m=2, M=4))):
            assert run(capsys, ["radial-sweep", *flags, "--directions", "2",
                                "--morse-trials", "3", "--seed", "53", "--format", "json",
                                "--out", str(out_path)])[0] == 0
            doc = json.loads(out_path.read_text())
            got = (doc["C"], doc["beta"], doc["base_offset"], doc["D"], doc["bound"])
            c = pm.radial_bound_constants(spec, 3, 53)
            assert got == (c.C, c.beta, c.base_offset, c.D, c.bound)
        pairs = rs.cartan_sequence(2, 4, range(1, 8))
        c = rs.run_pipeline(spec, [p for p, _ in pairs], [q for _, q in pairs],
                            morse_trials=3).constants
        assert c.D > 0
        assert got == (c.C, c.beta, c.base_offset, c.D, c.bound)

    def test_directions_must_be_positive(self, capsys):
        for count in ("0", "-3"):
            code, _, err = run(capsys, [
                "radial-sweep", "--map", "linear", "--m", "2", "--M", "4",
                "--directions", count, "--morse-trials", "0"])
            assert code == 2
            assert "--directions" in err

    def test_negative_morse_trials_exit(self, capsys):
        code, out, err = run(capsys, [
            "radial-sweep", "--map", "linear", "--m", "2", "--M", "4",
            "--morse-trials", "-1"])
        assert code == 2
        assert "--morse-trials" in err and "validation error" in err
        assert out == ""

    def test_deterministic_output(self, capsys, tmp_path):
        args = ["radial-sweep", "--map", "whitney", "--directions", "5",
                "--seed", "3", "--morse-trials", "2"]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(capsys, args + ["--out", str(p1)])[0] == 0
        assert run(capsys, args + ["--out", str(p2)])[0] == 0
        assert p1.read_bytes() == p2.read_bytes()


class TestRescale:
    def test_linear_end_to_end(self, capsys, tmp_path):
        trace = tmp_path / "trace.json"
        code, out, _ = run(capsys, [
            "rescale", "--map", "linear", "--m", "2", "--M", "4",
            "--seq", "cartan", "--n-start", "1", "--n-end", "8",
            "--out", str(trace)])
        assert code == 0
        assert "lambda 1" in out
        doc = json.loads(trace.read_text())
        assert abs(doc["normal_form"]["lambda"] - 1.0) <= 1e-8
        assert doc["normal_form"]["flatten_residual"] <= 1e-8
        assert doc["mode"] == "sequence"

    def test_identity_map_m1(self, capsys):
        code, out, _ = run(capsys, [
            "rescale", "--map", "linear", "--m", "1", "--M", "1",
            "--n-start", "1", "--n-end", "6"])
        assert code == 0
        assert "lambda 1" in out

    def test_non_member_rejected(self, capsys):
        code, _, err = run(capsys, [
            "rescale", "--map", "whitney", "--seq", "cartan",
            "--n-start", "1", "--n-end", "6"])
        assert code == 2
        assert "residual" in err

    def test_non_member_conjugate_mode_builds(self, capsys, tmp_path):
        # with the conjugate route the scaling table is still verifiable
        trace = tmp_path / "trace.json"
        code, out, err = run(capsys, [
            "rescale", "--map", "whitney", "--seq", "cartan",
            "--n-start", "1", "--n-end", "6", "--allow-non-member",
            "--out", str(trace)])
        # the finite-n limit of a compact-symmetry map keeps suppressed
        # terms above the pattern tolerance: a numeric failure, exit 3
        assert code == 3
        assert "vanishing-pattern" in err or "quadratic_normal_form" in err

    def test_non_escaping_diagnostic(self, capsys, tmp_path):
        seq = tmp_path / "seq.json"
        eye3 = np.eye(3, dtype=complex)
        eye5 = np.eye(5, dtype=complex)
        seq.write_text(json.dumps({
            "pairs": [{"phi": complex_json(eye3), "psi": complex_json(eye5)}] * 4}))
        code, _, err = run(capsys, [
            "rescale", "--map", "linear", "--m", "2", "--M", "4",
            "--seq", "custom-file", "--seq-file", str(seq)])
        assert code == 4
        assert "escape" in err

    def test_non_numeric_sequence_entry_exit(self, capsys, tmp_path):
        seq = tmp_path / "seq.json"
        phi = complex_json(np.eye(3, dtype=complex))
        phi[0][0][0] = "abc"
        seq.write_text(json.dumps({
            "pairs": [{"phi": phi, "psi": complex_json(np.eye(5, dtype=complex))}]}))
        code, _, err = run(capsys, [
            "rescale", "--map", "linear", "--m", "2", "--M", "4",
            "--seq", "custom-file", "--seq-file", str(seq)])
        assert code == 2
        assert "malformed sequence file" in err

    def test_one_pair_exit(self, capsys):
        code, out, err = run(capsys, [
            "rescale", "--map", "linear", "--m", "2", "--M", "4",
            "--n-start", "5", "--n-end", "5"])
        assert code == 2
        assert "needs at least 2 pairs, got 1" in err and "tail" not in err
        assert out == ""

    def test_mixed_matrix_sizes_exit(self, capsys, tmp_path):
        # a 4x4/6x6 pair among 3x3/5x5 ones: refused before any stacking
        seq = tmp_path / "seq.json"
        pairs = []
        for n, (m, M) in enumerate([(2, 4), (2, 4), (3, 5), (2, 4)], start=1):
            phi = np.eye(m + 1, dtype=complex)
            phi[0, 0] = phi[m, m] = np.cosh(n)
            phi[0, m] = phi[m, 0] = np.sinh(n)
            psi = np.eye(M + 1, dtype=complex)
            psi[0, 0] = psi[M, M] = np.cosh(n)
            psi[0, M] = psi[M, 0] = np.sinh(n)
            pairs.append({"phi": complex_json(phi), "psi": complex_json(psi)})
        seq.write_text(json.dumps({"pairs": pairs}))
        for mode in ([], ["--allow-non-member"]):
            code, out, err = run(capsys, [
                "rescale", "--map", "linear", "--m", "2", "--M", "4",
                "--seq", "custom-file", "--seq-file", str(seq), *mode])
            assert code == 2
            assert "symmetry pair dimensions must match the map" in err
            assert "Traceback" not in err and out == ""

    def test_negative_morse_trials_exit(self, capsys, tmp_path):
        trace = tmp_path / "trace.json"
        code, out, err = run(capsys, [
            "rescale", "--map", "linear", "--m", "2", "--M", "4",
            "--morse-trials", "-2", "--out", str(trace)])
        assert code == 2
        assert "morse_trials" in err and "validation error" in err
        assert out == "" and not trace.exists()


class TestReport:
    def test_summarizes_trace(self, capsys, tmp_path):
        trace = tmp_path / "trace.json"
        assert run(capsys, ["rescale", "--map", "linear", "--m", "2", "--M", "4",
                            "--n-start", "1", "--n-end", "6",
                            "--out", str(trace)])[0] == 0
        code, out, _ = run(capsys, ["report", "--trace", str(trace)])
        assert code == 0
        assert "lambda 1" in out and "n=5" in out

    def test_rejects_other_documents(self, capsys, tmp_path):
        path = tmp_path / "not_trace.json"
        path.write_text("{}")
        assert run(capsys, ["report", "--trace", str(path)])[0] == 2

    def test_trace_without_fields_exit(self, capsys, tmp_path):
        path = tmp_path / "bare.json"
        path.write_text(json.dumps({"format": rs.TRACE_FORMAT}))
        code, out, err = run(capsys, ["report", "--trace", str(path)])
        assert code == 2
        assert "trace field m is missing" in err and out == ""

    def test_index_without_order_exit(self, capsys, tmp_path):
        trace = tmp_path / "trace.json"
        assert run(capsys, ["rescale", "--map", "linear", "--m", "2", "--M", "4",
                            "--n-start", "1", "--n-end", "6",
                            "--out", str(trace)])[0] == 0
        doc = json.loads(trace.read_text())
        del doc["indices"][2]["order"]
        trace.write_text(json.dumps(doc))
        code, out, err = run(capsys, ["report", "--trace", str(trace)])
        assert code == 2
        assert "trace field indices[2].order is missing or not of type number" in err
        assert out == ""
        doc["indices"][2]["order"] = 2
        doc["normal_form"]["lambda"] = "1"
        trace.write_text(json.dumps(doc))
        code, out, err = run(capsys, ["report", "--trace", str(trace)])
        assert code == 2
        assert "trace field normal_form.lambda is missing or not of type number" in err

    def test_rejects_non_object_json(self, capsys, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        code, _, err = run(capsys, ["report", "--trace", str(path)])
        assert code == 2
        assert "is not a trace document" in err


class TestHausdorffCommand:
    def test_identical_curves(self, capsys, tmp_path):
        t = np.linspace(0.0, 3.0, 20)
        pts = np.tanh(t)[:, None] * np.array([[1.0 + 0j]])
        doc = {"model": "ball", "params": t.tolist(), "points": complex_json(pts)}
        p1 = tmp_path / "c1.json"
        p1.write_text(json.dumps(doc))
        code, out, _ = run(capsys, ["hausdorff", "--curve1", str(p1), "--curve2", str(p1)])
        assert code == 0
        assert out.split()[0] == "0"


class TestMorseCommand:
    def test_deterministic(self, capsys):
        args = ["morse", "--m", "1", "--alpha", "1", "--beta", "1",
                "--trials", "20", "--seed", "7"]
        out1 = run(capsys, args)
        out2 = run(capsys, args)
        assert out1 == out2
        assert out1[0] == 0
        assert float(out1[1]) > 0


    def test_dimension_must_be_positive(self, capsys):
        code, out, err = run(capsys, ["morse", "--m", "0", "--trials", "2"])
        assert code == 2
        assert "m >= 1, got m = 0" in err and "unit vector" not in err
        assert out == ""


class TestVerifyGroup:
    def test_cartan_accepted(self, capsys, tmp_path):
        ch, sh = np.cosh(1.0), np.sinh(1.0)
        mat = np.array([[ch, 0, sh], [0, 1, 0], [sh, 0, ch]], dtype=complex)
        path = tmp_path / "a1.json"
        path.write_text(json.dumps(complex_json(mat)))
        code, out, _ = run(capsys, ["verify-group", "--matrix-file", str(path)])
        assert code == 0
        assert float(out) <= 1e-14

    def test_non_member_exit(self, capsys, tmp_path):
        mat = np.eye(3, dtype=complex)
        mat[0, 0] = 2.0
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(complex_json(mat)))
        code, _, _ = run(capsys, ["verify-group", "--matrix-file", str(path)])
        assert code == 3


class TestCatalogCommand:
    def test_listing(self, capsys):
        code, out, _ = run(capsys, ["catalog"])
        assert code == 0
        assert "whitney" in out

    def test_spec_export_loadable(self, capsys, tmp_path):
        from ballmaps import proper_maps as pm
        path = tmp_path / "whitney.json"
        code, _, _ = run(capsys, ["catalog", "--map", "whitney", "--out", str(path)])
        assert code == 0
        spec = pm.load_map_spec(path)
        assert (spec.m, spec.M) == (2, 3)

    def test_spec_file_input(self, capsys, tmp_path):
        path = tmp_path / "power.json"
        assert run(capsys, ["catalog", "--map", "power", "--m", "2", "--d", "2",
                            "--out", str(path)])[0] == 0
        code, out, _ = run(capsys, ["rescale", "--spec-file", str(path),
                                    "--n-start", "1", "--n-end", "4",
                                    "--allow-non-member"])
        # conjugate traces of the power map stop at the pattern check too
        assert code == 3
