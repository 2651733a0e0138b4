"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Every tolerance is pinned here, not configurable.
"""

import json
import time

import numpy as np
import pytest

import ballmaps as bm
from ballmaps import cli
from ballmaps import group_models as gm
from ballmaps import kobayashi as kb
from ballmaps import proper_maps as pm
from ballmaps import rescaling as rs
from ballmaps.errors import PatternViolationError, SymmetryError
from ballmaps.numerics import interior_points, rng_from_seed, unit_vectors


class criterion:
    """Times a criterion body and prints its PASS/FAIL line."""

    def __init__(self, num, label, limit_seconds):
        self.num = num
        self.label = label
        self.limit = limit_seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        ok = exc_type is None and elapsed < self.limit
        print(f"ACCEPTANCE C{self.num} {self.label}: "
              f"{'PASS' if ok else 'FAIL'} ({elapsed:.2f}s, limit {self.limit:.0f}s)")
        if exc_type is None and elapsed >= self.limit:
            pytest.fail(f"criterion {self.num} exceeded its runtime limit")
        return False


def catalog_fixtures():
    return bm.standard_catalog()


def test_c1_group_metric_suite():
    with criterion(1, "group/metric suite", 5.0):
        rng = rng_from_seed(101)
        for m in (1, 2, 3):
            for _ in range(334):
                g = gm.random_automorphism(rng, m)
                h = gm.random_automorphism(rng, m)
                z, w = interior_points(rng, 2, m, 0.9)
                d_zw = bm.dist_ball(z, w)
                d_img = bm.dist_ball(gm._mobius_apply(g.matrix, z),
                                     gm._mobius_apply(g.matrix, w))
                assert abs(d_zw - d_img) <= 1e-11
                assert bm.verify_membership(bm.compose(g, h)) <= 1e-11
                assert bm.verify_membership(bm.inverse(g)) <= 1e-11
                lhs = gm._mobius_apply(bm.compose(g, h).matrix, z)
                rhs = gm._mobius_apply(g.matrix, gm._mobius_apply(h.matrix, z))
                assert np.abs(lhs - rhs).max() <= 1e-11


def test_c2_cayley_suite():
    with criterion(2, "Cayley suite", 2.0):
        rng = rng_from_seed(202)
        pts = interior_points(rng, 1000, 3, 0.9)
        back = gm.cayley_siegel_to_ball_array(gm.cayley_ball_to_siegel_array(pts))
        assert np.abs(back - pts).max() <= 1e-13

        siegel = gm.cayley_ball_to_siegel_array(pts)
        for t in (-1.5, -0.3, 0.8, 2.0):
            direct = bm.cartan_siegel(t, siegel)
            ball_route = gm.cayley_ball_to_siegel_array(
                gm._mobius_apply(bm.cartan(t / 2.0, 3).matrix, pts))
            assert np.abs(direct - ball_route).max() <= 1e-12
            rho_before = np.imag(siegel[:, 0]) - (np.abs(siegel[:, 1:]) ** 2).sum(axis=1)
            rho_after = np.imag(direct[:, 0]) - (np.abs(direct[:, 1:]) ** 2).sum(axis=1)
            assert np.abs(rho_after - np.exp(-t) * rho_before).max() <= 1e-12


def test_c3_distance_non_increasing():
    with criterion(3, "distance non-increasing", 5.0):
        rng = rng_from_seed(303)
        for name, f in catalog_fixtures():
            fT = pm.as_transformed(f)
            for _ in range(500):
                z, w = interior_points(rng, 2, f.m, 0.95)
                d_source = bm.dist_ball(z, w)
                d_target = bm.dist_ball(fT.eval(z), fT.eval(w))
                assert d_target <= d_source + 1e-9, name


def test_c4_radial_line_theorem():
    with criterion(4, "radial-line theorem", 30.0):
        rng = rng_from_seed(404)
        for name, f in (("whitney()", bm.catalog("whitney")),
                        ("power(2,2)", bm.catalog("power", m=2, d=2))):
            fT = pm.as_transformed(f)
            dirs = np.concatenate([np.eye(2, dtype=complex)[:1],
                                   unit_vectors(rng, 15, 2)])
            C = bm.lipschitz_boundary_constant(f).C
            beta = bm.beta_constant(f, C)
            base = kb.dist_ball(np.zeros(f.M), fT.eval(np.zeros(2, dtype=complex)))
            D = bm.estimate_morse_constant(f.M, 1.0, beta, base, trials=24, seed=11)
            constants = kb.RadialBoundConstants(C=C, D=D, base_offset=base)

            devs = np.zeros((len(dirs), 6))
            for i, v in enumerate(dirs):
                fv = fT.eval(v)
                fv = fv / np.linalg.norm(fv)
                for col, k in enumerate(range(1, 7)):
                    t = 1.0 - 10.0 ** (-k)
                    devs[i, col] = kb.dist_ball(fT.eval(t * v), t * fv)
            sup = float(devs.max())
            assert np.isfinite(devs).all(), name                 # bounded
            assert np.abs(devs[:, 5] - devs[:, 3]).max() < 0.05  # k=6 vs k=4
            flag = "" if sup <= constants.bound else "  [FLAG: bound exceeded]"
            print(f"  {name}: sup deviation {sup:.4f}, C {C:.4f}, "
                  f"beta {beta:.4f}, D {D:.4f}, bound {constants.bound:.4f}{flag}")


def test_c5_quasi_geodesic_lemma():
    with criterion(5, "quasi-geodesic lemma", 10.0):
        rng = rng_from_seed(505)
        t_vals = np.linspace(0.0, 12.0, 97)
        for name, f in catalog_fixtures():
            fT = pm.as_transformed(f)
            C = bm.lipschitz_boundary_constant(f).C
            beta = bm.beta_constant(f, C)
            dirs = np.concatenate([np.eye(f.m, dtype=complex)[:1],
                                   unit_vectors(rng, 15, f.m)])
            for v in dirs:
                pts = fT.eval(np.tanh(t_vals)[:, None] * v)
                curve = kb.SampledCurve("ball", t_vals, pts)
                cert = bm.certify_quasi_geodesic(curve, 1.0, beta)
                assert cert.max_violation <= 1e-9, name


def test_c6_scaling_table_exactness():
    with criterion(6, "scaling-table exactness", 10.0):
        cases = (
            ("linear(2,4)", bm.catalog("linear", m=2, M=4), False),
            ("whitney()", bm.catalog("whitney"), True),
            ("power(2,2)", bm.catalog("power", m=2, d=2), True),
        )
        for name, f, conjugate in cases:
            fT = pm.as_transformed(f)
            phis, psis = rs.cartan_sequence(fT.m, fT.M, range(1, 11))
            trace = rs.build_sequence(fT, phis, None if conjugate else psis,
                                      conjugate=conjugate)
            err = rs.verify_scaling_law(trace)
            assert err <= 1e-8, (name, err)


def test_c7_end_to_end_rigidity_oracle(tmp_path, capsys):
    with criterion(7, "end-to-end rigidity oracle", 20.0):
        for m, M in ((2, 4), (3, 5)):
            trace_path = tmp_path / f"trace_{m}_{M}.json"
            code = cli.main([
                "rescale", "--map", "linear", "--m", str(m), "--M", str(M),
                "--seq", "cartan", "--n-start", "1", "--n-end", "12",
                "--out", str(trace_path)])
            capsys.readouterr()
            assert code == 0
            doc = json.loads(trace_path.read_text())
            lam = doc["normal_form"]["lambda"]
            assert abs(lam - 1.0) <= 1e-6
            u = np.asarray(doc["normal_form"]["U"])
            U = u[..., 0] + 1j * u[..., 1]
            gram = U.conj().T @ U
            assert np.abs(gram - lam * np.eye(m - 1)).max() <= 1e-6
            l = np.asarray(doc["normal_form"]["L"])
            if l.size:
                assert np.abs(l[..., 0] + 1j * l[..., 1]).max() <= 1e-6
            assert doc["normal_form"]["flatten_residual"] <= 1e-8


def test_c8_negative_controls(tmp_path, capsys):
    with criterion(8, "negative controls", 5.0):
        # (a) a non-member sequence is rejected with a large residual
        phis, psis = rs.cartan_sequence(2, 3, range(1, 6))
        with pytest.raises(SymmetryError) as info:
            rs.normalize_map(bm.catalog("whitney"), phis, psis)
        assert info.value.residual > 0.1
        code = cli.main(["rescale", "--map", "whitney", "--seq", "cartan",
                         "--n-start", "1", "--n-end", "5"])
        capsys.readouterr()
        assert code == 2

        # (b) a hand-corrupted jet is rejected naming the coefficient class
        phis, psis = rs.cartan_sequence(2, 4, range(1, 7))
        result = rs.run_pipeline(bm.catalog("linear", m=2, M=4), phis, psis)
        jet = result.limit_jet
        first = jet.first.copy()
        first[1, 0] = 0.1
        bad = pm.JetExpansion(jet.value, first, jet.second)
        with pytest.raises(PatternViolationError) as info:
            rs.quadratic_normal_form(bad)
        assert info.value.coefficient_class == "first j>=2,k=1"

        # (c) a non-escaping sequence raises the diagnostic exit code
        seq_path = tmp_path / "seq.json"
        eye3 = np.eye(3, dtype=complex)
        eye5 = np.eye(5, dtype=complex)
        enc = lambda a: np.stack([a.real, a.imag], axis=-1).tolist()
        seq_path.write_text(json.dumps(
            {"pairs": [{"phi": enc(eye3), "psi": enc(eye5)}] * 4}))
        code = cli.main(["rescale", "--map", "linear", "--m", "2", "--M", "4",
                         "--seq", "custom-file", "--seq-file", str(seq_path)])
        capsys.readouterr()
        assert code == 4


def test_c9_jet_oracle():
    with criterion(9, "jet oracle", 5.0):
        for name, f in catalog_fixtures():
            jet = bm.jet_at_zero(bm.siegel_conjugate(f))
            assert jet.error_norm <= 1e-6, name
