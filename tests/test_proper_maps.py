import math

import numpy as np
import pytest

import ballmaps as bm
from ballmaps import group_models as gm
from ballmaps import kobayashi as kb
from ballmaps import proper_maps as pm
from ballmaps.errors import InputError, NumericError
from ballmaps.numerics import rng_from_seed, siegel_interior_points, unit_vectors


class TestEval:
    def test_linear_embedding(self):
        f = bm.catalog("linear", m=2, M=5)
        z = np.array([0.3 + 0.1j, -0.2j])
        out = f.eval(z)
        assert np.abs(out[:2] - z).max() == 0.0
        assert np.abs(out[2:]).max() == 0.0

    def test_whitney_on_sphere(self):
        f = bm.catalog("whitney")
        z = np.array([1.0, 1.0]) / np.sqrt(2.0)
        out = f.eval(z)
        assert np.abs(out - np.array([1 / np.sqrt(2.0), 0.5, 0.5])).max() <= 1e-15
        assert abs(np.linalg.norm(out) - 1.0) <= 1e-15

    def test_power_components(self):
        f = bm.catalog("power", m=2, d=2)
        assert f.M == 3
        coefs = [comp[0][1] for comp in f.components]
        assert abs(coefs[1] - np.sqrt(2.0)) <= 1e-15
        rng = rng_from_seed(30)
        for v in unit_vectors(rng, 20, 2):
            assert abs(np.linalg.norm(f.eval(v)) - 1.0) <= 1e-12


class TestCatalog:
    def test_linear_25(self):
        f = bm.catalog("linear", m=2, M=5)
        assert (f.m, f.M) == (2, 5)
        assert len(f.components[0]) == 1 and len(f.components[4]) == 0

    def test_unknown_name(self):
        with pytest.raises(InputError):
            bm.catalog("frobnicate")

    def test_target_too_small(self):
        with pytest.raises(InputError):
            bm.catalog("linear", m=3, M=2)

    @pytest.mark.parametrize("name,f", bm.standard_catalog())
    def test_properness_certificate(self, name, f):
        assert f.properness_residual(count=1000) <= 1e-9

    @pytest.mark.parametrize("m,d", [(3, 2), (2, 3), (2, 4)])
    def test_power_maps_any_dimension(self, m, d):
        import math
        f = bm.catalog("power", m=m, d=d)
        assert f.M == math.comb(m + d - 1, d)
        assert f.properness_residual(count=500) <= 1e-12

    def test_degree_cap(self):
        with pytest.raises(InputError):
            pm.ProperMapSpec(1, 1, ((((9,), 1.0),),))

    def test_coefficient_cap(self):
        with pytest.raises(InputError):
            pm.ProperMapSpec(1, 1, ((((1,), 11.0),),))


class TestLipschitzConstant:
    def test_linear_is_one(self):
        est = bm.lipschitz_boundary_constant(bm.catalog("linear", m=2, M=4))
        assert abs(est.C - 1.0) <= 1e-12

    def test_whitney_stable_under_refinement(self):
        c1 = bm.lipschitz_boundary_constant(bm.catalog("whitney"), grid_density=64)
        c2 = bm.lipschitz_boundary_constant(bm.catalog("whitney"), grid_density=256,
                                            radii_count=96)
        assert c1.C >= 1.0
        assert abs(c1.C - c2.C) <= 0.05 * c2.C
        assert c2.grid_size > c1.grid_size

    def test_power_ratio_bounded(self):
        # along rays the ratio is (1 - r^d) / (1 - r), bounded by d
        est = bm.lipschitz_boundary_constant(bm.catalog("power", m=2, d=2))
        assert 1.0 <= est.C <= 2.0 + 1e-6


class TestBetaConstant:
    def test_linear(self):
        beta = bm.beta_constant(bm.catalog("linear", m=2, M=4), 1.0)
        assert abs(beta - 0.5 * np.log(2.0)) <= 1e-12

    def test_whitney_offset_free(self):
        f = bm.catalog("whitney")
        C = bm.lipschitz_boundary_constant(f).C
        assert abs(bm.beta_constant(f, C) - 0.5 * np.log(2.0 * C)) <= 1e-12

    def test_too_small_C_rejected(self):
        with pytest.raises(InputError):
            bm.beta_constant(bm.catalog("linear", m=2, M=4), 0.5)

    def test_one_formula_for_printed_beta_and_bound(self):
        # math.log and np.log round a few arguments differently; at such a C
        # two copies of the formula would print a beta that disagrees with
        # the one inside the bound
        grid = (1.0 + 3.0 * np.arange(4096) / 4096).tolist()
        split = [c for c in grid if math.log(2.0 * c) != float(np.log(2.0 * c))]
        C = split[0] if split else 2.5
        assert (kb.RadialBoundConstants(C, 0.0, 0.0).beta
                == pm.beta_constant(bm.catalog("linear", m=2, M=4), C))


class TestSymmetryPairs:
    def test_linear_block_extension(self):
        rng = rng_from_seed(31)
        f = bm.catalog("linear", m=2, M=5)
        for _ in range(5):
            phi = gm.random_automorphism(rng, 2)
            pair = bm.verify_symmetry_pair(f, phi, bm.block_extend(phi, 5))
            assert pair.residual <= 1e-12
            assert pair.certified

    def test_whitney_diagonal_rotation(self):
        th = 0.7
        phi = gm.Automorphism(np.diag([1.0, np.exp(1j * th), 1.0]))
        psi = gm.Automorphism(np.diag([1.0, np.exp(1j * th), np.exp(2j * th), 1.0]))
        pair = bm.verify_symmetry_pair(bm.catalog("whitney"), phi, psi)
        assert pair.residual <= 1e-12

    def test_whitney_cartan_rejected(self):
        pair = bm.verify_symmetry_pair(bm.catalog("whitney"), bm.cartan(1.0, 2),
                                       gm.Automorphism.identity(3))
        assert pair.residual > 0.1
        assert not pair.certified


class TestBlockExtend:
    def test_identity(self):
        out = bm.block_extend(gm.Automorphism.identity(2), 5)
        assert np.abs(out.matrix - np.eye(6)).max() == 0.0

    def test_cartan_structure(self):
        out = bm.block_extend(bm.cartan(1.3, 2), 5)
        assert np.abs(out.matrix - bm.cartan(1.3, 5).matrix).max() <= 1e-15

    def test_dimension_check(self):
        with pytest.raises(InputError):
            bm.block_extend(bm.cartan(1.0, 3), 2)


class TestSiegelConjugate:
    def test_linear_is_flat_embedding(self):
        g = bm.siegel_conjugate(bm.catalog("linear", m=2, M=4))
        rng = rng_from_seed(32)
        pts = siegel_interior_points(rng, 50, 2, scale=0.4)
        out = g.eval(pts)
        expected = np.concatenate([pts, np.zeros((50, 2), dtype=complex)], axis=1)
        assert np.abs(out - expected).max() <= 1e-12

    @pytest.mark.parametrize("name,f", bm.standard_catalog())
    def test_zero_maps_to_zero(self, name, f):
        # every catalog map fixes e1, which the transform sends to 0
        g = bm.siegel_conjugate(f)
        assert np.abs(g.eval(np.zeros(f.m, dtype=complex))).max() <= 1e-13

    def test_linear_first_derivative(self):
        jet = bm.jet_at_zero(bm.siegel_conjugate(bm.catalog("linear", m=2, M=4)))
        expected = np.vstack([np.eye(2), np.zeros((2, 2))])
        assert np.abs(jet.first - expected).max() <= 1e-13


class TestJets:
    def test_identity_map(self):
        jet = bm.jet_at_zero(bm.siegel_conjugate(bm.catalog("linear", m=2, M=2)))
        assert np.abs(jet.first - np.eye(2)).max() <= 1e-14
        assert np.abs(jet.second).max() <= 1e-14

    def test_square_component(self):
        spec = pm.ProperMapSpec(2, 2, ((((1, 0), 1.0),), (((0, 2), 1.0),)))
        jet = bm.jet_at_zero(pm.SiegelMap.from_polynomial(spec))
        assert abs(jet.second[1, 1, 1] - 2.0) <= 1e-10
        assert np.abs(jet.second - jet.second.transpose(0, 2, 1)).max() == 0.0

    @pytest.mark.parametrize("name,f", bm.standard_catalog())
    def test_chain_rule_vs_finite_differences(self, name, f):
        jet = bm.jet_at_zero(bm.siegel_conjugate(f))
        assert jet.error_norm <= 1e-6

    def test_broken_jet_detected(self):
        g = pm.SiegelMap.from_polynomial(
            pm.ProperMapSpec(1, 1, ((((2,), 1.0),),)))

        class Broken:
            m, M = g.m, g.M

            def eval(self, w):
                return g.eval(w)

            def jet_at(self, w0):
                value, first, second = g.jet_at(w0)
                return value, first + 0.5, second

        with pytest.raises(NumericError):
            bm.jet_at_zero(Broken())

    def test_quadratic_eval(self):
        jet = bm.jet_at_zero(bm.siegel_conjugate(bm.catalog("linear", m=2, M=3)))
        z = np.array([[0.1 + 0.2j, -0.05j]])
        out = pm.jet_quadratic_eval(jet, z)
        assert np.abs(out[0, :2] - z[0]).max() <= 1e-12


class TestTransformedMap:
    def test_composition_order(self):
        f = pm.as_transformed(bm.catalog("linear", m=2, M=4))
        rng = rng_from_seed(33)
        g = gm.random_automorphism(rng, 2)
        h = gm.random_automorphism(rng, 4)
        dressed = f.with_precomposition(g).with_postcomposition(h)
        z = np.array([0.2 + 0.1j, -0.3j])
        direct = gm._mobius_apply(h.matrix, f.eval(gm._mobius_apply(g.matrix, z)))
        assert np.abs(dressed.eval(z) - direct).max() <= 1e-14


class TestMapSpecFiles:
    def test_roundtrip_bit_exact(self, tmp_path):
        spec = pm.ProperMapSpec(2, 3, (
            (((1, 0), 0.1 + 0.3j),),
            (((1, 1), np.sqrt(2.0)),),
            (((0, 2), -0.25j), ((2, 0), 1.0 / 3.0)),
        ))
        path = tmp_path / "spec.json"
        # bypass properness validation: file IO must round-trip any spec
        pm.save_map_spec(spec, path)
        import json
        with open(path) as fh:
            doc = json.load(fh)
        back = pm.ProperMapSpec(
            int(doc["domain_dim"]), int(doc["target_dim"]),
            tuple(tuple((tuple(t["exponents"]), complex(t["coef"][0], t["coef"][1]))
                        for t in comp) for comp in doc["components"]))
        assert back.components == spec.components

    def test_load_validates_properness(self, tmp_path):
        path = tmp_path / "improper.json"
        bad = pm.ProperMapSpec(1, 1, ((((1,), 0.5),),))
        pm.save_map_spec(bad, path)
        with pytest.raises(InputError):
            pm.load_map_spec(path)

    def test_catalog_roundtrip(self, tmp_path):
        f = bm.catalog("whitney")
        path = tmp_path / "whitney.json"
        pm.save_map_spec(f, path)
        back = pm.load_map_spec(path)
        assert back == f
