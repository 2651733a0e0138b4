import json
import math
import struct
from dataclasses import replace

import numpy as np
import pytest

import ballmaps as bm
from ballmaps import group_models as gm
from ballmaps import proper_maps as pm
from ballmaps import rescaling as rs
from ballmaps.errors import (
    DiagnosticError,
    InputError,
    PatternViolationError,
    SymmetryError,
)
from ballmaps.numerics import rng_from_seed


def cartan_pairs(m, M, ns):
    pairs = rs.cartan_sequence(m, M, ns)
    return [p for p, _ in pairs], [q for _, q in pairs]


@pytest.fixture(scope="module")
def linear_trace():
    phis, psis = cartan_pairs(2, 4, range(1, 7))
    return rs.build_sequence(pm.as_transformed(bm.catalog("linear", m=2, M=4)),
                             phis, psis)


@pytest.fixture(scope="module")
def whitney_trace():
    phis, _ = cartan_pairs(2, 3, range(1, 11))
    return rs.build_sequence(pm.as_transformed(bm.catalog("whitney")),
                             phis, None, conjugate=True)


class TestScalingFactors:
    def test_first_order_table(self):
        assert rs.scaling_factors((1, 1), 3.0, 2, 4) == 1.0
        assert abs(rs.scaling_factors((1, 2), 3.0, 2, 4) - np.exp(1.5)) <= 1e-12
        assert abs(rs.scaling_factors((3, 1), 3.0, 2, 4) - np.exp(-1.5)) <= 1e-12
        assert rs.scaling_factors((3, 2), 3.0, 2, 4) == 1.0

    def test_second_order_table(self):
        t = 2.0
        assert abs(rs.scaling_factors((1, 1, 1), t, 2, 3) - np.exp(-t)) <= 1e-12
        assert abs(rs.scaling_factors((1, 1, 2), t, 2, 3) - np.exp(-t / 2)) <= 1e-12
        assert rs.scaling_factors((1, 2, 2), t, 2, 3) == 1.0
        assert abs(rs.scaling_factors((2, 1, 1), t, 2, 3) - np.exp(-1.5 * t)) <= 1e-12
        assert abs(rs.scaling_factors((2, 1, 2), t, 2, 3) - np.exp(-t)) <= 1e-12
        assert abs(rs.scaling_factors((2, 2, 2), t, 2, 3) - np.exp(-t / 2)) <= 1e-12

    def test_range_validation(self):
        with pytest.raises(InputError):
            rs.scaling_factors((5, 1), 1.0, 2, 4)
        with pytest.raises(InputError):
            rs.scaling_factors((1, 3), 1.0, 2, 4)

    def test_exponent_values(self):
        profile = rs.scaling_profile(3, 5)
        assert set(np.unique(profile.first_exponents)) <= {0.0, 0.5, -0.5}
        assert set(np.unique(profile.second_exponents)) <= {0.0, -0.5, -1.0, -1.5}


class TestNormalizeMap:
    def test_linear_already_normalized(self):
        f = bm.catalog("linear", m=2, M=4)
        phis, psis = cartan_pairs(2, 4, range(1, 6))
        fn, pairs = rs.normalize_map(f, phis, psis)
        z = np.array([0.2 + 0.1j, -0.3j])
        assert np.abs(fn.eval(z) - pm.as_transformed(f).eval(z)).max() <= 1e-12

    def test_shifted_map_recentred(self):
        f = bm.catalog("linear", m=2, M=4)
        shift = gm.inverse(gm.transport_to_origin(np.array([0.3 + 0.1j, 0.0, -0.2j, 0.05])))
        shift_inv = gm.inverse(shift)
        f_shift = pm.as_transformed(f).with_postcomposition(shift)
        phis, psis = cartan_pairs(2, 4, range(1, 6))
        psis = [gm.compose(shift, q, shift_inv) for q in psis]
        fn, _ = rs.normalize_map(f_shift, phis, psis)
        assert np.linalg.norm(fn.eval(np.zeros(2, dtype=complex))) <= 1e-12

    def test_rotated_sequence_lands_on_e1(self):
        f = bm.catalog("linear", m=2, M=4)
        v = np.array([0.6, 0.8j])
        kv = gm.rotation_mapping_e1(v)
        kv_inv = gm.inverse(kv)
        phis, _ = cartan_pairs(2, 4, range(1, 6))
        phis = [gm.compose(kv, p, kv_inv) for p in phis]
        psis = [bm.block_extend(p, 4) for p in phis]
        fn, pairs = rs.normalize_map(f, phis, psis)
        p_last = gm._mobius_apply(pairs[-1][0].as_double().matrix, np.zeros(2, dtype=complex))
        direction = p_last / np.linalg.norm(p_last)
        assert np.abs(direction - np.array([1.0, 0.0])).max() <= 1e-8

    def test_non_member_rejected(self):
        phis, psis = cartan_pairs(2, 3, range(1, 5))
        with pytest.raises(SymmetryError) as info:
            rs.normalize_map(bm.catalog("whitney"), phis, psis)
        assert info.value.residual > 0.1


class TestEscapeCheck:
    def test_cartan_gaps(self):
        phis, psis = cartan_pairs(2, 4, range(1, 11))
        report = rs.escape_check(phis, psis)
        assert report.escaped and report.monotone
        # 1 - tanh(10) = 2 e^{-20} / (1 + e^{-20})
        expected = 2 * np.exp(-20.0) / (1 + np.exp(-20.0))
        assert abs(report.phi_gaps[-1] - expected) <= 1e-6 * expected

    def test_constant_sequence_flagged(self):
        phis = [gm.Automorphism.identity(2)] * 4
        psis = [gm.Automorphism.identity(4)] * 4
        report = rs.escape_check(phis, psis)
        assert not report.escaped

    def test_proper_map_drags_psi_gap(self):
        f = pm.as_transformed(bm.catalog("whitney"))
        phis, _ = cartan_pairs(2, 3, range(1, 9))
        report = rs.escape_check(phis, f=f)
        assert report.psi_gaps[-1] < 1e-3
        assert all(b < a for a, b in zip(report.psi_gaps[:-1], report.psi_gaps[1:]))

    def test_build_sequence_raises_diagnostic(self):
        phis = [gm.Automorphism.identity(2)] * 4
        psis = [gm.Automorphism.identity(4)] * 4
        with pytest.raises(DiagnosticError):
            rs.build_sequence(pm.as_transformed(bm.catalog("linear", m=2, M=4)),
                              phis, psis)


class TestBuildSequence:
    def test_flow_parameter_matches_orbit(self, linear_trace):
        for i, idx in enumerate(linear_trace.indices[:5]):
            phi0 = np.tanh(float(i + 1))
            assert abs(idx.t_n - np.arctanh(phi0)) <= 1e-12

    def test_rotations_trivial_for_cartan(self, linear_trace):
        for idx in linear_trace.indices:
            assert np.abs(idx.k_n.as_double().matrix - np.eye(3)).max() <= 1e-14
            assert np.abs(idx.l_n.as_double().matrix - np.eye(5)).max() <= 1e-14

    def test_g_jets_constant_linear(self, linear_trace):
        expected_first = np.vstack([np.eye(2), np.zeros((2, 2))])
        for idx in linear_trace.indices:
            assert np.abs(idx.g_jet.first - expected_first).max() <= 1e-10
            assert np.abs(idx.g_jet.second).max() <= 1e-10

    def test_boundary_value_invariant(self, linear_trace, whitney_trace):
        # g_n(e1) = e1' reads as value 0 at 0 in Siegel coordinates
        for trace in (linear_trace, whitney_trace):
            for idx in trace.indices:
                assert idx.g_value_norm <= 1e-10

    def test_compactness_zero_for_linear(self, linear_trace):
        for idx in linear_trace.indices:
            assert idx.compactness_dist <= 1e-9

    def test_conjugation_identity(self, linear_trace):
        for idx in linear_trace.indices:
            assert idx.conjugation_residual <= 1e-9

    def test_symmetry_residuals_recorded(self, linear_trace, whitney_trace):
        assert all(idx.symmetry_residual <= 1e-9 for idx in linear_trace.indices)
        assert all(idx.symmetry_residual is None for idx in whitney_trace.indices)

    def test_escape_gaps_positive(self, linear_trace):
        for idx in linear_trace.indices:
            assert idx.phi_gap > 0 and idx.psi_gap > 0

    def test_missing_psi_in_sequence_mode(self):
        phis, _ = cartan_pairs(2, 4, range(1, 5))
        with pytest.raises(InputError):
            rs.build_sequence(pm.as_transformed(bm.catalog("linear", m=2, M=4)),
                              phis, None)

    def test_flow_cap(self):
        phis, psis = cartan_pairs(2, 4, [19])
        with pytest.raises(InputError):
            rs.build_sequence(pm.as_transformed(bm.catalog("linear", m=2, M=4)),
                              phis, psis, allow_non_escaping=True)


class TestScalingLaw:
    def test_linear_exact(self, linear_trace):
        assert rs.verify_scaling_law(linear_trace) <= 1e-12

    def test_whitney_conjugate(self, whitney_trace):
        assert rs.verify_scaling_law(whitney_trace) <= 1e-8

    def test_randomized_proper_map(self):
        # a Whitney map dressed with random automorphisms is still proper
        rng = rng_from_seed(40)
        f = (pm.as_transformed(bm.catalog("whitney"))
             .with_precomposition(gm.random_automorphism(rng, 2))
             .with_postcomposition(gm.random_automorphism(rng, 3)))
        f0 = f.eval(np.zeros(2, dtype=complex))
        f = f.with_postcomposition(gm.transport_to_origin(f0))
        phis, _ = cartan_pairs(2, 3, range(1, 7))
        trace = rs.build_sequence(f, phis, None, conjugate=True)
        assert rs.verify_scaling_law(trace) <= 1e-8

    def test_higher_dimensional_power_map(self):
        f = bm.catalog("power", m=3, d=2)
        phis, _ = cartan_pairs(3, f.M, range(1, 9))
        trace = rs.build_sequence(pm.as_transformed(f), phis, None, conjugate=True)
        assert rs.verify_scaling_law(trace) <= 1e-8


class TestLimitExtraction:
    def test_linear_limit(self, linear_trace):
        jet, report = rs.extract_limit_jet(linear_trace, tail=3)
        expected_first = np.vstack([np.eye(2), np.zeros((2, 2))])
        assert np.abs(jet.first - expected_first).max() <= 1e-8
        assert np.abs(jet.second).max() <= 1e-8
        assert max(report.cauchy_diffs) <= 1e-8
        assert report.decay_ok

    def test_whitney_suppressed_decay(self, whitney_trace):
        _, report = rs.extract_limit_jet(whitney_trace, tail=4)
        sup = report.suppressed_max
        assert all(b < a for a, b in zip(sup[:-1], sup[1:]))
        assert report.decay_ok

    def test_short_trace_tail_one(self):
        phis, psis = cartan_pairs(2, 4, [4, 5])
        trace = rs.build_sequence(pm.as_transformed(bm.catalog("linear", m=2, M=4)),
                                  phis, psis)
        jet, report = rs.extract_limit_jet(trace, tail=1)
        assert len(report.cauchy_diffs) == 1

    def test_tail_validation(self, linear_trace):
        with pytest.raises(InputError):
            rs.extract_limit_jet(linear_trace, tail=len(linear_trace))

    def test_divergent_tail_diagnostic(self, linear_trace):
        indices = list(linear_trace.indices)
        for i, scale in enumerate((1e-1, 1e-2, 1e-3), start=1):
            idx = indices[-i]
            jet = idx.g_jet
            first = jet.first.copy()
            first[0, 0] += scale  # growth toward the tail end
            indices[-i] = replace(idx, g_jet=pm.JetExpansion(
                jet.base, jet.value, first, jet.second))
        bad = rs.RescalingTrace(linear_trace.m, linear_trace.M, linear_trace.mode,
                                tuple(indices), linear_trace.map_normalized)
        with pytest.raises(DiagnosticError):
            rs.extract_limit_jet(bad, tail=3)


class TestQuadraticNormalForm:
    def test_linear_limit_form(self, linear_trace):
        jet, _ = rs.extract_limit_jet(linear_trace, tail=3)
        nf = rs.quadratic_normal_form(jet)
        assert abs(nf.lam - 1.0) <= 1e-9
        assert np.abs(nf.U - np.vstack([np.eye(1), np.zeros((2, 1))])).max() <= 1e-9
        assert np.abs(nf.L).max() <= 1e-9

    def test_corrupted_first_order_named(self, linear_trace):
        jet, _ = rs.extract_limit_jet(linear_trace, tail=3)
        first = jet.first.copy()
        first[1, 0] = 0.1
        bad = pm.JetExpansion(jet.base, jet.value, first, jet.second)
        with pytest.raises(PatternViolationError) as info:
            rs.quadratic_normal_form(bad)
        assert info.value.coefficient_class == "first j>=2,k=1"
        assert abs(info.value.magnitude - 0.1) <= 1e-9

    def test_corrupted_second_order_named(self, linear_trace):
        jet, _ = rs.extract_limit_jet(linear_trace, tail=3)
        second = jet.second.copy()
        second[2, 0, 0] = 0.05
        bad = pm.JetExpansion(jet.base, jet.value, jet.first, second)
        with pytest.raises(PatternViolationError) as info:
            rs.quadratic_normal_form(bad)
        assert info.value.coefficient_class == "second j>=2,k=l=1"

    @pytest.mark.parametrize("m,M", [(1, 1), (2, 3), (3, 5)])
    def test_vanishing_pattern_is_max_over_every_class(self, m, M):
        # every coefficient with a nonzero scaling exponent belongs to a
        # suppressed class; all sit below the threshold, so none raises
        profile = rs.scaling_profile(m, M)
        rng = rng_from_seed(60 + m)
        for _ in range(8):
            scale = rs.PATTERN_TOL * rng.random(4)
            value = scale[0] * (rng.random(M) - 0.5)
            first = scale[1] * (rng.random((M, m)) - 0.5) * (1 + 1j)
            second = scale[2] * (rng.random((M, m, m)) - 0.5) * (1 - 1j)
            first[profile.first_exponents == 0] = 1.0
            second[profile.second_exponents == 0] = 0.3
            jet = pm.JetExpansion(gm.SiegelPoint(np.zeros(m)), value, first, second)
            reference = max(
                [float(np.max(np.abs(jet.value)))]
                + [float(np.max(np.abs(a[e != 0])))
                   for a, e in ((jet.first, profile.first_exponents),
                                (jet.second, profile.second_exponents)) if (e != 0).any()])
            assert rs.quadratic_normal_form(jet).residuals.vanishing_pattern == reference

    def test_dilation_two_passes_form_stage(self):
        # a doubled radial derivative is a legal form; it fails downstream
        # when the boundary identity compares |Uw| with sqrt(lambda)|w|
        first = np.array([[2.0, 0.0], [0.0, 1.0], [0.0, 0.0]], dtype=complex)
        jet = pm.JetExpansion(gm.SiegelPoint(np.zeros(2)), np.zeros(3),
                              first, np.zeros((3, 2, 2)))
        nf = rs.quadratic_normal_form(jet)
        assert nf.lam == 2.0
        res = rs.verify_boundary_identity(nf)
        assert res.unitarity >= 0.2 * nf.lam


class TestBoundaryIdentity:
    def test_exact_form(self):
        nf = rs.QuadraticNormalForm(
            lam=1.0, U=np.vstack([np.eye(1), np.zeros((1, 1))]),
            L=np.zeros((1, 1)), residuals=rs.NormalFormResiduals(0.0, 0.0))
        res = rs.verify_boundary_identity(nf)
        assert res.im_L <= 1e-12 and res.unitarity <= 1e-12

    def test_detects_nonzero_L(self):
        nf = rs.QuadraticNormalForm(
            lam=1.0, U=np.vstack([np.eye(1), np.zeros((1, 1))]),
            L=np.array([[0.1]]), residuals=rs.NormalFormResiduals(0.0, 0.0))
        res = rs.verify_boundary_identity(nf)
        assert res.im_L >= 0.05

    def test_detects_scaled_column(self):
        nf = rs.QuadraticNormalForm(
            lam=1.0, U=np.vstack([1.1 * np.eye(1), np.zeros((1, 1))]),
            L=np.zeros((1, 1)), residuals=rs.NormalFormResiduals(0.0, 0.0))
        res = rs.verify_boundary_identity(nf)
        assert res.unitarity >= 0.2


class TestFinalNormalization:
    def test_identity_case(self, linear_trace):
        jet, _ = rs.extract_limit_jet(linear_trace, tail=3)
        nf = rs.quadratic_normal_form(jet)
        final = rs.final_normalization(nf, jet)
        assert final.flatten_residual <= 1e-8
        assert np.abs(final.U_prime - np.eye(3)).max() <= 1e-8
        assert bm.verify_membership(final.A) <= 1e-10

    def test_lambda_four_rescaling(self):
        first = np.array([[4.0, 0.0], [0.0, 2.0], [0.0, 0.0]], dtype=complex)
        jet = pm.JetExpansion(gm.SiegelPoint(np.zeros(2)), np.zeros(3),
                              first, np.zeros((3, 2, 2)))
        nf = rs.quadratic_normal_form(jet)
        assert nf.lam == 4.0
        final = rs.final_normalization(nf, jet)
        assert final.flatten_residual <= 1e-10
        assert final.unitarity_defect <= 1e-12

    def test_unitary_completion_invariant(self, linear_trace):
        jet, _ = rs.extract_limit_jet(linear_trace, tail=3)
        nf = rs.quadratic_normal_form(jet)
        final = rs.final_normalization(nf, jet)
        up = final.U_prime
        assert np.abs(up.conj().T @ up - np.eye(up.shape[0])).max() <= 1e-10
        assert np.abs(up[:, 0] - nf.U[:, 0] / np.sqrt(nf.lam)).max() <= 1e-9

    def test_precondition_enforced(self):
        nf = rs.QuadraticNormalForm(
            lam=1.0, U=np.vstack([1.1 * np.eye(1), np.zeros((1, 1))]),
            L=np.zeros((1, 1)), residuals=rs.NormalFormResiduals(0.0, 0.0))
        jet = pm.JetExpansion(gm.SiegelPoint(np.zeros(2)), np.zeros(3),
                              np.zeros((3, 2)), np.zeros((3, 2, 2)))
        with pytest.raises(InputError):
            rs.final_normalization(nf, jet)


class TestPipeline:
    def test_end_to_end_linear(self):
        phis, psis = cartan_pairs(2, 4, range(1, 13))
        result = rs.run_pipeline(bm.catalog("linear", m=2, M=4), phis, psis)
        assert abs(result.normal_form.lam - 1.0) <= 1e-6
        assert result.final.flatten_residual <= 1e-8
        assert result.scaling_error <= 1e-8

    def test_identity_map_m1(self):
        phis, psis = cartan_pairs(1, 1, range(1, 8))
        result = rs.run_pipeline(bm.catalog("linear", m=1, M=1), phis, psis)
        assert result.normal_form.U.shape == (0, 0)
        assert abs(result.normal_form.lam - 1.0) <= 1e-9
        assert result.final.flatten_residual <= 1e-9

    def test_conjugate_route_agrees_on_member_case(self):
        # for a genuine symmetry sequence the two recentring routes coincide
        phis, psis = cartan_pairs(2, 4, range(1, 9))
        result = rs.run_pipeline(bm.catalog("linear", m=2, M=4), phis, psis,
                                 conjugate=True)
        assert abs(result.normal_form.lam - 1.0) <= 1e-9
        assert result.final.flatten_residual <= 1e-9

    def test_conjugate_route_recentres_psi_with_f(self):
        # f(0) != 0: the transport moving f(0) to 0 must conjugate psi too,
        # or the recorded pairs stop being symmetries of the recentred map
        f = bm.catalog("linear", m=2, M=4)
        shift = gm.inverse(gm.transport_to_origin(np.array([0.3 + 0.1j, 0.0, -0.2j, 0.05])))
        shift_inv = gm.inverse(shift)
        f_shift = pm.as_transformed(f).with_postcomposition(shift)
        phis, psis = cartan_pairs(2, 4, range(1, 9))
        psis = [gm.compose(shift, q, shift_inv) for q in psis]
        conj = rs.run_pipeline(f_shift, phis, psis, conjugate=True).trace
        seq = rs.run_pipeline(f_shift, phis, psis).trace
        for c, s in zip(conj.indices, seq.indices):
            assert c.symmetry_residual <= 1e-9
            assert c.compactness_dist <= 1e-9
            assert c.psi_gap == s.psi_gap

    def test_sequence_mode_certifies_each_pair_twice(self, monkeypatch):
        # once on the input pairs (normalize_map), once on the recentred
        # pairs (build_sequence); both passes go through the stacked kernel
        calls = []
        original = pm.symmetry_residuals

        def counting(f, phis, psis, *args, **kwargs):
            calls.extend([1] * len(phis))
            return original(f, phis, psis, *args, **kwargs)

        monkeypatch.setattr(pm, "symmetry_residuals", counting)
        phis, psis = cartan_pairs(2, 4, range(1, 7))
        rs.run_pipeline(bm.catalog("linear", m=2, M=4), phis, psis)
        assert len(calls) == 2 * len(phis)

    def test_one_orbit_pass_per_sequence(self, monkeypatch):
        # phi_n(0) and psi_n(0) are one stacked action each, shared by the
        # escape gate and the frames; forming them index by index in both
        # places takes 103 actions
        calls = []
        original = gm._mobius_apply

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(gm, "_mobius_apply", counting)
        phis, psis = cartan_pairs(3, 5, range(1, 13))
        rs.run_pipeline(bm.catalog("linear", m=3, M=5), phis, psis)
        assert len(calls) <= 57

    def test_one_pair_is_too_short(self):
        phis, psis = cartan_pairs(2, 4, [5])
        for conjugate in (False, True):
            with pytest.raises(InputError, match="at least 2 pairs, got 1"):
                rs.run_pipeline(bm.catalog("linear", m=2, M=4), phis, psis,
                                conjugate=conjugate)

    def test_stage_names_in_errors(self):
        phis, psis = cartan_pairs(2, 3, range(1, 5))
        with pytest.raises(SymmetryError) as info:
            rs.run_pipeline(bm.catalog("whitney"), phis, psis)
        assert "[normalize_map]" in str(info.value)

    def test_compactness_bound_flag(self):
        phis, psis = cartan_pairs(2, 4, range(1, 8))
        result = rs.run_pipeline(bm.catalog("linear", m=2, M=4), phis, psis,
                                 morse_trials=6)
        assert result.constants is not None
        assert result.constants.bound >= result.constants.beta
        assert result.compactness_within_bound is True

    def test_negative_morse_trials_rejected(self):
        phis, psis = cartan_pairs(2, 4, range(1, 8))
        with pytest.raises(InputError, match="morse_trials"):
            rs.run_pipeline(bm.catalog("linear", m=2, M=4), phis, psis, morse_trials=-1)

    def test_trace_document_roundtrip(self, tmp_path):
        phis, psis = cartan_pairs(2, 4, range(1, 7))
        result = rs.run_pipeline(bm.catalog("linear", m=2, M=4), phis, psis)
        path = tmp_path / "trace.json"
        rs.save_trace(result, path)
        doc = json.loads(path.read_text())
        assert doc["format"] == "ballmaps-trace-v1"
        assert len(doc["indices"]) == 6
        # floats written via repr round-trip exactly
        assert doc["indices"][2]["t_n"] == result.trace.indices[2].t_n
        assert doc["normal_form"]["flatten_residual"] == result.final.flatten_residual
        lam_col = doc["normal_form"]["U"]
        assert lam_col[0][0][0] == float(result.normal_form.U[0, 0].real)


def assert_same_document(got, want, where="doc"):
    """`got` (parsed JSON) equals `want` (the in-memory document): every float
    bit for bit, so the sign of zero counts, and NaN matches any NaN."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), where
        for key, value in want.items():
            assert_same_document(got[key], value, f"{where}.{key}")
    elif isinstance(want, (list, tuple)):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same_document(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert type(got) is float, (where, got)
        if math.isnan(want):
            assert math.isnan(got), (where, got)
        else:
            assert struct.pack("<d", got) == struct.pack("<d", want), (where, got, want)
    else:
        assert type(got) is type(want) and got == want, (where, got, want)


class TestSavedTrace:
    @pytest.fixture(scope="class")
    def sequence_result(self):
        phis, psis = cartan_pairs(2, 4, range(1, 8))
        return rs.run_pipeline(bm.catalog("linear", m=2, M=4), phis, psis,
                               morse_trials=3)

    @pytest.fixture(scope="class")
    def conjugate_result(self):
        phis, _ = cartan_pairs(2, 4, range(1, 9))
        return rs.run_pipeline(bm.catalog("linear", m=2, M=4), phis, None,
                               conjugate=True)

    @staticmethod
    def saved(result, path):
        rs.save_trace(result, path)
        text = path.read_text()
        # one line of JSON
        assert text.endswith("}\n") and text.count("\n") == 1
        return json.loads(text)

    def test_sequence_mode_with_constants(self, sequence_result, tmp_path):
        want = rs.trace_document(sequence_result)
        assert "constants" in want and want["mode"] == "sequence"
        assert_same_document(self.saved(sequence_result, tmp_path / "t.json"), want)

    def test_conjugate_mode_without_psi(self, conjugate_result, tmp_path):
        want = rs.trace_document(conjugate_result)
        assert "constants" not in want and want["mode"] == "conjugate"
        assert_same_document(self.saved(conjugate_result, tmp_path / "t.json"), want)

    def test_nan_and_negative_zero(self, conjugate_result, tmp_path):
        # no pipeline run yields these (without psi_seq the psi gaps come
        # from f(phi_n(0))), but the writer must keep them
        trace = conjugate_result.trace
        first = replace(trace.indices[0], psi_gap=float("nan"), conjugation_residual=-0.0)
        result = replace(conjugate_result,
                         trace=replace(trace, indices=(first,) + trace.indices[1:]))
        want = rs.trace_document(result)
        path = tmp_path / "t.json"
        got = self.saved(result, path)
        assert "NaN" in path.read_text() and "-0.0" in path.read_text()
        assert math.copysign(1.0, got["indices"][0]["conjugation_residual"]) == -1.0
        assert_same_document(got, want)

    def test_encoding_failure_keeps_existing_file(self, conjugate_result, tmp_path,
                                                  monkeypatch):
        path = tmp_path / "t.json"
        path.write_text("previous trace\n")
        monkeypatch.setattr(rs, "trace_document", lambda result: {"bad": object()})
        with pytest.raises(TypeError):
            rs.save_trace(conjugate_result, path)
        assert path.read_text() == "previous trace\n"
