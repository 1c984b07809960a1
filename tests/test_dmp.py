import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dmpfem.dmp
import dmpfem.p1
import dmpfem.solver
from dmpfem.dmp import (
    PAIR_TOL,
    AssumptionSweep,
    DeGiorgiInput,
    DmpParams,
    assumption_a_sweep,
    compute_k_star,
    de_giorgi_rho,
    de_giorgi_verify,
    dmp_certificate,
    edge_condition_check_2d,
    element_condition_check,
    fit_decay_constant,
    level_set_profile,
)
from dmpfem.errors import (
    DimensionMismatch,
    HypothesisViolated,
    InvalidParameters,
    NotConverged,
    UnsupportedCMode,
)
from dmpfem.mesh import (
    build_mesh,
    generate_structured_2d,
    generate_structured_3d,
    interior_edges_2d,
)
from dmpfem.p1 import P1Field, constant_field, cut_minus, cut_plus, quadrature_rule
from dmpfem.solver import (
    SolveResult,
    advection_diffusion,
    assemble_q,
    default_rule,
    interpolate_boundary,
    local_form_parts,
    picard_solve,
    poisson,
    quasilinear_a,
)

from conftest import (
    adjacent_pair,
    equilateral_mesh,
    level_set_measure,
    loop_assumption_sweep,
    loop_edge_records,
    oracle_meshes,
    perturbed_mesh,
    random_nodal_field,
    table_de_giorgi_verify,
    table_fit_decay_constant,
)


def _verify_outcome(verify, inp):
    """The report of a De Giorgi verification, or the pair it rejects."""
    try:
        return verify(inp).to_dict()
    except HypothesisViolated as exc:
        return exc.pair


class TestKStar:
    def test_negative_data_clipped_when_c_nonneg(self):
        m = generate_structured_2d(2, 2)
        assignment = interpolate_boundary(m, -2.0)
        assert compute_k_star(m, assignment, "nonnegative") == 0.0

    def test_negative_data_kept_when_c_zero(self):
        m = generate_structured_2d(2, 2)
        assignment = interpolate_boundary(m, -2.0)
        assert compute_k_star(m, assignment, "identically-zero") == -2.0

    def test_linear_data_attains_max_at_corner(self):
        m = generate_structured_2d(3, 3)
        assignment = interpolate_boundary(m, lambda x: x[..., 0])
        for mode in ("nonnegative", "identically-zero"):
            assert compute_k_star(m, assignment, mode) == pytest.approx(1.0)

    def test_general_mode_unsupported(self):
        m = generate_structured_2d(2, 2)
        assignment = interpolate_boundary(m, 0.0)
        with pytest.raises(UnsupportedCMode):
            compute_k_star(m, assignment, "general")

    def test_mode_ordering(self):
        m = generate_structured_2d(2, 2)
        rng = np.random.default_rng(12)
        for _ in range(10):
            shift = float(rng.uniform(-3, 3))
            assignment = interpolate_boundary(
                m, lambda x, s=shift: np.sin(5 * x[..., 0]) + s)
            assert compute_k_star(m, assignment, "nonnegative") >= \
                compute_k_star(m, assignment, "identically-zero")


class TestAssumptionSweep:
    def test_level_beyond_max_gives_zero(self):
        m = generate_structured_2d(3, 3)
        v = random_nodal_field(m, np.random.default_rng(1))
        sweep = assumption_a_sweep(m, v, poisson(), k_star=v.max_value())
        assert sweep.q_values == pytest.approx(np.zeros_like(sweep.q_values),
                                               abs=1e-14)
        assert sweep.satisfied

    def test_constant_field_all_zero(self):
        m = generate_structured_2d(3, 3)
        sweep = assumption_a_sweep(m, constant_field(m, 2.0), poisson(), k_star=-1.0)
        assert np.abs(sweep.q_values).max() == 0.0

    def test_solved_poisson_on_non_obtuse_mesh(self):
        m = generate_structured_2d(8, 8)
        coeffs = poisson(f=1.0, g=lambda x: x[..., 0])
        result = picard_solve(m, coeffs)
        k_star = compute_k_star(m, interpolate_boundary(m, coeffs.g),
                                coeffs.c_mode)
        sweep = assumption_a_sweep(m, result.u_h, coeffs, k_star=k_star)
        assert sweep.satisfied
        assert np.all(np.diff(sweep.k_values) > 0)
        assert sweep.k_values[0] == pytest.approx(k_star)

    def test_straddling_field_on_wide_pair_fails(self):
        # alpha + beta > pi makes the shared-edge sum positive; a field that
        # changes sign across that edge then breaks the cut-pair inequality
        mesh = adjacent_pair(2.0, 1.5)
        edge = edge_condition_check_2d(mesh, poisson()).edges[0]
        assert edge["sum"] > 0
        values = np.zeros(mesh.num_vertices)
        values[edge["node_m"]] = -1.0
        values[edge["node_n"]] = 1.0
        sweep = assumption_a_sweep(mesh, P1Field(mesh, values), poisson(),
                                   k_star=0.0)
        assert not sweep.satisfied
        assert sweep.min_value < 0

    def test_one_level_against_direct_triple_sum(self):
        # independent oracle: expand the form value over cells and vertex pairs
        m = generate_structured_2d(4, 4)
        rng = np.random.default_rng(7)
        v = random_nodal_field(m, rng)
        coeffs = advection_diffusion([0.6, -0.2], c0=0.5)
        k = 0.1
        rule = quadrature_rule(2, 2)
        plus = cut_plus(v, k).nodal_values
        minus = cut_minus(v, k).nodal_values
        diffusion, advection, reaction = local_form_parts(
            m, v, coeffs, rule)
        local = diffusion + advection + reaction  # [cell, test, trial]
        direct = 0.0
        for t, cell in enumerate(m.cells):
            for mi, node_test in enumerate(cell):
                for ni, node_trial in enumerate(cell):
                    direct += plus[node_test] * local[t, mi, ni] * minus[node_trial]
        system = assemble_q(m, v, coeffs, rule)
        sweep_value = float(plus @ (system.matrix @ minus))
        assert sweep_value == pytest.approx(direct, rel=1e-12)


class TestElementCondition:
    def test_equilateral_poisson_passes_with_equality(self):
        m = equilateral_mesh(2, 2)
        report = element_condition_check(m, poisson(), case="poisson-like")
        assert report.all_pass
        # margin against the angle reference is zero for constant unit a
        assert report.min_margin == pytest.approx(0.0, abs=1e-13)

    def test_right_angle_pair_boundary_case(self, reference_triangle):
        report_iii = element_condition_check(reference_triangle, poisson(),
                                             case="poisson-like")
        assert report_iii.all_pass
        report_i = element_condition_check(reference_triangle, poisson(),
                                           case="general-b", lambda_star=0.1)
        assert not report_i.all_pass  # the orthogonal pair has zero integral

    def test_obtuse_triangle_fails(self):
        m = build_mesh([[0, 0], [1, 0], [0.8, 0.15]], [[0, 1, 2]])
        report = element_condition_check(m, poisson(), case="poisson-like")
        assert not report.all_pass
        assert report.failures
        worst = report.failures[0]
        assert worst["d_value"] < 0

    def test_case_validation(self):
        m = generate_structured_2d(2, 2)
        with pytest.raises(InvalidParameters):
            element_condition_check(m, poisson(), case="bogus")

    def test_acute_mesh_passes_strict_case(self):
        m = equilateral_mesh(2, 2)
        report = element_condition_check(m, poisson(), case="b-zero-c-nonneg",
                                         lambda_star=0.2)
        # equilateral: D = cos(pi/3) * prod = 0.5 * prod >= 0.2 * prod
        assert report.all_pass


class TestEdgeCondition:
    def test_square_pair_boundary_case(self):
        mesh = adjacent_pair(math.pi / 2, math.pi / 2)
        report = edge_condition_check_2d(mesh, poisson())
        assert report.num_edges == 1
        assert report.all_pass
        assert report.edges[0]["sum"] == pytest.approx(0.0, abs=1e-13)

    def test_equilateral_pair_closed_form(self):
        mesh = adjacent_pair(math.pi / 3, math.pi / 3)
        report = edge_condition_check_2d(mesh, poisson())
        expected = -1.0 / math.sqrt(3.0)
        assert report.edges[0]["sum"] == pytest.approx(expected, rel=1e-12)
        assert report.edges[0]["poisson_closed_form"] == pytest.approx(expected,
                                                                       rel=1e-14)

    def test_wide_pair_fails(self):
        mesh = adjacent_pair(2.0, 1.5)  # alpha + beta > pi
        report = edge_condition_check_2d(mesh, poisson())
        assert not report.all_pass
        assert report.edges[0]["sum"] > 0

    def test_dimension_guard(self):
        with pytest.raises(DimensionMismatch):
            edge_condition_check_2d(generate_structured_3d(1, 1, 1), poisson())

    def test_matches_global_assembly_offdiagonal(self):
        m = generate_structured_2d(4, 3, skew=0.25)
        system = assemble_q(m, constant_field(m, 0.0), poisson(),
                            quadrature_rule(2, 2))
        a = system.matrix.toarray()
        report = edge_condition_check_2d(m, poisson())
        for record in report.edges:
            i, j = record["node_m"], record["node_n"]
            assert record["sum"] == pytest.approx(a[j, i], abs=1e-12)
            assert record["sum_reversed"] == pytest.approx(a[i, j], abs=1e-12)


    @pytest.mark.parametrize("name", sorted(oracle_meshes()))
    def test_records_match_loop_oracle(self, name):
        mesh = oracle_meshes()[name]
        w = random_nodal_field(mesh, np.random.default_rng(4))
        for unit, coeffs in ((True, poisson()), (False, quasilinear_a()),
                             (False, advection_diffusion([1.0, -2.0], c0=0.5))):
            rule = default_rule(mesh, coeffs)
            parts = local_form_parts(mesh, w, coeffs, rule)
            records, all_pass, max_sum, identity_err = loop_edge_records(
                mesh, parts, PAIR_TOL)
            for given in (None, parts):
                report = edge_condition_check_2d(mesh, coeffs, rule, w=w,
                                                 poisson_identity=False, parts=given)
                # json.dumps tells every bit, the sign of zero included
                assert json.dumps(report.edges) == json.dumps(records)
                assert (report.all_pass, report.max_sum, report.num_edges) == \
                    (all_pass, max_sum, len(records))
            if unit:
                report = edge_condition_check_2d(mesh, coeffs, rule, w=w)
                assert report.poisson_identity_checked
                assert report.identity_max_error == identity_err


    @pytest.mark.parametrize("seed", [4, 0])
    def test_identity_holds_at_small_opposite_angles(self, seed):
        # perturbed 48x48 mesh with opposite angles down to ~3e-3 rad, where
        # a closed form from arccos angles is off by more than PAIR_TOL
        m = generate_structured_2d(48, 48)
        verts = m.vertices.copy()
        inner = ~m.boundary_mask()
        verts[inner] += np.random.default_rng(seed).uniform(
            -0.3 / 48, 0.3 / 48, size=verts[inner].shape)
        m = build_mesh(verts, m.cells)
        report = edge_condition_check_2d(m, poisson())
        assert report.poisson_identity_checked
        assert report.identity_max_error <= PAIR_TOL
        assert interior_edges_2d(m).opposite_angles.min() < 0.01

    def test_negative_zero_entries_sum_to_positive_zero(self):
        # as in the scalar sum 0.0 + x + y, which certificate bytes depend on
        mesh = adjacent_pair(math.pi / 2, math.pi / 2)
        parts = tuple(np.full((2, 3, 3), -0.0) for _ in range(3))
        records, _, _, _ = loop_edge_records(mesh, parts, PAIR_TOL)
        report = edge_condition_check_2d(mesh, poisson(), poisson_identity=False,
                                         parts=parts)
        assert json.dumps(report.edges) == json.dumps(records)
        assert math.copysign(1.0, report.edges[0]["sum"]) == 1.0


class TestLevelSets:
    def test_extreme_levels(self):
        m = generate_structured_2d(3, 3)
        v = random_nodal_field(m, np.random.default_rng(2))
        below, top = level_set_profile(m, v, [v.min_value() - 1.0, v.max_value()])
        assert below == pytest.approx(m.total_measure, rel=1e-14)
        assert top == 0.0

    def test_linear_field_hand_count(self):
        # u = x on the 2x2 split-square mesh: only the right column of cells
        # has a vertex with x > 0.5, giving measure 4 * (1/8)
        m = generate_structured_2d(2, 2)
        u = P1Field(m, m.vertices[:, 0])
        assert level_set_profile(m, u, [0.5])[0] == pytest.approx(0.5, abs=1e-15)

    def test_monotone_profiles(self):
        m = generate_structured_2d(4, 4)
        rng = np.random.default_rng(14)
        for _ in range(100):
            v = random_nodal_field(m, rng)
            ks = np.sort(rng.uniform(-1.2, 1.2, size=15))
            measures = level_set_profile(m, v, ks)
            assert np.all(np.diff(measures) <= 1e-15)

    def test_profile_matches_per_level_measure(self):
        m = generate_structured_3d(2, 2, 2)
        rng = np.random.default_rng(21)
        v = random_nodal_field(m, rng)
        # nodal values themselves (ties at the cut) plus levels outside the range
        ks = np.concatenate([np.unique(v.nodal_values), [-5.0, 5.0],
                             rng.uniform(-1.2, 1.2, size=10)])
        expected = [level_set_measure(m, v, k) for k in ks]
        assert level_set_profile(m, v, ks) == pytest.approx(expected, rel=1e-14, abs=1e-16)


class TestDeGiorgi:
    def test_rho_examples(self):
        samples = np.array([[0.0, 1.0], [1.0, 0.0]])
        inp = DeGiorgiInput(M=1.0, alpha=1.0, beta=2.0, k0=0.0, samples=samples)
        assert de_giorgi_rho(inp) == 4.0

        vanished = DeGiorgiInput(M=1.0, alpha=1.0, beta=2.0, k0=0.0,
                                 samples=np.array([[0.0, 0.0]]))
        assert de_giorgi_rho(vanished) == 0.0

        samples4 = np.array([[0.0, 4.0], [1.0, 0.0]])
        inp4 = DeGiorgiInput(M=2.0, alpha=2.0, beta=3.0, k0=0.0, samples=samples4)
        assert de_giorgi_rho(inp4) == pytest.approx(8.0 * 2.0 ** 1.5, rel=1e-15)

    def test_zero_function_trivially_passes(self):
        inp = DeGiorgiInput(M=1.0, alpha=2.0, beta=1.5, k0=0.0,
                            samples=np.array([[0.0, 0.0]]))
        report = de_giorgi_verify(inp)
        assert report.all_pass
        assert report.rho == 0.0

    def test_constant_function_violates_hypothesis(self):
        ks = np.linspace(0.0, 10.0, 21)
        samples = np.column_stack([ks, np.ones_like(ks)])
        inp = DeGiorgiInput(M=1.0, alpha=1.0, beta=2.0, k0=0.0, samples=samples)
        with pytest.raises(HypothesisViolated):
            de_giorgi_verify(inp)

    def test_invalid_parameters(self):
        good = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(InvalidParameters):
            DeGiorgiInput(M=0.0, alpha=1.0, beta=2.0, k0=0.0, samples=good)
        with pytest.raises(InvalidParameters):
            DeGiorgiInput(M=1.0, alpha=1.0, beta=1.0, k0=0.0, samples=good)
        with pytest.raises(InvalidParameters):
            DeGiorgiInput(M=1.0, alpha=1.0, beta=2.0, k0=-1.0, samples=good)
        increasing = np.array([[0.0, 0.5], [1.0, 1.0]])
        with pytest.raises(InvalidParameters):
            DeGiorgiInput(M=1.0, alpha=1.0, beta=2.0, k0=0.0, samples=increasing)

    def test_fitted_constant_certifies_measured_profile(self):
        m = generate_structured_2d(16, 16)
        coeffs = poisson(f=1.0, g=0.0)
        result = picard_solve(m, coeffs)
        params = DmpParams(p=4.0, r=2.0)
        k_star = 0.0
        grid = np.unique(np.concatenate(
            [[k_star], np.unique(result.u_h.nodal_values)]))
        grid = grid[grid >= k_star]
        profile = np.column_stack([grid, level_set_profile(m, result.u_h, grid)])
        alpha, beta = params.decay_alpha, params.decay_beta
        fitted = fit_decay_constant(profile, alpha, beta, k_star)
        assert fitted > 0
        inp = DeGiorgiInput(M=fitted, alpha=alpha, beta=beta, k0=k_star,
                            samples=profile)
        report = de_giorgi_verify(inp)
        assert report.hypothesis_ok and report.decay_ok and report.tail_ok

    def test_undershooting_constant_violates(self):
        m = generate_structured_2d(8, 8)
        coeffs = poisson(f=1.0, g=0.0)
        result = picard_solve(m, coeffs)
        grid = np.unique(np.concatenate([[0.0], np.unique(result.u_h.nodal_values)]))
        grid = grid[grid >= 0.0]
        profile = np.column_stack([grid, level_set_profile(m, result.u_h, grid)])
        fitted = fit_decay_constant(profile, 4.0, 1.5, 0.0)
        inp = DeGiorgiInput(M=fitted / 10.0, alpha=4.0, beta=1.5, k0=0.0,
                            samples=profile)
        with pytest.raises(HypothesisViolated):
            de_giorgi_verify(inp)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(nx=st.integers(1, 7), ny=st.integers(1, 7),
           pattern=st.sampled_from(["right-diagonal", "crisscross"]),
           skew=st.floats(0.0, 0.7), amount=st.floats(0.0, 0.2),
           problem=st.sampled_from(["poisson", "drift", "quasilinear"]),
           field=st.sampled_from(["random", "ties", "constant", "solved"]),
           level=st.sampled_from(["zero", "below", "top"]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_sweep_fit_verify_match_oracles(self, nx, ny, pattern, skew, amount,
                                            problem, field, level, seed):
        rng = np.random.default_rng(seed)
        m = perturbed_mesh(generate_structured_2d(nx, ny, pattern=pattern, skew=skew),
                           rng, amount)
        coeffs = {"poisson": poisson(f=1.0),
                  "drift": advection_diffusion([3.0, -2.0], f=1.0, c0=0.5),
                  "quasilinear": quasilinear_a(f=1.0)}[problem]
        v = {"random": lambda: random_nodal_field(m, rng),
             "ties": lambda: P1Field(m, np.round(rng.uniform(-1, 1, m.num_vertices), 1)),
             "constant": lambda: constant_field(m, 0.25),
             "solved": lambda: picard_solve(m, coeffs).u_h}[field]()
        # "top" leaves the single level k* = max u
        k_star = {"zero": 0.0, "below": v.min_value() - 0.1, "top": v.max_value()}[level]

        parts = local_form_parts(m, v, coeffs, quadrature_rule(2, 4))
        sweep = assumption_a_sweep(m, v, coeffs, k_star=k_star, parts=parts)
        k_values, q_values = loop_assumption_sweep(m, v, parts, k_star)
        assert np.array_equal(sweep.k_values, k_values)
        scale = max(1.0, float(np.abs(q_values).max()))
        assert np.abs(sweep.q_values - q_values).max() <= 1e-12 * scale
        if q_values.min() >= 0.0:
            assert sweep.min_value >= 0.0

        grid = np.unique(np.concatenate([[k_star], v.nodal_values]))
        profile = np.column_stack([grid, level_set_profile(m, v, grid)])
        profile = profile[profile[:, 0] >= k_star]
        for alpha, beta in ((4.0, 1.5), (2.0, 3.0)):
            fitted = fit_decay_constant(profile, alpha, beta, k_star)
            assert fitted == table_fit_decay_constant(profile, alpha, beta, k_star)
            for factor in (1.0, 0.999, 0.5, 0.01):
                inp = DeGiorgiInput(M=max(fitted * factor, 1e-30), alpha=alpha,
                                    beta=beta, k0=k_star, samples=profile)
                assert _verify_outcome(de_giorgi_verify, inp) \
                    == _verify_outcome(table_de_giorgi_verify, inp)

    def test_small_blocks_match_oracles(self, monkeypatch):
        m = generate_structured_2d(8, 8)
        coeffs = advection_diffusion([3.0, -2.0], f=1.0)
        v = picard_solve(m, coeffs).u_h
        grid = np.unique(np.concatenate([[0.0], v.nodal_values]))
        profile = np.column_stack([grid, level_set_profile(m, v, grid)])
        monkeypatch.setattr(dmpfem.dmp, "_BLOCK_TERMS", 7)
        monkeypatch.setattr(dmpfem.dmp, "_ROW_SLACK", np.inf)  # rescan every row
        sweep = assumption_a_sweep(m, v, coeffs)
        _, q_values = loop_assumption_sweep(m, v, local_form_parts(
            m, v, coeffs, quadrature_rule(2, 2)), 0.0)
        assert sweep.q_values == pytest.approx(q_values, rel=1e-12, abs=1e-12)
        fitted = fit_decay_constant(profile, 4.0, 1.5, 0.0)
        assert fitted == table_fit_decay_constant(profile, 4.0, 1.5, 0.0)
        outcomes = []
        for factor in (1.0, 0.1):
            inp = DeGiorgiInput(M=fitted * factor, alpha=4.0, beta=1.5, k0=0.0,
                                samples=profile)
            outcomes.append(_verify_outcome(de_giorgi_verify, inp))
            assert outcomes[-1] == _verify_outcome(table_de_giorgi_verify, inp)
        assert isinstance(outcomes[1], tuple)  # the undershooting constant is caught

    def test_zero_level_before_positive_violates(self):
        # phi may rise by rounding-size steps; a zero followed by a positive
        # value fails at the first such pair
        samples = np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 1e-16], [3.0, 0.0]])
        inp = DeGiorgiInput(M=10.0, alpha=1.0, beta=2.0, k0=0.0, samples=samples)
        assert _verify_outcome(de_giorgi_verify, inp) == (1.0, 2.0)
        assert _verify_outcome(table_de_giorgi_verify, inp) == (1.0, 2.0)

    def test_positive_tail_rejected_by_fit(self):
        samples = np.array([[0.0, 1.0], [1.0, 0.5]])
        with pytest.raises(InvalidParameters):
            fit_decay_constant(samples, 1.0, 2.0, 0.0)


class TestDmpParams:
    def test_derived_exponents(self):
        params = DmpParams(p=4.0, r=2.0)
        assert params.q == pytest.approx(4.0 / 3.0)
        assert params.s == pytest.approx(2.0)
        assert params.f_norm_exponent == pytest.approx(8.0 / 3.0)
        assert params.decay_beta == pytest.approx(1.5)

    def test_r_equal_one_gives_sup_norm_exponent(self):
        params = DmpParams(p=3.0, r=1.0)
        assert math.isinf(params.f_norm_exponent)

    def test_validation(self):
        with pytest.raises(InvalidParameters):
            DmpParams(p=2.0, r=1.0)
        with pytest.raises(InvalidParameters):
            DmpParams(p=4.0, r=3.5)
        with pytest.raises(InvalidParameters):
            DmpParams(p=6.5, r=2.0).check_for_dim(3)
        DmpParams(p=6.5, r=2.0).check_for_dim(2)


class TestCertificate:
    def test_full_pipeline_nonpositive_source(self):
        m = generate_structured_2d(8, 8)
        coeffs = poisson(f=-1.0, g=0.0)
        result = picard_solve(m, coeffs)
        cert = dmp_certificate(m, result, coeffs)
        assert cert.k_star == 0.0
        assert cert.sup_uh <= 1e-10
        assert cert.theorem_3_3_verdict == "pass"
        assert cert.verdicts()["element"] == "pass"

    def test_constant_solution_equality_case(self):
        m = generate_structured_2d(4, 4)
        coeffs = poisson(f=0.0, g=5.0)
        result = picard_solve(m, coeffs)
        cert = dmp_certificate(m, result, coeffs)
        assert cert.k_star == pytest.approx(5.0)
        assert cert.sup_uh == pytest.approx(5.0, abs=1e-10)
        assert cert.theorem_3_3_verdict == "pass"

    def test_positive_source_not_applicable(self):
        m = generate_structured_2d(8, 8)
        coeffs = poisson(f=1.0, g=0.0)
        result = picard_solve(m, coeffs)
        cert = dmp_certificate(m, result, coeffs)
        assert cert.theorem_3_3_verdict == "not-applicable"
        assert not cert.theorem_3_3_applicable["f_nonpositive"]
        assert cert.empirical_c is not None and cert.empirical_c > 0
        assert cert.de_giorgi is not None and cert.de_giorgi.all_pass

    def test_unconverged_rejected(self):
        m = generate_structured_2d(4, 4)
        coeffs = poisson()
        fake = SolveResult(u_h=constant_field(m, 0.0), picard_iterations=0,
                           final_update_norm=1.0, final_linear_residual=1.0,
                           converged=False)
        with pytest.raises(NotConverged):
            dmp_certificate(m, fake, coeffs)

    def test_refinement_family_bound_holds(self):
        for n in (4, 8, 16):
            m = generate_structured_2d(n, n)
            coeffs = advection_diffusion([1.0, 0.0], f=-1.0, g=lambda x: x[..., 0])
            result = picard_solve(m, coeffs)
            cert = dmp_certificate(m, result, coeffs)
            assert cert.h_nu < 1.0
            assert cert.theorem_3_3_verdict == "pass", f"n={n}"

    def test_element_sufficiency_implies_sweep(self):
        # whenever the diffusion-only case passes on all pairs, the sweep must
        # hold for every solved field
        rng = np.random.default_rng(3)
        meshes = [generate_structured_2d(4, 4),
                  generate_structured_2d(3, 3, pattern="crisscross"),
                  equilateral_mesh(3, 2)]
        for m in meshes:
            report = element_condition_check(m, poisson(), case="poisson-like")
            assert report.all_pass
            for _ in range(5):
                fc = rng.uniform(-2, 2)
                gc = rng.uniform(-2, 2, size=3)
                coeffs = poisson(
                    f=lambda x, fc=fc: np.full(x.shape[:-1], fc),
                    g=lambda x, gc=gc: gc[0] + gc[1] * x[..., 0] + gc[2] * x[..., 1])
                result = picard_solve(m, coeffs)
                k_star = compute_k_star(m, interpolate_boundary(m, coeffs.g),
                                        coeffs.c_mode)
                sweep = assumption_a_sweep(m, result.u_h, coeffs, k_star=k_star)
                assert sweep.satisfied

    def test_certificate_json_shape(self):
        m = generate_structured_2d(4, 4)
        coeffs = poisson(f=-1.0, g=0.0)
        cert = dmp_certificate(m, picard_solve(m, coeffs), coeffs)
        payload = cert.to_dict()
        expected_keys = {"k_star", "sup_uh", "theorem_3_2", "theorem_3_3",
                         "assumption_a", "element_condition", "edge_condition",
                         "level_sets", "de_giorgi", "params", "mesh", "solve"}
        assert expected_keys <= set(payload)
        for key in ("theorem_3_2", "theorem_3_3", "assumption_a",
                    "element_condition", "edge_condition", "level_sets",
                    "de_giorgi"):
            assert payload[key]["verdict"] in ("pass", "fail", "not-applicable")

    def test_form_parts_computed_once(self, monkeypatch):
        m = generate_structured_2d(6, 6)
        coeffs = poisson(f=1.0)
        result = picard_solve(m, coeffs)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return local_form_parts(*args, **kwargs)

        monkeypatch.setattr(dmpfem.dmp, "local_form_parts", counted)
        monkeypatch.setattr(dmpfem.solver, "local_form_parts", counted)
        dmp_certificate(m, result, coeffs)
        assert len(calls) == 1

    def test_no_per_level_cut_fields(self, monkeypatch):
        m = generate_structured_2d(6, 6)
        coeffs = poisson(f=1.0)
        result = picard_solve(m, coeffs)

        def refused(*args, **kwargs):
            raise AssertionError("the certificate builds a cut field per level")

        for name in ("cut_plus", "cut_minus"):
            monkeypatch.setattr(dmpfem.p1, name, refused)
            monkeypatch.setattr(dmpfem.dmp, name, refused, raising=False)
        cert = dmp_certificate(m, result, coeffs)
        assert len(cert.assumption.k_values) > 1

    def test_3d_certificate(self):
        m = generate_structured_3d(2, 2, 2)
        coeffs = poisson(f=-1.0, g=0.0)
        result = picard_solve(m, coeffs)
        cert = dmp_certificate(m, result, coeffs)
        assert cert.edge_condition is None
        assert cert.to_dict()["edge_condition"]["verdict"] == "not-applicable"
        assert cert.theorem_3_3_verdict == "pass"
