import json
import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sparse
from hypothesis import given, settings, strategies as st

import dmpfem.solver
from dmpfem.errors import (
    CoefficientBoundsViolation,
    LinearSolveDiverged,
    MissingBoundaryValue,
    NonFiniteValue,
    PicardDiverged,
    QuadratureDegreeTooLow,
)
from dmpfem.mesh import build_mesh, generate_structured_2d, generate_structured_3d
from dmpfem.p1 import (
    P1Field,
    constant_field,
    cut_minus,
    cut_plus,
    physical_points,
    quadrature_rule,
)
from dmpfem.solver import (
    CoefficientSet,
    SolveOptions,
    SparseSystem,
    advection_diffusion,
    apply_dirichlet,
    assemble_matrix,
    assemble_q,
    assembly_map,
    check_zeroth_order_condition,
    galerkin_residual,
    interpolate_boundary,
    linear_solve,
    local_form_parts,
    picard_solve,
    poisson,
    q_apply,
    quasilinear_a,
    validate_coefficients,
)

from conftest import (
    KERNEL_B,
    KERNEL_C,
    assemble_every_pass_picard,
    coo_assemble_matrix,
    drift_field,
    einsum_local_form_parts,
    einsum_physical_points,
    perturbed_mesh,
    random_nodal_field,
    random_triangle,
    triangle_vertex_angles,
)


def reaction_set(c_value=1.0):
    """Unit diffusion with a constant reaction, for mass-matrix checks."""
    return CoefficientSet(
        a=lambda x, e, p: np.ones(np.shape(e)),
        b=lambda x, e, p: np.zeros(np.shape(x)),
        c=lambda x, e: np.full(np.shape(e), c_value),
        f=0.0, g=0.0, lam=1.0, Lam=1.0, nu=c_value,
        c_mode="nonnegative", constant_coefficients=True)


class TestCoefficientValidation:
    def test_presets_pass(self):
        m = generate_structured_2d(4, 4)
        for coeffs in (poisson(), advection_diffusion([1.0, -0.5]), quasilinear_a()):
            report = validate_coefficients(coeffs, m, seed=1)
            assert report["a_min"] >= coeffs.lam - 1e-12

    def test_ellipticity_violation(self):
        m = generate_structured_2d(2, 2)
        bad = CoefficientSet(
            a=lambda x, e, p: np.full(np.shape(e), 0.5),
            b=lambda x, e, p: np.zeros(np.shape(x)),
            c=lambda x, e: np.zeros(np.shape(e)),
            f=0.0, g=0.0, lam=1.0, Lam=1.0, nu=0.0, c_mode="identically-zero")
        with pytest.raises(CoefficientBoundsViolation):
            validate_coefficients(bad, m)

    def test_nu_bound_violation(self):
        m = generate_structured_2d(2, 2)
        bad = CoefficientSet(
            a=lambda x, e, p: np.ones(np.shape(e)),
            b=lambda x, e, p: np.broadcast_to(np.array([2.0, 0.0]), np.shape(x)),
            c=lambda x, e: np.zeros(np.shape(e)),
            f=0.0, g=0.0, lam=1.0, Lam=1.0, nu=1.0, c_mode="identically-zero")
        with pytest.raises(CoefficientBoundsViolation):
            validate_coefficients(bad, m)

    def test_c_mode_contradiction(self):
        m = generate_structured_2d(2, 2)
        bad = CoefficientSet(
            a=lambda x, e, p: np.ones(np.shape(e)),
            b=lambda x, e, p: np.zeros(np.shape(x)),
            c=lambda x, e: np.full(np.shape(e), -1.0),
            f=0.0, g=0.0, lam=1.0, Lam=1.0, nu=2.0, c_mode="nonnegative")
        with pytest.raises(CoefficientBoundsViolation):
            validate_coefficients(bad, m)


    @pytest.mark.parametrize("entry", ["a", "b", "c"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_samples_rejected(self, entry, bad):
        # non-finite on half the domain, where every bound comparison is false
        m = generate_structured_2d(8, 8)
        base = poisson()
        spoiled = {
            "a": lambda x, e, p: np.where(x[..., 0] < 0.5, bad, 1.0),
            "b": lambda x, e, p: np.where(x[..., :1] < 0.5, bad, np.zeros(np.shape(x))),
            "c": lambda x, e: np.where(x[..., 0] < 0.5, bad, 0.0),
        }
        coeffs = replace(base, **{entry: spoiled[entry]})
        with pytest.raises(NonFiniteValue, match=f"coefficient {entry} is"):
            validate_coefficients(coeffs, m)


class TestNonFiniteSourceAndBoundary:
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("entry", ["f", "g"])
    def test_picard_solve_rejects(self, entry, bad):
        m = generate_structured_2d(4, 4)
        with pytest.raises(NonFiniteValue, match=f"^{entry} is {bad!r} at x="):
            picard_solve(m, poisson(**{entry: bad}))

    @pytest.mark.parametrize("entry", ["f", "g"])
    def test_names_a_point_where_the_value_is_bad(self, entry):
        m = generate_structured_2d(8, 8)
        spoiled = poisson(**{entry: lambda x: np.where(x[..., 0] > 0.5, np.nan, -1.0)})
        with pytest.raises(NonFiniteValue, match=f"^{entry} is nan at x=") as info:
            picard_solve(m, spoiled)
        x = json.loads(str(info.value).split("x=")[1])
        assert len(x) == 2 and x[0] > 0.5


class TestBoundaryInterpolation:
    def test_constant(self):
        m = generate_structured_2d(3, 3)
        values = interpolate_boundary(m, 1.0)
        assert set(values) == m.boundary_nodes
        assert all(v == 1.0 for v in values.values())

    def test_linear_in_x(self):
        m = generate_structured_2d(2, 2)
        values = interpolate_boundary(m, lambda x: x[..., 0])
        corner_11 = next(j for j in m.boundary_nodes
                         if np.allclose(m.vertices[j], [1, 1]))
        corner_00 = next(j for j in m.boundary_nodes
                         if np.allclose(m.vertices[j], [0, 0]))
        assert values[corner_11] == pytest.approx(1.0)
        assert values[corner_00] == pytest.approx(0.0)

    def test_interpolation_not_projection(self):
        # nodal interpolant of x^2 along a boundary edge differs from x^2 at
        # the edge midpoint
        m = generate_structured_2d(2, 2)
        values = interpolate_boundary(m, lambda x: x[..., 0] ** 2)
        j0 = next(j for j in m.boundary_nodes if np.allclose(m.vertices[j], [0, 0]))
        j1 = next(j for j in m.boundary_nodes if np.allclose(m.vertices[j], [0.5, 0]))
        midpoint_interp = 0.5 * (values[j0] + values[j1])
        assert abs(midpoint_interp - 0.25 ** 2) > 1e-3


class TestAssembly:
    def test_local_poisson_matrix(self, reference_triangle):
        rule = quadrature_rule(2, 2)
        w = constant_field(reference_triangle, 0.0)
        diffusion, advection, reaction = local_form_parts(
            reference_triangle, w, poisson(), rule)
        expected = 0.5 * np.array([[2.0, -1.0, -1.0], [-1.0, 1.0, 0.0],
                                   [-1.0, 0.0, 1.0]])
        assert diffusion[0] == pytest.approx(expected, abs=1e-14)
        assert np.abs(advection).max() == 0.0
        assert np.abs(reaction).max() == 0.0

    def test_local_mass_matrix(self, reference_triangle):
        rule = quadrature_rule(2, 2)
        w = constant_field(reference_triangle, 0.0)
        _, _, reaction = local_form_parts(reference_triangle, w, reaction_set(), rule)
        area = reference_triangle.cell_measures[0]
        expected = area / 12.0 * np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0],
                                           [1.0, 1.0, 2.0]])
        assert reaction[0] == pytest.approx(expected, rel=1e-13)

    def test_local_mass_matrix_3d(self, reference_tet):
        # exact simplex integrals: |T|/10 diagonal, |T|/20 off-diagonal
        rule = quadrature_rule(3, 2)
        w = constant_field(reference_tet, 0.0)
        _, _, reaction = local_form_parts(reference_tet, w, reaction_set(), rule)
        vol = reference_tet.cell_measures[0]
        expected = vol / 20.0 * (np.ones((4, 4)) + np.eye(4))
        assert reaction[0] == pytest.approx(expected, rel=1e-13)

    def test_cotangent_identity_random_triangles(self):
        rng = np.random.default_rng(42)
        rule = quadrature_rule(2, 2)
        for _ in range(50):
            verts = random_triangle(rng)
            m = build_mesh(verts, [[0, 1, 2]])
            w = constant_field(m, 0.0)
            diffusion, _, _ = local_form_parts(m, w, poisson(), rule)
            angles = triangle_vertex_angles(m.vertices[m.cells[0]])
            for i in range(3):
                for j in range(3):
                    if i == j:
                        continue
                    opposite = 3 - i - j
                    expected = -0.5 / math.tan(angles[opposite])
                    assert diffusion[0, i, j] == pytest.approx(expected, rel=1e-12)

    def test_rhs_is_load_vector(self, reference_triangle):
        system = assemble_q(reference_triangle, constant_field(reference_triangle, 0.0),
                            poisson(f=1.0, g=0.0), quadrature_rule(2, 2))
        # integral of each shape function is |T| / 3
        assert system.rhs == pytest.approx(np.full(3, 0.5 / 3.0), rel=1e-14)

    def test_low_degree_warning_for_nonconstant(self):
        m = generate_structured_2d(2, 2)
        with pytest.warns(QuadratureDegreeTooLow):
            assemble_q(m, constant_field(m, 0.0), quasilinear_a(),
                       quadrature_rule(2, 2))

    def test_matrix_independent_of_state_for_linear(self):
        m = generate_structured_2d(3, 3)
        coeffs = advection_diffusion([0.7, -0.3], f=-1.0, g=0.0)
        rng = np.random.default_rng(0)
        a0 = assemble_q(m, constant_field(m, 0.0), coeffs).matrix
        a1 = assemble_q(m, random_nodal_field(m, rng), coeffs).matrix
        assert np.array_equal(a0.toarray(), a1.toarray())

    def test_sparsity_pattern_symmetric(self):
        m = generate_structured_2d(3, 3)
        coeffs = advection_diffusion([1.0, 0.0])
        system = assemble_q(m, constant_field(m, 0.0), coeffs)
        pattern = (system.matrix != 0).astype(int)
        assert (pattern != pattern.T).nnz == 0


class TestKernelOracles:
    """The quadrature-first contractions against the one-einsum oracles."""

    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(dim=st.sampled_from([2, 3]), n=st.integers(1, 4),
           pattern=st.sampled_from(["right-diagonal", "crisscross"]),
           amount=st.floats(0.0, 0.15), degree=st.sampled_from([2, 4]),
           b_kind=st.sampled_from(sorted(KERNEL_B)),
           c_kind=st.sampled_from(sorted(KERNEL_C)),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_einsum_oracles(self, dim, n, pattern, amount, degree,
                                    b_kind, c_kind, seed):
        rng = np.random.default_rng(seed)
        base = generate_structured_2d(n + 1, n, pattern=pattern) if dim == 2 \
            else generate_structured_3d(n, n, n + 1)
        m = perturbed_mesh(base, rng, amount)
        rule = quadrature_rule(dim, degree)
        coeffs = CoefficientSet(
            a=lambda x, e, p: 1.0 + 0.5 * np.cos(e + x[..., 0]),
            b=KERNEL_B[b_kind], c=KERNEL_C[c_kind],
            f=0.0, g=0.0, lam=0.5, Lam=1.5, nu=10.0)
        w = random_nodal_field(m, rng)

        points = physical_points(m, rule)
        assert points.flags.c_contiguous
        assert points.tobytes() == einsum_physical_points(m, rule).tobytes()
        got = local_form_parts(m, w, coeffs, rule)
        want = einsum_local_form_parts(m, w, coeffs, rule)
        assert got[0].tobytes() == want[0].tobytes()
        for kind, new, old in ((b_kind, got[1], want[1]), (c_kind, got[2], want[2])):
            if kind.startswith("zero"):
                assert np.array_equal(new, old)  # +0.0 == -0.0
            else:
                assert np.abs(new - old).max() <= 1e-14 * np.abs(old).max()

    def test_no_einsum_beyond_three_operands(self, monkeypatch):
        m = generate_structured_3d(2, 2, 2)
        einsum = np.einsum
        operands = []

        def counted(subscripts, *arrays, **kwargs):
            operands.append(len(arrays))
            return einsum(subscripts, *arrays, **kwargs)

        monkeypatch.setattr(np, "einsum", counted)
        local_form_parts(m, constant_field(m, 0.0),
                         advection_diffusion([1.0, -2.0, 0.5], c0=0.5),
                         quadrature_rule(3, 4))
        assert operands and max(operands) <= 3


class TestCallCounts:
    def test_assembly_computes_points_once(self, monkeypatch):
        m = generate_structured_2d(4, 4)
        calls = []

        def counted(*args):
            calls.append(args)
            return physical_points(*args)

        monkeypatch.setattr(dmpfem.solver, "physical_points", counted)
        for coeffs in (poisson(f=lambda x: x[..., 0]), quasilinear_a()):
            calls.clear()
            assemble_q(m, constant_field(m, 0.0), coeffs)
            assert len(calls) == 1

    @pytest.mark.parametrize("dim", [2, 3])
    def test_constant_coefficient_solve_assembles_once(self, monkeypatch, dim):
        m = generate_structured_2d(6, 6) if dim == 2 else generate_structured_3d(3, 3, 3)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return local_form_parts(*args, **kwargs)

        monkeypatch.setattr(dmpfem.solver, "local_form_parts", counted)
        result = picard_solve(m, poisson(f=1.0))
        assert result.picard_iterations == 1
        assert len(calls) == 1

    def test_state_dependent_solve_hoists_points_and_load(self, monkeypatch):
        m = generate_structured_2d(6, 6)
        f_calls, point_calls = [], []

        def f(x):
            f_calls.append(x.shape)
            return -1.0 - x[..., 0] * x[..., 1]

        def counted(*args):
            point_calls.append(args)
            return physical_points(*args)

        monkeypatch.setattr(dmpfem.solver, "physical_points", counted)
        result = picard_solve(m, quasilinear_a(f=f))
        assert result.picard_iterations > 2
        assert len(point_calls) == 1
        assert len(f_calls) == 1

    def test_no_coo_conversion_in_the_loop(self, monkeypatch):
        m = generate_structured_2d(6, 6)
        made = []
        init = sparse.coo_matrix.__init__

        def counted(self, *args, **kwargs):
            made.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(sparse.coo_matrix, "__init__", counted)
        for coeffs in (quasilinear_a(f=-1.0), advection_diffusion([3.0, -2.0], c0=0.5)):
            picard_solve(m, coeffs)
        assert made == []


def _map_oracle_cases():
    rng = np.random.default_rng(11)
    return {
        "right-diagonal": generate_structured_2d(7, 5),
        "crisscross-perturbed": perturbed_mesh(
            generate_structured_2d(6, 6, pattern="crisscross"), rng, 0.15),
        "skewed": generate_structured_2d(5, 6, skew=0.4),
        "kuhn": generate_structured_3d(3, 4, 2),
        "kuhn-perturbed": perturbed_mesh(generate_structured_3d(3, 3, 3), rng, 0.1),
    }


class TestAssemblyMap:
    """The one-`bincount` scatter against scipy's COO -> CSR assembly."""

    @pytest.mark.parametrize("name", sorted(_map_oracle_cases()))
    def test_matches_coo_assembly(self, name):
        m = _map_oracle_cases()[name]
        rng = np.random.default_rng(5)
        w = random_nodal_field(m, rng)
        drift = [0.7, -1.3, 0.4][:m.dim]
        coeffs = CoefficientSet(
            a=lambda x, e, p: 1.0 + 0.5 * np.cos(e + x[..., 0]),
            b=lambda x, e, p: drift_field(x, e, p) + np.asarray(drift),
            c=lambda x, e: 1.0 + e ** 2,
            f=0.0, g=0.0, lam=0.5, Lam=1.5, nu=10.0)
        layout = assembly_map(m)
        for values in (coeffs, quasilinear_a()):
            parts = local_form_parts(m, w, values, quadrature_rule(m.dim, 4))
            got = assemble_matrix(m, parts, layout)
            want = coo_assemble_matrix(m, parts)
            assert got.has_canonical_format
            assert np.array_equal(got.indptr, want.indptr)
            assert np.array_equal(got.indices, want.indices)
            assert np.abs(got.data - want.data).max() <= 1e-15 * np.abs(want.data).max()
            assert np.array_equal(assemble_matrix(m, parts).data, got.data)


class TestPicardStructureReuse:
    """Picard with hoisted points, load vector and assembly map against the
    oracle that assembles everything on every pass."""

    @pytest.mark.parametrize("case", ["quasilinear-crisscross", "drift-damped",
                                      "quasilinear-kuhn"])
    def test_matches_assemble_every_pass(self, case):
        opts = SolveOptions()
        if case == "quasilinear-crisscross":
            m = generate_structured_2d(10, 10, pattern="crisscross")
            coeffs = quasilinear_a(f=-1.0, g=lambda x: x[..., 0] * x[..., 1])
        elif case == "drift-damped":
            m = generate_structured_2d(10, 8, skew=0.2)
            coeffs = advection_diffusion([3.0, -2.0], f=-1.0, g=0.5, c0=0.5)
            opts = SolveOptions(damping=0.5)
        else:
            m = generate_structured_3d(4, 4, 4)
            coeffs = quasilinear_a(f=1.0)
        oracle = assemble_every_pass_picard(m, coeffs, opts)
        result = picard_solve(m, coeffs, opts)
        assert result.picard_iterations == oracle.picard_iterations > 1
        assert result.converged and oracle.converged
        want = oracle.u_h.nodal_values
        assert np.abs(result.u_h.nodal_values - want).max() <= 1e-13 * np.abs(want).max()


class TestFactorReuse:
    """Constant-coefficient problems are factored once; the confirming pass
    reuses the first solve and the result stays the same."""

    @pytest.mark.parametrize("case", ["poisson-2d", "drift-2d", "poisson-3d",
                                      "drift-damped-2d"])
    def test_one_factorization_same_result(self, monkeypatch, case):
        m = generate_structured_3d(4, 4, 4) if case.endswith("3d") \
            else generate_structured_2d(12, 12)
        coeffs = poisson(f=1.0) if case.startswith("poisson") \
            else advection_diffusion([3.0, -2.0], f=-1.0, g=0.5, c0=0.5)
        opts = SolveOptions(damping=0.5) if "damped" in case else SolveOptions()
        oracle = assemble_every_pass_picard(m, coeffs, opts)
        calls = _count_factorizations(monkeypatch)
        result = picard_solve(m, coeffs, opts)
        assert len(calls) == result.factorizations == 1
        assert result.refinement_steps == 0
        assert result.u_h.nodal_values.tobytes() == oracle.u_h.nodal_values.tobytes()
        assert _without_counts(result) == _without_counts(oracle)


def _count_factorizations(monkeypatch) -> list:
    splu = dmpfem.solver.spla.splu
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return splu(*args, **kwargs)

    monkeypatch.setattr(dmpfem.solver.spla, "splu", counted)
    return calls


def _without_counts(result) -> dict:
    record = result.to_dict()
    del record["factorizations"], record["refinement_steps"]
    return record


class TestKeptFactor:
    """State-dependent solves factor once and refine later passes with that
    factor, against the oracle that factors every pass."""

    CASES = {
        "quasilinear-6": lambda: (generate_structured_2d(6, 6), quasilinear_a(f=-1.0)),
        "quasilinear-32": lambda: (generate_structured_2d(32, 32), quasilinear_a(f=-1.0)),
        "quasilinear-kuhn-4": lambda: (generate_structured_3d(4, 4, 4), quasilinear_a(f=1.0)),
        # the zero-state factor does not contract here: the fallback refactors
        "stalling-32": lambda: (generate_structured_2d(32, 32), quasilinear_a(f=-50.0)),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_factor_every_pass(self, monkeypatch, case):
        m, coeffs = self.CASES[case]()
        oracle = assemble_every_pass_picard(m, coeffs)
        calls = _count_factorizations(monkeypatch)
        result = picard_solve(m, coeffs)
        assert result.converged and result.picard_iterations == oracle.picard_iterations > 2
        assert len(calls) == result.factorizations
        assert result.factorizations == (1 if case.startswith("quasilinear") else 2)
        assert result.refinement_steps >= result.picard_iterations
        want = oracle.u_h.nodal_values
        assert np.abs(result.u_h.nodal_values - want).max() <= 1e-13 * np.abs(want).max()
        assert result.final_update_norm > 0.0
        assert galerkin_residual(m, result.u_h, coeffs) <= 1e-10

    def test_counts_recorded(self):
        # passes 2-5 refine in 7, 5, 4 and 3 steps with the first pass's factor
        m, coeffs = self.CASES["quasilinear-6"]()
        record = picard_solve(m, coeffs).to_dict()
        assert (record["picard_iterations"], record["factorizations"],
                record["refinement_steps"]) == (4, 1, 19)

    def test_one_residual_per_pass(self, monkeypatch):
        # a refined pass records the residual its refinement computed, with
        # the bits of the residual formula
        m, coeffs = self.CASES["quasilinear-6"]()
        residual, solve = dmpfem.solver._relative_residual, dmpfem.solver.linear_solve
        residual_calls, solves = [], []

        def counted_residual(*args):
            residual_calls.append(args)
            return residual(*args)

        def recorded_solve(system, *args):
            x = solve(system, *args)
            solves.append((system, x))
            return x

        monkeypatch.setattr(dmpfem.solver, "_relative_residual", counted_residual)
        monkeypatch.setattr(dmpfem.solver, "linear_solve", recorded_solve)
        result = picard_solve(m, coeffs)
        assert len(residual_calls) == result.factorizations == 1
        assert len(solves) == result.picard_iterations + 1
        system, x = solves[-1]
        assert result.final_linear_residual == residual(system.matrix, system.rhs, x)

    def test_zero_refine_budget_factors_every_pass(self, monkeypatch):
        m, coeffs = self.CASES["quasilinear-6"]()
        oracle = assemble_every_pass_picard(m, coeffs)
        monkeypatch.setattr(dmpfem.solver, "REFINE_STEPS", 0)
        calls = _count_factorizations(monkeypatch)
        result = picard_solve(m, coeffs)
        assert len(calls) == result.factorizations == result.picard_iterations + 1 > 2
        assert result.u_h.nodal_values.tobytes() == oracle.u_h.nodal_values.tobytes()
        assert result.to_dict() == oracle.to_dict()

    def test_pass_without_refinement_step_refactors(self, monkeypatch):
        # even a start that already solves the system is not taken unrefined,
        # so a budget of 0 is the factor-every-pass solve
        monkeypatch.setattr(dmpfem.solver, "REFINE_STEPS", 0)
        system = SparseSystem(sparse.identity(4, format="csr"), np.ones(4))
        kept = dmpfem.solver.KeptFactor()
        for _ in range(2):
            linear_solve(system, kept=kept, x0=system.rhs)
        assert kept.factorizations == 2 and kept.refinement_steps == 0

    @pytest.mark.parametrize("bad", [0.0, np.nan])
    def test_singular_or_nan_system_still_fails(self, bad):
        # refinement with the kept identity factor cannot lower the residual,
        # so the pass refactors, and that factorization fails as before
        n = 6
        rhs = np.ones(n)
        kept = dmpfem.solver.KeptFactor()
        linear_solve(SparseSystem(sparse.identity(n, format="csr"), rhs), kept=kept)
        matrix = sparse.identity(n, format="lil")
        matrix[3, 3] = bad
        with pytest.raises(LinearSolveDiverged):
            linear_solve(SparseSystem(matrix.tocsr(), rhs), kept=kept, x0=rhs)
        assert kept.factorizations == 1 and kept.refinement_steps == 1


class TestDirichlet:
    def test_all_nodes_constrained(self, reference_triangle):
        coeffs = poisson(f=0.0, g=lambda x: x[..., 0])
        result = picard_solve(reference_triangle, coeffs)
        expected = reference_triangle.vertices[:, 0]
        assert result.u_h.nodal_values == pytest.approx(expected, abs=1e-12)

    def test_zero_data_keeps_interior_rhs(self):
        m = generate_structured_2d(3, 3)
        coeffs = poisson(f=-1.0, g=0.0)
        system = assemble_q(m, constant_field(m, 0.0), coeffs)
        constrained = apply_dirichlet(system, interpolate_boundary(m, 0.0), m)
        interior = ~m.boundary_mask()
        assert constrained.rhs[interior] == pytest.approx(system.rhs[interior],
                                                          abs=0.0)

    def test_constrained_rows_act_as_identity(self):
        m = generate_structured_2d(3, 3)
        coeffs = advection_diffusion([0.3, 0.9], f=-1.0, g=lambda x: x[..., 1])
        system = assemble_q(m, constant_field(m, 0.0), coeffs)
        assignment = interpolate_boundary(m, coeffs.g)
        constrained = apply_dirichlet(system, assignment, m)
        probe = np.sin(np.arange(m.num_vertices, dtype=float))
        image = constrained.matrix @ probe
        pinned = list(assignment)
        assert image[pinned] == pytest.approx(probe[pinned], abs=0.0)
        assert constrained.rhs[pinned] == pytest.approx(
            list(assignment.values()), abs=0.0)

    def test_missing_value_rejected(self):
        m = generate_structured_2d(2, 2)
        system = assemble_q(m, constant_field(m, 0.0), poisson())
        assignment = interpolate_boundary(m, 0.0)
        assignment.pop(next(iter(assignment)))
        with pytest.raises(MissingBoundaryValue):
            apply_dirichlet(system, assignment, m)

    def test_affine_exactness(self):
        m = generate_structured_2d(5, 4, skew=0.2)
        coeffs = poisson(f=0.0, g=lambda x: 2.0 * x[..., 0] - 3.0 * x[..., 1] + 1.0)
        result = picard_solve(m, coeffs)
        exact = 2.0 * m.vertices[:, 0] - 3.0 * m.vertices[:, 1] + 1.0
        assert np.abs(result.u_h.nodal_values - exact).max() <= 1e-10

    def test_affine_exactness_3d(self):
        from dmpfem.mesh import generate_structured_3d
        m = generate_structured_3d(2, 2, 2)
        coeffs = poisson(
            f=0.0, g=lambda x: x[..., 0] - 2.0 * x[..., 1] + 0.5 * x[..., 2])
        result = picard_solve(m, coeffs)
        exact = m.vertices[:, 0] - 2.0 * m.vertices[:, 1] + 0.5 * m.vertices[:, 2]
        assert np.abs(result.u_h.nodal_values - exact).max() <= 1e-10

    def test_matches_diagonal_projection(self):
        # Oracle: diag(free) A diag(free) + diag(pinned), b - A lift on free rows.
        m = generate_structured_2d(4, 3, skew=0.3)
        coeffs = advection_diffusion([0.7, -0.4], f=-1.0, c0=0.2,
                                     g=lambda x: 1.0 + x[..., 0])
        system = assemble_q(m, constant_field(m, 0.0), coeffs)
        assignment = interpolate_boundary(m, coeffs.g)
        constrained = apply_dirichlet(system, assignment, m)
        mask = np.zeros(m.num_vertices, dtype=bool)
        lift = np.zeros(m.num_vertices)
        for j, v in assignment.items():
            mask[j], lift[j] = True, v
        free = np.diag((~mask).astype(float))
        a = system.matrix.toarray()
        expected = free @ a @ free + np.diag(mask.astype(float))
        assert constrained.matrix.toarray() == pytest.approx(expected, abs=0.0)
        rhs = np.where(mask, lift, system.rhs - a @ lift)
        assert constrained.rhs == pytest.approx(rhs, rel=1e-14, abs=1e-15)
        assert constrained.rhs[mask] == pytest.approx(lift[mask], abs=0.0)


class TestLinearSolve:
    def test_identity_returns_rhs(self):
        n = 10
        rhs = np.arange(n, dtype=float)
        system = SparseSystem(sparse.identity(n, format="csr"), rhs)
        assert linear_solve(system) == pytest.approx(rhs, abs=1e-14)

    @pytest.mark.parametrize("case", [
        "poisson-2d-484-nodes", "poisson-2d-529-nodes", "drift-2d", "strong-drift-2d",
        "poisson-3d-kuhn"])
    def test_matches_dense_oracle(self, case):
        # 484 and 529 nodes straddle the size at which an earlier solver
        # switched from dense LU to an iterative method.
        from dmpfem.mesh import generate_structured_3d
        if case == "poisson-2d-484-nodes":
            m, coeffs = generate_structured_2d(21, 21), poisson(f=1.0, g=0.0)
        elif case == "poisson-2d-529-nodes":
            m, coeffs = generate_structured_2d(22, 22), poisson(f=1.0, g=0.0)
        elif case == "drift-2d":
            m = generate_structured_2d(16, 16)
            coeffs = advection_diffusion([3.0, -2.0], f=-1.0, c0=0.5,
                                         g=lambda x: x[..., 0] - x[..., 1])
        elif case == "strong-drift-2d":
            # nonsymmetric, with positive off-diagonals: pivoting matters
            m = generate_structured_2d(32, 32)
            coeffs = advection_diffusion([40.0, -30.0], f=-1.0, g=lambda x: x[..., 1])
        else:
            m, coeffs = generate_structured_3d(7, 7, 7), poisson(f=1.0, g=0.0)
        system = apply_dirichlet(assemble_q(m, constant_field(m, 0.0), coeffs),
                                 interpolate_boundary(m, coeffs.g), m)
        dense = np.linalg.solve(system.matrix.toarray(), system.rhs)
        x = linear_solve(system)
        assert np.abs(x - dense).max() <= 1e-10 * np.abs(dense).max()

    def test_divergence_reported(self):
        # a zero row (singular factor) and a NaN entry both fail the factorization
        n = 6
        for bad in (0.0, np.nan):
            matrix = sparse.identity(n, format="lil")
            matrix[3, 3] = bad
            system = SparseSystem(matrix.tocsr(), np.ones(n))
            with pytest.raises(LinearSolveDiverged):
                linear_solve(system)


class TestPicard:
    def test_linear_problem_single_iteration(self):
        m = generate_structured_2d(4, 4)
        result = picard_solve(m, advection_diffusion([1.0, 0.0], f=-1.0, g=0.0))
        assert result.converged
        assert result.picard_iterations == 1
        assert result.final_update_norm <= 1e-10

    def test_quasilinear_converges_nonpositive(self):
        m = generate_structured_2d(8, 8)
        coeffs = quasilinear_a(f=-1.0, g=0.0)
        result = picard_solve(m, coeffs)
        assert result.converged
        assert result.u_h.max_value() <= 1e-12
        assert galerkin_residual(m, result.u_h, coeffs) <= 10 * 1e-10

    def test_constant_boundary_data_reproduced(self):
        m = generate_structured_2d(4, 4)
        result = picard_solve(m, advection_diffusion([0.5, 0.5], f=0.0, g=5.0))
        assert result.u_h.nodal_values == pytest.approx(np.full(m.num_vertices, 5.0),
                                                        abs=1e-10)

    def test_divergence_with_zero_budget(self):
        m = generate_structured_2d(4, 4)
        with pytest.raises(PicardDiverged):
            picard_solve(m, poisson(), SolveOptions(picard_max_iter=0))

    def test_converged_iterate_satisfies_galerkin_identity(self):
        m = generate_structured_2d(8, 8)
        coeffs = quasilinear_a(f=lambda x: np.sin(3 * x[..., 0]) - 2.0, g=0.0)
        result = picard_solve(m, coeffs)
        assert galerkin_residual(m, result.u_h, coeffs) <= 10 * 1e-10


class TestGalerkinResidual:
    @pytest.mark.parametrize("exponent", [-40, -3, 5, 30])
    def test_scale_free(self, exponent):
        # f, g and u_h scaled by a power of two scale the load and A u exactly
        m = generate_structured_2d(8, 8, skew=0.2)
        f = lambda x: np.sin(3.0 * x[..., 0]) - 0.5  # noqa: E731
        g = lambda x: x[..., 0] - 2.0 * x[..., 1]  # noqa: E731
        u_h = picard_solve(m, poisson(f=f, g=g)).u_h
        s = 2.0 ** exponent
        scaled = poisson(f=lambda x: s * f(x), g=lambda x: s * g(x))
        residual = galerkin_residual(m, u_h, poisson(f=f, g=g))
        assert galerkin_residual(m, P1Field(m, s * u_h.nodal_values), scaled) == residual
        assert 0.0 < residual <= 1e-12

    def test_constant_field_is_not_a_solution(self):
        # A u vanishes on the interior rows of a constant field, so all of the
        # load is residual; the old denominator max(|F|, 1) read 0.11 here
        m = generate_structured_2d(8, 8)
        assert galerkin_residual(m, constant_field(m, -5.0), poisson(f=-1.0, g=0.0)) == 1.0
        assert galerkin_residual(m, constant_field(m, 0.0), poisson(f=0.0, g=0.0)) == 0.0


class TestQApply:
    def test_zero_test_function(self):
        m = generate_structured_2d(3, 3)
        rng = np.random.default_rng(1)
        w, u = (random_nodal_field(m, rng) for _ in range(2))
        zero = constant_field(m, 0.0)
        assert q_apply(m, w, u, zero, poisson()) == 0.0

    def test_dirichlet_energy_nonnegative(self):
        m = generate_structured_2d(4, 4)
        rng = np.random.default_rng(8)
        for _ in range(5):
            v = random_nodal_field(m, rng)
            assert q_apply(m, v, v, v, poisson()) >= 0.0

    def test_constant_trial_reduces_to_reaction(self):
        # with a constant trial function only the reaction term survives:
        # value must equal k * integral(c v), here with c = 1
        m = generate_structured_2d(3, 3)
        rng = np.random.default_rng(3)
        v = random_nodal_field(m, rng)
        k = 1.7
        value = q_apply(m, v, constant_field(m, k), v, reaction_set(c_value=1.0))
        rule = quadrature_rule(2, 2)
        vals = v.values_in_cells(rule)
        integral_v = float(np.einsum("cq,q,c->", vals, rule.weights,
                                     m.cell_measures))
        assert value == pytest.approx(k * integral_v, rel=1e-12)

    def test_matrix_form_matches(self):
        m = generate_structured_2d(4, 4)
        rng = np.random.default_rng(17)
        coeffs = advection_diffusion([0.4, -0.2], c0=0.3)
        w, u, v = (random_nodal_field(m, rng) for _ in range(3))
        system = assemble_q(m, w, coeffs)
        direct = float(v.nodal_values @ (system.matrix @ u.nodal_values))
        assert q_apply(m, w, u, v, coeffs) == pytest.approx(direct, rel=1e-12)

    def test_bilinearity(self):
        m = generate_structured_2d(3, 3)
        rng = np.random.default_rng(21)
        coeffs = quasilinear_a()
        w, u1, u2, v = (random_nodal_field(m, rng) for _ in range(4))
        alpha, beta = 1.3, -0.7
        combo = P1Field(m, alpha * u1.nodal_values + beta * u2.nodal_values)
        lhs = q_apply(m, w, combo, v, coeffs)
        rhs = alpha * q_apply(m, w, u1, v, coeffs) + beta * q_apply(m, w, u2, v, coeffs)
        scale = max(1.0, abs(lhs), abs(rhs))
        assert abs(lhs - rhs) <= 1e-12 * scale


class TestCutInequality:
    """The form applied to (v, cut_plus) dominates the split terms whenever
    k respects the reaction sign mode."""

    @pytest.mark.parametrize("mode", ["nonneg", "zero"])
    def test_random_fields(self, mode):
        m = generate_structured_2d(8, 8)
        rng = np.random.default_rng(5 if mode == "nonneg" else 6)
        coeffs = reaction_set(1.0) if mode == "nonneg" else \
            advection_diffusion([0.8, -0.4], f=0.0, g=0.0)
        system = assemble_q(m, constant_field(m, 0.0), coeffs)
        a = system.matrix
        for _ in range(50):
            v = random_nodal_field(m, rng, scale=2.0)
            k = float(rng.uniform(0.0, 1.5)) if mode == "nonneg" \
                else float(rng.uniform(-1.5, 1.5))
            plus = cut_plus(v, k).nodal_values
            minus = cut_minus(v, k).nodal_values
            lhs = plus @ (a @ v.nodal_values)
            rhs = plus @ (a @ plus) + plus @ (a @ minus)
            scale = max(1.0, abs(lhs), abs(rhs))
            assert lhs >= rhs - 1e-10 * scale


class TestZerothOrderCondition:
    def test_no_drift_nonneg_reaction(self):
        m = generate_structured_2d(3, 3)
        report = check_zeroth_order_condition(m, constant_field(m, 0.0),
                                              reaction_set(2.0))
        assert report.condition_holds
        assert report.min_value == pytest.approx(2.0, rel=1e-12)

    def test_constant_drift(self):
        m = generate_structured_2d(3, 3)
        coeffs = advection_diffusion([1.0, 0.0])
        report = check_zeroth_order_condition(m, constant_field(m, 0.0), coeffs)
        assert report.condition_holds
        assert report.min_value == pytest.approx(0.0, abs=1e-12)

    def test_expanding_drift_fails(self):
        m = generate_structured_2d(3, 3)

        def radial(x, e, p):
            return x

        with_div = CoefficientSet(
            a=lambda x, e, p: np.ones(np.shape(e)),
            b=radial,
            c=lambda x, e: np.zeros(np.shape(e)),
            f=0.0, g=0.0, lam=1.0, Lam=1.0, nu=2.0, c_mode="identically-zero",
            div_b=lambda x, e, p: np.full(np.shape(e), 2.0))
        report = check_zeroth_order_condition(m, constant_field(m, 0.0), with_div)
        assert not report.condition_holds
        assert report.min_value == pytest.approx(-1.0, rel=1e-12)
        assert report.used_supplied_divergence

        without_div = CoefficientSet(
            a=lambda x, e, p: np.ones(np.shape(e)),
            b=radial,
            c=lambda x, e: np.zeros(np.shape(e)),
            f=0.0, g=0.0, lam=1.0, Lam=1.0, nu=2.0, c_mode="identically-zero")
        fd = check_zeroth_order_condition(m, constant_field(m, 0.0), without_div)
        assert not fd.condition_holds
        assert fd.min_value == pytest.approx(-1.0, rel=1e-6)
        assert not fd.used_supplied_divergence

    def test_state_dependent_drift_divergence(self):
        # drift (eta, 0) composed with a linear state has divergence du/dx
        m = generate_structured_2d(4, 4)
        u = P1Field(m, 3.0 * m.vertices[:, 0])
        coeffs = CoefficientSet(
            a=lambda x, e, p: np.ones(np.shape(e)),
            b=lambda x, e, p: np.stack([e, np.zeros(np.shape(e))], axis=-1),
            c=lambda x, e: np.zeros(np.shape(e)),
            f=0.0, g=0.0, lam=1.0, Lam=1.0, nu=20.0, c_mode="identically-zero")
        report = check_zeroth_order_condition(m, u, coeffs)
        assert report.min_value == pytest.approx(-1.5, rel=1e-6)
