import json
import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sparse
from hypothesis import given, settings, strategies as st

import dmpfem.solver
from dmpfem import expressions
from dmpfem.errors import (
    CoefficientBoundsViolation,
    LinearSolveDiverged,
    MissingBoundaryValue,
    NonFiniteValue,
    PicardDiverged,
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
    SPOT_RANGE,
    SPOT_SAMPLES,
    CoefficientSet,
    SolveOptions,
    SparseSystem,
    advection_diffusion,
    apply_dirichlet,
    assemble_matrix,
    assemble_q,
    assembly_map,
    backward_error,
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
    dict_apply_dirichlet,
    drift_field,
    einsum_local_form_parts,
    einsum_physical_points,
    loop_boundary_nodes,
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

    @pytest.mark.parametrize("value, holds", [(1.0 - 1e-13, True), (2.0 + 1e-13, True),
                                              (0.1, False), (2.5, False)])
    @pytest.mark.parametrize("scale", [1.0, 2.0 ** -45])
    def test_bounds_on_a_keep_their_verdict_under_scaling(self, value, holds, scale):
        # lam = 1, Lam = 2 and a constant, all scaled together: at 2^-45 an
        # absolute slack of 1e-12 would exceed lam and pass a = 0.1 lam
        m = generate_structured_2d(2, 2)
        coeffs = CoefficientSet(
            a=lambda x, e, p: np.full(np.shape(e), value * scale),
            b=lambda x, e, p: np.zeros(np.shape(x)),
            c=lambda x, e: np.zeros(np.shape(e)),
            f=0.0, g=0.0, lam=scale, Lam=2.0 * scale, nu=0.0, c_mode="identically-zero")
        if holds:
            assert validate_coefficients(coeffs, m)["a_min"] == value * scale
        else:
            with pytest.raises(CoefficientBoundsViolation):
                validate_coefficients(coeffs, m)

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


def spot_check_draws(mesh, seed):
    """The (x, eta, p) samples that `validate_coefficients` hands to a."""
    seen = {}

    def a(x, eta, p):
        seen.update(x=x.copy(), eta=eta.copy(), p=p.copy())
        return np.ones(np.shape(eta))

    validate_coefficients(replace(poisson(), a=a), mesh, seed=seed)
    return seen


class TestSpotCheckDraws:
    @pytest.mark.parametrize("mesh", [generate_structured_2d(3, 4, skew=0.3),
                                      generate_structured_3d(2, 1, 2)],
                             ids=["2d", "3d"])
    def test_each_sample_lies_in_its_cell(self, mesh):
        draws = spot_check_draws(mesh, seed=5)
        x = draws["x"]
        assert x.shape == (SPOT_SAMPLES, mesh.dim)
        # the first SPOT_SAMPLES uniforms of the stream pick the cells
        u = np.random.default_rng(5).random(SPOT_SAMPLES)
        cells = np.floor(u * mesh.num_cells).astype(np.int64)
        assert len(np.unique(cells)) == mesh.num_cells
        corners = mesh.vertices[mesh.cells[cells]]  # (S, dim + 1, dim)
        edges = (corners[:, 1:] - corners[:, :1]).transpose(0, 2, 1)
        tail = np.linalg.solve(edges, (x - corners[:, 0])[..., None])[..., 0]
        bary = np.column_stack([1.0 - tail.sum(axis=1), tail])
        assert bary.min() >= -1e-12 and bary.max() <= 1.0 + 1e-12

    def test_state_and_gradient_in_range(self):
        draws = spot_check_draws(generate_structured_3d(1, 1, 1), seed=3)
        assert draws["eta"].shape == (SPOT_SAMPLES,)
        assert draws["p"].shape == (SPOT_SAMPLES, 3)
        for values in (draws["eta"], draws["p"]):
            assert values.min() >= -SPOT_RANGE and values.max() < SPOT_RANGE
            assert values.min() < -0.9 * SPOT_RANGE and values.max() > 0.9 * SPOT_RANGE

    def test_seeded_and_wrapped_modulo_two_to_the_64(self):
        m = generate_structured_2d(4, 4)

        def bits(seed):
            draws = spot_check_draws(m, seed)
            return [draws[k].tobytes() for k in ("x", "eta", "p")]

        assert bits(7) == bits(7)
        assert bits(-1) == bits(2 ** 64 - 1)
        assert bits(2 ** 64) == bits(0)
        assert all(b0 != b1 for b0, b1 in zip(bits(0), bits(1)))

    def test_seed_zero_stream_pinned(self):
        # numpy's PCG64 stream for seed 0 is stable across releases (NEP 19);
        # a change to it, or to the order of the draws, shows here
        draws = spot_check_draws(generate_structured_2d(4, 4), seed=0)
        assert draws["x"][0].tolist() == [0.7486681304835237, 0.5697480475612425]
        assert draws["eta"][:2].tolist() == [2.0694911645890564, 0.24659964993618821]
        assert draws["p"][0].tolist() == [7.704084439577098, 3.8129090307936657]


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
        assert values.shape == m.boundary_nodes.shape
        assert all(v == 1.0 for v in values)

    def test_linear_in_x(self):
        m = generate_structured_2d(2, 2)
        values = dict(zip(m.boundary_nodes.tolist(),
                          interpolate_boundary(m, lambda x: x[..., 0])))
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
        values = dict(zip(m.boundary_nodes.tolist(),
                          interpolate_boundary(m, lambda x: x[..., 0] ** 2)))
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
                            poisson(f=1.0, g=0.0))
        # integral of each shape function is |T| / 3
        assert system.rhs == pytest.approx(np.full(3, 0.5 / 3.0), rel=1e-14)

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


def formula_set(dim, b_sources, c_source, wrap=False):
    """A CoefficientSet of formula closures, each wrapped in a plain lambda
    (no `variables`) when `wrap`."""
    a = expressions.state_function("1 + eta^2/(1+eta^2)", dim)
    b = expressions.vector_state_function(b_sources, dim)
    c = expressions.state_function(c_source, dim, with_gradient=False)
    if wrap:
        a_formula, b_formula, c_formula = a, b, c
        a = lambda x, e, p: a_formula(x, e, p)
        b = lambda x, e, p: b_formula(x, e, p)
        c = lambda x, e: c_formula(x, e)
    return CoefficientSet(a=a, b=b, c=c, f=0.0, g=0.0, lam=1.0, Lam=2.0, nu=1e9)


def counted_drift(coeffs, calls):
    """`coeffs` with a b that appends to `calls` and keeps b's `variables`."""
    def b(*args):
        calls.append(1)
        return coeffs.b(*args)

    if hasattr(coeffs.b, "variables"):
        b.variables = coeffs.b.variables
    return replace(coeffs, b=b)


class TestZeroTermSkip:
    """A block of all-zero b or c samples skips that term's products."""

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("kind", ["lambda", "formula"])
    @pytest.mark.parametrize("zero", ["b", "c", "both"])
    def test_matrix_bytes_and_positive_zero_parts(self, monkeypatch, dim, kind, zero):
        monkeypatch.setattr(dmpfem.solver, "BLOCK_POINTS", 64)  # several blocks
        rng = np.random.default_rng(3)
        m = perturbed_mesh(generate_structured_2d(6, 5) if dim == 2
                           else generate_structured_3d(3, 3, 4), rng, 0.1)
        w = random_nodal_field(m, rng)
        b_zero, c_zero = zero in ("b", "both"), zero in ("c", "both")
        if kind == "lambda":
            coeffs = CoefficientSet(
                a=lambda x, e, p: 1.0 + 0.5 * np.cos(e + x[..., 0]),
                b=KERNEL_B["zero" if b_zero else "field"],
                c=KERNEL_C["zero" if c_zero else "field"],
                f=0.0, g=0.0, lam=0.5, Lam=1.5, nu=1e9)
        else:
            b_sources = ["0"] * dim if b_zero else ["eta*p1"] + ["x"] * (dim - 1)
            coeffs = formula_set(dim, b_sources, "0" if c_zero else "1 + eta^2")
        rule = quadrature_rule(dim, 4)
        got = local_form_parts(m, w, coeffs, rule)
        want = einsum_local_form_parts(m, w, coeffs, rule)
        # the oracle's zero parts in place of the skipped ones: the same
        # matrix bits (a nonzero term rounds differently from its oracle)
        skipped = (False, b_zero, c_zero)
        oracle_zeros = [oracle if skip else part
                        for part, oracle, skip in zip(got, want, skipped)]
        assert assemble_matrix(m, got).data.tobytes() == \
            assemble_matrix(m, oracle_zeros).data.tobytes()
        for part, is_zero in zip(got, skipped):
            if is_zero:
                assert not part.any() and not np.signbit(part).any()

    def test_nan_sample_takes_the_full_path(self):
        m = generate_structured_2d(3, 3)
        coeffs = CoefficientSet(a=lambda x, e, p: np.ones(np.shape(e)),
                                b=lambda x, e, p: np.full(np.shape(x), np.nan),
                                c=lambda x, e: np.full(np.shape(e), np.nan),
                                f=0.0, g=0.0, lam=1.0, Lam=1.0, nu=1.0)
        with np.errstate(invalid="ignore"):
            _, advection, reaction = local_form_parts(m, constant_field(m, 0.0), coeffs,
                                                      quadrature_rule(2, 2))
        assert np.isnan(advection).all() and np.isnan(reaction).all()


class TestCellConstantDivergence:
    """A drift formula of the state gradient alone has its divergence read
    from one evaluation per block."""

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("drift", ["0", "p1*p2", "1e308*10"])
    def test_same_bits_as_finite_differences(self, dim, drift):
        rng = np.random.default_rng(7)
        m = perturbed_mesh(generate_structured_2d(5, 4) if dim == 2
                           else generate_structured_3d(2, 3, 3), rng, 0.1)
        u = random_nodal_field(m, rng)
        sources = [drift] + ["0"] * (dim - 1)
        with np.errstate(invalid="ignore"):
            fast = check_zeroth_order_condition(m, u, formula_set(dim, sources, "eta^2"))
            fd = check_zeroth_order_condition(m, u, formula_set(dim, sources, "eta^2",
                                                                wrap=True))
        assert np.float64(fast.min_value).tobytes() == np.float64(fd.min_value).tobytes()
        assert math.isnan(fast.min_value) == (drift == "1e308*10")
        assert fast.condition_holds == fd.condition_holds
        assert not fast.used_supplied_divergence and not fd.used_supplied_divergence

    @pytest.mark.parametrize("drift, per_block", [
        ("p1 - p2", 1), ("0", 1), ("x*p1", 4), ("eta", 4), ("0*y", 4)])
    def test_drift_evaluations_per_block(self, monkeypatch, drift, per_block):
        monkeypatch.setattr(dmpfem.solver, "BLOCK_POINTS", 64)
        m = generate_structured_2d(6, 6)
        u = P1Field(m, m.vertices[:, 0] ** 2)
        calls = []
        coeffs = counted_drift(formula_set(2, [drift, "0"], "1"), calls)
        check_zeroth_order_condition(m, u, coeffs)
        blocks = dmpfem.solver.cell_blocks(m.num_cells, len(quadrature_rule(2, 4).weights))
        assert len(blocks) > 1
        assert len(calls) == per_block * len(blocks)

    def test_lambda_keeps_finite_differences(self, monkeypatch):
        m = generate_structured_2d(4, 4)
        calls = []
        coeffs = counted_drift(formula_set(2, ["p1", "0"], "1", wrap=True), calls)
        check_zeroth_order_condition(m, constant_field(m, 0.0), coeffs)
        blocks = dmpfem.solver.cell_blocks(m.num_cells, len(quadrature_rule(2, 4).weights))
        assert len(calls) == 4 * len(blocks)


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
        # passes 2-5 refine in 7, 5, 5 and 3 steps with the first pass's factor
        m, coeffs = self.CASES["quasilinear-6"]()
        record = picard_solve(m, coeffs).to_dict()
        assert (record["picard_iterations"], record["factorizations"],
                record["refinement_steps"]) == (4, 1, 20)

    def test_one_residual_per_pass(self, monkeypatch):
        # a pass forms |A| once and takes one backward error per solution it
        # tries (the start and each refinement step, or the factored one),
        # from the residual it already holds; the recorded one has the bits
        # of the backward error formula
        m, coeffs = self.CASES["quasilinear-6"]()
        error, solve = dmpfem.solver.backward_error, dmpfem.solver.linear_solve
        abs_matrices, solves = [], []

        def counted_error(*args, _parts):
            abs_matrices.append(_parts[0])
            return error(*args, _parts=_parts)

        def recorded_solve(system, *args):
            x = solve(system, *args)
            solves.append((system, x))
            return x

        monkeypatch.setattr(dmpfem.solver, "backward_error", counted_error)
        monkeypatch.setattr(dmpfem.solver, "linear_solve", recorded_solve)
        result = picard_solve(m, coeffs)
        assert result.factorizations == 1
        assert len(solves) == result.picard_iterations + 1
        assert len(abs_matrices) == len(solves) + result.refinement_steps
        assert len({id(abs_matrix) for abs_matrix in abs_matrices}) == len(solves)
        system, x = solves[-1]
        assert result.final_linear_residual == error(system.matrix, system.rhs, x)

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
        assert constrained.size == int(interior.sum())
        assert constrained.rhs == pytest.approx(system.rhs[interior], abs=0.0)

    @pytest.mark.parametrize("case", ["drift-2d", "poisson-kuhn", "quasilinear-refined"])
    def test_free_solve_matches_pinned_solve_bits(self, case):
        # the n x n system with an identity row per boundary node (the dict
        # oracle) solved as before: its free part has the bits of the free
        # solve, a pass refined with the first pass's kept factor included
        m, coeffs = {
            "drift-2d": lambda: (generate_structured_2d(12, 10, skew=0.3),
                                 advection_diffusion([3.0, -2.0], f=-1.0, c0=0.5,
                                                     g=lambda x: x[..., 1])),
            "poisson-kuhn": lambda: (generate_structured_3d(5, 4, 4),
                                     poisson(f=1.0, g=lambda x: x[..., 0] - x[..., 2])),
            "quasilinear-refined": lambda: (generate_structured_2d(16, 16),
                                            quasilinear_a(f=-1.0, g=lambda x: 0.1 * x[..., 0])),
        }[case]()
        free = ~m.boundary_mask()
        values = interpolate_boundary(m, coeffs.g)
        assignment = dict(zip(m.boundary_nodes.tolist(), values.tolist()))
        u = np.zeros(m.num_vertices)
        u[m.boundary_nodes] = values
        kept_new, kept_old = dmpfem.solver.KeptFactor(), dmpfem.solver.KeptFactor()
        for _ in range(2 if case == "quasilinear-refined" else 1):
            system = assemble_q(m, P1Field(m, u), coeffs)
            new = linear_solve(apply_dirichlet(system, values, m), kept=kept_new, x0=u[free])
            old = linear_solve(dict_apply_dirichlet(system, assignment, m), kept=kept_old, x0=u)
            assert new.tobytes() == old[free].tobytes()
            assert old[~free].tobytes() == u[~free].tobytes()
            assert kept_new.residual == kept_old.residual
            u = old
        assert (kept_new.factorizations, kept_new.refinement_steps) == \
            (kept_old.factorizations, kept_old.refinement_steps)
        if case == "quasilinear-refined":
            assert kept_new.factorizations == 1 and kept_new.refinement_steps > 0

    def test_missing_value_rejected(self):
        m = generate_structured_2d(2, 2)
        system = assemble_q(m, constant_field(m, 0.0), poisson())
        values = interpolate_boundary(m, 0.0)
        for bad in (values[:-1], np.append(values, 0.0), values[:, None], []):
            with pytest.raises(MissingBoundaryValue):
                apply_dirichlet(system, bad, m)

    @pytest.mark.parametrize("mesh", ["2d", "skewed", "kuhn"])
    @pytest.mark.parametrize("g", ["-x", "1 + x*y", "x - y"])
    def test_matches_dict_oracle_bytes(self, mesh, g):
        # The data as a {node: value} dict over the loop oracle's boundary,
        # each value from g at one vertex; "-x" has the boundary maximum -0.0.
        m = {"2d": lambda: generate_structured_2d(6, 5),
             "skewed": lambda: generate_structured_2d(5, 5, skew=0.6),
             "kuhn": lambda: generate_structured_3d(3, 3, 3)}[mesh]()
        fn = expressions.point_function(g, m.dim)
        coeffs = advection_diffusion([0.7, -0.4, 0.2][:m.dim], f=-1.0, c0=0.3, g=fn)
        system = assemble_q(m, constant_field(m, 0.0), coeffs)
        assignment = {j: float(fn(m.vertices[j])) for j in sorted(loop_boundary_nodes(m.cells))}
        values = interpolate_boundary(m, fn)
        assert values.tobytes() == np.array(list(assignment.values())).tobytes()
        # the free system is the free block of the n x n system with identity
        # rows of the dict oracle, zeros dropped, byte for byte
        new = apply_dirichlet(system, values, m)
        old = dict_apply_dirichlet(system, assignment, m)
        free = ~m.boundary_mask()
        block = old.matrix[free][:, free]
        block.eliminate_zeros()
        assert new.size == int(free.sum())
        for attr in ("data", "indices", "indptr"):
            got, want = getattr(new.matrix, attr), getattr(block, attr)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert new.rhs.tobytes() == old.rhs[free].tobytes()

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
        # Oracle: A projected onto the free nodes (its free rows and columns),
        # and b - A lift on the free rows.
        m = generate_structured_2d(4, 3, skew=0.3)
        coeffs = advection_diffusion([0.7, -0.4], f=-1.0, c0=0.2,
                                     g=lambda x: 1.0 + x[..., 0])
        system = assemble_q(m, constant_field(m, 0.0), coeffs)
        values = interpolate_boundary(m, coeffs.g)
        constrained = apply_dirichlet(system, values, m)
        mask = np.zeros(m.num_vertices, dtype=bool)
        lift = np.zeros(m.num_vertices)
        for j, v in zip(m.boundary_nodes, values):
            mask[j], lift[j] = True, v
        a = system.matrix.toarray()
        expected = a[~mask][:, ~mask]
        assert constrained.matrix.toarray() == pytest.approx(expected, abs=0.0)
        rhs = (system.rhs - a @ lift)[~mask]
        assert constrained.rhs == pytest.approx(rhs, rel=1e-14, abs=1e-15)


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


def dense_backward_error(a: np.ndarray, b: np.ndarray, x: np.ndarray) -> float:
    """max_i |b - a x|_i / (|a| |x| + |b|)_i from dense products, row by row,
    with 0 for a row whose residual and scale both vanish."""
    residual = np.abs(b - a @ x)
    scale = np.abs(a) @ np.abs(x) + np.abs(b)
    return max(r / s if s else 0.0 for r, s in zip(residual, scale))


class TestBackwardError:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_dense_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = 7
        a = rng.normal(size=(n, n)) * (rng.random((n, n)) < 0.5) + np.diag(rng.random(n) + 1)
        b = rng.normal(size=n)
        a[2], b[2] = 0.0, 0.0  # 0 / 0 counts 0
        matrix = sparse.csr_matrix(a)
        x = rng.normal(size=n)
        want = dense_backward_error(a, b, x)
        assert backward_error(matrix, b, x) == pytest.approx(want, rel=1e-12)
        # a least-squares solution: both read rounding level, in different bits
        x = np.linalg.lstsq(a, b, rcond=None)[0]
        assert max(backward_error(matrix, b, x), dense_backward_error(a, b, x)) < 1e-14

    def test_zero_system_and_nan(self):
        zero = sparse.csr_matrix((3, 3))
        assert backward_error(zero, np.zeros(3), np.ones(3)) == 0.0
        matrix = sparse.identity(3, format="csr")
        assert np.isnan(backward_error(matrix, np.ones(3), np.array([1.0, np.nan, 1.0])))
        assert np.isnan(backward_error(matrix, np.array([1.0, 1.0, np.nan]), np.ones(3)))

    @pytest.mark.parametrize("power", [-40, -1, 3, 60])
    def test_power_of_two_scaling_keeps_bits(self, power):
        m = generate_structured_2d(8, 8)
        coeffs = advection_diffusion([3.0, -2.0], f=-1.0, g=0.5, c0=0.5)
        system = apply_dirichlet(assemble_q(m, constant_field(m, 0.0), coeffs),
                                 interpolate_boundary(m, coeffs.g), m)
        x = linear_solve(system)
        rough = x + 1e-9 * np.sin(np.arange(x.shape[0]))
        factor = 2.0 ** power
        row = np.ones(system.size)
        row[27] = factor
        for y in (x, rough):
            want = backward_error(system.matrix, system.rhs, y)
            assert want > 0.0
            assert backward_error(factor * system.matrix, factor * system.rhs, y) == want
            assert backward_error(sparse.diags(row) @ system.matrix, row * system.rhs, y) == want

    def test_high_contrast_perturbation_seen(self):
        # a = e^(40 x) spans 17 orders of magnitude; where a is small, u_h is
        # large and its rows are tiny: the normwise backward error
        # ||r|| / (||A|| ||x|| + ||b||) reads a one-node perturbation of 1e-6
        # as 1e-23, the componentwise one as 5e-7
        m = generate_structured_2d(32, 32)
        coeffs = CoefficientSet(
            a=lambda x, e, p: np.exp(40.0 * x[..., 0]),
            b=lambda x, e, p: np.zeros(np.shape(x)),
            c=lambda x, e: np.zeros(np.shape(e)),
            f=1.0, g=0.0, lam=1.0, Lam=float(np.exp(40.0)), nu=0.0,
            c_mode="identically-zero")
        u_h = picard_solve(m, coeffs).u_h
        system = apply_dirichlet(assemble_q(m, u_h, coeffs), interpolate_boundary(m, coeffs.g), m)
        free = ~m.boundary_mask()
        matrix, rhs, x = system.matrix, system.rhs, u_h.nodal_values[free]
        assert backward_error(matrix, rhs, x) < 1e-15
        k = int(np.argmax(np.abs(x)))
        assert m.vertices[free][k, 0] < 0.1
        y = x.copy()
        y[k] *= 1.0 + 1e-6
        normwise = np.abs(rhs - matrix @ y).max() / (
            abs(matrix).sum(axis=1).max() * np.abs(y).max() + np.abs(rhs).max())
        assert normwise < 1e-20
        assert backward_error(matrix, rhs, y) > 1e-8

    def test_tolerance_between_the_floors(self):
        # at 64x64 the LU solution's relative residual ||b - A x|| / ||b||
        # (7.7e-14) is above 10 * 1e-15 and its backward error (3.6e-16) below
        m, coeffs = generate_structured_2d(64, 64), poisson(f=1.0)
        opts = SolveOptions(linear_tol=1e-15)
        system = apply_dirichlet(assemble_q(m, constant_field(m, 0.0), coeffs),
                                 interpolate_boundary(m, coeffs.g), m)
        x = linear_solve(system, opts)
        relative = np.linalg.norm(system.rhs - system.matrix @ x) / np.linalg.norm(system.rhs)
        assert relative > 10.0 * opts.linear_tol
        result = picard_solve(m, coeffs, opts)
        assert result.converged
        assert result.final_linear_residual == backward_error(system.matrix, system.rhs, x)
        assert result.final_linear_residual <= opts.linear_tol

    def test_unreachable_tolerance_raises(self):
        m = generate_structured_2d(16, 16)
        with pytest.raises(LinearSolveDiverged, match="^backward error .* above tolerance"):
            picard_solve(m, poisson(f=1.0), SolveOptions(linear_tol=1e-20))


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
        f = lambda x: np.sin(3.0 * x[..., 0]) - 0.5
        g = lambda x: x[..., 0] - 2.0 * x[..., 1]
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


def drift_set(dim, drift, c="0", div_b=None):
    """Unit diffusion with drift and reaction formulas, as a coefficient file
    gives them (no `div_b` unless named)."""
    return CoefficientSet(
        a=lambda x, e, p: np.ones(np.shape(e)),
        b=expressions.vector_state_function(drift, dim),
        c=expressions.state_function(c, dim), f=0.0, g=0.0, lam=1.0, Lam=1.0, nu=1e20,
        div_b=None if div_b is None else expressions.state_function(div_b, dim))


class TestZerothOrderRoundingSlack:
    """c - div b/2 may dip below 0 by its rounding bound only: without
    `div_b`, that of the finite differences, which grows like |b| / h."""

    DIVERGENCE_FREE = {
        "linear": ["x", "-y"], "quadratic": ["x*y", "-y^2/2"],
        "exponential": ["exp(x)*y", "-exp(x)*y^2/2"], "scaled": ["10*x", "-10*y"],
        "centred": ["x - 0.5", "0.5 - y"], "3d-linear": ["x", "y", "-2*z"],
        "3d-quadratic": ["x*z", "y*z", "-z^2"],
    }

    @staticmethod
    def _mesh(dim, n):
        return generate_structured_2d(n, n) if dim == 2 else generate_structured_3d(n, n, n)

    @pytest.mark.parametrize("n", [8, 16, 32, 64])
    @pytest.mark.parametrize("drift", sorted(DIVERGENCE_FREE))
    def test_divergence_free_drift_passes(self, drift, n):
        sources = self.DIVERGENCE_FREE[drift]
        dim = len(sources)
        m = self._mesh(dim, n if dim == 2 else n // 4)
        u = P1Field(m, np.sin(3.0 * m.vertices[:, 0]) * m.vertices[:, 1])
        report = check_zeroth_order_condition(m, u, drift_set(dim, sources))
        assert report.min_value < 0.0  # the noise the slack must absorb
        assert report.condition_holds

    @pytest.mark.parametrize("n", [8, 16, 32, 64])
    @pytest.mark.parametrize("delta", [1e-5, 1e-2])
    def test_positive_divergence_fails(self, delta, n):
        m = generate_structured_2d(n, n)
        coeffs = drift_set(2, [f"(1 + {delta})*x", "-y"])
        report = check_zeroth_order_condition(m, constant_field(m, 0.0), coeffs)
        assert not report.condition_holds
        assert report.min_value == pytest.approx(-delta / 2, rel=1e-2)

    @pytest.mark.parametrize("k", [-60, 0, 60])
    def test_power_of_two_scaling_keeps_the_verdict(self, k):
        # an absolute slack would pass the failing cases at 2^-60
        m = generate_structured_2d(16, 16)
        scale = f"2^{k}"
        cases = {
            (True, "supplied"): drift_set(2, ["0", "0"], f"{scale}*0.3", f"{scale}*0.6"),
            (False, "supplied"): drift_set(2, ["0", "0"], f"{scale}*0.3",
                                           f"{scale}*0.6*(1 + 1e-9)"),
            (True, "differences"): drift_set(2, [f"{scale}*x", f"-{scale}*y"]),
            (False, "differences"): drift_set(2, [f"{scale}*(1 + 1e-5)*x", f"-{scale}*y"]),
        }
        for (holds, _), coeffs in cases.items():
            report = check_zeroth_order_condition(m, constant_field(m, 0.0), coeffs)
            assert report.condition_holds == holds


class TestLowerOrderBoundScale:
    @pytest.mark.parametrize("nu", [1.0, 1e-7])
    @pytest.mark.parametrize("ratio, holds", [(1.0, True), (10.0, False)])
    def test_slack_is_relative_to_nu(self, nu, ratio, holds):
        # lam = Lam = 1: a drift of 10 nu breaks lam^-2 |b|^2 <= nu^2 at any
        # scale of nu (an absolute slack of 1e-12 passed it at nu = 1e-7)
        m = generate_structured_2d(2, 2)
        coeffs = CoefficientSet(
            a=lambda x, e, p: np.ones(np.shape(e)),
            b=lambda x, e, p: np.broadcast_to(np.array([ratio * nu, 0.0]), np.shape(x)),
            c=lambda x, e: np.zeros(np.shape(e)),
            f=0.0, g=0.0, lam=1.0, Lam=1.0, nu=nu, c_mode="identically-zero")
        if holds:
            assert validate_coefficients(coeffs, m)["lower_order_max"] == nu ** 2
        else:
            with pytest.raises(CoefficientBoundsViolation, match="above nu"):
                validate_coefficients(coeffs, m)

    @pytest.mark.parametrize("scale", [1.0, 1e-7])
    def test_drift_preset_passes_at_every_scale(self, scale):
        m = generate_structured_2d(3, 3)
        coeffs = advection_diffusion([0.3 * scale, -0.9 * scale], c0=0.7 * scale)
        validate_coefficients(coeffs, m)


class TestNonCanonicalDirichlet:
    @pytest.mark.parametrize("mesh", ["2d", "kuhn"])
    def test_duplicates_and_unsorted_indices_give_the_canonical_system(self, mesh):
        m = generate_structured_2d(4, 3, skew=0.3) if mesh == "2d" \
            else generate_structured_3d(2, 2, 2)
        coeffs = advection_diffusion([0.7, -0.4, 0.2][:m.dim], f=-1.0, c0=0.3,
                                     g=lambda x: 1.0 + x[..., 0])
        system = assemble_q(m, constant_field(m, 0.0), coeffs)
        a = system.matrix.tocsr()
        assert a.has_canonical_format
        # each entry split into two exact halves, each row's entries reversed
        counts = np.diff(a.indptr)
        order = np.concatenate([np.arange(hi - 1, lo - 1, -1)
                                for lo, hi in zip(a.indptr[:-1], a.indptr[1:])])
        doubled = np.repeat(order, 2)
        indptr = np.concatenate([[0], np.cumsum(2 * counts)])
        messy = sparse.csr_matrix((a.data[doubled] / 2.0, a.indices[doubled], indptr),
                                  shape=a.shape)
        assert not messy.has_canonical_format
        values = interpolate_boundary(m, coeffs.g)
        want = apply_dirichlet(system, values, m)
        got = apply_dirichlet(replace(system, matrix=messy), values, m)
        for attr in ("data", "indices", "indptr"):
            assert getattr(got.matrix, attr).tobytes() == getattr(want.matrix, attr).tobytes()
        assert got.rhs.tobytes() == want.rhs.tobytes()
