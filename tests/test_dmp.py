import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dmpfem.dmp
import dmpfem.p1
import dmpfem.solver
from dmpfem.dmp import (
    BOUND_TOL,
    MAX_FAILURE_RECORDS,
    PAIR_TOL,
    SIGN_TOL,
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
from dmpfem.cli import main
from dmpfem.errors import (
    DimensionMismatch,
    HypothesisViolated,
    InvalidParameters,
    NonFiniteValue,
    NotConverged,
    UnsupportedCMode,
)
from dmpfem.mesh import (
    acuteness_audit,
    build_mesh,
    generate_structured_2d,
    generate_structured_3d,
    interior_edges_2d,
)
from dmpfem.expressions import point_function, state_function, vector_state_function
from dmpfem.p1 import P1Field, constant_field, cut_minus, cut_plus, quadrature_rule
from dmpfem.solver import (
    CoefficientSet,
    SolveResult,
    advection_diffusion,
    assemble_matrix,
    assemble_q,
    check_zeroth_order_condition,
    default_rule,
    interpolate_boundary,
    local_form_parts,
    picard_solve,
    poisson,
    quasilinear_a,
)

from conftest import (
    KERNEL_B,
    KERNEL_C,
    adjacent_pair,
    drift_field,
    equilateral_mesh,
    frozen_form,
    full_element_condition_check,
    level_set_measure,
    loop_assumption_sweep,
    loop_edge_records,
    oracle_meshes,
    perturbed_mesh,
    random_nodal_field,
    table_de_giorgi_verify,
    table_fit_decay_constant,
    triangle_vertex_angles,
    unblocked_zeroth_order_condition,
)


def _sweep(mesh, coeffs, w, k_star=0.0):
    """`assumption_a_sweep` of the `default_rule` form frozen at w."""
    return assumption_a_sweep(w, frozen_form(mesh, coeffs, w)[1], k_star)


def _element(mesh, coeffs):
    """`element_condition_check` of the `default_rule` form frozen at zero."""
    return element_condition_check(mesh, frozen_form(mesh, coeffs)[0])


def _edge(mesh, coeffs):
    """`edge_condition_check_2d` of the `default_rule` form frozen at zero."""
    return edge_condition_check_2d(mesh, coeffs, *frozen_form(mesh, coeffs))


def _assert_sweep_matches_loop(sweep, m, v, parts, k_star):
    """The sweep against the loop oracle: on the oracle's own grid (k*, the
    nodal values and their midpoints) and at every level the sweep reports,
    q within 1e-12 * scale and with the same sign; no sampled oracle level
    below the reported minimum; the same minimum ratio q / T."""
    k_loop, q_loop, _ = loop_assumption_sweep(m, v, parts, k_star)
    scale = max(1.0, float(np.abs(q_loop).max()))
    values = v.nodal_values
    assert np.all(np.isin(np.unique(np.append(values[values >= k_star], k_star)),
                          sweep.k_values))
    _, mine, theirs = np.intersect1d(sweep.k_values, k_loop, return_indices=True)
    assert np.abs(sweep.q_values[mine] - q_loop[theirs]).max() <= 1e-12 * scale
    assert np.array_equal(np.sign(sweep.q_values[mine]), np.sign(q_loop[theirs]))
    assert sweep.min_value <= q_loop.min() + 1e-12 * scale
    if q_loop.min() < 0.0:
        assert sweep.min_value < 0.0

    _, q_at, t_at = loop_assumption_sweep(m, v, parts, k_star, levels=sweep.k_values)
    assert np.abs(sweep.q_values - q_at).max() <= 1e-12 * scale
    assert np.array_equal(np.sign(sweep.q_values), np.sign(q_at))
    assert sweep.min_value == sweep.q_values.min()
    den = np.maximum(t_at, np.abs(q_at))
    ratio = np.divide(q_at, den, out=np.zeros_like(q_at), where=den > 0.0)
    assert abs(sweep.min_ratio - ratio.min()) <= 1e-9
    assert sweep.satisfied == (ratio.min() >= -SIGN_TOL)


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
        assert compute_k_star(assignment, "nonnegative") == 0.0

    def test_negative_data_kept_when_c_zero(self):
        m = generate_structured_2d(2, 2)
        assignment = interpolate_boundary(m, -2.0)
        assert compute_k_star(assignment, "identically-zero") == -2.0

    def test_linear_data_attains_max_at_corner(self):
        m = generate_structured_2d(3, 3)
        assignment = interpolate_boundary(m, lambda x: x[..., 0])
        for mode in ("nonnegative", "identically-zero"):
            assert compute_k_star(assignment, mode) == pytest.approx(1.0)

    def test_general_mode_unsupported(self):
        m = generate_structured_2d(2, 2)
        assignment = interpolate_boundary(m, 0.0)
        with pytest.raises(UnsupportedCMode):
            compute_k_star(assignment, "general")

    def test_negative_zero_maximum_kept(self):
        # g = -x is -0.0 on the edge x = 0 and negative elsewhere
        for m in (generate_structured_2d(4, 4), generate_structured_3d(2, 2, 2)):
            values = interpolate_boundary(m, point_function("-x", m.dim))
            for mode in ("nonnegative", "identically-zero"):
                k_star = compute_k_star(values, mode)
                assert k_star == 0.0 and math.copysign(1.0, k_star) == -1.0

    def test_first_of_equal_maxima(self):
        assert math.copysign(1.0, compute_k_star([-1.0, -0.0, 0.0], "identically-zero")) == -1.0
        assert math.copysign(1.0, compute_k_star([0.0, -0.0], "nonnegative")) == 1.0

    def test_no_boundary_values(self):
        with pytest.raises(InvalidParameters):
            compute_k_star(np.zeros(0), "nonnegative")

    def test_mode_ordering(self):
        m = generate_structured_2d(2, 2)
        rng = np.random.default_rng(12)
        for _ in range(10):
            shift = float(rng.uniform(-3, 3))
            assignment = interpolate_boundary(
                m, lambda x, s=shift: np.sin(5 * x[..., 0]) + s)
            assert compute_k_star(assignment, "nonnegative") >= \
                compute_k_star(assignment, "identically-zero")


class TestAssumptionSweep:
    def test_level_beyond_max_gives_zero(self):
        m = generate_structured_2d(3, 3)
        v = random_nodal_field(m, np.random.default_rng(1))
        sweep = _sweep(m, poisson(), v, k_star=v.max_value())
        assert sweep.q_values == pytest.approx(np.zeros_like(sweep.q_values),
                                               abs=1e-14)
        assert sweep.satisfied

    def test_constant_field_all_zero(self):
        m = generate_structured_2d(3, 3)
        sweep = _sweep(m, poisson(), constant_field(m, 2.0), k_star=-1.0)
        assert np.abs(sweep.q_values).max() == 0.0

    def test_solved_poisson_on_non_obtuse_mesh(self):
        m = generate_structured_2d(8, 8)
        coeffs = poisson(f=1.0, g=lambda x: x[..., 0])
        result = picard_solve(m, coeffs)
        k_star = compute_k_star(interpolate_boundary(m, coeffs.g),
                                coeffs.c_mode)
        sweep = _sweep(m, coeffs, result.u_h, k_star=k_star)
        assert sweep.satisfied
        assert np.all(np.diff(sweep.k_values) > 0)
        assert sweep.k_values[0] == pytest.approx(k_star)

    def test_straddling_field_on_wide_pair_fails(self):
        # alpha + beta > pi makes the shared-edge sum positive; a field that
        # changes sign across that edge then breaks the cut-pair inequality
        mesh = adjacent_pair(2.0, 1.5)
        edge = _edge(mesh, poisson()).edges[0]
        assert edge["sum"] > 0
        values = np.zeros(mesh.num_vertices)
        values[edge["node_m"]] = -1.0
        values[edge["node_n"]] = 1.0
        sweep = _sweep(mesh, poisson(), P1Field(mesh, values), k_star=0.0)
        assert not sweep.satisfied
        assert sweep.min_value < 0

    @pytest.mark.parametrize("seed", [25, 29, 45, 53])
    def test_convex_piece_minimum(self, seed):
        # strong drift makes some pieces q(k) convex; their vertices join the
        # levels, and no level between them lies below the reported minimum
        rng = np.random.default_rng(seed)
        nx, ny = (int(n) for n in rng.integers(1, 5, 2))
        m = generate_structured_2d(nx, ny, skew=rng.uniform(0, 0.8))
        coeffs = advection_diffusion(list(rng.uniform(-60, 60, 2)), f=1.0)
        v = P1Field(m, rng.uniform(-1, 1, m.num_vertices))
        parts = local_form_parts(m, v, coeffs, default_rule(m, coeffs))
        sweep = assumption_a_sweep(v, assemble_matrix(m, parts), k_star=-2.0)
        assert len(sweep.k_values) > len(np.unique(v.nodal_values)) + 1
        _assert_sweep_matches_loop(sweep, m, v, parts, -2.0)
        levels = np.linspace(-2.0, v.max_value(), 4001)
        _, q_values, _ = loop_assumption_sweep(m, v, parts, -2.0, levels=levels)
        assert sweep.min_value <= q_values.min() + 1e-12 * sweep.scale
        assert not sweep.satisfied

    @pytest.mark.parametrize("problem, skew, f", [
        ("poisson", 0.6, 1.0), ("poisson", 0.6, 1e-3), ("poisson", 0.6, 1e-6),
        ("drift", 0.0, 1e-6)])
    def test_verdict_does_not_depend_on_scale(self, problem, skew, f):
        # the obtuse skewed mesh and the strong drift break the inequality at
        # every scale of f; an absolute slack let the small scales pass
        m = generate_structured_2d(8, 8, skew=skew)
        coeffs = {"poisson": poisson(f=f), "drift": advection_diffusion([40.0, -30.0], f=f)}[problem]
        sweep = _sweep(m, coeffs, picard_solve(m, coeffs).u_h)
        assert not sweep.satisfied
        assert sweep.min_value < 0.0 and sweep.min_ratio < -0.5

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(n=st.integers(2, 8), skew=st.floats(0.0, 0.7),
           problem=st.sampled_from(["poisson", "drift"]), j=st.integers(-40, 40))
    def test_power_of_two_scaling(self, n, skew, problem, j):
        # f -> 2^j f scales the linear solution, so k and q exactly: the
        # ratio q / T is bit for bit the same
        m = generate_structured_2d(n, n, skew=skew)
        make = {"poisson": lambda f: poisson(f=f),
                "drift": lambda f: advection_diffusion([40.0, -30.0], f=f)}[problem]
        sweeps = []
        for f in (1.0, 2.0 ** j):
            coeffs = make(f)
            sweeps.append(_sweep(m, coeffs, picard_solve(m, coeffs).u_h))
        base, scaled = sweeps
        assert np.array_equal(scaled.k_values, 2.0 ** j * base.k_values)
        assert scaled.min_ratio == base.min_ratio
        assert scaled.satisfied == base.satisfied

    def test_expands_no_entry_level_pairs(self, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("the sweep expands (entry, level) pairs")

        monkeypatch.setattr(dmpfem.dmp, "_ranges", refused)
        for skew in (0.0, 0.6):
            m = generate_structured_2d(16, 16, skew=skew)
            coeffs = poisson(f=1.0)
            sweep = _sweep(m, coeffs, picard_solve(m, coeffs).u_h)
            assert len(sweep.k_values) > 50
            assert sweep.satisfied == (skew == 0.0)

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
        system = assemble_q(m, v, coeffs)
        sweep_value = float(plus @ (system.matrix @ minus))
        assert sweep_value == pytest.approx(direct, rel=1e-12)


class TestElementCondition:
    def test_equilateral_poisson_passes_with_equality(self):
        m = equilateral_mesh(2, 2)
        report = _element(m, poisson())
        assert report.all_pass
        # the measured margin of the unit Laplacian is cos(pi/3)
        assert report.min_margin == pytest.approx(0.5, abs=1e-13)

    def test_right_angle_pair_boundary_case(self, reference_triangle):
        report = _element(reference_triangle, poisson())
        assert report.all_pass  # the orthogonal pair has zero integral
        assert report.min_margin == pytest.approx(0.0, abs=1e-15)
        # any reaction makes that pair's integral negative
        report = _element(reference_triangle, advection_diffusion([0.0, 0.0], c0=1e-3))
        assert not report.all_pass
        assert [(f["i"], f["j"]) for f in report.failures] == [(1, 2), (2, 1)]

    def test_obtuse_triangle_fails(self):
        m = build_mesh([[0, 0], [1, 0], [0.8, 0.15]], [[0, 1, 2]])
        report = _element(m, poisson())
        assert not report.all_pass
        assert report.failures
        worst = report.failures[0]
        assert worst["d_value"] < 0

    def test_acute_mesh_passes_strict_case(self):
        # a reaction lowers the margin of an acute mesh, which stays strictly
        # positive: D = (cos(pi/3) |grad|^2 - c/12) |T| > 0
        m = equilateral_mesh(2, 2)
        report = _element(m, advection_diffusion([0.0, 0.0], c0=1.0))
        assert report.all_pass
        assert 0.0 < report.min_margin < 0.5

    @pytest.mark.parametrize("c0, passes", [(0.5, True), (5.0, False)])
    def test_apex_87_degrees_with_reaction(self, c0, passes):
        # base 1, apex angle 87 degrees: the apex pair's cotangent term
        # -cot(87°)/2 = -0.026 against the reaction's c0 |T| / 12
        height = 0.5 / math.tan(math.radians(43.5))
        m = build_mesh([[0.0, 0.0], [1.0, 0.0], [0.5, height]], [[0, 1, 2]])
        coeffs = advection_diffusion([0.0, 0.0], c0=c0)
        parts = frozen_form(m, coeffs)[0]
        local = sum(parts)[0]  # dense element matrix [test, trial]
        off_diagonal = local[~np.eye(3, dtype=bool)]
        report = element_condition_check(m, parts)
        assert report.all_pass == passes
        if passes:
            assert off_diagonal.max() <= -0.015
        else:
            assert off_diagonal.max() == pytest.approx(0.084, abs=1e-3)
            assert report.num_failing_pairs == int((off_diagonal > 0).sum()) == 2

    @pytest.mark.parametrize("make, expected", [
        (lambda: equilateral_mesh(3, 2), 0.5),
        (lambda: generate_structured_2d(8, 8), 0.0),
        (lambda: generate_structured_2d(8, 8, skew=0.5), -0.4472),
        (lambda: generate_structured_3d(3, 3, 3), 0.0),
        (lambda: perturbed_mesh(generate_structured_3d(3, 3, 3), np.random.default_rng(7),
                                0.1), None),
    ], ids=["equilateral", "right-diagonal", "skew-0.5", "kuhn", "perturbed-kuhn"])
    def test_unit_laplacian_margin_is_cos_max_angle(self, make, expected):
        m = make()
        report = _element(m, poisson())
        margin = math.cos(acuteness_audit(m).max_angle)
        assert report.min_margin == pytest.approx(margin, abs=1e-12)
        if expected is not None:
            assert report.min_margin == pytest.approx(expected, abs=1e-4)
        assert report.all_pass == (report.min_margin >= 0.0)

    def test_failures_count_every_pair_and_list_the_written_ones(self):
        # unit Laplacian: pair (i, j) fails exactly when the angle at the
        # third vertex 3 - i - j is obtuse
        m = generate_structured_2d(8, 8, skew=0.6)
        angles = np.array([triangle_vertex_angles(m.vertices[cell]) for cell in m.cells])
        expected = [(t, i, j) for t in range(m.num_cells) for i in range(3)
                    for j in range(3) if i != j and angles[t, 3 - i - j] > math.pi / 2]
        report = _element(m, poisson())
        written = report.to_dict()
        assert report.num_failing_pairs == written["num_failures"] == len(expected) == 256
        assert report.failures == written["failures"]
        assert len(report.failures) == MAX_FAILURE_RECORDS
        assert [(f["cell"], f["i"], f["j"]) for f in report.failures] == \
            expected[:MAX_FAILURE_RECORDS]


class TestPassesMatchCertificate:
    """Each pass, handed the certificate's own form (the `default_rule` parts
    frozen at u_h and their matrix), writes the certificate's block."""

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("problem", ["poisson", "quasilinear", "drift"])
    def test_pass_reproduces_certificate_block(self, dim, problem):
        if dim == 2:
            m = generate_structured_2d(6, 5, skew=0.4)
        else:
            m = perturbed_mesh(generate_structured_3d(3, 3, 3), np.random.default_rng(2), 0.1)
        # f > 0 lifts u_h above k* = 0, so the sweep has levels to check
        coeffs = {"poisson": poisson(f=1.0),
                  "quasilinear": quasilinear_a(f=lambda x: 1.0 + 3.0 * x[..., 0]),
                  "drift": advection_diffusion([1.0, -2.0, 0.5][:dim], f=1.0, c0=0.5)}[problem]
        result = picard_solve(m, coeffs)
        u_h = result.u_h
        cert = dmp_certificate(m, result, coeffs)
        written = cert.to_dict()
        parts, matrix = frozen_form(m, coeffs, u_h)

        def dumps(block):
            return json.dumps(block.to_dict() if hasattr(block, "to_dict") else block)

        assert dumps(assumption_a_sweep(u_h, matrix, cert.k_star)) == \
            dumps(written["assumption_a"])
        assert dumps(element_condition_check(m, parts)) == \
            dumps(written["element_condition"])
        edge = edge_condition_check_2d(m, coeffs, parts, matrix) if dim == 2 \
            else {"verdict": "not-applicable"}
        assert dumps(edge) == dumps(written["edge_condition"])
        assert len(written["assumption_a"]["k_values"]) > 5
        if problem == "quasilinear":
            # a depends on the state here, so the form frozen at zero differs
            zero_parts, zero_matrix = frozen_form(m, coeffs)
            assert dumps(assumption_a_sweep(u_h, zero_matrix, cert.k_star)) != \
                dumps(written["assumption_a"])
            assert dumps(element_condition_check(m, zero_parts)) != \
                dumps(written["element_condition"])


def _scaled_laplacian(s: float) -> CoefficientSet:
    """a = lam = Lam = s, f = -s: the unit Laplacian times s."""
    return CoefficientSet(
        a=lambda x, e, p: np.full(np.shape(e), s), b=lambda x, e, p: np.zeros(np.shape(x)),
        c=lambda x, e: np.zeros(np.shape(e)), f=-s, g=0.0, lam=s, Lam=s, nu=0.0,
        c_mode="identically-zero", constant_coefficients=True)


class TestSlackScale:
    """The element and edge slacks are relative to the entries' own size, so
    scaling the form cannot turn a failing mesh into a passing one."""

    @pytest.mark.parametrize("pattern,skew", [("right-diagonal", 0.6),
                                              ("crisscross", 0.0),
                                              ("right-diagonal", 0.0)])
    def test_verdicts_do_not_depend_on_scale(self, pattern, skew):
        m = generate_structured_2d(8, 8, pattern=pattern, skew=skew)
        verdicts = set()
        for j in (-60, -40, -20, 0, 20, 40):
            coeffs = _scaled_laplacian(2.0 ** j)
            verdicts.add((_element(m, coeffs).all_pass, _edge(m, coeffs).all_pass))
        assert verdicts == ({(False, False)} if skew else {(True, True)})

    @pytest.mark.parametrize("s", [1.0, 1e-6, 1e-12])
    def test_small_obtuse_operator_fails(self, s):
        m = generate_structured_2d(8, 8, skew=0.6)
        coeffs = _scaled_laplacian(s)
        element = _element(m, coeffs)
        edge = _edge(m, coeffs)
        assert not element.all_pass and not edge.all_pass
        # the margin is scaled by |grad_i||grad_j||T|, not by the form
        assert element.min_margin == pytest.approx(
            s * math.cos(acuteness_audit(m).max_angle), rel=1e-9)
        assert edge.max_sum == pytest.approx(0.6 * s, rel=1e-9)


class TestEdgeCondition:
    def test_square_pair_boundary_case(self):
        mesh = adjacent_pair(math.pi / 2, math.pi / 2)
        report = _edge(mesh, poisson())
        assert report.num_edges == 1
        assert report.all_pass
        assert report.edges[0]["sum"] == pytest.approx(0.0, abs=1e-13)

    def test_equilateral_pair_closed_form(self):
        mesh = adjacent_pair(math.pi / 3, math.pi / 3)
        report = _edge(mesh, poisson())
        expected = -1.0 / math.sqrt(3.0)
        assert report.edges[0]["sum"] == pytest.approx(expected, rel=1e-12)
        assert report.edges[0]["poisson_closed_form"] == pytest.approx(expected,
                                                                       rel=1e-14)

    def test_wide_pair_fails(self):
        mesh = adjacent_pair(2.0, 1.5)  # alpha + beta > pi
        report = _edge(mesh, poisson())
        assert not report.all_pass
        assert report.edges[0]["sum"] > 0

    def test_dimension_guard(self):
        with pytest.raises(DimensionMismatch):
            _edge(generate_structured_3d(1, 1, 1), poisson())

    def test_matches_global_assembly_offdiagonal(self):
        m = generate_structured_2d(4, 3, skew=0.25)
        system = assemble_q(m, constant_field(m, 0.0), poisson())
        a = system.matrix.toarray()
        report = _edge(m, poisson())
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
            # the form frozen at zero and at a random state
            for form, matrix in (frozen_form(mesh, coeffs), frozen_form(mesh, coeffs, w)):
                records, all_pass, max_sum, identity_err = loop_edge_records(
                    mesh, form, PAIR_TOL)
                report = edge_condition_check_2d(mesh, coeffs, form, matrix)
                # json.dumps tells every bit, the sign of zero included
                assert json.dumps(report.edges) == json.dumps(records)
                assert (report.all_pass, report.max_sum, report.num_edges) == \
                    (all_pass, max_sum, len(records))
                assert report.poisson_identity_checked == unit
                if unit:
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
        report = _edge(m, poisson())
        assert report.poisson_identity_checked
        assert report.identity_max_error <= PAIR_TOL
        assert interior_edges_2d(m).opposite_angles.min() < 0.01

    def test_negative_zero_entries_sum_to_positive_zero(self):
        # as in the scalar sum 0.0 + x + y, which certificate bytes depend on;
        # all entries -0.0, then random mixes of +0.0 and -0.0
        mesh = adjacent_pair(math.pi / 2, math.pi / 2)
        rng = np.random.default_rng(9)
        signs = [np.ones((3, 2, 3, 3))] + [rng.choice([1.0, -1.0], (3, 2, 3, 3))
                                           for _ in range(16)]
        for sign in signs:
            parts = tuple(-0.0 * sign)
            records, _, _, _ = loop_edge_records(mesh, parts, PAIR_TOL)
            report = edge_condition_check_2d(mesh, poisson(), parts,
                                             assemble_matrix(mesh, parts))
            assert json.dumps(report.edges) == json.dumps(records)
            assert math.copysign(1.0, report.edges[0]["sum"]) == 1.0
            assert math.copysign(1.0, report.edges[0]["sum_reversed"]) == 1.0

    def test_unit_poisson_with_doubled_parts_fails_the_identity(self):
        m = generate_structured_2d(4, 4)
        coeffs = poisson()
        parts = tuple(2.0 * part for part in frozen_form(m, coeffs)[0])
        with pytest.raises(InvalidParameters, match="cotangent closed form"):
            edge_condition_check_2d(m, coeffs, parts, assemble_matrix(m, parts))

    @pytest.mark.parametrize("declared", [False, True])
    def test_identity_needs_unit_coefficients_at_every_vertex(self, declared):
        # a = 1 + xy is 1 on the row y = 0, where the first vertices lie;
        # it is not the unit Laplacian and must not be held to its closed form,
        # not even when it is (wrongly) declared constant
        m = generate_structured_2d(8, 8)
        coeffs = CoefficientSet(
            a=lambda x, e, p: 1.0 + x[..., 0] * x[..., 1],
            b=lambda x, e, p: np.zeros(np.shape(x)), c=lambda x, e: np.zeros(np.shape(e)),
            f=-1.0, g=0.0, lam=1.0, Lam=2.0, nu=0.0, c_mode="identically-zero",
            constant_coefficients=declared)
        report = _edge(m, coeffs)
        assert not report.poisson_identity_checked and report.all_pass
        cert = dmp_certificate(m, picard_solve(m, coeffs), coeffs)
        assert not cert.edge_condition.poisson_identity_checked
        assert set(cert.verdicts().values()) == {"pass"}

    @pytest.mark.parametrize("mesh", [generate_structured_2d(6, 6),
                                      generate_structured_3d(3, 3, 3)],
                             ids=["2d", "3d"])
    def test_one_assembly_map_per_certificate(self, mesh, monkeypatch):
        for coeffs in (poisson(f=1.0), quasilinear_a()):
            result = picard_solve(mesh, coeffs)
            calls = []
            real = dmpfem.solver.assembly_map
            monkeypatch.setattr(dmpfem.solver, "assembly_map",
                                lambda m: calls.append(m) or real(m))
            dmp_certificate(mesh, result, coeffs)
            monkeypatch.undo()
            assert len(calls) == 1


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

    @staticmethod
    def _fitted_input(n):
        """The fitted De Giorgi input of n² Poisson f = +1 at k* = 0 (alpha 4, beta 1.5)."""
        m = generate_structured_2d(n, n)
        u_h = picard_solve(m, poisson(f=1.0)).u_h
        grid = np.unique(np.concatenate([[0.0], u_h.nodal_values]))
        profile = np.column_stack([grid, level_set_profile(m, u_h, grid)])
        profile = profile[profile[:, 0] >= 0.0]
        return DeGiorgiInput(M=fit_decay_constant(profile, 4.0, 1.5, 0.0), alpha=4.0,
                             beta=1.5, k0=0.0, samples=profile)

    @pytest.mark.parametrize("fraction, tail_ok", [(4.0, True), (10.0, False)])
    def test_short_ladder_failures_match_oracle(self, monkeypatch, fraction, tail_ok):
        # a fraction of the lemma's rho keeps the fitted hypothesis but
        # fails the decay at tau = 1, and at rho/10 the tail too
        inp = self._fitted_input(16)
        rho = de_giorgi_rho(inp) / fraction
        monkeypatch.setattr(dmpfem.dmp, "de_giorgi_rho", lambda _: rho)
        report = de_giorgi_verify(inp)
        assert report.to_dict() == table_de_giorgi_verify(inp, rho=rho).to_dict()
        assert (report.decay_ok, report.first_decay_failure, report.tail_ok) \
            == (False, 1, tail_ok)

    def test_negative_decay_slack_matches_oracle(self, monkeypatch):
        inp = self._fitted_input(16)
        monkeypatch.setattr(dmpfem.dmp, "DECAY_SLACK", -0.5)
        report = de_giorgi_verify(inp)
        assert report.to_dict() == table_de_giorgi_verify(inp, rel_tol=-0.5).to_dict()
        assert (report.decay_ok, report.first_decay_failure) == (False, 0)

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
           problem=st.sampled_from(["poisson", "drift", "strong-drift", "quasilinear"]),
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
                  "strong-drift": advection_diffusion([40.0, -30.0], f=1.0),
                  "quasilinear": quasilinear_a(f=1.0)}[problem]
        v = {"random": lambda: random_nodal_field(m, rng),
             "ties": lambda: P1Field(m, np.round(rng.uniform(-1, 1, m.num_vertices), 1)),
             "constant": lambda: constant_field(m, 0.25),
             "solved": lambda: picard_solve(m, coeffs).u_h}[field]()
        # "top" leaves the single level k* = max u
        k_star = {"zero": 0.0, "below": v.min_value() - 0.1, "top": v.max_value()}[level]

        parts = local_form_parts(m, v, coeffs, quadrature_rule(2, 4))
        sweep = assumption_a_sweep(v, assemble_matrix(m, parts), k_star=k_star)
        _assert_sweep_matches_loop(sweep, m, v, parts, k_star)

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
        sweep = _sweep(m, coeffs, v)
        _assert_sweep_matches_loop(sweep, m, v, local_form_parts(
            m, v, coeffs, quadrature_rule(2, 2)), 0.0)
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
        with pytest.raises(InvalidParameters):
            DmpParams(p=math.inf)

    @pytest.mark.parametrize("r", [2.99, 2.9999999999])
    def test_overflowing_decay_ratio_refused(self, r):
        # beta = 3/r -> 1, so 2^(p/(beta - 1)) leaves the float range
        with pytest.raises(InvalidParameters, match=f"r={r}"):
            DmpParams(p=4.0, r=r)
        assert DmpParams(p=4.0, r=2.98).decay_beta > 1.0

    def test_de_giorgi_input_refuses_beta_near_one(self):
        with pytest.raises(InvalidParameters, match="too close to 1"):
            DeGiorgiInput(M=1.0, alpha=4.0, beta=1 + 1e-12, k0=0.0,
                          samples=np.array([[0.0, 1.0], [1.0, 0.0]]))


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

    def test_fitted_constant_failing_its_hypothesis_raises(self, monkeypatch):
        # a fit that undershoots is an internal inconsistency, not a verdict
        fit = dmpfem.dmp.fit_decay_constant
        monkeypatch.setattr(dmpfem.dmp, "fit_decay_constant", lambda *a: fit(*a) / 10.0)
        m = generate_structured_2d(8, 8)
        coeffs = poisson(f=1.0)
        with pytest.raises(HypothesisViolated, match="decay hypothesis fails"):
            dmp_certificate(m, picard_solve(m, coeffs), coeffs)

    @pytest.mark.parametrize("j", [-30, -12, 12, 30])
    def test_bound_verdicts_do_not_depend_on_scale(self, j):
        # f and g scaled by 2^j scale u_h and k* exactly; the slack of
        # sup u_h <= k* scales with them
        m = generate_structured_2d(8, 8)
        verdicts = []
        for s in (1.0, 2.0 ** j):
            for coeffs in (advection_diffusion([1.0, 0.0], f=-s, g=lambda x, s=s: s * x[..., 0]),
                           poisson(f=0.0, g=lambda x, s=s: s * (1.0 + x[..., 0] * x[..., 1]))):
                cert = dmp_certificate(m, picard_solve(m, coeffs), coeffs)
                assert cert.bound_tol == BOUND_TOL * max(abs(cert.k_star),
                                                         float(np.abs(cert.sup_uh)))
                verdicts.append((cert.theorem_3_2_verdict, cert.theorem_3_3_verdict))
        assert verdicts[:2] == verdicts[2:] == [("pass", "pass")] * 2

    def test_small_overshoot_at_small_scale_fails(self):
        # sup u_h = k* + 1e-12 on a field of size 1e-6 is an overshoot of
        # 1e-6 of the field's size, not rounding
        m = generate_structured_2d(8, 8)
        values = -1e-6 * np.ones(m.num_vertices)
        values[m.boundary_nodes] = 0.0
        interior = np.flatnonzero(~m.boundary_mask())
        values[interior[0]] = 1e-12
        fake = SolveResult(u_h=P1Field(m, values), picard_iterations=1,
                           final_update_norm=0.0, final_linear_residual=0.0,
                           converged=True, factorizations=0,
                           refinement_steps=0)
        cert = dmp_certificate(m, fake, poisson(f=0.0, g=0.0))
        assert cert.assumption.satisfied and cert.bound_tol == 1e-15
        assert cert.theorem_3_2_verdict == "fail"
        assert cert.theorem_3_3_verdict == "fail"
        assert cert.to_dict()["theorem_3_3"]["bound_tol"] == 1e-15

    @pytest.mark.parametrize("entry", ["f", "g"])
    def test_non_finite_source_or_boundary_rejected(self, entry):
        m = generate_structured_2d(4, 4)
        result = picard_solve(m, poisson())
        with pytest.raises(NonFiniteValue, match=f"^{entry} is inf at x="):
            dmp_certificate(m, result, poisson(**{entry: math.inf}))

    def test_non_finite_source_on_the_norm_rule_rejected(self):
        # exponent 8 asks for a degree-9 rule, sampled block by block
        m = generate_structured_2d(4, 4)
        coeffs = poisson(f=math.nan)
        with pytest.raises(NonFiniteValue, match="^f is nan at x="):
            dmpfem.dmp._source_norm(m, coeffs, 8.0, default_rule(m, coeffs), None)

    def test_unconverged_rejected(self):
        m = generate_structured_2d(4, 4)
        coeffs = poisson()
        fake = SolveResult(u_h=constant_field(m, 0.0), picard_iterations=0,
                           final_update_norm=1.0, final_linear_residual=1.0,
                           converged=False, factorizations=0,
                           refinement_steps=0)
        with pytest.raises(NotConverged):
            dmp_certificate(m, fake, coeffs)

    def test_mesh_without_interior_nodes_rejected(self):
        # every node of one lattice square or cube is a boundary node; the
        # solver still solves it, the certificate refuses it
        for m in (generate_structured_2d(1, 1), generate_structured_3d(1, 1, 1)):
            result = picard_solve(m, poisson())
            with pytest.raises(InvalidParameters, match="no interior nodes"):
                dmp_certificate(m, result, poisson())

    def test_refinement_family_bound_holds(self):
        for n in (4, 8, 16):
            m = generate_structured_2d(n, n)
            coeffs = advection_diffusion([1.0, 0.0], f=-1.0, g=lambda x: x[..., 0])
            result = picard_solve(m, coeffs)
            cert = dmp_certificate(m, result, coeffs)
            assert cert.h_nu < 1.0
            assert cert.theorem_3_3_verdict == "pass", f"n={n}"

    def test_element_sufficiency_implies_sweep(self):
        # whenever the element check passes on all pairs, the sweep must hold
        # for every solved field
        rng = np.random.default_rng(3)
        meshes = [generate_structured_2d(4, 4),
                  generate_structured_2d(3, 3, pattern="crisscross"),
                  equilateral_mesh(3, 2)]
        for m in meshes:
            report = _element(m, poisson())
            assert report.all_pass
            for _ in range(5):
                fc = rng.uniform(-2, 2)
                gc = rng.uniform(-2, 2, size=3)
                coeffs = poisson(
                    f=lambda x, fc=fc: np.full(x.shape[:-1], fc),
                    g=lambda x, gc=gc: gc[0] + gc[1] * x[..., 0] + gc[2] * x[..., 1])
                result = picard_solve(m, coeffs)
                k_star = compute_k_star(interpolate_boundary(m, coeffs.g),
                                        coeffs.c_mode)
                sweep = _sweep(m, coeffs, result.u_h, k_star=k_star)
                assert sweep.satisfied

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(kind=st.sampled_from(["equilateral", "right-diagonal", "kuhn"]),
           n=st.integers(2, 4), amount=st.sampled_from([0.0, 0.05]),
           b_scale=st.sampled_from([0.0, 0.3, 3.0]), c0=st.sampled_from([0.0, 0.5, 5.0]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_element_pass_implies_sweep_with_lower_order_terms(self, kind, n, amount,
                                                               b_scale, c0, seed):
        # acceptance test 05 with drift, reaction and a state-dependent a:
        # wherever every element pair passes, every assembled off-diagonal is
        # <= 0, so the cut-pair form is nonnegative for any field and threshold
        rng = np.random.default_rng(seed)
        base = {"equilateral": lambda: equilateral_mesh(n, n),
                "right-diagonal": lambda: generate_structured_2d(n, n),
                "kuhn": lambda: generate_structured_3d(n, n, n)}[kind]()
        m = perturbed_mesh(base, rng, amount)
        drift = rng.uniform(-1.0, 1.0, m.dim) * b_scale
        coeffs = CoefficientSet(
            a=lambda x, e, p: 1.0 + 0.5 * np.cos(e + x[..., 0]),
            b=lambda x, e, p: np.broadcast_to(drift, np.shape(x)),
            c=lambda x, e: np.full(np.shape(e), c0), f=0.0, g=0.0, lam=0.5, Lam=1.5,
            nu=10.0, c_mode="nonnegative")
        parts, matrix = frozen_form(m, coeffs, random_nodal_field(m, rng))
        report = element_condition_check(m, parts)
        if kind == "equilateral" and amount == 0.0 and b_scale <= 0.3 and c0 <= 0.5:
            assert report.all_pass  # the premise is met on these draws
        if report.all_pass:
            for _ in range(3):
                u = random_nodal_field(m, rng)
                assert assumption_a_sweep(u, matrix, float(rng.uniform(-1.0, 1.0))).satisfied

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

    @pytest.mark.parametrize("coeffs,expected", [(quasilinear_a(f=1.0), 1),
                                                  (poisson(f=1.0), 2)])
    def test_quadrature_points_computed_once_per_rule(self, monkeypatch, coeffs, expected):
        # once for the form parts, the zeroth-order check, the f scan and the
        # norm of f; a degree-2 rule leaves the degree-4 norm its own points
        m = generate_structured_2d(6, 6)
        result = picard_solve(m, coeffs)
        calls = []
        points = dmpfem.p1.physical_points

        def counted(*args):
            calls.append(args[1].degree)
            return points(*args)

        monkeypatch.setattr(dmpfem.dmp, "physical_points", counted)
        monkeypatch.setattr(dmpfem.solver, "physical_points", counted)
        dmp_certificate(m, result, coeffs)
        assert len(calls) == expected

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


def _dumps(report) -> str:
    return json.dumps(report.to_dict())


class TestBlockedPassesMatchOracles:
    """The pair-only element check and the blocked zeroth-order check give the
    bytes of the full-table and unblocked oracles, zero signs included."""

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(dim=st.sampled_from([2, 3]), n=st.integers(1, 4),
           pattern=st.sampled_from(["right-diagonal", "crisscross"]),
           amount=st.sampled_from([0.0, 0.05, 0.15]),
           b_kind=st.sampled_from(sorted(KERNEL_B)), c_kind=st.sampled_from(sorted(KERNEL_C)),
           supplied_div=st.booleans(), at_zero=st.booleans(),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_reports_match_oracles(self, dim, n, pattern, amount, b_kind, c_kind,
                                   supplied_div, at_zero, seed):
        rng = np.random.default_rng(seed)
        base = generate_structured_2d(n + 1, n, pattern=pattern) if dim == 2 \
            else generate_structured_3d(n, n, n + 1)
        m = perturbed_mesh(base, rng, amount)
        coeffs = CoefficientSet(
            a=lambda x, e, p: 1.0 + 0.5 * np.cos(e + x[..., 0]),
            b=KERNEL_B[b_kind], c=KERNEL_C[c_kind], f=0.0, g=0.0, lam=0.5, Lam=1.5, nu=10.0,
            div_b=(lambda x, e, p: np.sin(x[..., 0] + e)) if supplied_div else None)
        w = constant_field(m, 0.0) if at_zero else random_nodal_field(m, rng)
        rule = default_rule(m, coeffs)
        for form in (coeffs, poisson()):
            parts = local_form_parts(m, w, form, rule)
            assert _dumps(element_condition_check(m, parts)) == \
                _dumps(full_element_condition_check(m, parts))
        assert _dumps(check_zeroth_order_condition(m, w, coeffs)) == \
            _dumps(unblocked_zeroth_order_condition(m, w, coeffs, rule))

    @pytest.mark.parametrize("n", [4, 8])
    def test_kuhn_zero_margin_sign(self, n):
        # right dihedral angles give margins of +0.0 and -0.0; the reported
        # minimum reads a zero as +0.0, whichever of the two the table holds
        m = generate_structured_3d(n, n, n)
        coeffs = quasilinear_a(f=1.0)
        for w in (constant_field(m, 0.0), random_nodal_field(m, np.random.default_rng(n)),
                  picard_solve(m, coeffs).u_h):
            parts = local_form_parts(m, w, coeffs, default_rule(m, coeffs))
            assert _dumps(element_condition_check(m, parts)) == \
                _dumps(full_element_condition_check(m, parts))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_block_size_does_not_change_bytes(self, monkeypatch, dim):
        rng = np.random.default_rng(dim)
        base = generate_structured_2d(7, 6) if dim == 2 else generate_structured_3d(3, 3, 4)
        # an odd cell count, so that blocks of two cells leave one over
        m = perturbed_mesh(build_mesh(base.vertices, base.cells[:-1]), rng, 0.1)
        coeffs = CoefficientSet(
            a=lambda x, e, p: 1.0 + 0.5 * np.cos(e + x[..., 0]), b=drift_field,
            c=KERNEL_C["field"], f=lambda x: 1.0 - x[..., 0], g=0.0,
            lam=0.5, Lam=1.5, nu=10.0, c_mode="nonnegative")
        points = len(default_rule(m, coeffs).weights)
        outputs = []
        # one cell (taken as two), one cell short of the mesh, more than it holds
        for block in (1, points * (m.num_cells - 1), 10 ** 9):
            monkeypatch.setattr(dmpfem.solver, "BLOCK_POINTS", block)
            result = picard_solve(m, coeffs)
            cert = dmp_certificate(m, result, coeffs, params=DmpParams(r=1.2))
            outputs.append((result.u_h.nodal_values.tobytes(), _dumps(cert)))
        assert outputs[0] == outputs[1] == outputs[2]


def _peak_of(monkeypatch, module, name, peaks):
    """Record in `peaks[name]` the largest tracemalloc peak, above the memory
    held at entry, of any call of module.name; tracemalloc must be running."""
    fn = getattr(module, name)

    def wrapper(*args, **kwargs):
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        try:
            return fn(*args, **kwargs)
        finally:
            peaks[name] = max(peaks.get(name, 0), tracemalloc.get_traced_memory()[1] - before)

    monkeypatch.setattr(module, name, wrapper)


class TestMemoryBudget:
    def test_certificate_holds_no_full_point_temporaries(self, monkeypatch):
        # formula coefficients and no div_b, as a --coeffs file gives them,
        # so the zeroth-order check takes finite differences of b
        m = generate_structured_3d(12, 12, 12)
        coeffs = CoefficientSet(
            a=state_function("1 + eta^2/(1+eta^2)", 3),
            b=vector_state_function(["0.1*eta", "0.2*x", "0.1*sin(z)"], 3),
            c=state_function("1", 3, with_gradient=False), f=point_function("1", 3),
            g=point_function("0", 3), lam=1.0, Lam=2.0, nu=2.0, c_mode="nonnegative")
        result = picard_solve(m, coeffs)
        rule = default_rule(m, coeffs)
        cell_points = m.num_cells * len(rule.weights) * 8  # one (C, Q) float array
        peaks = {}
        for name in ("check_zeroth_order_condition", "local_form_parts"):
            _peak_of(monkeypatch, dmpfem.dmp, name, peaks)
        tracemalloc.start()
        try:
            dmp_certificate(m, result, coeffs)
        finally:
            tracemalloc.stop()
        # what the passes must hold: their outputs, plus the temporaries of
        # one block of points (16 floats a point); one more (C, Q, D) array,
        # 3.3 MiB here, breaks either budget
        block = 16 * dmpfem.solver.BLOCK_POINTS * 8
        parts = 3 * m.num_cells * 16 * 8
        assert peaks["check_zeroth_order_condition"] < cell_points + block
        assert peaks["local_form_parts"] < parts + block

    def test_small_r_norm_rule_is_capped(self, tmp_path):
        # r = 1.01 asks for the L^134.7 norm of f; an uncapped degree-136
        # rule would hold 328,509 points per tetrahedron
        mesh = tmp_path / "cube.json"
        assert main(["mesh-gen", "--cube", "4x4x4", "-o", str(mesh)]) == 0
        out = tmp_path / "run"
        tracemalloc.start()
        try:
            code = main(["dmp-check", "--mesh", str(mesh), "--solve", "--f", "1",
                         "--r", "1.01", "-o", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 16 * 2 ** 20
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["theorem_3_2"]["f_norm_exponent"] == pytest.approx(4.0 * 1.01 / (3.0 * 0.01))
        assert cert["theorem_3_2"]["f_norm"] == pytest.approx(1.0, rel=1e-12)


class TestZeroDriftReactionCertificate:
    """b = 0 with c0 > 0: the reaction term makes the right-angle element
    pairs negative and lifts the diagonal edges' sums above zero."""

    @pytest.fixture(scope="class")
    def solved(self):
        m = generate_structured_2d(16, 16)
        coeffs = advection_diffusion([0.0, 0.0], c0=0.5)
        result = picard_solve(m, coeffs)
        return m, coeffs, result, dmp_certificate(m, result, coeffs)

    def test_element_block_matches_full_table_oracle(self, solved):
        m, coeffs, result, cert = solved
        parts, _ = frozen_form(m, coeffs, result.u_h)
        assert _dumps(cert.element_condition) == _dumps(
            full_element_condition_check(m, parts))

    def test_verdicts(self, solved):
        verdicts = solved[3].verdicts()
        assert (verdicts["element"], verdicts["edge"], verdicts["assumption"]) == \
            ("fail", "fail", "pass")

    def test_edge_check_fails_on_the_diagonals(self, solved):
        m, _, _, cert = solved
        failing = {(e["node_m"], e["node_n"]) for e in cert.edge_condition.edges
                   if e["verdict"] == "fail"}
        v = m.vertices
        diagonal = {(e["node_m"], e["node_n"]) for e in cert.edge_condition.edges
                    if np.all(v[e["node_m"]] != v[e["node_n"]])}
        assert len(diagonal) == 16 * 16
        assert failing == diagonal
        assert all(e["sum"] > 0 for e in cert.edge_condition.edges if e["verdict"] == "fail")


class TestSupNormSource:
    """r = 1 gives an infinite f-norm exponent: the certificate's f_norm is
    the largest |f| over the degree-4 quadrature points, and its exponent is
    written as null."""

    @pytest.mark.parametrize("problem", [poisson, quasilinear_a])
    def test_f_norm_is_max_over_degree_4_points(self, problem):
        # poisson certifies with the degree-2 rule, quasilinear-a with degree 4
        m = generate_structured_2d(6, 5, skew=0.2)
        coeffs = problem(f=lambda x: np.sin(3.0 * x[..., 0]) - x[..., 0] * x[..., 1])
        cert = dmp_certificate(m, picard_solve(m, coeffs), coeffs,
                               params=DmpParams(p=3.0, r=1.0))
        points = dmpfem.p1.physical_points(m, quadrature_rule(2, 4))
        assert cert.f_norm == float(np.abs(coeffs.f(points)).max())
        written = cert.to_dict()
        assert written["theorem_3_2"]["f_norm_exponent"] is None
        assert written["params"]["s"] is None


class TestSourceNormScale:
    """The certificate's f_norm divides |f| by its maximum before the power,
    so a large exponent neither over- nor underflows it."""

    @pytest.mark.parametrize("r", [1.0001, 1.2, 1.0])
    def test_power_of_two_scaling_is_exact(self, r):
        # r = 1.0001 gives the exponent 13,334.7, under which |f|^exponent is
        # 0 or inf at every point
        m = generate_structured_2d(8, 8)
        norms = {}
        for k in (-40, 0, 3):
            coeffs = poisson(f=lambda x, k=k: 2.0 ** k * (0.5 + x[..., 0] * x[..., 1]))
            cert = dmp_certificate(m, picard_solve(m, coeffs), coeffs, params=DmpParams(r=r))
            norms[k] = cert.f_norm
        assert 0.5 < norms[0] <= 1.5
        assert norms[-40] == norms[0] * 2.0 ** -40 and norms[3] == norms[0] * 8.0
