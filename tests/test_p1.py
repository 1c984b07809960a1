import math
import subprocess
import sys
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dmpfem
from dmpfem.errors import InvalidParameters
from dmpfem.mesh import (
    acuteness_audit,
    barycentric_gradients,
    build_mesh,
    generate_structured_2d,
    generate_structured_3d,
    macro_measures,
)
from dmpfem.p1 import (
    P1Field,
    constant_field,
    cut_minus,
    cut_plus,
    discrete_lp,
    field_from_csv,
    field_to_csv,
    gradient_table,
    integrate,
    interpolate,
    lp_norm,
    quadrature_rule,
)

from conftest import (
    brute_force_dihedrals,
    facet_normals,
    perturbed_mesh,
    random_nodal_field,
    row_field_to_csv,
    triangle_vertex_angles,
)


def reference_simplex_monomial(exponents) -> float:
    """Exact integral of prod(x_i^a_i) over the unit reference simplex."""
    dim = len(exponents)
    total = sum(exponents)
    num = 1.0
    for e in exponents:
        num *= math.factorial(e)
    return num / math.factorial(total + dim)


class TestShapeData:
    def test_reference_gradients(self, reference_triangle):
        assert reference_triangle.shape_gradients[0] == pytest.approx(
            np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]]), abs=1e-14)

    def test_gradient_table_cached_per_mesh(self):
        m = generate_structured_2d(3, 3)
        table = gradient_table(m)
        assert gradient_table(m) is table
        assert not table.flags.writeable
        assert np.array_equal(table, barycentric_gradients(m.vertices[m.cells]))
        # built lazily: a fresh mesh holds no table until first asked
        fresh = generate_structured_2d(3, 3)
        assert "shape_gradients" not in vars(fresh)

    def test_equilateral_gradient_norms(self):
        s = math.sqrt(3.0) / 2.0
        m = build_mesh([[0, 0], [1, 0], [0.5, s]], [[0, 1, 2]])
        assert np.linalg.norm(m.shape_gradients[0], axis=-1) == pytest.approx(
            np.full(3, 2.0 / math.sqrt(3.0)), abs=1e-13)

    def test_gradients_sum_to_zero(self):
        m = generate_structured_3d(2, 1, 1)
        assert np.abs(m.shape_gradients.sum(axis=1)).max() < 1e-12

    def test_gradient_normal_relation(self):
        # grad phi_i = -n_i / height_i, n_i the outward normal of the facet
        # opposite vertex i and height_i = d |T| / |F_i|
        for m in (generate_structured_2d(3, 3, skew=0.3),
                  perturbed_mesh(generate_structured_3d(2, 2, 2),
                                 np.random.default_rng(8), 0.1)):
            for cell, grads, measure in zip(m.cells, m.shape_gradients, m.cell_measures):
                facets, normals = facet_normals(m.vertices[cell])
                expected = -(facets / (m.dim * measure))[:, None] * normals
                assert grads == pytest.approx(expected, abs=1e-12)

    def test_kronecker_property(self):
        m = generate_structured_2d(2, 2, skew=0.15)
        for cell, grads in zip(m.cells, m.shape_gradients):
            verts = m.vertices[cell]
            for i in range(3):
                # affine shape function: 1 at own vertex plus gradient drift
                values = 1.0 + (verts - verts[i]) @ grads[i]
                assert values == pytest.approx(np.eye(3)[i], abs=1e-12)

    def test_angle_from_gradients_matches_mesh_angles(self):
        # acuteness_audit derives the pair angles from the shape gradients;
        # pair (i, j) holds the angle at the third vertex in 2D and the
        # dihedral angle at edge (i, j) in 3D
        for m in (generate_structured_2d(3, 2, skew=0.4),
                  perturbed_mesh(generate_structured_3d(2, 2, 2),
                                 np.random.default_rng(11), 0.1)):
            for cell, angles in zip(m.cells, acuteness_audit(m).cell_angles):
                corners = m.vertices[cell]
                oracle = (triangle_vertex_angles(corners)[::-1] if m.dim == 2
                          else brute_force_dihedrals(corners))
                assert angles == pytest.approx(oracle, abs=1e-12)

    def test_angle_from_gradients_law_of_cosines(self):
        rng = np.random.default_rng(11)
        verts = rng.uniform(0, 1, (3, 2))
        verts[2] += [0, 1]  # keep it non-degenerate
        m = build_mesh(verts, [[0, 1, 2]])
        angles = acuteness_audit(m).cell_angles[0]  # pairs (0,1), (0,2), (1,2)
        oracle = triangle_vertex_angles(m.vertices[m.cells[0]])
        # the pair angle (i, j) equals the classical angle at the third vertex
        assert angles[2] == pytest.approx(oracle[0], abs=1e-12)
        assert angles[1] == pytest.approx(oracle[1], abs=1e-12)
        assert angles[0] == pytest.approx(oracle[2], abs=1e-12)


class TestQuadrature:
    @pytest.mark.parametrize("dim,degree", [(2, 1), (2, 2), (2, 4), (2, 6), (2, 9),
                                            (3, 1), (3, 2), (3, 4), (3, 6)])
    def test_monomial_exactness(self, dim, degree):
        rule = quadrature_rule(dim, degree)
        assert rule.degree >= degree
        assert np.all(rule.weights > 0)
        assert rule.weights.sum() == pytest.approx(1.0, abs=1e-14)
        ref = np.vstack([np.zeros(dim), np.eye(dim)])
        pts = rule.points @ ref
        volume = 1.0 / math.factorial(dim)
        for exponents in product(range(degree + 1), repeat=dim):
            if sum(exponents) > degree:
                continue
            exact = reference_simplex_monomial(exponents)
            approx = volume * float(
                rule.weights @ np.prod(pts ** np.array(exponents), axis=1))
            assert abs(approx - exact) <= 1e-13 * abs(exact)

    def test_tabulated_rules_leave_scipy_special_unimported(self):
        # only the collapsed rules beyond the tables need scipy.special
        script = (
            "import sys\n"
            "from dmpfem import generate_structured_2d, picard_solve, quasilinear_a\n"
            "picard_solve(generate_structured_2d(4, 4), quasilinear_a())\n"
            "assert 'scipy.special' not in sys.modules\n"
            "from dmpfem.p1 import quadrature_rule\n"
            "quadrature_rule(3, 9)\n"
            "assert 'scipy.special' in sys.modules\n")
        src = str(Path(dmpfem.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-c", script], cwd=src,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr

    def test_points_inside_simplex(self):
        for dim, degree in [(2, 6), (3, 4)]:
            rule = quadrature_rule(dim, degree)
            assert np.all(rule.points >= -1e-15)
            assert np.abs(rule.points.sum(axis=1) - 1.0).max() < 1e-13

    def test_partition_of_unity(self):
        m = generate_structured_2d(2, 2, skew=0.2)
        rng = np.random.default_rng(5)
        for t in rng.integers(0, m.num_cells, size=3):
            grads = m.shape_gradients[t]
            verts = m.vertices[m.cells[t]]
            bary = rng.dirichlet(np.ones(3), size=100)
            points = bary @ verts
            values = np.stack([
                1.0 + (points - verts[i]) @ grads[i] for i in range(3)],
                axis=1)
            assert np.abs(values.sum(axis=1) - 1.0).max() < 1e-12
            assert values.min() > -1e-12
            assert values.max() < 1.0 + 1e-12


class TestCutFunctions:
    def test_constant_above(self, reference_triangle):
        v = constant_field(reference_triangle, 5.0)
        assert np.all(cut_plus(v, 3.0).nodal_values == 2.0)
        assert np.all(cut_minus(v, 3.0).nodal_values == 0.0)

    def test_constant_below(self, reference_triangle):
        v = constant_field(reference_triangle, 1.0)
        assert np.all(cut_plus(v, 3.0).nodal_values == 0.0)
        assert np.all(cut_minus(v, 3.0).nodal_values == -2.0)

    def test_node_at_threshold(self, reference_triangle):
        v = P1Field(reference_triangle, np.array([3.0, 4.0, 2.0]))
        assert cut_plus(v, 3.0).nodal_values[0] == 0.0
        assert cut_minus(v, 3.0).nodal_values[0] == 0.0

    def test_decomposition_identity(self):
        m = generate_structured_2d(4, 4)
        rng = np.random.default_rng(2)
        v = random_nodal_field(m, rng, scale=3.0)
        # k = 0 leaves v - k unrounded, so recombination is bitwise exact
        total = cut_plus(v, 0.0).nodal_values + cut_minus(v, 0.0).nodal_values
        assert np.array_equal(total, v.nodal_values)
        for k in (-1.0, 0.37, 2.9):
            total = cut_plus(v, k).nodal_values + cut_minus(v, k).nodal_values + k
            assert total == pytest.approx(v.nodal_values, rel=1e-15, abs=1e-15)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(values=st.lists(st.floats(-1e300, 1e300), min_size=9, max_size=9),
           k=st.one_of(st.just(0.0), st.floats(-1e300, 1e300)))
    def test_decomposition_identity_property(self, values, k):
        v = P1Field(generate_structured_2d(2, 2), np.array(values))
        plus, minus = cut_plus(v, k).nodal_values, cut_minus(v, k).nodal_values
        assert np.all(plus >= 0.0) and np.all(minus <= 0.0)
        total = plus + minus + k
        if k == 0.0:
            assert np.array_equal(total, v.nodal_values)
        ulp = np.spacing(np.maximum(np.abs(v.nodal_values), abs(k)))
        assert np.all(np.abs(total - v.nodal_values) <= ulp)

    def test_signs_and_extremes(self):
        m = generate_structured_2d(3, 3)
        rng = np.random.default_rng(4)
        v = random_nodal_field(m, rng)
        for k in rng.uniform(-2, 2, size=5):
            assert cut_plus(v, k).nodal_values.min() >= 0.0
            assert cut_minus(v, k).nodal_values.max() <= 0.0
        assert np.all(cut_plus(v, v.max_value()).nodal_values == 0.0)
        assert np.all(cut_minus(v, v.min_value()).nodal_values == 0.0)

    def test_cut_norm_monotone_in_level(self):
        m = generate_structured_2d(4, 4)
        v = random_nodal_field(m, np.random.default_rng(9))
        norms = [lp_norm(cut_plus(v, k), 2.0) for k in np.linspace(-1.2, 1.2, 9)]
        assert np.all(np.diff(norms) <= 1e-14)


class TestIntegration:
    def test_constant_over_unit_square(self):
        m = generate_structured_2d(3, 3)
        rule = quadrature_rule(2, 2)
        assert integrate(m, lambda x: np.ones(x.shape[:-1]), rule) == pytest.approx(
            1.0, abs=1e-14)

    def test_linear_over_unit_square(self):
        m = generate_structured_2d(4, 4)
        rule = quadrature_rule(2, 2)
        assert integrate(m, lambda x: x[..., 0], rule) == pytest.approx(0.5,
                                                                        abs=1e-14)

    def test_shape_products_against_exact_formula(self, reference_triangle):
        # high-order quadrature oracle vs the closed-form simplex integrals
        m = reference_triangle
        grads = m.shape_gradients[0]
        verts = m.vertices[m.cells[0]]
        rule = quadrature_rule(2, 6)
        area = m.cell_measures[0]
        for i in range(3):
            for j in range(3):
                def product_ij(x, i=i, j=j):
                    li = 1.0 + (x - verts[i]) @ grads[i]
                    lj = 1.0 + (x - verts[j]) @ grads[j]
                    return li * lj
                value = integrate(m, product_ij, rule)
                expected = area / 6.0 if i == j else area / 12.0
                assert value == pytest.approx(expected, rel=1e-13)


class TestNorms:
    def test_constant_field_norms(self):
        m = generate_structured_2d(3, 3)
        c = -2.5
        v = constant_field(m, c)
        for p in (1.0, 2.0, 3.5):
            assert lp_norm(v, p) == pytest.approx(abs(c) * 1.0 ** (1 / p), rel=1e-12)
            expected = abs(c) * (3.0 * m.total_measure) ** (1.0 / p)
            assert discrete_lp(v, p) == pytest.approx(expected, rel=1e-12)

    def test_zero_field(self):
        m = generate_structured_2d(2, 2)
        v = constant_field(m, 0.0)
        assert lp_norm(v, 2.0) == 0.0
        assert discrete_lp(v, 2.0) == 0.0

    @pytest.mark.parametrize("p, degree", [(1.0, 4), (2.0, 4), (3.5, 5), (11.0, 12),
                                           (11.5, 12), (64.0, 12), (1e9, 12)])
    def test_quadrature_degree_is_capped(self, monkeypatch, p, degree):
        # the certificate's f norm uses the same degrees; uncapped, p = 64
        # would take a rule of 35,937 points per tetrahedron
        asked = []

        def recorded(dim, d):
            asked.append(d)
            return quadrature_rule(dim, d)

        monkeypatch.setattr(dmpfem.p1, "quadrature_rule", recorded)
        v = constant_field(generate_structured_3d(2, 2, 2), -2.5)
        assert lp_norm(v, p) == pytest.approx(2.5, rel=1e-12)
        assert asked == [degree]

    def test_p_validation(self):
        m = generate_structured_2d(2, 2)
        v = constant_field(m, 1.0)
        with pytest.raises(InvalidParameters):
            lp_norm(v, 0.5)

    @pytest.mark.parametrize("value", [1e-300, 1e-10, 0.5, 1e10, 1e300])
    @pytest.mark.parametrize("p", [2.0, 64.0, 1000.0, 13334.666666668136, math.inf])
    def test_large_exponents_and_extreme_values_stay_finite(self, value, p):
        # |v|^p over- or underflows here for every value but 0.5 and every
        # p but 2; the norms divide by max |v| before the power
        m = generate_structured_2d(3, 3)
        v = constant_field(m, -value)
        assert lp_norm(v, p) == pytest.approx(value, rel=1e-12)
        assert discrete_lp(v, p) == pytest.approx(
            value * (3.0 * m.total_measure) ** (1.0 / p), rel=1e-12)

    @pytest.mark.parametrize("k", [-600, -3, 5, 600])
    @pytest.mark.parametrize("p", [1.5, 3.0, 64.0, 1e4, math.inf])
    def test_power_of_two_scaling_is_exact(self, k, p):
        rng = np.random.default_rng(11)
        m = generate_structured_2d(4, 3)
        v = random_nodal_field(m, rng)
        scaled = dmpfem.p1.P1Field(m, v.nodal_values * 2.0 ** k)
        assert lp_norm(scaled, p) == lp_norm(v, p) * 2.0 ** k
        assert discrete_lp(scaled, p) == discrete_lp(v, p) * 2.0 ** k

    def test_equivalence_ratio_bounded_across_refinement(self):
        # the L2/weighted-nodal ratio must stay in the interval measured on
        # the coarse mesh (with margin) as the mesh refines
        rng = np.random.default_rng(123)
        ratios = {}
        for n in (4, 8):
            m = generate_structured_2d(n, n)
            weights = macro_measures(m)
            vals = []
            for _ in range(40):
                v = random_nodal_field(m, rng)
                num = lp_norm(v, 2.0) ** 2
                den = float(v.nodal_values ** 2 @ weights)
                vals.append(num / den)
            ratios[n] = (min(vals), max(vals))
        lo, hi = ratios[4]
        margin = 0.2 * (hi - lo)
        assert ratios[8][0] >= lo - margin
        assert ratios[8][1] <= hi + margin

    @pytest.mark.parametrize("dim", [2, 3])
    def test_csv_bytes_match_row_writer(self, tmp_path, dim):
        rng = np.random.default_rng(dim)
        base = generate_structured_2d(6, 7, skew=0.2) if dim == 2 \
            else generate_structured_3d(2, 3, 4)
        m = perturbed_mesh(base, rng, 0.1)
        u = rng.normal(size=m.num_vertices) * 10.0 ** rng.integers(-300, 300, m.num_vertices)
        u[:3] = [-0.0, 0.0, 1e-320]
        field_to_csv(P1Field(m, u), tmp_path / "new.csv")
        row_field_to_csv(P1Field(m, u), tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_interpolate_and_csv_roundtrip(self, tmp_path):
        m = generate_structured_3d(1, 1, 1)
        v = interpolate(m, lambda x: x[..., 0] + 2.0 * x[..., 2])
        path = tmp_path / "field.csv"
        field_to_csv(v, path)
        header = path.read_text().splitlines()[0]
        assert header == "node_index,x,y,z,value"
        back = field_from_csv(m, path)
        assert np.array_equal(back.nodal_values, v.nodal_values)
