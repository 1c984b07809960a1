import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dmpfem.mesh
from dmpfem.errors import (
    DegenerateCell,
    DimensionMismatch,
    IndexOutOfRange,
    InvalidParameters,
    NonFiniteValue,
    NonManifold,
)
from dmpfem.mesh import (
    acuteness_audit,
    build_mesh,
    generate_structured_2d,
    generate_structured_3d,
    interior_edges_2d,
    load_mesh,
    macro_measures,
    mesh_from_dict,
    mesh_to_dict,
    row_norms,
    save_mesh,
    write_rows,
    write_vtk,
)

from conftest import (
    all_pairs_diameters,
    brute_force_dihedrals,
    equilateral_mesh,
    facet_normals,
    lapack_geometry,
    loop_boundary_nodes,
    loop_facet_owners,
    loop_interior_edges_2d,
    loop_structured_2d,
    loop_structured_3d,
    oracle_meshes,
    perturbed_mesh,
    row_write_vtk,
    triangle_vertex_angles,
)


class TestBuildMesh:
    def test_reference_triangle(self, reference_triangle):
        m = reference_triangle
        assert m.dim == 2
        assert m.cell_measures[0] == pytest.approx(0.5, abs=1e-15)
        assert m.h == pytest.approx(math.sqrt(2.0), abs=1e-15)
        assert m.boundary_nodes == frozenset({0, 1, 2})

    def test_reference_tet(self, reference_tet):
        m = reference_tet
        assert m.cell_measures[0] == pytest.approx(1.0 / 6.0, abs=1e-15)
        assert m.h == pytest.approx(math.sqrt(2.0), abs=1e-15)

    def test_two_triangles_share_edge(self):
        m = build_mesh([[0, 0], [1, 0], [1, 1], [0, 1]], [[0, 1, 2], [0, 2, 3]])
        assert len(interior_edges_2d(m)) == 1
        assert len(m.boundary_nodes) == 4

    def test_negative_orientation_repaired(self):
        m = build_mesh([[0, 0], [1, 0], [0, 1]], [[0, 2, 1]])
        assert m.cell_measures[0] > 0
        assert set(m.cells[0].tolist()) == {0, 1, 2}

    def test_degenerate_cell_rejected(self):
        with pytest.raises(DegenerateCell):
            build_mesh([[0, 0], [1, 0], [2, 0]], [[0, 1, 2]])

    def test_repeated_vertex_rejected(self):
        with pytest.raises(DegenerateCell):
            build_mesh([[0, 0], [1, 0], [0, 1]], [[0, 1, 1]])

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            build_mesh([[0, 0], [1, 0], [0, 1]], [[0, 1, 3]])

    def test_non_manifold_edge(self):
        verts = [[0, 0], [1, 0], [0, 1], [0, -1], [-1, 0.5]]
        cells = [[0, 1, 2], [0, 1, 3], [0, 1, 4]]
        with pytest.raises(NonManifold):
            build_mesh(verts, cells)

    @pytest.mark.parametrize("name", ["kuhn", "skewed", "crisscross", "perturbed-2d",
                                      "perturbed-3d"])
    def test_diameters_match_all_pairs_oracle(self, name):
        rng = np.random.default_rng(8)
        m = {"kuhn": lambda: generate_structured_3d(6, 5, 4),
             "skewed": lambda: generate_structured_2d(16, 16, skew=0.6),
             "crisscross": lambda: generate_structured_2d(10, 12, pattern="crisscross"),
             "perturbed-2d": lambda: perturbed_mesh(generate_structured_2d(12, 9), rng, 0.2),
             "perturbed-3d": lambda: perturbed_mesh(generate_structured_3d(4, 4, 4), rng, 0.1),
             }[name]()
        want = all_pairs_diameters(m.vertices[m.cells])
        assert m.cell_diameters.tobytes() == want.tobytes()
        assert m.h == float(want.max())
        # the cached gradients are a strided view; a contiguous copy and
        # random vectors take the same sums
        rand = rng.standard_normal((50, 4, m.dim)) * np.exp(5.0 * rng.standard_normal((50, 4, 1)))
        for vectors in (m.shape_gradients, np.ascontiguousarray(m.shape_gradients), rand):
            assert row_norms(vectors).tobytes() == \
                np.linalg.norm(vectors, axis=-1).tobytes()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_vertex_rejected(self, bad):
        verts = [[0, 0], [1, 0], [1, 1], [0, 1]]
        verts[2][1] = bad
        with pytest.raises(NonFiniteValue, match="vertex 2"):
            build_mesh(verts, [[0, 1, 2], [0, 2, 3]])


class TestClosedFormGeometry:
    """Shape gradients and cell measures from the edge vectors, without LAPACK."""

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(dim=st.sampled_from([2, 3]), n=st.integers(1, 4),
           pattern=st.sampled_from(["right-diagonal", "crisscross"]),
           skew=st.floats(0.0, 0.6), amount=st.floats(0.0, 0.15),
           mirror=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_lapack_oracle(self, dim, n, pattern, skew, amount, mirror, seed):
        base = generate_structured_2d(n + 1, n, pattern=pattern, skew=skew) if dim == 2 \
            else generate_structured_3d(n, n, n + 1)
        m = perturbed_mesh(base, np.random.default_rng(seed), amount)
        if mirror:  # negatively oriented input, repaired by build_mesh
            m = build_mesh(m.vertices * np.r_[-1.0, np.ones(dim - 1)], m.cells)
        grads, signed = lapack_geometry(m.vertices[m.cells])
        scale = np.abs(grads).max(axis=(1, 2))[:, None, None]
        assert (np.abs(m.shape_gradients - grads) <= 1e-13 * scale).all()
        assert (signed > 0).all()
        assert (np.abs(m.cell_measures - signed) <= 1e-13 * signed).all()

    @pytest.mark.parametrize("make, measure", [
        (lambda: generate_structured_2d(16, 16), 1.0 / 512),
        (lambda: generate_structured_3d(8, 8, 8), 1.0 / 3072),
    ], ids=["right-diagonal-16", "kuhn-8"])
    def test_dyadic_measures_exact(self, make, measure):
        m = make()
        assert (m.cell_measures == measure).all()
        assert m.total_measure == 1.0

    def test_no_lapack_call(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("LAPACK call in the mesh geometry")

        monkeypatch.setattr(np.linalg, "inv", forbidden)
        monkeypatch.setattr(np.linalg, "det", forbidden)
        for m in (generate_structured_2d(4, 3, pattern="crisscross", skew=0.3),
                  generate_structured_3d(2, 3, 2)):
            rebuilt = build_mesh(m.vertices, m.cells[:, ::-1])
            assert rebuilt.shape_gradients.shape == (m.num_cells, m.dim + 1, m.dim)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_table_is_read_only_component_major_view(self, dim):
        m = generate_structured_2d(3, 2) if dim == 2 else generate_structured_3d(2, 1, 1)
        grads = m.shape_gradients
        assert not grads.flags.writeable
        assert not grads.flags.c_contiguous
        item = grads.itemsize
        assert grads.strides == (dim * (dim + 1) * item, item, (dim + 1) * item)


class TestGenerators:
    def test_single_square_split(self):
        m = generate_structured_2d(1, 1)
        assert m.num_cells == 2
        for angles in acuteness_audit(m).cell_angles:
            assert np.sort(angles) == pytest.approx(
                [math.pi / 4, math.pi / 4, math.pi / 2], abs=1e-12)

    def test_structured_counts(self):
        m = generate_structured_2d(4, 4)
        assert m.num_cells == 2 * 4 * 4
        assert m.num_vertices == 5 * 5
        audit = acuteness_audit(m)
        assert audit.max_angle == pytest.approx(math.pi / 2, abs=1e-12)

    def test_crisscross_counts(self):
        m = generate_structured_2d(3, 2, pattern="crisscross")
        assert m.num_cells == 4 * 3 * 2
        assert m.num_vertices == 4 * 3 + 3 * 2

    def test_skew_creates_obtuse(self):
        m = generate_structured_2d(2, 2, skew=0.6)
        oracle = np.array([triangle_vertex_angles(m.vertices[cell]) for cell in m.cells])
        assert oracle.max() > math.pi / 2
        # pair (i, j) holds the angle at the third vertex 3 - i - j
        assert acuteness_audit(m).cell_angles == pytest.approx(oracle[:, ::-1], abs=1e-12)

    def test_parameter_validation(self):
        with pytest.raises(InvalidParameters):
            generate_structured_2d(0, 1)
        with pytest.raises(InvalidParameters):
            generate_structured_2d(1, 1, skew=1.0)
        with pytest.raises(InvalidParameters):
            generate_structured_2d(1, 1, pattern="diagonal")
        with pytest.raises(InvalidParameters):
            generate_structured_3d(1, 0, 1)
        for exponent in (-1.0, math.nan, math.inf):
            with pytest.raises(InvalidParameters):
                acuteness_audit(generate_structured_2d(1, 1), exponent)

    @pytest.mark.parametrize("args", [(1, 1, "right-diagonal", 0.0),
                                      (5, 3, "right-diagonal", 0.35),
                                      (4, 6, "crisscross", 0.0),
                                      (3, 2, "crisscross", 0.6)])
    def test_matches_loop_generator_2d(self, args):
        m = generate_structured_2d(*args)
        ref = build_mesh(*loop_structured_2d(*args))
        assert np.array_equal(m.vertices, ref.vertices)
        assert np.array_equal(m.cells, ref.cells)

    @pytest.mark.parametrize("counts", [(1, 1, 1), (3, 2, 4)])
    def test_matches_loop_generator_3d(self, counts):
        m = generate_structured_3d(*counts)
        ref = build_mesh(*loop_structured_3d(*counts))
        assert np.array_equal(m.vertices, ref.vertices)
        assert np.array_equal(m.cells, ref.cells)

    def test_kuhn_cube(self):
        m = generate_structured_3d(1, 1, 1)
        assert m.num_cells == 6
        assert m.num_vertices == 8
        assert m.cell_measures == pytest.approx(np.full(6, 1.0 / 6.0), abs=1e-15)

    def test_kuhn_counts(self):
        m = generate_structured_3d(2, 1, 1)
        assert m.num_cells == 12
        assert m.num_vertices == 12

    def test_kuhn_dihedral_angles_non_obtuse(self):
        m = generate_structured_3d(1, 1, 1)
        angles = acuteness_audit(m).cell_angles
        for cell, computed in zip(m.cells, angles):
            brute = brute_force_dihedrals(m.vertices[cell])
            assert brute.max() <= math.pi / 2 + 1e-12
            assert computed == pytest.approx(brute, abs=1e-12)


class TestAngles:
    def test_equilateral(self):
        s = math.sqrt(3.0) / 2.0
        m = build_mesh([[0, 0], [1, 0], [0.5, s]], [[0, 1, 2]])
        assert acuteness_audit(m).cell_angles[0] == pytest.approx(
            np.full(3, math.pi / 3), abs=1e-12)

    def test_right_reference(self, reference_triangle):
        angles = np.sort(acuteness_audit(reference_triangle).cell_angles[0])
        assert angles == pytest.approx([math.pi / 4, math.pi / 4, math.pi / 2],
                                       abs=1e-12)

    def test_regular_tet_dihedrals(self):
        verts = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]],
                         dtype=float)
        m = build_mesh(verts, [[0, 1, 2, 3]])
        expected = math.acos(1.0 / 3.0)
        assert acuteness_audit(m).cell_angles[0] == pytest.approx(
            np.full(6, expected), abs=1e-12)
        assert brute_force_dihedrals(verts) == pytest.approx(np.full(6, expected),
                                                             abs=1e-12)

    def test_angle_sum_is_pi(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            verts = rng.uniform(0, 1, (3, 2))
            if abs(np.linalg.det(verts[1:] - verts[0])) < 1e-2:
                continue
            m = build_mesh(verts, [[0, 1, 2]])
            assert acuteness_audit(m).cell_angles[0].sum() == pytest.approx(
                math.pi, abs=1e-12)

    def test_minkowski_identity(self):
        rng = np.random.default_rng(3)
        m2 = generate_structured_2d(3, 3, skew=0.4)
        m3 = generate_structured_3d(2, 2, 2)
        for m in (m2, m3):
            for t in rng.integers(0, m.num_cells, size=10):
                # |F_i| = d |T| |grad phi_i|, checked against the geometric facets
                norms = np.linalg.norm(m.shape_gradients[t], axis=-1)
                facet_measures = m.dim * m.cell_measures[t] * norms
                oracle_measures, normals = facet_normals(m.vertices[m.cells[t]])
                assert facet_measures == pytest.approx(oracle_measures, rel=1e-12)
                total = (facet_measures[:, None] * normals).sum(axis=0)
                assert np.abs(total).max() < 1e-12


class TestAcutenessAudit:
    def test_right_diagonal_non_obtuse(self):
        report = acuteness_audit(generate_structured_2d(4, 4), 0.0)
        assert report.classification == "non-obtuse"
        assert report.gamma_fit == pytest.approx(0.0, abs=1e-12)

    def test_equilateral_gamma(self):
        report = acuteness_audit(equilateral_mesh(3, 2), 0.0)
        assert report.classification == "acute"
        assert report.gamma_fit == pytest.approx(math.pi / 6, abs=1e-12)

    def test_obtuse_negative_gamma(self):
        report = acuteness_audit(generate_structured_2d(2, 2, skew=0.6), 0.0)
        assert report.classification == "obtuse"
        assert report.gamma_fit < 0

    def test_rigid_motion_and_scaling_invariance(self):
        m = generate_structured_2d(3, 3, skew=0.35)
        base = acuteness_audit(m).classification
        theta = 0.83
        rot = np.array([[math.cos(theta), -math.sin(theta)],
                        [math.sin(theta), math.cos(theta)]])
        moved = build_mesh(3.7 * (m.vertices @ rot.T) + np.array([4.0, -2.5]),
                           m.cells)
        assert acuteness_audit(moved).classification == base


class TestInteriorEdges:
    def test_pair_topology(self):
        m = build_mesh([[0, 0], [1, 0], [1, 1], [0, 1]], [[0, 1, 2], [0, 2, 3]])
        edges = interior_edges_2d(m)
        assert len(edges) == 1
        assert edges.nodes.tolist() == [[0, 2]]
        assert edges.cells.tolist() == [[0, 1]]
        assert edges.opposite_angles.sum() == pytest.approx(
            math.pi / 2 + math.pi / 2, abs=1e-12)

    def test_structured_count(self):
        assert len(interior_edges_2d(generate_structured_2d(2, 2))) == 8

    def test_single_cell_no_interior(self, reference_triangle):
        edges = interior_edges_2d(reference_triangle)
        assert len(edges) == 0
        assert edges.nodes.shape == edges.cells.shape == (0, 2)

    def test_law_of_cosines_match(self):
        m = generate_structured_2d(3, 3, skew=0.3)
        edges = interior_edges_2d(m)
        for (node_m, node_n), cells, angles in zip(
                edges.nodes.tolist(), edges.cells.tolist(), edges.opposite_angles):
            for cell, stored in zip(cells, angles):
                verts = m.vertices[m.cells[cell]]
                nodes = m.cells[cell].tolist()
                at = next(k for k, v in enumerate(nodes) if v not in (node_m, node_n))
                oracle = triangle_vertex_angles(verts)[at]
                assert stored == pytest.approx(oracle, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            interior_edges_2d(generate_structured_3d(1, 1, 1))


def _assert_topology_matches_loops(m):
    assert m.boundary_nodes == loop_boundary_nodes(m.cells)
    oracle = loop_interior_edges_2d(m)
    edges = interior_edges_2d(m)
    assert edges.nodes.tolist() == [[e[0], e[1]] for e in oracle]
    assert edges.cells.tolist() == [list(e[2]) for e in oracle]
    # exact equality: the angles feed certificate bytes
    assert edges.opposite_angles.tolist() == [list(e[3]) for e in oracle]
    assert edges.opposite_cotangents.tolist() == [list(e[4]) for e in oracle]
    cells, local = np.divmod(m.interior_owners, m.dim + 1)
    assert np.array_equal(cells, edges.cells)
    opposite = m.cells[cells, local]
    assert not (opposite[..., None] == edges.nodes[:, None, :]).any()


class TestFacetTable:
    """The vectorized facet table against the dict-and-loop oracles."""

    @pytest.mark.parametrize("name", sorted(oracle_meshes()))
    def test_matches_loop_oracle_2d(self, name):
        _assert_topology_matches_loops(oracle_meshes()[name])

    def test_boundary_nodes_3d(self):
        rng = np.random.default_rng(5)
        for m in (generate_structured_3d(3, 2, 4),
                  perturbed_mesh(generate_structured_3d(3, 3, 3), rng, 0.1)):
            assert m.boundary_nodes == loop_boundary_nodes(m.cells)
            owners = loop_facet_owners(m.cells)
            shared = sorted((f, ts) for f, ts in owners.items() if len(ts) == 2)
            assert m.interior_facets.tolist() == [list(f) for f, _ in shared]
            assert (m.interior_owners // 4).tolist() == [ts for _, ts in shared]

    def test_non_manifold_3d(self):
        verts = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, -1], [1, 1, 1]]
        cells = np.array([[0, 1, 2, 3], [0, 1, 2, 4], [0, 1, 2, 5]])
        with pytest.raises(NonManifold):
            loop_facet_owners(cells)
        with pytest.raises(NonManifold, match=r"facet \(0, 1, 2\) shared by 3"):
            build_mesh(verts, cells)

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(nx=st.integers(1, 6), ny=st.integers(1, 6),
           pattern=st.sampled_from(["right-diagonal", "crisscross"]),
           skew=st.floats(0.0, 0.7), amount=st.floats(0.0, 0.2),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_random_meshes_match_loop_oracle(self, nx, ny, pattern, skew, amount, seed):
        m = generate_structured_2d(nx, ny, pattern=pattern, skew=skew)
        _assert_topology_matches_loops(
            perturbed_mesh(m, np.random.default_rng(seed), amount))


class TestMacroElements:
    def test_single_cell(self, reference_triangle):
        assert macro_measures(reference_triangle) == pytest.approx(
            np.full(3, 0.5), abs=1e-15)

    def test_interior_node_incidence(self):
        m = generate_structured_2d(2, 2)
        center = next(j for j in range(m.num_vertices)
                      if np.allclose(m.vertices[j], [0.5, 0.5]))
        incident = [t for t, cell in enumerate(m.cells.tolist()) if center in cell]
        assert len(incident) == 6
        assert macro_measures(m)[center] == pytest.approx(
            m.cell_measures[incident].sum(), abs=1e-15)

    def test_counting_identity(self):
        for m in (generate_structured_2d(3, 2, skew=0.3), generate_structured_3d(2, 1, 1)):
            oracle = np.zeros(m.num_vertices)
            for cell, measure in zip(m.cells.tolist(), m.cell_measures):
                for j in cell:
                    oracle[j] += measure
            measures = macro_measures(m)
            assert measures == pytest.approx(oracle, rel=1e-15)
            assert measures.sum() == pytest.approx((m.dim + 1) * m.total_measure, rel=1e-13)


class TestSerialization:
    def test_json_roundtrip(self, tmp_path):
        m = generate_structured_2d(3, 2, skew=0.2)
        path = tmp_path / "mesh.json"
        save_mesh(m, path)
        back = load_mesh(path)
        assert back.dim == m.dim
        assert np.array_equal(back.vertices, m.vertices)
        assert np.array_equal(back.cells, m.cells)
        assert back.boundary_nodes == m.boundary_nodes
        assert np.array_equal(back.cell_measures, m.cell_measures)
        assert back.h == m.h

    @pytest.mark.parametrize("dim", [2, 3])
    def test_json_bytes_match_json_dump(self, tmp_path, dim):
        rng = np.random.default_rng(dim)
        base = generate_structured_2d(6, 5, skew=0.3) if dim == 2 \
            else generate_structured_3d(3, 2, 3)
        m = perturbed_mesh(base, rng, 0.1)
        save_mesh(m, tmp_path / "mesh.json")
        with open(tmp_path / "dump.json", "w", encoding="utf-8") as fp:
            json.dump(mesh_to_dict(m), fp)
            fp.write("\n")
        assert (tmp_path / "mesh.json").read_bytes() == (tmp_path / "dump.json").read_bytes()

    def test_boundary_recomputed_when_absent(self):
        m = generate_structured_2d(2, 2)
        data = mesh_to_dict(m)
        del data["boundary_nodes"]
        assert mesh_from_dict(data).boundary_nodes == m.boundary_nodes

    def test_stored_boundary_mismatch_rejected(self):
        m = generate_structured_2d(2, 2)
        data = mesh_to_dict(m)
        data["boundary_nodes"] = [0]
        with pytest.raises(NonManifold):
            mesh_from_dict(data)

    def test_vtk_writer(self, tmp_path):
        m = generate_structured_2d(2, 2)
        path = tmp_path / "mesh.vtk"
        write_vtk(path, m, point_data={"u": np.arange(m.num_vertices, dtype=float)})
        lines = path.read_text().splitlines()
        assert lines[0] == "# vtk DataFile Version 3.0"
        assert "DATASET UNSTRUCTURED_GRID" in lines[3]
        assert f"POINTS {m.num_vertices} double" in lines
        assert f"CELL_TYPES {m.num_cells}" in lines
        assert f"POINT_DATA {m.num_vertices}" in lines
        cell_type_at = lines.index(f"CELL_TYPES {m.num_cells}")
        assert lines[cell_type_at + 1] == "5"

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("with_data", [False, True])
    def test_vtk_bytes_match_row_writer(self, tmp_path, dim, with_data):
        rng = np.random.default_rng(dim)
        base = generate_structured_2d(7, 5, pattern="crisscross", skew=0.3) if dim == 2 \
            else generate_structured_3d(3, 2, 4)
        m = perturbed_mesh(base, rng, 0.1)
        point_data = None
        if with_data:
            u = rng.normal(size=m.num_vertices) * 10.0 ** rng.integers(-300, 300, m.num_vertices)
            u[:3] = [-0.0, 0.0, 1e-320]
            point_data = {"u": u, "index": np.arange(m.num_vertices)}
        write_vtk(tmp_path / "new.vtk", m, point_data=point_data, title="t")
        row_write_vtk(tmp_path / "old.vtk", m, point_data=point_data, title="t")
        assert (tmp_path / "new.vtk").read_bytes() == (tmp_path / "old.vtk").read_bytes()

    @pytest.mark.parametrize("block", [1, 3, 9, 10, 11])
    def test_row_blocks_do_not_change_bytes(self, monkeypatch, block):
        rows = np.random.default_rng(0).normal(size=(10, 2))
        monkeypatch.setattr(dmpfem.mesh, "ROW_BLOCK", block)
        out = io.StringIO()
        write_rows(out, "%.17g,%.17g\n", rows)
        assert out.getvalue() == "".join(f"{x:.17g},{y:.17g}\n" for x, y in rows)

    def test_vtk_tet_cell_type(self, tmp_path):
        m = generate_structured_3d(1, 1, 1)
        path = tmp_path / "mesh3.vtk"
        write_vtk(path, m)
        lines = path.read_text().splitlines()
        cell_type_at = lines.index(f"CELL_TYPES {m.num_cells}")
        assert lines[cell_type_at + 1] == "10"
