"""Acceptance suite: one test per criterion, each with its stated tolerance
and runtime budget.  Run with `pytest tests/test_acceptance.py -v -s` to see
one pass/fail line per criterion."""
import math
import time

import numpy as np
import pytest

from dmpfem.dmp import (
    DeGiorgiInput,
    DmpParams,
    assumption_a_sweep,
    cell_scales,
    compute_k_star,
    de_giorgi_rho,
    de_giorgi_verify,
    dmp_certificate,
    edge_condition_check_2d,
    element_condition_check,
    fit_decay_constant,
    level_set_profile,
)
from dmpfem.mesh import (
    acuteness_audit,
    build_mesh,
    generate_structured_2d,
    generate_structured_3d,
)
from dmpfem.p1 import constant_field, cut_minus, cut_plus, quadrature_rule
from dmpfem.solver import (
    CoefficientSet,
    SolveOptions,
    advection_diffusion,
    assemble_q,
    interpolate_boundary,
    local_form_parts,
    picard_solve,
    poisson,
    quasilinear_a,
)
from dmpfem.mesh import macro_measures
from dmpfem.p1 import lp_norm

from conftest import (
    adjacent_pair,
    equilateral_mesh,
    frozen_form,
    random_nodal_field,
    random_triangle,
    triangle_vertex_angles,
)


def _finish(name: str, started: float, limit: float) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < limit, f"{name}: {elapsed:.2f}s exceeded {limit:.0f}s budget"
    print(f"[PASS] {name} ({elapsed:.2f}s < {limit:.0f}s)")


def test_01_cotangent_identity():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    count = 1000
    verts = np.empty((3 * count, 2))
    cells = np.empty((count, 3), dtype=int)
    triangles = []
    for t in range(count):
        tri = random_triangle(rng)
        triangles.append(tri)
        verts[3 * t:3 * t + 3] = tri
        cells[t] = (3 * t, 3 * t + 1, 3 * t + 2)
    mesh = build_mesh(verts, cells)
    diffusion, _, _ = local_form_parts(mesh, constant_field(mesh, 0.0), poisson(),
                                       quadrature_rule(2, 2))
    worst = 0.0
    for t in range(count):
        # build_mesh may have reordered vertices; angles come from stored cells
        angles = triangle_vertex_angles(mesh.vertices[mesh.cells[t]])
        for i in range(3):
            for j in range(3):
                if i == j:
                    continue
                expected = -0.5 / math.tan(angles[3 - i - j])
                rel = abs(diffusion[t, i, j] - expected) / abs(expected)
                worst = max(worst, rel)
    assert worst <= 1e-12, f"worst relative deviation {worst:.3e}"
    _finish("cotangent identity on 1000 random triangles", started, 1.0)


def test_02_edge_sum_closed_form():
    started = time.perf_counter()
    rng = np.random.default_rng(77)
    checked = 0
    while checked < 200:
        alpha, beta = rng.uniform(0.3, math.pi - 0.3, size=2)
        if abs(alpha + beta - math.pi) < 1e-9:
            continue
        mesh = adjacent_pair(alpha, beta)
        parts, matrix = frozen_form(mesh, poisson())
        report = edge_condition_check_2d(mesh, poisson(), cell_scales(parts), matrix)
        record = report.edges[0]
        closed = -math.sin(alpha + beta) / (2 * math.sin(alpha) * math.sin(beta))
        assert abs(record["sum"] - closed) <= 1e-12 * max(1.0, abs(closed))
        nonpositive = record["verdict"] == "pass"
        assert nonpositive == (alpha + beta <= math.pi + 1e-10)
        checked += 1
    _finish("edge-sum closed form on 200 adjacent pairs", started, 1.0)


def test_03_cut_inequality():
    started = time.perf_counter()
    mesh = generate_structured_2d(16, 16)
    rng = np.random.default_rng(31)
    nonneg_c = CoefficientSet(
        a=lambda x, e, p: np.ones(np.shape(e)),
        b=lambda x, e, p: np.broadcast_to(np.array([0.8, -0.4]), np.shape(x)),
        c=lambda x, e: np.ones(np.shape(e)),
        f=0.0, g=0.0, lam=1.0, Lam=1.0, nu=math.sqrt(0.8 ** 2 + 0.4 ** 2 + 1.0),
        c_mode="nonnegative", constant_coefficients=True)
    zero_c = advection_diffusion([0.8, -0.4], f=0.0, g=0.0)
    from dmpfem.solver import q_apply
    from dmpfem.p1 import P1Field

    for coeffs, k_low in ((nonneg_c, 0.0), (zero_c, -1.5)):
        matrix = assemble_q(mesh, constant_field(mesh, 0.0), coeffs).matrix
        for trial in range(500):
            v = random_nodal_field(mesh, rng, scale=2.0)
            k = float(rng.uniform(k_low, 1.5))
            plus = cut_plus(v, k).nodal_values
            minus = cut_minus(v, k).nodal_values
            lhs = plus @ (matrix @ v.nodal_values)
            rhs = plus @ (matrix @ plus) + plus @ (matrix @ minus)
            scale = max(1.0, abs(lhs), abs(rhs))
            assert lhs - rhs >= -1e-10 * scale
            if trial < 5:
                # the matrix route must agree with the form evaluation itself
                plus_f, minus_f = P1Field(mesh, plus), P1Field(mesh, minus)
                direct = q_apply(mesh, v, v, plus_f, coeffs)
                assert abs(direct - lhs) <= 1e-12 * scale
                direct_rhs = q_apply(mesh, v, plus_f, plus_f, coeffs) \
                    + q_apply(mesh, v, minus_f, plus_f, coeffs)
                assert abs(direct_rhs - rhs) <= 1e-12 * scale
    _finish("cut-pair inequality on 2 x 500 random fields", started, 10.0)


def test_04_solution_bound_end_to_end():
    started = time.perf_counter()
    boundary_data = {"0": 0.0, "x": lambda x: x[..., 0], "-2": -2.0}
    problems = {
        "poisson": lambda g: poisson(f=-1.0, g=g),
        "advection-diffusion": lambda g: advection_diffusion([1.0, 0.0], f=-1.0, g=g),
    }
    for n in (4, 8, 16):
        mesh = generate_structured_2d(n, n)
        for pname, make in problems.items():
            for gname, g in boundary_data.items():
                coeffs = make(g)
                assert mesh.h * coeffs.nu < 1.0
                result = picard_solve(mesh, coeffs)
                cert = dmp_certificate(mesh, result, coeffs)
                label = f"n={n} {pname} g={gname}"
                assert cert.theorem_3_3_verdict == "pass", label
                assert cert.sup_uh <= cert.k_star + 1e-9, label
    _finish("solution bound across 18 problem/mesh combinations", started, 30.0)


def test_05_element_condition_sufficiency():
    started = time.perf_counter()
    rng = np.random.default_rng(404)
    meshes = {
        "right-diagonal 4x4": generate_structured_2d(4, 4),
        "crisscross 3x3": generate_structured_2d(3, 3, pattern="crisscross"),
        "equilateral 3x2": equilateral_mesh(3, 2),
    }
    for label, mesh in meshes.items():
        report = element_condition_check(mesh, frozen_form(mesh, poisson())[0])
        assert report.all_pass, label
        for _ in range(20):
            fc = rng.uniform(-3.0, 3.0, size=3)
            gc = rng.uniform(-2.0, 2.0, size=3)
            coeffs = poisson(
                f=lambda x, fc=fc: fc[0] + fc[1] * x[..., 0] + fc[2] * x[..., 1],
                g=lambda x, gc=gc: gc[0] + gc[1] * x[..., 0] + gc[2] * x[..., 1])
            result = picard_solve(mesh, coeffs)
            k_star = compute_k_star(interpolate_boundary(mesh, coeffs.g),
                                    coeffs.c_mode)
            sweep = assumption_a_sweep(result.u_h, frozen_form(mesh, coeffs, result.u_h)[1],
                                       k_star=k_star)
            assert sweep.satisfied, label

    obtuse = generate_structured_2d(3, 3, skew=0.55)
    assert acuteness_audit(obtuse).classification == "obtuse"
    failing = element_condition_check(obtuse, frozen_form(obtuse, poisson())[0])
    assert not failing.all_pass
    assert failing.failures, "failing pairs must be listed as evidence"
    _finish("element condition sufficiency (3 meshes x 20 solves + obtuse)",
            started, 20.0)


def test_06_overshoot_ratio_stability():
    started = time.perf_counter()
    params = DmpParams(p=4.0, r=2.0)
    ratios = []
    for n in (8, 16, 32):
        mesh = generate_structured_2d(n, n)
        coeffs = poisson(f=1.0, g=0.0)
        result = picard_solve(mesh, coeffs)
        cert = dmp_certificate(mesh, result, coeffs, params=params)
        assert cert.empirical_c is not None
        ratios.append(cert.empirical_c)
    assert all(r > 0 for r in ratios)
    assert max(ratios) / min(ratios) < 2.0, ratios
    _finish("overshoot/source-norm ratio stable across 3 refinements",
            started, 30.0)


def test_07_decay_chain():
    started = time.perf_counter()
    # pure parameter arithmetic must be exact
    point = DeGiorgiInput(M=1.0, alpha=1.0, beta=2.0, k0=0.0,
                          samples=np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert de_giorgi_rho(point) == 4.0

    mesh = generate_structured_2d(16, 16)
    coeffs = poisson(f=1.0, g=0.0)
    result = picard_solve(mesh, coeffs)
    params = DmpParams(p=4.0, r=2.0)
    k_star = compute_k_star(interpolate_boundary(mesh, coeffs.g),
                            coeffs.c_mode)
    grid = np.unique(np.concatenate([[k_star],
                                     np.unique(result.u_h.nodal_values)]))
    grid = grid[grid >= k_star]
    profile = np.column_stack([grid, level_set_profile(mesh, result.u_h, grid)])
    alpha, beta = params.decay_alpha, params.decay_beta
    assert (alpha, beta) == (4.0, 1.5)
    fitted = fit_decay_constant(profile, alpha, beta, k_star)
    inp = DeGiorgiInput(M=fitted, alpha=alpha, beta=beta, k0=k_star,
                        samples=profile)
    report = de_giorgi_verify(inp)
    assert report.tau_max == 40
    assert report.hypothesis_ok
    assert report.decay_ok and report.first_decay_failure is None
    assert report.tail_ok
    _finish("decay chain for the measured level-set profile", started, 5.0)


def test_08_norm_equivalence_interval():
    started = time.perf_counter()
    rng = np.random.default_rng(606)

    def ratios(n, count):
        mesh = generate_structured_2d(n, n)
        weights = macro_measures(mesh)
        out = []
        for _ in range(count):
            v = random_nodal_field(mesh, rng)
            out.append(lp_norm(v, 2.0) ** 2
                       / float(v.nodal_values ** 2 @ weights))
        return out

    coarse = ratios(4, 100)
    lo, hi = min(coarse), max(coarse)
    margin = 0.2 * (hi - lo)
    lo, hi = lo - margin, hi + margin
    for n in (8, 16):
        fine = ratios(n, 100)
        assert min(fine) >= lo and max(fine) <= hi, (n, min(fine), max(fine))
    _finish("norm equivalence ratio interval across refinements", started, 10.0)


def test_09_solver_sanity():
    started = time.perf_counter()
    mesh = generate_structured_2d(16, 16)

    affine = poisson(f=0.0, g=lambda x: 2.0 * x[..., 0] - x[..., 1] + 0.5)
    result = picard_solve(mesh, affine)
    exact = 2.0 * mesh.vertices[:, 0] - mesh.vertices[:, 1] + 0.5
    assert np.abs(result.u_h.nodal_values - exact).max() <= 1e-10

    linear = advection_diffusion([1.0, -0.5], f=-1.0, g=0.0)
    result = picard_solve(mesh, linear)
    assert result.picard_iterations == 1

    quasi = quasilinear_a(f=-1.0, g=0.0)
    result = picard_solve(mesh, quasi, SolveOptions(picard_max_iter=50))
    assert result.converged
    assert result.final_update_norm <= 1e-10
    assert result.picard_iterations <= 50
    _finish("solver sanity (affine exactness, 1-step linear, quasilinear)",
            started, 10.0)


def test_10_three_dimensional_smoke():
    started = time.perf_counter()
    mesh = generate_structured_3d(2, 2, 2)
    audit = acuteness_audit(mesh)
    assert audit.classification in ("non-obtuse", "acute")
    coeffs = poisson(f=-1.0, g=0.0)
    result = picard_solve(mesh, coeffs)
    cert = dmp_certificate(mesh, result, coeffs)
    assert cert.theorem_3_3_verdict == "pass"
    _finish("3D smoke (Kuhn audit + solution bound certificate)", started, 30.0)
