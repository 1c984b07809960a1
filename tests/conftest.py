"""Shared geometry builders and independent oracles for the test suite."""
from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from dmpfem.errors import NonManifold
from dmpfem.mesh import Mesh, build_mesh


@pytest.fixture
def reference_triangle() -> Mesh:
    return build_mesh([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[0, 1, 2]])


@pytest.fixture
def reference_tet() -> Mesh:
    return build_mesh(
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
        [[0, 1, 2, 3]])


def equilateral_mesh(nx: int, ny: int) -> Mesh:
    """Parallelogram domain tiled by unit equilateral triangles."""
    verts = []
    index = {}
    for j in range(ny + 1):
        for i in range(nx + 1):
            index[(i, j)] = len(verts)
            verts.append((i + 0.5 * j, j * math.sqrt(3.0) / 2.0))
    cells = []
    for j in range(ny):
        for i in range(nx):
            cells.append((index[(i, j)], index[(i + 1, j)], index[(i, j + 1)]))
            cells.append((index[(i + 1, j)], index[(i + 1, j + 1)],
                          index[(i, j + 1)]))
    return build_mesh(np.array(verts), np.array(cells))


def adjacent_pair(alpha: float, beta: float, base: float = 1.0) -> Mesh:
    """Two triangles sharing the segment (0,0)-(base,0), with apex angles
    alpha below and beta above the shared edge."""
    assert 0.0 < alpha < math.pi and 0.0 < beta < math.pi
    da = 0.5 * base / math.tan(alpha / 2.0)
    db = 0.5 * base / math.tan(beta / 2.0)
    verts = np.array([
        [0.0, 0.0], [base, 0.0],
        [0.5 * base, -da], [0.5 * base, db],
    ])
    return build_mesh(verts, np.array([[0, 1, 2], [0, 1, 3]]))


def triangle_vertex_angles(verts: np.ndarray) -> np.ndarray:
    """Law-of-cosines vertex angles of a triangle, one per vertex."""
    out = []
    for i in range(3):
        u = verts[(i + 1) % 3] - verts[i]
        v = verts[(i + 2) % 3] - verts[i]
        c = float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)))
        out.append(math.acos(max(-1.0, min(1.0, c))))
    return np.array(out)


def facet_normals(verts: np.ndarray) -> tuple:
    """Measures and outward unit normals of the facets opposite each vertex of
    a triangle (rotated edges) or tetrahedron (cross products), independent
    of the shape-function route."""
    centroid = verts.mean(axis=0)
    measures, normals = [], []
    for i in range(len(verts)):
        a, *rest = verts[np.delete(np.arange(len(verts)), i)]
        if len(rest) == 1:
            n = np.array([rest[0][1] - a[1], a[0] - rest[0][0]])
            measures.append(np.linalg.norm(n))
        else:
            n = np.cross(rest[0] - a, rest[1] - a)
            measures.append(np.linalg.norm(n) / 2.0)
        n = n / np.linalg.norm(n)
        normals.append(n if n @ (a - centroid) > 0 else -n)
    return np.array(measures), np.array(normals)


def brute_force_dihedrals(verts: np.ndarray) -> np.ndarray:
    """Interior dihedral angles of a tetrahedron from cross-product facet
    normals, independent of the shape-function route."""
    normals = facet_normals(verts)[1]
    angles = []
    for i in range(4):
        for j in range(i + 1, 4):
            c = float(np.clip(normals[i] @ normals[j], -1.0, 1.0))
            angles.append(math.pi - math.acos(c))
    return np.array(angles)


def random_triangle(rng: np.random.Generator, min_angle: float = 0.2,
                    right_angle_gap: float = 0.05) -> np.ndarray:
    """Vertices of a random triangle with all angles bounded away from
    degeneracy and from right angles (where cotangents vanish)."""
    while True:
        verts = rng.uniform(0.0, 1.0, size=(3, 2))
        area = 0.5 * abs(np.linalg.det(verts[1:] - verts[0]))
        if area < 1e-3:
            continue
        angles = triangle_vertex_angles(verts)
        if angles.min() < min_angle:
            continue
        if np.abs(angles - math.pi / 2.0).min() < right_angle_gap:
            continue
        return verts


def random_nodal_field(mesh: Mesh, rng: np.random.Generator, scale: float = 1.0):
    from dmpfem.p1 import P1Field
    return P1Field(mesh, rng.uniform(-scale, scale, size=mesh.num_vertices))


def frozen_form(mesh: Mesh, coeffs, w=None) -> tuple:
    """(parts, matrix): the `local_form_parts` with the `default_rule`, frozen
    at w (the zero field when None), and their `assemble_matrix`."""
    from dmpfem.p1 import constant_field
    from dmpfem.solver import assemble_matrix, default_rule, local_form_parts
    parts = local_form_parts(mesh, constant_field(mesh, 0.0) if w is None else w,
                             coeffs, default_rule(mesh, coeffs))
    return parts, assemble_matrix(mesh, parts)


def perturbed_mesh(mesh: Mesh, rng: np.random.Generator, amount: float) -> Mesh:
    """Move every interior vertex by up to `amount` times the mesh size."""
    verts = mesh.vertices.copy()
    inner = ~mesh.boundary_mask()
    verts[inner] += rng.uniform(-amount, amount, size=verts[inner].shape) * mesh.h
    return build_mesh(verts, mesh.cells)


def lapack_geometry(verts: np.ndarray) -> tuple:
    """Shape gradients and signed measures of simplices verts (..., d+1, d)
    by LAPACK: the gradients from the inverse of [1 | verts], the measures
    from the determinant of the edge vectors over d!."""
    d = verts.shape[-1]
    m = np.concatenate([np.ones(verts.shape[:-1] + (1,)), verts], axis=-1)
    grads = np.swapaxes(np.linalg.inv(m)[..., 1:, :], -1, -2)
    measures = np.linalg.det(verts[..., 1:, :] - verts[..., :1, :]) / math.factorial(d)
    return grads, measures


def all_pairs_diameters(verts: np.ndarray) -> np.ndarray:
    """Max vertex distance per simplex over all ordered vertex pairs, one
    square root per pair; verts (..., d+1, d)."""
    diff = verts[..., :, None, :] - verts[..., None, :, :]
    return np.sqrt((diff ** 2).sum(axis=-1)).max(axis=(-1, -2))


def oracle_meshes() -> dict:
    """Small 2D meshes of every kind the loop oracles are compared on."""
    return {
        "right-diagonal": build_mesh(*loop_structured_2d(6, 5)),
        "crisscross": build_mesh(*loop_structured_2d(4, 3, "crisscross", 0.2)),
        "skewed-obtuse": build_mesh(*loop_structured_2d(5, 5, skew=0.6)),
        "equilateral": equilateral_mesh(5, 4),
        "perturbed": perturbed_mesh(build_mesh(*loop_structured_2d(9, 7)),
                                    np.random.default_rng(11), 0.2),
    }


# -- loop oracles of the vectorized mesh code ----------------------------------

def loop_structured_2d(nx: int, ny: int, pattern: str = "right-diagonal",
                       skew: float = 0.0):
    """Vertex and cell arrays of `generate_structured_2d`, built point by point."""
    xs = np.linspace(0.0, 1.0, nx + 1)
    ys = np.linspace(0.0, 1.0, ny + 1)
    index = {}
    verts = []
    for j, y in enumerate(ys):
        for i, x in enumerate(xs):
            index[(i, j)] = len(verts)
            verts.append((x + skew * y, y))
    cells = []
    for j in range(ny):
        for i in range(nx):
            v00, v10 = index[(i, j)], index[(i + 1, j)]
            v01, v11 = index[(i, j + 1)], index[(i + 1, j + 1)]
            if pattern == "right-diagonal":
                cells += [(v00, v10, v11), (v00, v11, v01)]
                continue
            vc = len(verts)
            verts.append((0.5 * (verts[v00][0] + verts[v11][0]),
                          0.5 * (verts[v00][1] + verts[v11][1])))
            cells += [(v00, v10, vc), (v10, v11, vc), (v11, v01, vc), (v01, v00, vc)]
    return np.array(verts), np.array(cells)


def loop_structured_3d(nx: int, ny: int, nz: int):
    """Vertex and cell arrays of `generate_structured_3d`, built point by point."""
    steps = [np.linspace(0.0, 1.0, n + 1) for n in (nx, ny, nz)]
    index = {}
    verts = []
    for k, z in enumerate(steps[2]):
        for j, y in enumerate(steps[1]):
            for i, x in enumerate(steps[0]):
                index[(i, j, k)] = len(verts)
                verts.append((x, y, z))
    cells = []
    for k in range(nz):
        for j in range(ny):
            for i in range(nx):
                for perm in itertools.permutations(range(3)):
                    corner = [i, j, k]
                    tet = [index[tuple(corner)]]
                    for axis in perm:
                        corner[axis] += 1
                        tet.append(index[tuple(corner)])
                    cells.append(tet)
    return np.array(verts), np.array(cells)


def loop_facet_owners(cells: np.ndarray) -> dict:
    """Sorted facet tuple -> owning cells in ascending order, by a dict loop;
    raises `NonManifold` for a facet of three or more cells."""
    owners: dict = {}
    for t, cell in enumerate(cells.tolist()):
        for i in range(len(cell)):
            owners.setdefault(tuple(sorted(cell[:i] + cell[i + 1:])), []).append(t)
    for facet, ts in owners.items():
        if len(ts) > 2:
            raise NonManifold(f"facet {facet} shared by {len(ts)} cells")
    return owners


def loop_boundary_nodes(cells: np.ndarray) -> frozenset:
    return frozenset(v for facet, ts in loop_facet_owners(cells).items()
                     if len(ts) == 1 for v in facet)


def loop_interior_edges_2d(mesh: Mesh) -> list:
    """(m, n, (cell, cell), (angle, angle), (cot, cot)) per interior edge,
    lexicographic, with each opposite angle from the scalar arccos formula and
    its cotangent as dot over cross product of the apex vectors."""
    edges = []
    for (m, n), owners in sorted(loop_facet_owners(mesh.cells).items()):
        if len(owners) != 2:
            continue
        angles, cots = [], []
        for t in owners:
            apex = next(v for v in mesh.cells[t].tolist() if v not in (m, n))
            u = mesh.vertices[m] - mesh.vertices[apex]
            v = mesh.vertices[n] - mesh.vertices[apex]
            c = float(np.clip(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)), -1.0, 1.0))
            angles.append(float(np.arccos(c)))
            cots.append(float(u @ v) / abs(float(u[0] * v[1] - u[1] * v[0])))
        edges.append((m, n, tuple(owners), tuple(angles), tuple(cots)))
    return edges


def loop_edge_records(mesh: Mesh, parts, pair_tol: float) -> tuple:
    """Per-edge loop of the two-cell edge sums from `local_form_parts`:
    (records, all_pass, max_sum, Poisson identity error)."""
    diffusion, advection, reaction = parts
    total = diffusion + advection + reaction
    scale_part = np.abs(diffusion) + np.abs(advection) + np.abs(reaction)
    local_index = {(t, int(v)): loc for t, cell in enumerate(mesh.cells)
                   for loc, v in enumerate(cell)}
    records, all_pass, max_sum, identity_err = [], True, -math.inf, 0.0
    for m, n, owners, (alpha, beta), (cot_a, cot_b) in loop_interior_edges_2d(mesh):
        s_fwd = s_rev = 0.0
        scale = 0.0
        for t in owners:
            lm, ln = local_index[(t, m)], local_index[(t, n)]
            s_fwd += total[t, ln, lm]
            s_rev += total[t, lm, ln]
            scale = max(scale, float(scale_part[t].max()))
        closed = -(cot_a + cot_b) / 2.0
        verdict = max(s_fwd, s_rev) <= pair_tol * scale
        all_pass &= bool(verdict)
        max_sum = max(max_sum, float(s_fwd), float(s_rev))
        identity_err = max(identity_err, abs(s_fwd - closed) / max(1.0, abs(closed)))
        records.append({
            "node_m": m, "node_n": n, "sum": float(s_fwd), "sum_reversed": float(s_rev),
            "poisson_closed_form": closed, "angle_sum": float(alpha + beta),
            "verdict": "pass" if verdict else "fail",
        })
    return records, all_pass, max_sum if records else 0.0, float(identity_err)


# -- per-level and table oracles of the certificate ------------------------------

def level_set_measure(mesh: Mesh, u_h, k: float) -> float:
    """Total measure of the cells with a nodal value of u_h above k."""
    cell_max = u_h.nodal_values[mesh.cells].max(axis=1)
    return float(mesh.cell_measures[cell_max > k].sum())


def loop_assumption_sweep(mesh: Mesh, u_h, parts, k_star: float, levels=None):
    """(k_values, q_values, t_values) of the cut-pair form, one matrix pass
    per cut level: q(k) = sum a_ij (u_i - k)^+ (u_j - k)^- and
    T(k) = sum |a_ij| (u_i - k)^+ |(u_j - k)^-|, each the exactly rounded sum
    of its terms.  The levels are k_star, every distinct nodal value at or
    above it and the midpoints of consecutive ones, unless given."""
    from dmpfem.p1 import cut_minus, cut_plus
    from dmpfem.solver import assemble_matrix

    matrix = assemble_matrix(mesh, parts).tocoo()
    if levels is None:
        values = u_h.nodal_values
        levels = np.unique(np.concatenate([[k_star], values[values >= k_star]]))
        levels = np.unique(np.concatenate([levels, 0.5 * (levels[:-1] + levels[1:])]))
    levels = np.asarray(levels, dtype=float)
    q_values, t_values = np.empty(len(levels)), np.empty(len(levels))
    for i, k in enumerate(levels):
        plus = cut_plus(u_h, k).nodal_values[matrix.row]
        minus = cut_minus(u_h, k).nodal_values[matrix.col]
        q_values[i] = math.fsum(plus * (matrix.data * minus))
        t_values[i] = math.fsum(plus * (np.abs(matrix.data) * -minus))
    return levels, q_values, t_values


def _table_row_blocks(n: int):
    """(lo, hi) row ranges of an n x n table, about 2^20 entries each."""
    rows = max(1, (1 << 20) // max(n, 1))
    return ((lo, min(lo + rows, n)) for lo in range(0, n, rows))


def table_fit_decay_constant(samples, alpha: float, beta: float, k0: float) -> float:
    """`fit_decay_constant` from the full table of level pairs, in row blocks."""
    samples = np.asarray(samples, dtype=float)
    start = int(np.searchsorted(samples[:, 0], k0, side="right") - 1)
    ks = samples[start:, 0].copy()
    phis = samples[start:, 1]
    ks[0] = k0
    positive = phis > 0.0
    if not positive.any():
        return 0.0
    logphi = np.where(positive, np.log(np.where(positive, phis, 1.0)), 0.0)
    span_end = np.append(ks[1:], np.inf)
    index = np.arange(len(ks))
    best = -np.inf
    for lo, hi in _table_row_blocks(len(ks)):
        valid = positive[lo:hi, None] & positive[None, lo:] \
            & (index[lo:hi, None] <= index[None, lo:])
        spans = np.where(valid, span_end[None, lo:] - ks[lo:hi, None], 1.0)
        cand = np.log(spans) + (logphi[None, lo:] - beta * logphi[lo:hi, None]) / alpha
        if valid.any():
            best = max(best, cand[valid].max())
    return float(np.exp(best))


def _scalar_hypothesis_holds(inp, s: float, k: float, rel_tol: float) -> bool:
    phi_s = float(inp.phi(s))
    if phi_s <= 0.0:
        return True
    phi_k = float(inp.phi(k))
    if phi_k <= 0.0:
        return False
    lhs = math.log(phi_s)
    rhs = inp.alpha * (math.log(inp.M) - math.log(s - k)) + inp.beta * math.log(phi_k)
    return lhs <= rhs + math.log1p(rel_tol)


def table_de_giorgi_verify(inp, rho=None, tau_max: int = 40, rel_tol: float = 1e-9):
    """`de_giorgi_verify` from the full table of grid level pairs, in row
    blocks, and a per-step scalar check of the ladder."""
    from dmpfem.dmp import DeGiorgiReport, de_giorgi_rho
    from dmpfem.errors import HypothesisViolated

    if rho is None:
        rho = de_giorgi_rho(inp)
    ks = inp.samples[:, 0]
    grid = ks[ks >= inp.k0]
    if len(grid) == 0 or grid[0] > inp.k0:
        grid = np.concatenate([[inp.k0], grid])
    hyp_tol = 1e-12
    phis_g = np.asarray(inp.phi(grid), dtype=float)
    pos = phis_g > 0.0
    with np.errstate(divide="ignore"):
        logphi = np.where(pos, np.log(np.where(pos, phis_g, 1.0)), -np.inf)
    for lo, hi in _table_row_blocks(len(grid)):
        gaps = grid[None, lo:] - grid[lo:hi, None]
        pair = gaps > 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            rhs = inp.alpha * (math.log(inp.M) - np.log(np.where(pair, gaps, 1.0))) \
                + inp.beta * logphi[lo:hi, None]
        violated = pair & (logphi[None, lo:] > rhs + math.log1p(hyp_tol))
        if violated.any():
            ai, bi = np.argwhere(violated)[0] + lo
            raise HypothesisViolated(
                f"decay hypothesis fails for levels ({grid[ai]:.6g}, "
                f"{grid[bi]:.6g})", pair=(float(grid[ai]), float(grid[bi])))

    taus = np.arange(tau_max + 1)
    ladder = inp.k0 + rho - rho / 2.0 ** taus
    if rho > 0:
        for t in range(tau_max):
            if ladder[t + 1] <= ladder[t]:
                continue
            if not _scalar_hypothesis_holds(inp, float(ladder[t + 1]), float(ladder[t]),
                                            hyp_tol):
                raise HypothesisViolated(
                    f"decay hypothesis fails on the ladder pair tau={t}",
                    pair=(float(ladder[t]), float(ladder[t + 1])))

    phi0 = inp.phi_k0()
    ratio = 2.0 ** (inp.alpha / (inp.beta - 1.0))
    decay_ok = True
    first_failure = None
    log_phi0 = math.log(phi0) if phi0 > 0 else -math.inf
    for t in taus:
        val = float(inp.phi(ladder[t]))
        if val <= 0.0:
            continue
        if phi0 <= 0.0 or math.log(val) > log_phi0 - t * math.log(ratio) \
                + math.log1p(rel_tol):
            decay_ok = False
            first_failure = int(t)
            break

    tail_value = float(inp.phi(inp.k0 + rho))
    if phi0 <= 0.0:
        tail_ok = tail_value <= 0.0
    else:
        log_tail_bound = log_phi0 - tau_max * math.log(ratio) + math.log1p(rel_tol)
        tail_ok = tail_value <= 0.0 or math.log(tail_value) <= log_tail_bound
    return DeGiorgiReport(rho=float(rho), decay_ratio=ratio, hypothesis_ok=True,
                          decay_ok=decay_ok, first_decay_failure=first_failure,
                          tail_ok=tail_ok, tail_value=tail_value, tau_max=tau_max)


# -- einsum oracles of the assembly kernels --------------------------------------

# The drift and reaction kinds the kernels are compared over: zeros as fresh
# and as broadcast arrays, a broadcast constant and a state-dependent field.

def drift_field(x, e, p):
    # a contiguous, state-dependent drift
    return np.stack([np.sin(3.0 * x[..., d] + e) for d in range(x.shape[-1])], axis=-1)


KERNEL_B = {
    "zero": lambda x, e, p: np.zeros(np.shape(x)),
    "zero-broadcast": lambda x, e, p: np.broadcast_to(np.zeros(np.shape(x)[-1]), np.shape(x)),
    "constant-broadcast": lambda x, e, p: np.broadcast_to(
        np.linspace(-2.0, 3.0, np.shape(x)[-1]), np.shape(x)),
    "field": drift_field,
}
KERNEL_C = {
    "zero": lambda x, e: np.zeros(np.shape(e)),
    "zero-broadcast": lambda x, e: np.broadcast_to(0.0, np.shape(e)),
    "constant-broadcast": lambda x, e: np.broadcast_to(0.7, np.shape(e)),
    "field": lambda x, e: 1.0 + x[..., 0] * x[..., -1] + e ** 2,
}


def einsum_physical_points(mesh: Mesh, rule) -> np.ndarray:
    """Quadrature point coordinates by one einsum over the cell vertices."""
    return np.einsum("qm,cmd->cqd", rule.points, mesh.vertices[mesh.cells])


def einsum_local_form_parts(mesh: Mesh, w, coeffs, rule):
    """(diffusion, advection, reaction) of `local_form_parts`, with a, b, c
    sampled at all quadrature points at once and each term contracted over
    cells, quadrature points and shape functions in one einsum."""
    from dmpfem.p1 import physical_points

    xq, eta = physical_points(mesh, rule), w.values_in_cells(rule)
    p = np.broadcast_to(w.cell_gradients()[:, None, :], xq.shape)
    a = np.broadcast_to(np.asarray(coeffs.a(xq, eta, p), float), eta.shape)
    b = np.broadcast_to(np.asarray(coeffs.b(xq, eta, p), float), xq.shape)
    c = np.broadcast_to(np.asarray(coeffs.c(xq, eta), float), eta.shape)
    grads = mesh.shape_gradients
    bar = rule.points
    wq = rule.weights
    meas = mesh.cell_measures
    a_cell = np.einsum("cq,q->c", a, wq) * meas
    diffusion = np.einsum("c,cmd,cnd->cmn", a_cell, grads, grads)
    advection = np.einsum("cqd,cnd,qm,q->cmn", b, grads, bar, wq) * meas[:, None, None]
    reaction = np.einsum("cq,qm,qn,q->cmn", c, bar, bar, wq) * meas[:, None, None]
    return diffusion, advection, reaction


# -- full-table and unblocked oracles of the certificate checks -----------------

def full_element_condition_check(mesh: Mesh, parts):
    """`element_condition_check` over the full (C, M, M) tables, diagonal
    masked, with the reductions taken over their short axes: every D_ij must
    be >= -PAIR_TOL times the cell's largest local entry."""
    from dmpfem.dmp import MAX_FAILURE_RECORDS, PAIR_TOL, ElementConditionReport

    diffusion, advection, reaction = parts
    d_pair = -np.swapaxes(diffusion + advection + reaction, 1, 2)
    tol = PAIR_TOL * (np.abs(diffusion) + np.abs(advection) + np.abs(reaction)).max(axis=(1, 2))
    gnorm = np.linalg.norm(mesh.shape_gradients, axis=-1)
    prod = gnorm[:, :, None] * gnorm[:, None, :] * mesh.cell_measures[:, None, None]
    off = ~np.eye(mesh.dim + 1, dtype=bool)
    bad = np.argwhere(~(d_pair >= -tol[:, None, None]) & off[None, :, :])
    failures = [{"cell": int(cell), "i": int(i), "j": int(j),
                 "d_value": float(d_pair[cell, i, j])}
                for cell, i, j in bad[:MAX_FAILURE_RECORDS]]
    return ElementConditionReport(
        all_pass=not len(bad), min_margin=float((d_pair / prod)[:, off].min()) + 0.0,
        num_pairs=mesh.num_cells * int(off.sum()), num_failing_pairs=len(bad),
        failures=failures)


def unblocked_zeroth_order_condition(mesh: Mesh, u_h, coeffs, rule):
    """`check_zeroth_order_condition` with every coefficient sampled at all
    quadrature points at once."""
    from dmpfem.p1 import physical_points
    from dmpfem.solver import ZerothOrderReport

    xq, eta = physical_points(mesh, rule), u_h.values_in_cells(rule)
    p = np.broadcast_to(u_h.cell_gradients()[:, None, :], xq.shape)
    c = np.broadcast_to(np.asarray(coeffs.c(xq, eta), float), eta.shape)
    if coeffs.div_b is not None:
        div = np.broadcast_to(np.asarray(coeffs.div_b(xq, eta, p), float), eta.shape)
    else:
        step = 1e-6 * mesh.h
        div = np.zeros(eta.shape)
        for axis in range(mesh.dim):
            shift = np.zeros(mesh.dim)
            shift[axis] = step
            eta_shift = p[:, :1, axis] * step
            b_plus = np.broadcast_to(
                np.asarray(coeffs.b(xq + shift, eta + eta_shift, p), float), xq.shape)
            b_minus = np.broadcast_to(
                np.asarray(coeffs.b(xq - shift, eta - eta_shift, p), float), xq.shape)
            div = div + (b_plus[..., axis] - b_minus[..., axis]) / (2.0 * step)
    min_value = float((c - 0.5 * div).min())
    return ZerothOrderReport(min_value=min_value, condition_holds=min_value >= -1e-10,
                             used_supplied_divergence=coeffs.div_b is not None)


def coo_assemble_matrix(mesh: Mesh, parts):
    """Global matrix of `local_form_parts` through scipy's COO -> CSR
    conversion, which sorts the entries and sums the duplicates itself."""
    import scipy.sparse as sparse

    local = parts[0] + parts[1] + parts[2]
    m = mesh.dim + 1
    rows = np.repeat(mesh.cells[:, :, None], m, axis=2)
    cols = np.repeat(mesh.cells[:, None, :], m, axis=1)
    n = mesh.num_vertices
    return sparse.coo_matrix((local.ravel(), (rows.ravel(), cols.ravel())),
                             shape=(n, n)).tocsr()


def dict_apply_dirichlet(system, assignment: dict, mesh: Mesh):
    """The n x n Dirichlet system that `apply_dirichlet` once returned, with the
    data as a {node: value} dict that must cover every boundary node
    (`loop_boundary_nodes`): row replacement and symmetric column elimination,
    an identity row per boundary node, and the exact zeros of the free block
    dropped.  `apply_dirichlet` returns its free block."""
    from scipy import sparse

    from dmpfem.errors import MissingBoundaryValue
    from dmpfem.solver import SparseSystem

    missing = loop_boundary_nodes(mesh.cells) - set(assignment)
    if missing:
        raise MissingBoundaryValue(
            f"{len(missing)} boundary nodes lack values, e.g. {sorted(missing)[:5]}")
    n = system.size
    pinned = np.fromiter(assignment, dtype=np.int64, count=len(assignment))
    mask = np.zeros(n, dtype=bool)
    mask[pinned] = True
    values = np.zeros(n)
    values[pinned] = np.fromiter(assignment.values(), dtype=float, count=len(assignment))

    a = system.matrix.tocsr()
    if not a.has_canonical_format:
        a = a.copy()
        a.sum_duplicates()
    rhs = system.rhs - a @ values
    rhs[mask] = values[mask]
    rows = np.repeat(np.arange(n), np.diff(a.indptr))
    pinned_row = mask[rows]
    diagonal = pinned_row & (a.indices == rows)
    keep = diagonal | ((a.data != 0.0) & ~pinned_row & ~mask[a.indices])
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows[keep], minlength=n), out=indptr[1:])
    constrained = sparse.csr_matrix(
        (np.where(diagonal, 1.0, a.data)[keep], a.indices[keep], indptr), shape=(n, n))
    return SparseSystem(matrix=constrained, rhs=rhs)


def assemble_every_pass_picard(mesh: Mesh, coeffs, opts=None):
    """`picard_solve` from a zero interior guess that assembles and factors
    the system on every pass."""
    from dmpfem.p1 import P1Field
    from dmpfem.solver import (SolveOptions, SolveResult, apply_dirichlet, assemble_q,
                               backward_error, interpolate_boundary, linear_solve)

    opts = opts or SolveOptions()
    values = interpolate_boundary(mesh, coeffs.g)
    free = ~mesh.boundary_mask()
    u = np.zeros(mesh.num_vertices)
    u[mesh.boundary_nodes] = values
    applied = passes = 0
    while True:
        system = apply_dirichlet(assemble_q(mesh, P1Field(mesh, u), coeffs),
                                 values, mesh)
        sol = u.copy()
        sol[free] = linear_solve(system, opts)
        passes += 1
        lin_res = backward_error(system.matrix, system.rhs, sol[free])
        diff = sol - u
        update = opts.damping * float(np.linalg.norm(diff)) \
            / max(float(np.linalg.norm(sol)), 1e-30)
        if update <= opts.picard_tol:
            return SolveResult(u_h=P1Field(mesh, u + opts.damping * diff),
                               picard_iterations=applied, final_update_norm=update,
                               final_linear_residual=lin_res, converged=True,
                               factorizations=passes, refinement_steps=0)
        assert applied < opts.picard_max_iter
        u = u + opts.damping * diff
        applied += 1


# -- per-row oracles of the output writers ---------------------------------------

def row_write_vtk(path, mesh: Mesh, point_data=None, title: str = "dmpfem mesh") -> None:
    """Legacy ASCII VTK file written one formatted row at a time."""
    cell_type = 5 if mesh.dim == 2 else 10
    npts = mesh.num_vertices
    ncell = mesh.num_cells
    with open(path, "w", encoding="utf-8") as fp:
        fp.write("# vtk DataFile Version 3.0\n")
        fp.write(f"{title}\n")
        fp.write("ASCII\nDATASET UNSTRUCTURED_GRID\n")
        fp.write(f"POINTS {npts} double\n")
        for p in mesh.vertices:
            x, y = p[0], p[1]
            z = p[2] if mesh.dim == 3 else 0.0
            fp.write(f"{x:.17g} {y:.17g} {z:.17g}\n")
        fp.write(f"CELLS {ncell} {ncell * (mesh.dim + 2)}\n")
        for cell in mesh.cells:
            fp.write(f"{mesh.dim + 1} " + " ".join(str(int(v)) for v in cell) + "\n")
        fp.write(f"CELL_TYPES {ncell}\n")
        for _ in range(ncell):
            fp.write(f"{cell_type}\n")
        if point_data:
            fp.write(f"POINT_DATA {npts}\n")
            for name, values in point_data.items():
                fp.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
                for v in np.asarray(values, dtype=float):
                    fp.write(f"{v:.17g}\n")


def row_field_to_csv(field, path) -> None:
    """`node_index,x,y[,z],value` file written one formatted row at a time."""
    mesh = field.mesh
    cols = ["node_index", "x", "y"] + (["z"] if mesh.dim == 3 else []) + ["value"]
    with open(path, "w", encoding="utf-8") as fp:
        fp.write(",".join(cols) + "\n")
        for j in range(mesh.num_vertices):
            coords = ",".join(f"{c:.17g}" for c in mesh.vertices[j])
            fp.write(f"{j},{coords},{field.nodal_values[j]:.17g}\n")
