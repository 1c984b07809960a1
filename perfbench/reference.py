"""Independent references and the correctness checks built on them.

Nothing here imports dmpfem: every expected value is recomputed from the
program's raw outputs (vertex and cell arrays, nodal values, certificate
fields) with numpy/scipy and closed forms.  Each `check_*` function returns a
list of problem strings; an empty list means the output passed.
"""
from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as spla

NODAL_REL_TOL = 1e-10       # stencil reference vs program nodal values
EDGE_SUM_TOL = 1e-12        # two-cell edge sums vs the cotangent closed form
MEASURE_TOL = 1e-12         # total mesh measure vs 1
LEVEL_SET_TOL = 1e-12       # recomputed level-set measures
SWEEP_REL_TOL = 1e-10       # recomputed q(k), relative to the sweep scale
BOUND_TOL = 1e-9            # sup u_h <= k* + BOUND_TOL
SWEEP_SAMPLES = 16          # sampled cut levels per q(k) recomputation
# |K(u_h) - w_h|_inf <= KIRCHHOFF_C * h^2 with h = 1/n.  Measured constants at
# this ladder are 3.0e-4 to 6.1e-4 (2D, f = -(1 + s x y), s in [0, 1]) and
# about 2.4e-4 (3D Kuhn, f = 1); the bound leaves a factor of about 5.
KIRCHHOFF_C = 3e-3


def kirchhoff(u):
    """K(u) = integral_0^u a(t) dt for a(t) = 1 + t^2 / (1 + t^2)."""
    return 2.0 * u - np.arctan(u)


def cell_measures(vertices: np.ndarray, cells: np.ndarray) -> np.ndarray:
    d = vertices.shape[1]
    v = vertices[cells]
    return np.abs(np.linalg.det(v[:, 1:, :] - v[:, :1, :])) / math.factorial(d)


def p1_stiffness(vertices: np.ndarray, cells: np.ndarray) -> sparse.csr_matrix:
    """Full (unconstrained) P1 Laplace stiffness, sum over cells of
    |T| grad(l_i) . grad(l_j), with barycentric gradients taken from the
    inverse edge matrix: l_k(x) = (E^-T (x - v_0))_k for k >= 1."""
    d = vertices.shape[1]
    v = vertices[cells]
    edges = v[:, 1:, :] - v[:, :1, :]
    rest = np.swapaxes(np.linalg.inv(edges), 1, 2)
    grads = np.concatenate([-rest.sum(axis=1, keepdims=True), rest], axis=1)
    meas = np.abs(np.linalg.det(edges)) / math.factorial(d)
    local = meas[:, None, None] * np.einsum("cid,cjd->cij", grads, grads)
    m = d + 1
    rows = np.broadcast_to(cells[:, :, None], (len(cells), m, m)).ravel()
    cols = np.broadcast_to(cells[:, None, :], (len(cells), m, m)).ravel()
    n = len(vertices)
    return sparse.coo_matrix((local.ravel(), (rows, cols)), shape=(n, n)).tocsr()


def _triple_moments(d: int) -> np.ndarray:
    """M[i, j, k] = integral over T of l_i l_j l_k, divided by |T|:
    d! * prod(multiplicity!) / (d + 3)!."""
    m = d + 1
    out = np.empty((m, m, m))
    for i in range(m):
        for j in range(m):
            for k in range(m):
                counts = np.bincount([i, j, k], minlength=m)
                out[i, j, k] = math.factorial(d) * np.prod(
                    [math.factorial(c) for c in counts]) / math.factorial(d + 3)
    return out


def p1_load(vertices: np.ndarray, cells: np.ndarray, const: float,
            xy: float = 0.0) -> np.ndarray:
    """Exact P1 load of f = const + xy * x * y (x, y the first two coordinates),
    from integral l_i = |T|/(d+1) and the triple barycentric moments."""
    d = vertices.shape[1]
    meas = cell_measures(vertices, cells)
    local = np.repeat((const * meas / (d + 1))[:, None], d + 1, axis=1)
    if xy != 0.0:
        x = vertices[cells][:, :, 0]
        y = vertices[cells][:, :, 1]
        local = local + xy * meas[:, None] * np.einsum(
            "ijk,cj,ck->ci", _triple_moments(d), x, y)
    load = np.zeros(len(vertices))
    np.add.at(load, cells.ravel(), local.ravel())
    return load


def unit_box_boundary(vertices: np.ndarray) -> np.ndarray:
    """Nodes on the boundary of the unit square/cube, found from coordinates."""
    return np.any((np.abs(vertices) < 1e-12) | (np.abs(vertices - 1.0) < 1e-12), axis=1)


def dirichlet_zero_solve(stiffness: sparse.csr_matrix, load: np.ndarray,
                         boundary: np.ndarray) -> np.ndarray:
    free = ~boundary
    u = np.zeros(len(load))
    u[free] = spla.spsolve(stiffness[free][:, free].tocsc(), load[free])
    return u


def lattice_index(vertices: np.ndarray, n: int) -> np.ndarray:
    """Integer lattice coordinates (i, j[, k]) of each vertex of an n-grid."""
    idx = np.rint(vertices * n)
    if np.abs(idx - vertices * n).max() > 1e-9:
        raise ValueError("vertices are not on the n-lattice")
    return idx.astype(np.int64)


def stencil_matrix(n: int, d: int) -> sparse.csr_matrix:
    """5-point (2D) or 7-point (3D) stencil on the (n-1)^d interior lattice,
    scaled like the P1 stiffness of the Kuhn/right-diagonal split: h^(d-2)."""
    m = n - 1
    tri = sparse.diags([-np.ones(m - 1), 2.0 * np.ones(m), -np.ones(m - 1)], [-1, 0, 1])
    eye = sparse.identity(m)
    if d == 2:
        lap = sparse.kron(eye, tri) + sparse.kron(tri, eye)
    else:
        lap = (sparse.kron(sparse.kron(eye, eye), tri)
               + sparse.kron(sparse.kron(eye, tri), eye)
               + sparse.kron(sparse.kron(tri, eye), eye))
    return (lap * (1.0 / n) ** (d - 2)).tocsr()


def stencil_problems(vertices: np.ndarray, cells: np.ndarray, n: int) -> list:
    """The benchmark's P1 stiffness restricted to interior nodes must equal
    the lattice stencil; used by the self-test on small meshes."""
    d = vertices.shape[1]
    free = ~unit_box_boundary(vertices)
    lat = lattice_index(vertices[free], n) - 1
    order = np.ravel_multi_index(tuple(lat[:, ::-1].T), (n - 1,) * d)
    perm = np.empty(len(order), dtype=np.int64)
    perm[order] = np.arange(len(order))
    a = p1_stiffness(vertices, cells)[free][:, free][perm][:, perm]
    diff = abs(a - stencil_matrix(n, d)).max()
    if diff > 1e-12:
        return [f"{d}D P1 stiffness differs from the stencil by {diff:.3e}"]
    return []


# -- checks ---------------------------------------------------------------------

def check_mesh_counts(vertices: np.ndarray, cells: np.ndarray, n: int) -> list:
    d = vertices.shape[1]
    problems = []
    if len(vertices) != (n + 1) ** d:
        problems.append(f"{len(vertices)} vertices, expected {(n + 1) ** d}")
    want_cells = 2 * n * n if d == 2 else 6 * n ** 3
    if len(cells) != want_cells:
        problems.append(f"{len(cells)} cells, expected {want_cells}")
    total = float(cell_measures(vertices, cells).sum())
    if abs(total - 1.0) > MEASURE_TOL:
        problems.append(f"total measure {total!r}, expected 1")
    return problems


def check_nodal(u: np.ndarray, ref: np.ndarray) -> list:
    err = float(np.abs(u - ref).max() / max(np.abs(ref).max(), 1e-300))
    if not err <= NODAL_REL_TOL:
        return [f"nodal values differ from the stencil reference by {err:.3e} relative"]
    return []


def check_kirchhoff(u: np.ndarray, w: np.ndarray, n: int) -> list:
    err = float(np.abs(kirchhoff(u) - w).max())
    bound = KIRCHHOFF_C / n ** 2
    if not err <= bound:
        return [f"|K(u_h) - w_h| = {err:.3e} above {bound:.3e}"]
    return []


def check_upper_bound(u: np.ndarray, k_star: float) -> list:
    if not float(u.max()) <= k_star + BOUND_TOL:
        return [f"sup u_h = {float(u.max())!r} above k* = {k_star!r}"]
    return []


def interior_edges(cells: np.ndarray) -> np.ndarray:
    """Sorted (m, n) node pairs shared by exactly two triangles."""
    pairs = np.concatenate([cells[:, [0, 1]], cells[:, [1, 2]], cells[:, [0, 2]]])
    pairs = np.sort(pairs, axis=1)
    uniq, counts = np.unique(pairs, axis=0, return_counts=True)
    return uniq[counts == 2]


def check_edges(edges: list, vertices: np.ndarray, cells: np.ndarray, n: int) -> list:
    """Right-diagonal unit-Laplacian edge sums: 0 on diagonal edges, -1 on axis
    edges; 3n^2 - 2n interior edges."""
    problems = []
    if len(edges) != 3 * n * n - 2 * n:
        problems.append(f"{len(edges)} interior edges, expected {3 * n * n - 2 * n}")
    got = np.array([(e["node_m"], e["node_n"]) for e in edges], dtype=np.int64).reshape(-1, 2)
    got = np.sort(got, axis=1)
    want = interior_edges(cells)
    uniq = np.unique(got, axis=0)
    if len(uniq) != len(got) or uniq.shape != want.shape or np.any(uniq != want):
        problems.append("interior edge set differs from the cells' shared edges")
        return problems
    delta = vertices[got[:, 0]] - vertices[got[:, 1]]
    diagonal = np.all(np.abs(delta) > 1e-12, axis=1)
    expected = np.where(diagonal, 0.0, -1.0)
    for key in ("sum", "sum_reversed", "poisson_closed_form"):
        vals = np.array([e[key] for e in edges], dtype=float)
        err = np.abs(vals - expected)
        if not err.max() <= EDGE_SUM_TOL:
            k = int(np.argmax(err))
            problems.append(f"edge ({got[k, 0]}, {got[k, 1]}) {key} {vals[k]!r}, "
                            f"expected {expected[k]}")
    return problems


def check_sweep(k_values: np.ndarray, q_values: np.ndarray, min_value: float,
                u: np.ndarray, stiffness: sparse.csr_matrix) -> list:
    """Sweep minimum >= 0, and q(k) = (u-k)^+ . A (u-k)^- recomputed at
    evenly spaced sampled levels."""
    problems = []
    if not min_value >= 0.0:
        problems.append(f"sweep minimum {min_value!r} below 0")
    if len(k_values) != len(q_values) or len(k_values) == 0:
        return problems + ["sweep levels and values do not match"]
    scale = max(1.0, float(np.abs(q_values).max()))
    for i in np.unique(np.linspace(0, len(k_values) - 1, SWEEP_SAMPLES).astype(int)):
        k = k_values[i]
        q = float(np.maximum(u - k, 0.0) @ (stiffness @ np.minimum(u - k, 0.0)))
        if not abs(q - q_values[i]) <= SWEEP_REL_TOL * scale:
            problems.append(f"q({k!r}) = {q_values[i]!r}, recomputed {q!r}")
    return problems


def check_level_sets(profile: np.ndarray, u: np.ndarray, vertices: np.ndarray,
                     cells: np.ndarray) -> list:
    """Measure of cells whose nodal maximum exceeds k, at every profile level."""
    cell_max = u[cells].max(axis=1)
    order = np.argsort(cell_max)
    tail = np.concatenate([np.cumsum(cell_measures(vertices, cells)[order][::-1])[::-1],
                           [0.0]])
    first_above = np.searchsorted(cell_max[order], profile[:, 0], side="right")
    err = np.abs(tail[first_above] - profile[:, 1])
    if not err.max() <= LEVEL_SET_TOL:
        k = int(np.argmax(err))
        return [f"level-set measure at k={profile[k, 0]!r} is {profile[k, 1]!r}, "
                f"recomputed {tail[first_above][k]!r}"]
    return []


def check_verdicts(verdicts: dict, expected: dict) -> list:
    return [f"verdict {name} is {verdicts.get(name)!r}, expected {want!r}"
            for name, want in expected.items() if verdicts.get(name) != want]


def verdicts_from_json(cert: dict) -> dict:
    """The verdict set of a certificate.json, named like DmpCertificate.verdicts()."""
    return {
        "angles": "pass" if cert["mesh"]["classification"] != "obtuse" else "fail",
        "element": cert["element_condition"]["verdict"],
        "edge": cert["edge_condition"]["verdict"],
        "assumption": cert["assumption_a"]["verdict"],
        "theorem_3_2": cert["theorem_3_2"]["verdict"],
        "theorem_3_3": cert["theorem_3_3"]["verdict"],
        "level_sets": cert["level_sets"]["verdict"],
        "de_giorgi": cert["de_giorgi"]["verdict"],
    }


def all_pass_except(**exceptions) -> dict:
    names = ("angles", "element", "edge", "assumption", "theorem_3_2",
             "theorem_3_3", "level_sets", "de_giorgi")
    return {name: exceptions.get(name, "pass") for name in names}
