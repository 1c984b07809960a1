"""Piecewise-linear nodal fields, shape-function geometry, quadrature and norms."""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import roots_jacobi, roots_legendre

from .errors import InvalidParameters
from .mesh import Mesh, macro_measures, write_rows

MAX_LP_EXPONENT = 64.0


def gradient_table(mesh: Mesh) -> np.ndarray:
    """Shape gradients of every cell at once: (n_cells, d+1, d), read-only and
    computed once per mesh (`Mesh.shape_gradients`)."""
    return mesh.shape_gradients


# -- quadrature ---------------------------------------------------------------

# Symmetric rules with positive weights; points are barycentric, weights sum
# to 1 and are scaled by |T| at use.

def _orbit1(a: float) -> list:
    # all placements of the odd coordinate
    n = 3
    pts = []
    for k in range(n):
        p = [a] * n
        p[k] = 1.0 - 2.0 * a
        pts.append(p)
    return pts


_TRI_RULES = {
    1: (np.array([[1 / 3, 1 / 3, 1 / 3]]), np.array([1.0])),
    2: (np.array([[2 / 3, 1 / 6, 1 / 6],
                  [1 / 6, 2 / 3, 1 / 6],
                  [1 / 6, 1 / 6, 2 / 3]]),
        np.array([1 / 3, 1 / 3, 1 / 3])),
    4: (np.array(_orbit1(0.445948490915965) + _orbit1(0.091576213509771)),
        np.array([0.223381589678011] * 3 + [0.109951743655322] * 3)),
    6: (np.array(_orbit1(0.063089014491502) + _orbit1(0.249286745170910)
                 + [[a, b, 1.0 - a - b]
                    for a, b in itertools.permutations(
                        (0.636502499121399, 0.310352451033785, 0.053145049844816), 2)]),
        np.array([0.050844906370207] * 3 + [0.116786275726379] * 3
                 + [0.082851075618374] * 6)),
}


def _tet_orbit1(a: float) -> list:
    pts = []
    for k in range(4):
        p = [a] * 4
        p[k] = 1.0 - 3.0 * a
        pts.append(p)
    return pts


def _tet_orbit2(a: float) -> list:
    # two coordinates equal a, two equal 1/2 - a
    pts = []
    b = 0.5 - a
    for pair in itertools.combinations(range(4), 2):
        p = [b] * 4
        for k in pair:
            p[k] = a
        pts.append(p)
    return pts


_TET_RULES = {
    1: (np.array([[0.25, 0.25, 0.25, 0.25]]), np.array([1.0])),
    2: (np.array(_tet_orbit1((5.0 - math.sqrt(5.0)) / 20.0)),
        np.array([0.25] * 4)),
    4: (np.array(_tet_orbit2(0.0) + _tet_orbit1(0.1005267652252045)
                 + _tet_orbit1(0.3143728734931922)),
        np.array([0.0190476190476190] * 6 + [0.0885898247429807] * 4
                 + [0.1328387466855907] * 4)),
}


def _collapsed_rule(dim: int, degree: int):
    """Conical-product Gauss rule on the reference simplex, any degree.

    Positive weights; built from Gauss-Legendre/Gauss-Jacobi factors through
    the collapsed-coordinate map, exact for total degree <= degree.
    """
    n = degree // 2 + 1
    xg, wg = roots_legendre(n)
    tg, vg = 0.5 * (xg + 1.0), 0.5 * wg  # weight 1 on [0,1]
    xj1, wj1 = roots_jacobi(n, 1.0, 0.0)
    tj1, vj1 = 0.5 * (xj1 + 1.0), 0.25 * wj1  # weight (1-t) on [0,1]
    if dim == 2:
        pts, wts = [], []
        for a, wa in zip(tg, vg):
            for b, wb in zip(tj1, vj1):
                x, y = a * (1.0 - b), b
                pts.append((1.0 - x - y, x, y))
                wts.append(wa * wb)
        w = np.array(wts)
        return np.array(pts), w / w.sum()
    xj2, wj2 = roots_jacobi(n, 2.0, 0.0)
    tj2, vj2 = 0.5 * (xj2 + 1.0), 0.125 * wj2  # weight (1-t)^2 on [0,1]
    pts, wts = [], []
    for a, wa in zip(tg, vg):
        for b, wb in zip(tj1, vj1):
            for c, wc in zip(tj2, vj2):
                x = a * (1.0 - b) * (1.0 - c)
                y = b * (1.0 - c)
                z = c
                pts.append((1.0 - x - y - z, x, y, z))
                wts.append(wa * wb * wc)
    w = np.array(wts)
    return np.array(pts), w / w.sum()


@dataclass(frozen=True)
class QuadratureRule:
    """Simplex quadrature: barycentric points, weights summing to one."""

    dim: int
    degree: int
    points: np.ndarray  # (n_q, dim+1) barycentric
    weights: np.ndarray  # (n_q,) positive, sum 1


@lru_cache(maxsize=None)
def quadrature_rule(dim: int, degree: int) -> QuadratureRule:
    """Smallest tabulated rule with exactness >= degree; collapsed-Gauss
    fallback beyond the tables."""
    if dim not in (2, 3):
        raise InvalidParameters(f"quadrature needs dim 2 or 3, got {dim}")
    if degree < 0:
        raise InvalidParameters("quadrature degree must be >= 0")
    table = _TRI_RULES if dim == 2 else _TET_RULES
    usable = [d for d in sorted(table) if d >= degree]
    if usable:
        eff = usable[0]
        pts, wts = table[eff]
    else:
        eff = degree
        pts, wts = _collapsed_rule(dim, degree)
    return QuadratureRule(dim=dim, degree=eff, points=pts, weights=wts / wts.sum())


def physical_points(mesh: Mesh, rule: QuadratureRule) -> np.ndarray:
    """Quadrature point coordinates for every cell: (n_cells, n_q, dim),
    C-contiguous.  Each point sums its barycentric terms in local-vertex
    order, over one (n_cells, dim) gather per local vertex."""
    bar = rule.points
    corners = [mesh.vertices[mesh.cells[:, m]] for m in range(bar.shape[1])]
    out = np.empty((mesh.num_cells, len(bar), mesh.dim))
    for q, weights in enumerate(bar):
        point = weights[0] * corners[0]
        for weight, corner in zip(weights[1:], corners[1:]):
            point += weight * corner
        out[:, q] = point
    return out


def integrate(mesh: Mesh, integrand, rule: QuadratureRule) -> float:
    """Integral over the mesh of a callable on physical points.

    `integrand` must accept an (..., dim) coordinate array and broadcast.
    """
    xq = physical_points(mesh, rule)
    vals = np.asarray(integrand(xq), dtype=float)
    vals = np.broadcast_to(vals, xq.shape[:2])
    return float(np.einsum("cq,q,c->", vals, rule.weights, mesh.cell_measures))


# -- nodal fields -------------------------------------------------------------

@dataclass(frozen=True)
class P1Field:
    """Continuous piecewise-linear field given by one value per mesh vertex."""

    mesh: Mesh
    nodal_values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.nodal_values, dtype=float)
        if values.shape != (self.mesh.num_vertices,):
            raise InvalidParameters(
                f"need {self.mesh.num_vertices} nodal values, got {values.shape}")
        object.__setattr__(self, "nodal_values", values)

    def values_in_cells(self, rule: QuadratureRule) -> np.ndarray:
        """Field values at each cell's quadrature points: (n_cells, n_q)."""
        return np.einsum("qm,cm->cq", rule.points,
                         self.nodal_values[self.mesh.cells])

    def cell_gradients(self) -> np.ndarray:
        """Constant per-cell gradients: (n_cells, dim)."""
        return np.einsum("cmd,cm->cd", gradient_table(self.mesh),
                         self.nodal_values[self.mesh.cells])

    def max_value(self) -> float:
        return float(self.nodal_values.max())

    def min_value(self) -> float:
        return float(self.nodal_values.min())


def constant_field(mesh: Mesh, value: float) -> P1Field:
    return P1Field(mesh, np.full(mesh.num_vertices, float(value)))


def interpolate(mesh: Mesh, func) -> P1Field:
    """Nodal interpolant of a callable on coordinates."""
    vals = np.asarray(func(mesh.vertices), dtype=float)
    return P1Field(mesh, np.broadcast_to(vals, (mesh.num_vertices,)).copy())


def cut_plus(field: P1Field, k: float) -> P1Field:
    """Nodal nonnegative part of field - k."""
    return P1Field(field.mesh, np.maximum(field.nodal_values - k, 0.0))


def cut_minus(field: P1Field, k: float) -> P1Field:
    """Nodal nonpositive part of field - k; cut_plus + cut_minus + k == field."""
    return P1Field(field.mesh, np.minimum(field.nodal_values - k, 0.0))


def lp_norm(field: P1Field, p: float, rule: QuadratureRule | None = None) -> float:
    """Continuous L^p norm by per-cell quadrature of |v|^p."""
    if p < 1:
        raise InvalidParameters("p must be >= 1")
    p = min(p, MAX_LP_EXPONENT)
    if rule is None:
        rule = quadrature_rule(field.mesh.dim, int(math.ceil(p)) + 1)
    vals = np.abs(field.values_in_cells(rule)) ** p
    total = np.einsum("cq,q,c->", vals, rule.weights, field.mesh.cell_measures)
    return float(total ** (1.0 / p))


def discrete_lp(field: P1Field, p: float) -> float:
    """Macro-element-weighted nodal l^p norm, (sum |v_j|^p |Omega_j|)^(1/p)."""
    if p < 1:
        raise InvalidParameters("p must be >= 1")
    p = min(p, MAX_LP_EXPONENT)
    weights = macro_measures(field.mesh)
    return float((np.abs(field.nodal_values) ** p @ weights) ** (1.0 / p))


def field_to_csv(field: P1Field, path) -> None:
    """Write `node_index,x,y[,z],value` rows, one per vertex."""
    mesh = field.mesh
    cols = ["node_index", "x", "y"] + (["z"] if mesh.dim == 3 else []) + ["value"]
    rows = np.column_stack([np.arange(mesh.num_vertices), mesh.vertices, field.nodal_values])
    with open(path, "w", encoding="utf-8") as fp:
        fp.write(",".join(cols) + "\n")
        write_rows(fp, "%d," + ",".join(["%.17g"] * (mesh.dim + 1)) + "\n", rows)


def field_from_csv(mesh: Mesh, path) -> P1Field:
    """Read a `field_to_csv` file: one row per node, each with a finite value.

    Raises `InvalidParameters` naming the first bad line for a missing
    `value` column, a row of the wrong width, a node index that is not an
    integer in [0, n_vertices) or appears twice, or a value that is not a
    finite number; and when rows do not cover every node.
    """
    n = mesh.num_vertices
    values = np.full(n, np.nan)
    with open(path, encoding="utf-8") as fp:
        header = fp.readline().strip().split(",")
        if "value" not in header:
            raise InvalidParameters(f"solution file {path} has no 'value' column")
        idx_value = header.index("value")
        for lineno, line in enumerate(fp, start=2):
            parts = line.strip().split(",")
            if parts == [""]:
                continue
            try:
                if len(parts) != len(header):
                    raise ValueError(f"{len(parts)} fields, header has {len(header)}")
                j = int(parts[0])
                value = float(parts[idx_value])
                if not 0 <= j < n:
                    raise ValueError(f"node index {j} outside [0, {n})")
                if not math.isfinite(value):
                    raise ValueError(f"node {j} has value {value}")
                if not math.isnan(values[j]):
                    raise ValueError(f"node {j} appears twice")
            except ValueError as exc:
                raise InvalidParameters(f"solution file {path} line {lineno}: {exc}") from exc
            values[j] = value
    missing = np.flatnonzero(np.isnan(values))
    if missing.size:
        raise InvalidParameters(
            f"solution file {path} does not cover every node: {missing.size} missing, "
            f"e.g. {missing[:5].tolist()}")
    return P1Field(mesh, values)
