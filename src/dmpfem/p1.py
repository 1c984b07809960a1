"""Piecewise-linear nodal fields, shape-function geometry, quadrature and norms."""
from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .errors import InvalidParameters
from .mesh import Mesh, macro_measures, write_rows

MAX_NORM_DEGREE = 12  # quadrature degree cap of the L^p norms: 343 points per tetrahedron


def gradient_table(mesh: Mesh) -> np.ndarray:
    """Shape gradients of every cell at once: (n_cells, d+1, d), read-only and
    computed once per mesh (`Mesh.shape_gradients`)."""
    return mesh.shape_gradients


# -- quadrature ---------------------------------------------------------------

# Symmetric rules with positive weights; points are barycentric, weights sum
# to 1 and are scaled by |T| at use.

def _orbit1(a: float, n: int) -> list:
    # all placements of the odd coordinate among n barycentric coordinates
    pts = []
    for k in range(n):
        p = [a] * n
        p[k] = 1.0 - (n - 1) * a
        pts.append(p)
    return pts


_TRI_RULES = {
    1: (np.array([[1 / 3, 1 / 3, 1 / 3]]), np.array([1.0])),
    2: (np.array([[2 / 3, 1 / 6, 1 / 6],
                  [1 / 6, 2 / 3, 1 / 6],
                  [1 / 6, 1 / 6, 2 / 3]]),
        np.array([1 / 3, 1 / 3, 1 / 3])),
    4: (np.array(_orbit1(0.445948490915965, 3) + _orbit1(0.091576213509771, 3)),
        np.array([0.223381589678011] * 3 + [0.109951743655322] * 3)),
    6: (np.array(_orbit1(0.063089014491502, 3) + _orbit1(0.249286745170910, 3)
                 + [[a, b, 1.0 - a - b]
                    for a, b in itertools.permutations(
                        (0.636502499121399, 0.310352451033785, 0.053145049844816), 2)]),
        np.array([0.050844906370207] * 3 + [0.116786275726379] * 3
                 + [0.082851075618374] * 6)),
}


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
    2: (np.array(_orbit1((5.0 - math.sqrt(5.0)) / 20.0, 4)),
        np.array([0.25] * 4)),
    4: (np.array(_tet_orbit2(0.0) + _orbit1(0.1005267652252045, 4)
                 + _orbit1(0.3143728734931922, 4)),
        np.array([0.0190476190476190] * 6 + [0.0885898247429807] * 4
                 + [0.1328387466855907] * 4)),
}


def _collapsed_rule(dim: int, degree: int):
    """Conical-product Gauss rule on the reference simplex, any degree.

    Positive weights; built from Gauss-Legendre/Gauss-Jacobi factors through
    the collapsed-coordinate map, exact for total degree <= degree.  Only
    degrees beyond the tabulated rules get here, so `scipy.special` is
    imported here and not with the package.
    """
    from scipy.special import roots_jacobi, roots_legendre

    n = degree // 2 + 1
    # factor k: Gauss nodes and weights on [0, 1] for the weight (1 - t)^k
    roots = [roots_legendre(n)] + [roots_jacobi(n, float(k), 0.0) for k in range(1, dim)]
    factors = [zip(0.5 * (x + 1.0), 0.5 ** (k + 1) * w) for k, (x, w) in enumerate(roots)]
    pts, wts = [], []
    for nodes in itertools.product(*factors):
        t = [node for node, _ in nodes]
        # collapsed map: x_i = t_i (1 - t_{i+1}) ... (1 - t_{d-1})
        x = [reduce(operator.mul, [1.0 - s for s in t[i + 1:]], t[i]) for i in range(dim)]
        pts.append([reduce(operator.sub, x, 1.0)] + x)
        wts.append(math.prod(weight for _, weight in nodes))
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


def physical_points(mesh: Mesh, rule: QuadratureRule, cells=slice(None)) -> np.ndarray:
    """Quadrature point coordinates for every cell, or for the cells of a
    slice: (n_cells, n_q, dim), C-contiguous.  Each point sums its barycentric
    terms in local-vertex order, over one (n_cells, dim) gather per local
    vertex."""
    bar = rule.points
    corners = [mesh.vertices[mesh.cells[cells, m]] for m in range(bar.shape[1])]
    out = np.empty((len(corners[0]), len(bar), mesh.dim))
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


def norm_degree(p: float) -> int:
    """Quadrature degree of an L^p norm: ceil(p) + 1, at least 4 and at most
    `MAX_NORM_DEGREE`, since a large exponent would otherwise ask for tens of
    thousands of points per cell; an infinite p gets the cap too."""
    return min(max(4, int(math.ceil(min(p, MAX_NORM_DEGREE))) + 1), MAX_NORM_DEGREE)


def scaled_lp(values: np.ndarray, p: float, total) -> float:
    """total(|values|^p)^(1/p) (max |values| for p = inf), `total` a weighted sum;
    |values| is divided by its maximum m before the power and m multiplied back,
    so no power over- or underflows whole and 2^k values give exactly 2^k times."""
    if p < 1:
        raise InvalidParameters("p must be >= 1")
    values = np.abs(values)
    top = float(values.max(initial=0.0))
    if math.isinf(p) or not 0.0 < top < math.inf:
        return top
    return top * float(total((values / top) ** p) ** (1.0 / p))


def lp_norm(field: P1Field, p: float) -> float:
    """Continuous L^p norm by per-cell quadrature of |v|^p, of `norm_degree(p)`."""
    rule = quadrature_rule(field.mesh.dim, norm_degree(p))
    return scaled_lp(field.values_in_cells(rule), p, lambda v: np.einsum(
        "cq,q,c->", v, rule.weights, field.mesh.cell_measures))


def discrete_lp(field: P1Field, p: float) -> float:
    """Macro-element-weighted nodal l^p norm, (sum |v_j|^p |Omega_j|)^(1/p)."""
    weights = macro_measures(field.mesh)
    return scaled_lp(field.nodal_values, p, lambda v: v @ weights)


def field_to_csv(field: P1Field, path) -> None:
    """Write `node_index,x,y[,z],value` rows, one per vertex."""
    mesh = field.mesh
    cols = ["node_index", "x", "y"] + (["z"] if mesh.dim == 3 else []) + ["value"]
    rows = np.column_stack([np.arange(mesh.num_vertices), mesh.vertices, field.nodal_values])
    with open(path, "w", encoding="utf-8") as fp:
        fp.write(",".join(cols) + "\n")
        write_rows(fp, "%d," + ",".join(["%.17g"] * (mesh.dim + 1)) + "\n", rows)


def field_from_csv(mesh: Mesh, path) -> P1Field:
    """Read a `field_to_csv` file: one row per node, each with a finite value
    and the coordinates of its mesh vertex.

    Raises `InvalidParameters` naming the first bad line for a missing
    `value` or coordinate column, a row of the wrong width, a node index that
    is not an integer in [0, n_vertices) or appears twice, a value that is
    not a finite number, or coordinates more than 1e-12 * max(1, max |vertex|)
    from the node's vertex (a solution of another mesh); and when rows do
    not cover every node.
    """
    n = mesh.num_vertices
    values = np.full(n, np.nan)
    coords, lines = [None] * n, [0] * n
    with open(path, encoding="utf-8") as fp:
        header = fp.readline().strip().split(",")
        absent = [col for col in [*"xyz"[:mesh.dim], "value"] if col not in header]
        if absent:
            raise InvalidParameters(f"solution file {path} lacks columns {absent}")
        idx_value = header.index("value")
        coordinates_of = operator.itemgetter(*(header.index(col) for col in "xyz"[:mesh.dim]))
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
            coords[j], lines[j] = coordinates_of(parts), lineno
    missing = np.flatnonzero(np.isnan(values))
    if missing.size:
        raise InvalidParameters(
            f"solution file {path} does not cover every node: {missing.size} missing, "
            f"e.g. {missing[:5].tolist()}")
    try:  # one batch; a failing one is rescanned in file order for the line to name
        xyz = np.array(coords, dtype=float)
    except ValueError:
        for lineno, row in sorted(zip(lines, coords)):
            try:
                list(map(float, row))
            except ValueError as exc:
                raise InvalidParameters(f"solution file {path} line {lineno}: {exc}") from exc
    tol = 1e-12 * max(1.0, float(np.abs(mesh.vertices).max()))
    off = np.flatnonzero(~(np.abs(xyz - mesh.vertices).max(axis=1) <= tol))
    if off.size:
        j = min(off.tolist(), key=lines.__getitem__)
        raise InvalidParameters(
            f"solution file {path} line {lines[j]}: node {j} lies at "
            f"{xyz[j].tolist()}, its mesh vertex at {mesh.vertices[j].tolist()}")
    return P1Field(mesh, values)
