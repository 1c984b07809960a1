"""Simplicial meshes: construction, structured generators, geometry and angle audits.

A mesh is a triangulation (2D) or tetrahedralization (3D) given by a vertex
table and a cell table.  All angle machinery works through outward facet
normals: the angle attached to a vertex pair (i, j) of a cell is pi minus the
angle between the unit normals of the facets opposite i and j.  In 2D this
reproduces the classical vertex angles of a triangle; in 3D it gives the six
interior dihedral angles of a tetrahedron.
"""
from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateCell,
    DimensionMismatch,
    IndexOutOfRange,
    InvalidParameters,
    NonFiniteValue,
    NonManifold,
)

# Separates genuine right angles of structured meshes from rounding noise.
ANGLE_TOL = 1e-10

# Scale-aware degeneracy threshold: |T| < this * h_T^dim fails.
DEGENERACY_FACTOR = 1e-14


def _edge_columns(verts: np.ndarray) -> list:
    """Edge vectors e_k = v_k - v_0 (k = 1..d) of one or many simplices, verts
    (..., d+1, d): e[k-1][j] is component j of e_k, one (...,) column each."""
    d = verts.shape[-1]
    return [[verts[..., k, j] - verts[..., 0, j] for j in range(d)] for k in range(1, d + 1)]


def _scaled_gradient(e: list, k: int) -> list:
    """det * grad(lambda_{k+1}), det = det[e_1, ..., e_d], as component
    columns: the inward normal of the facet opposite vertex k+1, from the
    other edges alone (in 3D the cyclic cross product e_{k+2} x e_{k+3})."""
    if len(e) == 2:
        (ax, ay), (bx, by) = e
        return [by, -bx] if k == 0 else [-ay, ax]
    a, b = e[(k + 1) % 3], e[(k + 2) % 3]
    return [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]]


def _determinant(e: list, scaled: list) -> np.ndarray:
    """det[e_1, ..., e_d] = e_1 . (det * grad(lambda_1)), d! times the signed
    measure; `scaled` is `_scaled_gradient(e, 0)`."""
    return functools.reduce(np.add, (a * b for a, b in zip(e[0], scaled)))


def barycentric_gradients(verts: np.ndarray) -> np.ndarray:
    """Gradients of the d+1 barycentric shape functions of one or many simplices.

    `verts` has shape (..., d+1, d); the result has the same shape, row i being
    the constant gradient of the shape function attached to vertex i.  Closed
    form from the edge vectors: grad(lambda_k) is the inward normal of the
    facet opposite vertex k over det (`_scaled_gradient`), and grad(lambda_0)
    is minus the sum of the others.  The result is a component-major view,
    (..., d, d+1) in memory.
    """
    d = verts.shape[-1]
    e = _edge_columns(verts)
    scaled = [_scaled_gradient(e, k) for k in range(d)]
    det = _determinant(e, scaled[0])
    out = np.empty(verts.shape[:-2] + (d, d + 1))
    for k, normal in enumerate(scaled, start=1):
        for j, column in enumerate(normal):
            np.divide(column, det, out=out[..., j, k])
    np.negative(out[..., 1:].sum(axis=-1), out=out[..., 0])
    return np.swapaxes(out, -1, -2)


def _signed_measures(verts: np.ndarray) -> np.ndarray:
    """Signed measure det / d! of one or many simplices, verts (..., d+1, d),
    from the determinant that `barycentric_gradients` divides by."""
    e = _edge_columns(verts)
    return _determinant(e, _scaled_gradient(e, 0)) / math.factorial(len(e))


def _squared_norms(vectors: np.ndarray) -> np.ndarray:
    """Squared Euclidean norms over the last axis, one component at a time,
    summed in component order as `np.linalg.norm(vectors, axis=-1)` does."""
    return functools.reduce(np.add, (vectors[..., d] ** 2 for d in range(vectors.shape[-1])))


def row_norms(vectors: np.ndarray) -> np.ndarray:
    """`np.linalg.norm(vectors, axis=-1)`, bit for bit, without its reduction
    over a short last axis."""
    return np.sqrt(_squared_norms(vectors))


def _pairwise_diameters(verts: np.ndarray) -> np.ndarray:
    """Max pairwise vertex distance per simplex; verts (..., d+1, d).  Takes
    the d(d+1)/2 distinct pairs and one square root of the largest squared
    length (the square root is monotone, so the bits equal the all-pairs
    maximum)."""
    pairs = itertools.combinations(range(verts.shape[-2]), 2)
    return np.sqrt(functools.reduce(np.maximum, (
        _squared_norms(verts[..., i, :] - verts[..., j, :]) for i, j in pairs)))


@dataclass(frozen=True)
class Mesh:
    """Immutable simplicial mesh with cached per-cell geometry and facet incidence.

    Attributes
    ----------
    dim : 2 or 3.
    vertices : (n_vertices, dim) float array.
    cells : (n_cells, dim+1) int array, positively oriented.
    boundary_nodes : read-only ascending int64 array of the boundary vertices.
    cell_measures : per-cell area/volume, all positive: the edge-vector
        determinant over d!, in closed form (`_signed_measures`).
    cell_diameters : per-cell max pairwise vertex distance.
    h : mesh size, max of cell_diameters.
    interior_facets : (n_interior, dim) ascending vertex rows of the facets
        shared by two cells, in lexicographic order.
    interior_owners : (n_interior, 2) owner slots `cell * (dim+1) + local` of
        those facets, cells ascending; local vertex `local` is the one
        opposite the facet.
    shape_gradients : (n_cells, dim+1, dim) read-only shape gradients of every
        cell, computed on first use and kept: the closed form of
        `barycentric_gradients`, inward facet normals over the same
        determinant as `cell_measures`.
    """

    dim: int
    vertices: np.ndarray
    cells: np.ndarray
    boundary_nodes: np.ndarray
    cell_measures: np.ndarray
    cell_diameters: np.ndarray
    h: float
    interior_facets: np.ndarray
    interior_owners: np.ndarray

    @cached_property
    def shape_gradients(self) -> np.ndarray:
        # Kept as the strided, component-major view of the closed form,
        # without a copy: the diffusion einsum of `local_form_parts` gives the
        # same bits on a contiguous copy but runs slower on it.
        grads = barycentric_gradients(self.vertices[self.cells])
        grads.flags.writeable = False
        return grads

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def num_cells(self) -> int:
        return self.cells.shape[0]

    @property
    def total_measure(self) -> float:
        return float(self.cell_measures.sum())

    def boundary_mask(self) -> np.ndarray:
        mask = np.zeros(self.num_vertices, dtype=bool)
        mask[self.boundary_nodes] = True
        return mask


@dataclass(frozen=True)
class InteriorEdges:
    """Triangle edges shared by two cells, one row per edge, in lexicographic
    order of the node pairs."""

    nodes: np.ndarray  # (E, 2) node pairs m < n
    cells: np.ndarray  # (E, 2) the two owning cells, ascending
    opposite_angles: np.ndarray  # (E, 2) radians, at each cell's vertex opposite the edge
    opposite_cotangents: np.ndarray  # (E, 2) cotangents of those angles

    def __len__(self) -> int:
        return len(self.nodes)


@dataclass(frozen=True)
class AngleReport:
    """Result of an acuteness audit over all cells."""

    cell_angles: np.ndarray  # (n_cells, n_pairs), pairs (0,1), (0,2), ..., (d-1,d)
    max_angle: float
    min_angle: float
    classification: str  # 'acute' | 'non-obtuse' | 'obtuse'


_SORT_NETWORKS = {2: [(0, 1)], 3: [(0, 1), (1, 2), (0, 1)]}  # facet widths 2 and 3


def key_runs(keys: np.ndarray) -> tuple:
    """Group equal keys by one stable sort, the faster sort on partly ordered
    keys.  Returns `order`, the positions of `keys` by ascending key (equal
    keys in their original order), and `first`, a mask over `keys[order]`
    marking where each run of equal keys starts."""
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    first = np.empty(len(keys), dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    return order, first


def _facet_table(cells: np.ndarray, nv: int):
    """Facet incidence from one sort of packed facet keys.

    Facet i of a cell is its sorted vertex row without local vertex i, stored
    at slot `cell * (d+1) + i`.  Returns the boundary vertices (those on a
    facet of one cell) and, for the facets of two cells in lexicographic
    order, their vertex rows and owner slots (cells ascending).  Raises
    `NonManifold` for a facet of three or more cells.
    """
    m = cells.shape[1]
    if nv ** (m - 1) > 2 ** 63:
        raise InvalidParameters(f"{nv} vertices overflow the int64 facet keys")
    # column k holds vertex k of every facet, (cells, m); a compare-exchange
    # network sorts the m - 1 columns
    others = np.array([[j for j in range(m) if j != i] for i in range(m)])
    cols = [cells[:, others[:, k]] for k in range(m - 1)]
    for a, b in _SORT_NETWORKS[m - 1]:
        cols[a], cols[b] = np.minimum(cols[a], cols[b]), np.maximum(cols[a], cols[b])
    rows = np.stack(cols, axis=-1).reshape(-1, m - 1)
    keys = cols[0].ravel()
    for col in cols[1:]:
        keys = keys * nv + col.ravel()
    order, first = key_runs(keys)  # slots grouped by facet, facets in key order
    starts = np.flatnonzero(first)
    counts = np.diff(starts, append=len(keys))
    if (counts > 2).any():
        f = int(np.argmax(counts > 2))
        raise NonManifold(f"facet {tuple(rows[order[starts[f]]].tolist())} "
                          f"shared by {counts[f]} cells")
    boundary = np.unique(rows[order[starts[counts == 1]]])
    owners = order[starts[counts == 2, None] + np.arange(2)]
    return boundary, rows[owners[:, 0]], owners


def build_mesh(vertices, cells) -> Mesh:
    """Validate raw vertex/cell arrays and assemble a `Mesh`.

    Cells with negative orientation are silently repaired by swapping their
    last two vertices.  Raises `NonFiniteValue`, `IndexOutOfRange`,
    `DegenerateCell` or `NonManifold` on malformed input, and
    `InvalidParameters` for a vertex in no cell.
    """
    vertices = np.asarray(vertices, dtype=float)
    cells = np.asarray(cells, dtype=np.int64)
    if vertices.ndim != 2 or vertices.shape[1] not in (2, 3):
        raise DimensionMismatch(f"vertices must be (n, 2) or (n, 3), got {vertices.shape}")
    dim = vertices.shape[1]
    if cells.ndim != 2 or cells.shape[1] != dim + 1:
        raise DimensionMismatch(f"cells must be (n, {dim + 1}) for dim={dim}, got {cells.shape}")
    finite = np.isfinite(vertices).all(axis=1)
    if not finite.all():
        j = int(np.argmin(finite))
        raise NonFiniteValue(f"vertex {j} has a non-finite coordinate: {vertices[j].tolist()}")

    nv = vertices.shape[0]
    if cells.size and (cells.min() < 0 or cells.max() >= nv):
        raise IndexOutOfRange(f"cell vertex index outside [0, {nv})")
    repeats = functools.reduce(np.logical_or, (
        cells[:, i] == cells[:, j] for i, j in itertools.combinations(range(dim + 1), 2)))
    if repeats.any():
        k = int(np.argmax(repeats))
        raise DegenerateCell(f"cell {k} repeats a vertex: {cells[k].tolist()}")

    cells = cells.copy()
    signed = _signed_measures(vertices[cells])
    flip = signed < 0
    if flip.any():
        cells[np.ix_(flip, [dim - 1, dim])] = cells[np.ix_(flip, [dim, dim - 1])]
        signed = np.abs(signed)
    measures = np.abs(signed)

    diameters = _pairwise_diameters(vertices[cells])
    degenerate = measures < DEGENERACY_FACTOR * diameters ** dim
    if degenerate.any():
        k = int(np.argmax(degenerate))
        raise DegenerateCell(f"cell {k} has measure {measures[k]:.3e} below threshold")

    boundary, interior_facets, interior_owners = _facet_table(cells, nv)
    unused = np.bincount(cells.ravel(), minlength=nv) == 0
    if unused.any():
        raise InvalidParameters(f"vertex {int(np.argmax(unused))} is in no cell")
    boundary.flags.writeable = False
    return Mesh(
        dim=dim,
        vertices=vertices,
        cells=cells,
        boundary_nodes=boundary,
        cell_measures=measures,
        cell_diameters=diameters,
        h=float(diameters.max()) if len(diameters) else 0.0,
        interior_facets=interior_facets,
        interior_owners=interior_owners,
    )


def generate_structured_2d(nx: int, ny: int, pattern: str = "right-diagonal",
                           skew: float = 0.0) -> Mesh:
    """Triangulate the unit square on an nx-by-ny lattice.

    `right-diagonal` splits every lattice square along the up-right diagonal
    (two right isoceles triangles for skew=0); `crisscross` adds the square's
    midpoint and four triangles.  `skew` in [0, 1) shears x by skew*y, which
    produces obtuse angles once large enough.
    """
    if nx < 1 or ny < 1:
        raise InvalidParameters(f"grid counts must be >= 1, got {nx}x{ny}")
    if not 0.0 <= skew < 1.0:
        raise InvalidParameters(f"skew must be in [0, 1), got {skew}")
    if pattern not in ("right-diagonal", "crisscross"):
        raise InvalidParameters(f"unknown pattern {pattern!r}")

    x, y = np.meshgrid(np.linspace(0.0, 1.0, nx + 1), np.linspace(0.0, 1.0, ny + 1))
    verts = np.column_stack([(x + skew * y).ravel(), y.ravel()])  # vertex j*(nx+1) + i
    v00 = (np.arange(ny)[:, None] * (nx + 1) + np.arange(nx)).ravel()  # square corners
    v10, v01, v11 = v00 + 1, v00 + nx + 1, v00 + nx + 2
    if pattern == "right-diagonal":
        cells = np.column_stack([v00, v10, v11, v00, v11, v01])
    else:
        vc = len(verts) + np.arange(len(v00))
        verts = np.vstack([verts, 0.5 * (verts[v00] + verts[v11])])
        cells = np.column_stack([v00, v10, vc, v10, v11, vc, v11, v01, vc, v01, v00, vc])
    return build_mesh(verts, cells.reshape(-1, 3))


_KUHN_PERMUTATIONS = list(itertools.permutations(range(3)))


def generate_structured_3d(nx: int, ny: int, nz: int) -> Mesh:
    """Tetrahedralize the unit cube: each lattice cube splits into 6 path
    tetrahedra sharing the main diagonal (all dihedral angles <= pi/2)."""
    if nx < 1 or ny < 1 or nz < 1:
        raise InvalidParameters(f"grid counts must be >= 1, got {nx}x{ny}x{nz}")

    z, y, x = np.meshgrid(*(np.linspace(0.0, 1.0, n + 1) for n in (nz, ny, nx)),
                          indexing="ij")
    verts = np.column_stack([x.ravel(), y.ravel(), z.ravel()])
    stride = np.array([1, nx + 1, (nx + 1) * (ny + 1)])
    k, j, i = np.meshgrid(np.arange(nz), np.arange(ny), np.arange(nx), indexing="ij")
    base = (i * stride[0] + j * stride[1] + k * stride[2]).ravel()
    # Each tetrahedron walks from the cube's base corner along one axis order.
    paths = np.array([np.concatenate([[0], np.cumsum(stride[list(perm)])])
                      for perm in _KUHN_PERMUTATIONS])
    return build_mesh(verts, (base[:, None, None] + paths).reshape(-1, 4))


def _all_cell_angles(mesh: Mesh) -> np.ndarray:
    """The pair angles of every cell (module docstring): (n_cells, n_pairs)."""
    grads = mesh.shape_gradients
    norms = row_norms(grads)
    normals = -grads / norms[..., None]
    pairs = list(itertools.combinations(range(mesh.dim + 1), 2))
    cols = []
    for i, j in pairs:
        c = np.clip(np.einsum("cd,cd->c", normals[:, i], normals[:, j]), -1.0, 1.0)
        cols.append(np.pi - np.arccos(c))
    return np.stack(cols, axis=1)


def acuteness_audit(mesh: Mesh) -> AngleReport:
    """Scan all angles and classify the mesh.

    classification: 'obtuse' iff some angle exceeds pi/2 + tol, 'acute' iff all
    are below pi/2 - tol, else 'non-obtuse'.
    """
    angles = _all_cell_angles(mesh)
    max_angle = float(angles.max())
    min_angle = float(angles.min())
    if max_angle > np.pi / 2 + ANGLE_TOL:
        classification = "obtuse"
    elif max_angle < np.pi / 2 - ANGLE_TOL:
        classification = "acute"
    else:
        classification = "non-obtuse"
    return AngleReport(cell_angles=angles, max_angle=max_angle, min_angle=min_angle,
                       classification=classification)


def interior_edges_2d(mesh: Mesh) -> InteriorEdges:
    """All triangle edges shared by two cells, with opposite angles: a view of
    the mesh's facet table.  The cotangents come straight from the apex
    vectors, u.v / |u x v|, which stays accurate at angles where `arccos`
    does not."""
    if mesh.dim != 2:
        raise DimensionMismatch("interior edges with opposite angles are 2D only")
    nodes = mesh.interior_facets
    cells, local = np.divmod(mesh.interior_owners, 3)
    apex = mesh.vertices[mesh.cells[cells, local]]  # (E, 2, 2)
    u = mesh.vertices[nodes[:, :1]] - apex
    v = mesh.vertices[nodes[:, 1:]] - apex
    dots = _row_dots(u, v)
    cross = u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]
    cos = dots / (np.sqrt(_row_dots(u, u)) * np.sqrt(_row_dots(v, v)))
    return InteriorEdges(nodes=nodes, cells=cells,
                         opposite_angles=np.arccos(np.clip(cos, -1.0, 1.0)),
                         opposite_cotangents=dots / np.abs(cross))


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of the last-axis rows of a and b.

    Stacked (1, d) @ (d, 1) products take each one as a single BLAS dot, as
    `u @ v` and `np.linalg.norm(u)` do on single vectors, so angles computed
    from them match the single-vector formula bit for bit.
    """
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def macro_measures(mesh: Mesh) -> np.ndarray:
    """Vector of macro-element measures, one per vertex."""
    weights = np.repeat(mesh.cell_measures, mesh.dim + 1)
    return np.bincount(mesh.cells.ravel(), weights=weights, minlength=mesh.num_vertices)


# -- serialization ------------------------------------------------------------

def mesh_to_dict(mesh: Mesh) -> dict:
    return {
        "dim": mesh.dim,
        "vertices": mesh.vertices.tolist(),
        "cells": mesh.cells.tolist(),
        "boundary_nodes": mesh.boundary_nodes.tolist(),
    }


def _node_index(value, what: str = "node index") -> int:
    """A stored node index: an integer, an integer string or an integral
    float.  A fraction or a boolean is refused, not truncated to an index."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{what} {value!r} is not an integer")
    return int(value)


def _node_indices(value) -> np.ndarray:
    """Stored node indices as int64 by the rule of `_node_index`, with no
    Python loop per entry: a fraction, a boolean or a value outside int64 is
    refused.  numpy reads a JSON true among integers as 1, so the types of the
    rows' entries are collected in one pass."""
    raw = np.asarray(value)
    if raw.dtype.kind == "b" or (
            raw.ndim == 2 and bool in set(map(type, itertools.chain.from_iterable(value)))):
        raise ValueError("node indices must be integers, not booleans")
    if raw.dtype.kind == "f" and not np.all((np.trunc(raw) == raw) & (np.abs(raw) < 2.0 ** 63)):
        raise ValueError("node indices must be integers within int64")
    return raw.astype(np.int64, copy=False)  # beyond 64 bits: OverflowError


def mesh_from_dict(data: dict, path=None) -> Mesh:
    """Build a `Mesh` from its JSON form; `path` names the file it came from
    in the `InvalidParameters` raised for missing or wrongly typed keys."""
    where = "" if path is None else f" ({path})"
    missing = [key for key in ("dim", "vertices", "cells") if key not in data]
    if missing:
        raise InvalidParameters(f"mesh data lacks keys {missing}{where}")
    source = "mesh data" + where
    mesh = build_mesh(json_value(data, "vertices", lambda v: np.asarray(v, dtype=float), source),
                      json_value(data, "cells", _node_indices, source))
    if "boundary_nodes" in data and data["boundary_nodes"] is not None:
        stored = json_value(data, "boundary_nodes",
                            lambda b: sorted({_node_index(i) for i in b}), source)
        if stored != mesh.boundary_nodes.tolist():
            raise NonManifold("stored boundary_nodes disagree with facet incidence")
    if mesh.dim != json_value(data, "dim", lambda d: _node_index(d, "dim"), source):
        raise DimensionMismatch("stored dim disagrees with vertex coordinates")
    return mesh


def save_mesh(mesh: Mesh, path) -> None:
    """Write the bytes of `json.dumps(mesh_to_dict(mesh))` and a newline, the
    vertex and cell rows formatted in blocks by `write_rows`: `%r` prints a
    float as the JSON encoder does, and `build_mesh` admits finite vertices
    only."""
    coords = "[" + ", ".join(["%r"] * mesh.dim) + "]"
    nodes = "[" + ", ".join(["%d"] * (mesh.dim + 1)) + "]"
    with open(path, "w", encoding="utf-8") as fp:
        fp.write(f'{{"dim": {mesh.dim}, "vertices": ')
        _write_json_rows(fp, coords, mesh.vertices)
        fp.write(', "cells": ')
        _write_json_rows(fp, nodes, mesh.cells)
        fp.write(', "boundary_nodes": ')
        _write_json_rows(fp, "%d", mesh.boundary_nodes[:, None])
        fp.write("}\n")


def read_json_object(path, what: str) -> dict:
    """Parse a JSON file whose top level is an object; raises
    `InvalidParameters` naming the file when it is not."""
    with open(path, encoding="utf-8") as fp:
        try:
            data = json.load(fp)
        except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
            raise InvalidParameters(f"{what} {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InvalidParameters(f"{what} {path} does not hold a JSON object")
    return data


def json_value(data: dict, key: str, convert, source: str):
    """convert(data[key]); raises `InvalidParameters` naming the source and
    the key when the value has the wrong type."""
    try:
        return convert(data[key])
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidParameters(f"{source}: key {key!r} has the wrong type: {exc}") from exc


def json_record(obj, passed: str | None = None, **keys) -> dict:
    """The fields of dataclass `obj` as a JSON record, numpy arrays as lists;
    a field's `metadata["json"]` renames its key.  The boolean attribute named
    by `passed` is written as `"verdict": "pass"/"fail"`, and `keys` are
    written in place of the fields of their names or next to them."""
    record = {} if passed is None else {"verdict": "pass" if getattr(obj, passed) else "fail"}
    for f in fields(obj):
        if f.name != passed and f.name not in keys:
            value = getattr(obj, f.name)
            record[f.metadata.get("json", f.name)] = \
                value.tolist() if isinstance(value, np.ndarray) else value
    record.update(keys)
    return record


def load_mesh(path) -> Mesh:
    return mesh_from_dict(read_json_object(path, "mesh file"), path)


ROW_BLOCK = 8192  # rows formatted per write: bounds the Python strings held at once


def write_rows(fp, row_format: str, rows: np.ndarray) -> None:
    """Write `row_format % row` for each row of a 2D array, one `%` operation
    per block of rows; integer-valued floats print exactly under `%d`."""
    for lo in range(0, len(rows), ROW_BLOCK):
        block = rows[lo:lo + ROW_BLOCK]
        fp.write((row_format * len(block)) % tuple(block.ravel().tolist()))


def _write_json_rows(fp, row_format: str, rows: np.ndarray) -> None:
    """Write the rows of a 2D array as one JSON array, `row_format % row` for
    each, joined by ", " as `json.dumps` joins them."""
    fp.write("[")
    write_rows(fp, row_format + ", ", rows[:-1])
    write_rows(fp, row_format, rows[-1:])
    fp.write("]")


def write_vtk(path, mesh: Mesh, point_data: dict | None = None,
              title: str = "dmpfem mesh") -> None:
    """Legacy ASCII VTK writer (UNSTRUCTURED_GRID, cell types 5 / 10)."""
    cell_type = 5 if mesh.dim == 2 else 10
    npts = mesh.num_vertices
    ncell = mesh.num_cells
    points = mesh.vertices if mesh.dim == 3 else np.column_stack([mesh.vertices, np.zeros(npts)])
    with open(path, "w", encoding="utf-8") as fp:
        fp.write(f"# vtk DataFile Version 3.0\n{title}\nASCII\nDATASET UNSTRUCTURED_GRID\n")
        fp.write(f"POINTS {npts} double\n")
        write_rows(fp, "%.17g %.17g %.17g\n", points)
        fp.write(f"CELLS {ncell} {ncell * (mesh.dim + 2)}\n")
        write_rows(fp, f"{mesh.dim + 1}" + " %d" * (mesh.dim + 1) + "\n", mesh.cells)
        fp.write(f"CELL_TYPES {ncell}\n")
        fp.write(f"{cell_type}\n" * ncell)
        if point_data:
            fp.write(f"POINT_DATA {npts}\n")
            for name, values in point_data.items():
                fp.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
                write_rows(fp, "%.17g\n", np.asarray(values, dtype=float).reshape(-1, 1))
