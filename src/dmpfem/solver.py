"""Galerkin assembly and the frozen-coefficient fixed-point solver.

The discrete problem is: find u_h matching the interpolated boundary data with

    integral( a(x,u_h,grad u_h) grad u_h . grad v
              + b(x,u_h,grad u_h) . grad u_h  v
              + c(x,u_h) u_h v ) = integral( f v )

for every test function v vanishing on the boundary.  The solver freezes the
coefficients at the previous iterate and repeats linear solves until the
nodal update stalls; for coefficients independent of the state this reaches
the fixed point after a single update.

Coefficient callables follow a vectorized convention: `a(x, eta, p)` and
`b(x, eta, p)` receive coordinate arrays of shape (..., dim), state values of
shape (...) and state gradients of shape (..., dim); `c(x, eta)`, `f(x)` and
`g(x)` analogously.  Results must broadcast against the leading shape
(`b` against the full (..., dim) shape).
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as spla

from .errors import (
    CoefficientBoundsViolation,
    InvalidParameters,
    LinearSolveDiverged,
    MissingBoundaryValue,
    NonFiniteValue,
    PicardDiverged,
)
from .mesh import Mesh, json_record, key_runs
from .p1 import P1Field, QuadratureRule, gradient_table, physical_points, quadrature_rule

C_MODES = ("nonnegative", "identically-zero", "general")
SPOT_SAMPLES = 1000  # random (x, eta, p) samples of `validate_coefficients`
SPOT_RANGE = 10.0  # eta and each component of p lie in [-SPOT_RANGE, SPOT_RANGE]
BLOCK_POINTS = 1 << 15  # quadrature points whose coefficients are sampled at once
REFINE_STEPS = 10  # refinement steps with a kept LU factor before a solve refactors
LINEAR_TOL = 1e-12  # bound on the backward error of every linear solve
ZEROTH_ORDER_SLACK = 4.0 * float(np.finfo(float).eps)  # per unit of c - div b/2's rounding


def as_point_callable(value):
    """Wrap a constant as a coordinate callable; pass callables through."""
    if callable(value):
        return value
    v = float(value)
    return lambda x: np.full(np.shape(x)[:-1], v)


def distinct_values(values: np.ndarray) -> np.ndarray:
    """`values` with every axis along which it repeats one value (stride 0)
    cut to its first entry: a view holding each stored value once."""
    return values[tuple(slice(None) if s else slice(0, 1) for s in values.strides)]


def point_values(name: str, fn, x: np.ndarray, *args, shape=None) -> np.ndarray:
    """`fn(x, *args)` at the points x (..., D), broadcast to `shape` (their
    leading shape when None): the one sampling of f, g, a, b, c and div_b,
    called `name`.  The formula runs with numpy's floating-point warnings
    off, and any NaN or infinite value raises `NonFiniteValue` naming it and
    its point."""
    with np.errstate(all="ignore"):
        raw = np.asarray(fn(x, *args), float)
    values = np.broadcast_to(raw, x.shape[:-1] if shape is None else shape)
    # min and max propagate NaN and hold no (..., D) temporary
    distinct = distinct_values(raw)
    if not np.isfinite([distinct.min(initial=0.0), distinct.max(initial=0.0)]).all():
        k = np.unravel_index(np.argmin(np.isfinite(values)), values.shape)
        point = x[k[:x.ndim - 1]].tolist()
        raise NonFiniteValue(f"{name} is {float(values[k])!r} at x={point}")
    return values


@dataclass(frozen=True)
class CoefficientSet:
    """Problem data and its declared bounds.

    `lam` and `Lam` bound the diffusion coefficient from below/above, `nu`
    bounds lam**-2 * (|b|^2 + c^2).  `c_mode` records the sign structure of the
    zeroth-order coefficient, which the maximum-principle machinery needs.
    `div_b` optionally supplies the divergence of b for the zeroth-order
    condition check.  `constant_coefficients` declares that a, b, c do not
    vary in x or the state, enabling exact low-degree quadrature.
    """

    a: object
    b: object
    c: object
    f: object
    g: object
    lam: float
    Lam: float
    nu: float
    c_mode: str = "general"
    div_b: object | None = None
    constant_coefficients: bool = False

    def __post_init__(self):
        if not np.isfinite([self.lam, self.Lam, self.nu]).all():
            raise InvalidParameters("bounds lam, Lam and nu must be finite")
        if self.lam <= 0:
            raise InvalidParameters("ellipticity bound lam must be positive")
        if self.Lam < self.lam:
            raise InvalidParameters("upper bound Lam must be >= lam")
        if self.nu < 0:
            raise InvalidParameters("nu must be >= 0")
        if self.c_mode not in C_MODES:
            raise InvalidParameters(f"c_mode must be one of {C_MODES}")
        object.__setattr__(self, "f", as_point_callable(self.f))
        object.__setattr__(self, "g", as_point_callable(self.g))


def coefficient_values(coeffs: CoefficientSet, x: np.ndarray, eta: np.ndarray, p: np.ndarray):
    """a, b and c at the points x (..., D) with state eta and gradient p, each
    through `point_values`."""
    return (point_values("coefficient a", coeffs.a, x, eta, p),
            point_values("coefficient b", coeffs.b, x, eta, p, shape=x.shape),
            point_values("coefficient c", coeffs.c, x, eta))


def poisson(f=-1.0, g=0.0) -> CoefficientSet:
    """Unit Laplacian: a=1, b=0, c=0."""
    return CoefficientSet(
        a=lambda x, eta, p: np.ones(np.shape(eta)),
        b=lambda x, eta, p: np.broadcast_to(0.0, np.shape(x)),
        c=lambda x, eta: np.broadcast_to(0.0, np.shape(eta)),
        f=f, g=g, lam=1.0, Lam=1.0, nu=0.0,
        c_mode="identically-zero",
        div_b=lambda x, eta, p: np.broadcast_to(0.0, np.shape(eta)),
        constant_coefficients=True,
    )


def advection_diffusion(b_vector, f=-1.0, g=0.0, c0: float = 0.0) -> CoefficientSet:
    """Unit diffusion plus a constant drift and constant reaction c0 >= 0."""
    b_vector = np.asarray(b_vector, dtype=float)
    if not np.isfinite(b_vector).all():
        raise InvalidParameters("drift b must be finite")
    if not 0.0 <= c0 < np.inf:
        raise InvalidParameters("constant reaction c0 must be finite and >= 0")
    with np.errstate(over="ignore"):
        nu = float(np.sqrt((b_vector ** 2).sum() + np.square(c0)))
        too_large = np.square(nu) == np.inf  # the spot-check compares against nu^2
    if too_large:
        raise InvalidParameters(f"drift b={b_vector.tolist()} and reaction c0={c0!r} are too "
                                f"large: |b|^2 + c0^2 overflows a float")
    return CoefficientSet(
        a=lambda x, eta, p: np.ones(np.shape(eta)),
        b=lambda x, eta, p: np.broadcast_to(b_vector, np.shape(x)),
        c=lambda x, eta: np.full(np.shape(eta), c0),
        f=f, g=g, lam=1.0, Lam=1.0, nu=nu,
        c_mode="identically-zero" if c0 == 0.0 else "nonnegative",
        div_b=lambda x, eta, p: np.broadcast_to(0.0, np.shape(eta)),
        constant_coefficients=True,
    )


def quasilinear_a(f=-1.0, g=0.0) -> CoefficientSet:
    """Diffusion a = 1 + eta^2/(1+eta^2), saturating between 1 and 2."""
    return CoefficientSet(
        a=lambda x, eta, p: 1.0 + eta ** 2 / (1.0 + eta ** 2),
        b=lambda x, eta, p: np.broadcast_to(0.0, np.shape(x)),
        c=lambda x, eta: np.broadcast_to(0.0, np.shape(eta)),
        f=f, g=g, lam=1.0, Lam=2.0, nu=0.0,
        c_mode="identically-zero",
        div_b=lambda x, eta, p: np.broadcast_to(0.0, np.shape(eta)),
        constant_coefficients=False,
    )


def validate_coefficients(coeffs: CoefficientSet, mesh: Mesh, seed: int = 0) -> dict:
    """Spot-check the declared bounds at random (x, eta, p) samples, drawn
    from numpy's PCG64 generator seeded with `seed` modulo 2**64: a cell
    floor(u * C) per sample, then its barycentric weights (normalized
    -log(1 - u), uniform on the simplex), eta and p.

    Raises `NonFiniteValue` if a sample of a, b or c is NaN or infinite, and
    `CoefficientBoundsViolation` on the first broken bound; returns the
    observed extrema otherwise.
    """
    rng = np.random.default_rng(int(seed) % 2 ** 64)
    cells = np.floor(rng.random(SPOT_SAMPLES) * mesh.num_cells).astype(np.int64)
    weights = -np.log(1.0 - rng.random((SPOT_SAMPLES, mesh.dim + 1)))
    bary = weights / weights.sum(axis=1, keepdims=True)
    x = np.einsum("nm,nmd->nd", bary, mesh.vertices[mesh.cells[cells]])
    eta = rng.uniform(-SPOT_RANGE, SPOT_RANGE, size=SPOT_SAMPLES)
    p = rng.uniform(-SPOT_RANGE, SPOT_RANGE, size=(SPOT_SAMPLES, mesh.dim))

    a, b, c = coefficient_values(coeffs, x, eta, p)

    slack = 1e-12 * coeffs.Lam  # relative: the bounds on a keep their verdict under scaling
    if a.min() < coeffs.lam - slack:
        raise CoefficientBoundsViolation(
            f"a dips to {a.min():.6g} below declared lam={coeffs.lam}")
    if np.abs(a).max() > coeffs.Lam + slack:
        raise CoefficientBoundsViolation(
            f"|a| reaches {np.abs(a).max():.6g} above declared Lam={coeffs.Lam}")
    lower_order = ((b ** 2).sum(axis=-1) + c ** 2) / coeffs.lam ** 2
    if lower_order.max() > coeffs.nu ** 2 * (1.0 + 1e-12):
        raise CoefficientBoundsViolation(
            f"lam^-2(|b|^2+c^2) reaches {lower_order.max():.6g} above nu^2={coeffs.nu ** 2}")
    if coeffs.c_mode == "identically-zero" and np.abs(c).max() > 1e-14:
        raise CoefficientBoundsViolation("c_mode=identically-zero but c is not zero")
    if coeffs.c_mode == "nonnegative" and c.min() < -1e-14:
        raise CoefficientBoundsViolation(
            f"c_mode=nonnegative but c dips to {c.min():.6g}")
    return {
        "a_min": float(a.min()), "a_max": float(a.max()),
        "lower_order_max": float(lower_order.max()),
        "c_min": float(c.min()), "samples": SPOT_SAMPLES,
    }


@dataclass(frozen=True)
class SparseSystem:
    """Assembled linear system: matrix and right-hand side."""

    matrix: sparse.csr_matrix
    rhs: np.ndarray

    @property
    def size(self) -> int:
        return self.rhs.shape[0]


@dataclass(frozen=True)
class SolveOptions:
    picard_max_iter: int = 100
    picard_tol: float = 1e-10
    damping: float = 1.0

    def __post_init__(self):
        if not 0 < self.picard_tol < np.inf:
            raise InvalidParameters("picard_tol must be positive and finite")
        if not 0.0 < self.damping <= 1.0:
            raise InvalidParameters("damping must lie in (0, 1]")
        if self.picard_max_iter < 0:
            raise InvalidParameters("picard_max_iter must be >= 0")


@dataclass(frozen=True)
class SolveResult:
    """The outcome of `picard_solve`.  `final_linear_residual` is the
    `backward_error` of its last linear solve (None, as the update norm, when
    unknown), `factorizations` counts the sparse LU factorizations it ran and
    `refinement_steps` the solves with a kept factor (see `linear_solve`).

    `layout` is the `AssemblyMap.compact` copy of the assembly map the solve
    scattered through, so that `dmp_certificate` assembles the form at u_h
    without sorting the mesh's entries again.  It holds about 4 C (d+1)^2
    bytes of slots plus the int32 CSR pattern, 4 (N + 1 + nnz) bytes, for as
    long as the result lives.  Only `picard_solve` sets it: it is not a
    constructor argument, so no caller can hand in the layout of another
    mesh, and any other result (a `dataclasses.replace` copy included) holds
    None.  It is left out of `to_dict`, repr and equality."""

    u_h: P1Field
    picard_iterations: int
    final_update_norm: float | None
    final_linear_residual: float | None
    converged: bool
    factorizations: int
    refinement_steps: int
    layout: AssemblyMap | None = field(default=None, init=False, repr=False, compare=False)

    def to_dict(self) -> dict:
        """Every constructor field but `u_h`, in field order."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.init and f.name != "u_h"}


def interpolate_boundary(mesh: Mesh, g) -> np.ndarray:
    """The boundary datum at `mesh.boundary_nodes`, in their order."""
    return point_values("g", as_point_callable(g), mesh.vertices[mesh.boundary_nodes])


def default_rule(mesh: Mesh, coeffs: CoefficientSet) -> QuadratureRule:
    """Degree 2 integrates constant-coefficient forms exactly; state- or
    space-dependent coefficients get degree 4."""
    return quadrature_rule(mesh.dim, 2 if coeffs.constant_coefficients else 4)


def cell_blocks(num_cells: int, points_per_cell: int) -> list:
    """Consecutive cell slices holding about `BLOCK_POINTS` quadrature points
    each.  No slice holds a single cell unless the mesh does: numpy hands a
    one-row matrix product to BLAS gemv, whose sums round differently from
    the gemm of a taller block."""
    step = max(2, BLOCK_POINTS // max(points_per_cell, 1))
    bounds = list(range(0, num_cells, step)) + [num_cells]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]
    return [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]


def state_samples(w: P1Field, rule: QuadratureRule, points=None):
    """The quadrature points (C, Q, D), the state w there (C, Q) and its
    constant per-cell gradient (C, D).  `points` are the `physical_points` of
    the rule when the caller holds them; None leaves them to be computed one
    `cell_blocks` slice at a time."""
    return points, w.values_in_cells(rule), w.cell_gradients()


def _sample_blocks(mesh: Mesh, rule: QuadratureRule, samples):
    """(cells, x, eta, p) per `cell_blocks` slice of `state_samples`, the
    gradient broadcast over the block's points."""
    xq, eta, grad = samples
    for cells in cell_blocks(*eta.shape):
        x = physical_points(mesh, rule, cells) if xq is None else xq[cells]
        yield cells, x, eta[cells], np.broadcast_to(grad[cells, None, :], x.shape)


def local_form_parts(mesh: Mesh, w: P1Field, coeffs: CoefficientSet,
                     rule: QuadratureRule, *, _samples=None):
    """Per-cell local matrices of the three form terms, frozen at state w.

    Returns (diffusion, advection, reaction), each (C, M, M) with entry
    [cell, m, n] = integral over the cell of the term with trial shape
    function n and test shape function m.  Each term is first summed over the
    quadrature points and then multiplied once per cell: the shape gradients
    are constant on a cell.  The diffusion entry is summed over the axes d
    from +0.0 as ((0 + (a g_m0) g_n0) + (a g_m1) g_n1) + ..., the order of
    einsum("c,cmd,cnd->cmn").  a, b and c are sampled one `cell_blocks` slice
    at a time, so no (C, Q, D) coefficient array is held.  A block whose
    distinct b (or c) values are all zero skips that term's products and
    keeps +0.0, the entries the products give there; a term zero on every
    block is returned as a read-only zero view, `np.broadcast_to(0.0, ...)`,
    and allocates no table.  `_samples` are the `state_samples` of w when
    the caller already holds them.
    """
    samples = _samples or state_samples(w, rule)
    grads = gradient_table(mesh)
    bar = rule.points
    wq = rule.weights
    meas = mesh.cell_measures
    n_local = bar.shape[1]
    b_weights = bar * wq[:, None]
    mass = (bar[:, :, None] * bar[:, None, :] * wq[:, None, None]).reshape(len(wq), -1)

    shape = (mesh.num_cells, n_local, n_local)
    diffusion = np.empty(shape)
    advection = reaction = None
    # the diffusion products run along the cells of a block, in buffers
    # allocated once for the largest block: (M, M, cells) entries and the
    # (D, M, cells) gradients and a-weighted gradients
    most = max(s.stop - s.start for s in cell_blocks(mesh.num_cells, len(wq)))
    entries = np.empty((2, n_local, n_local, most))
    axes = np.empty((2, mesh.dim, n_local, most))
    for cells, x, eta, p in _sample_blocks(mesh, rule, samples):
        a, b, c = coefficient_values(coeffs, x, eta, p)
        g, m = grads[cells], meas[cells]
        total, term = entries[..., :len(m)]
        g_t, a_g = axes[..., :len(m)]
        np.copyto(g_t, g.transpose(2, 1, 0))
        np.multiply(np.einsum("cq,q->c", a, wq) * m, g_t, out=a_g)
        np.multiply(a_g[0, :, None], g_t[0, None], out=total)
        for axis in range(1, mesh.dim):
            np.multiply(a_g[axis, :, None], g_t[axis, None], out=term)
            total += term
        # + 0.0 last for a sum begun at +0.0: only an all -0.0 sum differs
        np.add(total.transpose(2, 0, 1), 0.0, out=diffusion[cells])
        if distinct_values(b).any():
            advection = np.zeros(shape) if advection is None else advection
            b_cell = np.matmul(b.transpose(0, 2, 1), b_weights).transpose(0, 2, 1)
            advection[cells] = (b_cell @ g.transpose(0, 2, 1)) * m[:, None, None]
        if distinct_values(c).any():
            reaction = np.zeros(shape) if reaction is None else reaction
            reaction[cells] = (c @ mass).reshape(-1, n_local, n_local) * m[:, None, None]
    zero = np.broadcast_to(0.0, shape)
    return (diffusion, zero if advection is None else advection,
            zero if reaction is None else reaction)


@dataclass(frozen=True)
class AssemblyMap:
    """Canonical CSR pattern of a mesh's global matrix, and the slot in it of
    every local entry [cell, test, trial] (row-major over the cells).

    Assembling is then one `np.bincount` of the local entries into the
    pattern: no sort and no duplicate summation per assembly.  `indptr` and
    `indices` are int32 when they fit, the index dtype scipy gives a matrix
    of that size, so `matrix` copies neither.  `slots` are intp, which
    `bincount` reads without a cast, until `compact` stores them as int32:
    4 C (d+1)^2 bytes instead of 8.
    """

    indptr: np.ndarray
    indices: np.ndarray
    slots: np.ndarray

    def matrix(self, local: np.ndarray) -> sparse.csr_matrix:
        """Global matrix of (C, M, M) local matrices; the contributions to each
        entry are summed from +0.0 in cell order, whatever the slots' dtype."""
        data = np.bincount(self.slots, weights=local.ravel(), minlength=self.indices.shape[0])
        n = self.indptr.shape[0] - 1
        return sparse.csr_matrix((data, self.indices, self.indptr), shape=(n, n))

    def compact(self) -> AssemblyMap:
        """This map with its slots, which index the pattern, in the pattern's
        index dtype: int32 when they fit.  For keeping; each `matrix` call
        then casts them back to intp in a temporary."""
        return replace(self, slots=self.slots.astype(self.indices.dtype))


def assembly_map(mesh: Mesh) -> AssemblyMap:
    """Group the (row, col) pairs of all local entries, packed as int64 keys
    row * n + col, by the one stable sort of `key_runs`: ascending keys are
    the CSR order."""
    n = mesh.num_vertices
    cells = mesh.cells
    keys = (cells[:, :, None] * n + cells[:, None, :]).ravel()
    order, first = key_runs(keys)
    slots = np.empty_like(order)
    slots[order] = np.cumsum(first) - 1
    pattern = keys[order[first]]
    rows = pattern // n
    index = np.int32 if len(pattern) <= np.iinfo(np.int32).max else np.int64
    indptr = np.zeros(n + 1, dtype=index)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return AssemblyMap(indptr=indptr, indices=(pattern - rows * n).astype(index), slots=slots)


def nonzero_parts(parts) -> list:
    """The diffusion part of `local_form_parts` and each lower-order part that
    is not zero throughout: an absent term's read-only zero view is left
    out, so no caller adds or gathers a table of zeros."""
    diffusion, *lower = parts
    return [diffusion] + [part for part in lower if distinct_values(part).any()]


def assemble_matrix(mesh: Mesh, parts, layout: AssemblyMap | None = None) -> sparse.csr_matrix:
    """Global matrix of the form from its `local_form_parts`, scattered through
    `layout` (the mesh's `assembly_map`, built when not given).  Only the
    `nonzero_parts` are added: the scatter sums each entry from +0.0, so the
    matrix keeps its bits."""
    local, *lower = nonzero_parts(parts)
    for part in lower:
        local = local + part
    return (layout or assembly_map(mesh)).matrix(local)


class _FrozenFormAssembly:
    """The state-independent data of the `default_rule` frozen-coefficient form
    on one mesh: quadrature points, load vector and assembly map, computed
    once.  Each `system(w)` then samples the coefficients at w, forms the
    local parts and scatters them."""

    def __init__(self, mesh: Mesh, coeffs: CoefficientSet):
        self.mesh, self.coeffs = mesh, coeffs
        self.rule = rule = default_rule(mesh, coeffs)
        self.points = physical_points(mesh, rule)
        fvals = point_values("f", coeffs.f, self.points)
        local_rhs = (fvals @ (rule.points * rule.weights[:, None])) * mesh.cell_measures[:, None]
        self.rhs = np.bincount(mesh.cells.ravel(), weights=local_rhs.ravel(),
                               minlength=mesh.num_vertices)
        self.layout = assembly_map(mesh)

    def system(self, w: P1Field) -> SparseSystem:
        """The system frozen at w.  As in `assemble_matrix`, only the
        `nonzero_parts` are added."""
        mesh, rule = self.mesh, self.rule
        local, *lower = nonzero_parts(local_form_parts(
            mesh, w, self.coeffs, rule, _samples=state_samples(w, rule, self.points)))
        # the parts are this call's own: summed in place, in `assemble_matrix`'s
        # order, they add no (C, M, M) temporary next to the solve's kept factor
        for part in lower:
            local += part
        return SparseSystem(matrix=self.layout.matrix(local), rhs=self.rhs)


def assemble_q(mesh: Mesh, w: P1Field, coeffs: CoefficientSet) -> SparseSystem:
    """Assemble matrix and load vector of the `default_rule` form with
    coefficients frozen at w."""
    return _FrozenFormAssembly(mesh, coeffs).system(w)


def q_apply(mesh: Mesh, w: P1Field, u: P1Field, v: P1Field,
            coeffs: CoefficientSet) -> float:
    """Value of the `default_rule` form at (u, v) with coefficients frozen at w."""
    system = assemble_q(mesh, w, coeffs)
    return float(v.nodal_values @ (system.matrix @ u.nodal_values))


def apply_dirichlet(system: SparseSystem, values: np.ndarray, mesh: Mesh) -> SparseSystem:
    """The system of the free nodes (not in `mesh.boundary_nodes`, ascending) once
    the boundary nodes take `values`, one each in their order: the free rows and
    columns of A, duplicates summed and exact zeros dropped, and the load
    rhs[free] - A[free, boundary] values.

    Both are cut from the canonical CSR arrays of A (a copy of them, summed,
    when A has unsorted or duplicate entries) by boolean masks over its
    entries; the caller's matrix is not changed.  The boundary columns keep
    their explicit zeros, so the lift's matvec sums the same terms in the
    same order as A's rows do."""
    pinned = mesh.boundary_nodes
    if np.shape(values) != pinned.shape:
        raise MissingBoundaryValue(
            f"{len(pinned)} boundary nodes need one value each, got {np.shape(values)}")
    a = system.matrix.tocsr()
    if not a.has_canonical_format:
        a = a.copy()
        a.sum_duplicates()
    free = ~mesh.boundary_mask()
    n_free = int(free.sum())
    column = np.empty(len(free), dtype=a.indices.dtype)  # position among free or pinned
    column[free] = np.arange(n_free)
    column[pinned] = np.arange(len(pinned))
    counts = np.diff(a.indptr)
    row = np.repeat(column, counts)
    free_row, free_column = np.repeat(free, counts), free.take(a.indices)

    def cut(keep, width):
        entries = np.flatnonzero(keep)
        indptr = np.zeros(n_free + 1, dtype=a.indptr.dtype)
        np.cumsum(np.bincount(row.take(entries), minlength=n_free), out=indptr[1:])
        return sparse.csr_matrix(
            (a.data.take(entries), column.take(a.indices.take(entries)), indptr),
            shape=(n_free, width))

    # dropped: kept, the many exact zeros of the free block raise the LU fill ~1.7x
    matrix = cut(free_row & free_column & (a.data != 0.0), n_free)
    lift = cut(free_row & ~free_column, len(pinned))
    return SparseSystem(matrix=matrix, rhs=system.rhs[free] - lift @ values)


def backward_error(matrix, rhs, x, *, _parts=None) -> float:
    """The componentwise backward error max_i |b - A x|_i / (|A| |x| + |b|)_i
    of x (Oettli & Prager): the least relative change of the entries of A and
    b that x solves exactly.  A row whose residual and scale both vanish counts
    0; NaN propagates.  Scaling A and b, or one row of both, by a power of two
    keeps its bits.  `_parts` are |A| and b - A x when the caller holds them."""
    abs_matrix, r = _parts or (abs(matrix), rhs - matrix @ x)
    scale = abs_matrix @ np.abs(x) + np.abs(rhs)
    ratio = np.divide(np.abs(r), scale, out=np.zeros_like(scale), where=scale != 0.0)
    return float(ratio.max(initial=0.0))


@dataclass
class KeptFactor:
    """The sparse LU factor that `linear_solve` keeps across the calls of one
    solve (None before the first), how often it factored and refined, and the
    `backward_error` of the last solution it returned."""

    lu: object = None
    factorizations: int = 0
    refinement_steps: int = 0
    residual: float = float("nan")


def linear_solve(system: SparseSystem, kept: KeptFactor | None = None,
                 x0: np.ndarray | None = None) -> np.ndarray:
    """Solve the free-node system of `apply_dirichlet` (symmetric or not) by one
    SuperLU factorization; minimum degree on A^T + A halves the COLAMD fill on
    the 2D and 3D ladders.  The pattern of every such system is symmetric, so
    SuperLU's symmetric mode builds the elimination tree of A^T + A; pivoting
    stays partial (threshold 1).

    The solve works through `kept` (a fresh `KeptFactor` when not given), whose
    factor outlives the call.  When it holds one (of an earlier matrix) and x0
    is given, the solve first refines x0 with it, x <- x + LU^-1 (b - A x),
    for as long as each step at least halves the `backward_error` and for at
    most `REFINE_STEPS` steps; a step that does not lower it is dropped.  So
    refinement stops at the rounding floor, not at `LINEAR_TOL`, which keeps
    the last Picard update a true one.  Unless some step was kept and the
    error ended at or below `LINEAR_TOL`, it factors this matrix, keeping the
    new factor in its place.  `kept.residual` records the backward error of
    the returned solution.  A singular or non-finite matrix, or a backward
    error above `LINEAR_TOL`, raises `LinearSolveDiverged`."""
    kept = kept or KeptFactor()
    matrix, rhs = system.matrix, system.rhs
    abs_matrix = abs(matrix)
    kept_steps = 0
    if kept.lu is not None and x0 is not None:
        x, r = x0, rhs - matrix @ x0  # the residual of a step is the next one's rhs
        error = backward_error(matrix, rhs, x, _parts=(abs_matrix, r))
        for _ in range(REFINE_STEPS):
            trial = x + kept.lu.solve(r)
            kept.refinement_steps += 1
            r_trial = rhs - matrix @ trial
            trial_error = backward_error(matrix, rhs, trial, _parts=(abs_matrix, r_trial))
            if not trial_error < error:  # at the floor, not contracting, or NaN
                break
            halved = trial_error <= 0.5 * error
            x, r, error, kept_steps = trial, r_trial, trial_error, kept_steps + 1
            if not halved:
                break
    if not (kept_steps and error <= LINEAR_TOL):
        try:
            lu = spla.splu(matrix.tocsc(), permc_spec="MMD_AT_PLUS_A",
                           options={"SymmetricMode": True})
            x = lu.solve(rhs)
        except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
            raise LinearSolveDiverged(f"sparse LU factorization failed: {exc}",
                                      residual=float("nan")) from exc
        kept.lu, kept.factorizations = lu, kept.factorizations + 1
        error = backward_error(matrix, rhs, x, _parts=(abs_matrix, rhs - matrix @ x))
    kept.residual = error
    if not error <= LINEAR_TOL:
        raise LinearSolveDiverged(f"backward error {error:.3e} above tolerance "
                                  f"{LINEAR_TOL:.1e}", residual=error)
    return x


def picard_solve(mesh: Mesh, coeffs: CoefficientSet,
                 opts: SolveOptions | None = None) -> SolveResult:
    """Frozen-coefficient fixed-point iteration for the Galerkin system.

    Each pass assembles the `default_rule` form at the current iterate, solves
    `apply_dirichlet`'s system for the free nodal values (the boundary nodes keep
    their data), and applies a damped update; iteration stops
    once the relative nodal update falls below `picard_tol`.
    `picard_iterations` counts the updates actually applied, so a
    state-independent problem converges after exactly one.  The quadrature
    points, the load vector and the assembly map do not depend on the
    iterate and are computed once; a pass samples the coefficients, forms
    the local parts and scatters them.  The first pass factors its system;
    later passes refine the current iterate with that factor and refactor
    only when refinement misses `LINEAR_TOL` (see `linear_solve`).  With
    `constant_coefficients` the form does not depend on the iterate either,
    so the system is assembled and factored once and later passes reuse its
    solution.  The result keeps the compact assembly map as its `layout`.
    """
    opts = opts or SolveOptions()
    values = interpolate_boundary(mesh, coeffs.g)
    form = _FrozenFormAssembly(mesh, coeffs)
    free = ~mesh.boundary_mask()
    u = np.zeros(mesh.num_vertices)
    u[mesh.boundary_nodes] = values

    applied = 0
    sol = None
    kept = KeptFactor()
    while True:
        if sol is None or not coeffs.constant_coefficients:
            system = apply_dirichlet(form.system(P1Field(mesh, u)), values, mesh)
            sol = u.copy()
            sol[free] = linear_solve(system, kept, u[free])
        diff = sol - u
        # both norms at the scale 2^-e of max|sol|: exact, so the ratio keeps
        # its bits, and tiny or huge data do not under- or overflow it
        e = np.frexp(np.abs(sol).max())[1]
        sol_norm, diff_norm = (float(np.linalg.norm(np.ldexp(v, -e))) for v in (sol, diff))
        update = (opts.damping * diff_norm / sol_norm if sol_norm
                  else np.inf if diff_norm else 0.0)
        if update <= opts.picard_tol:
            u = u + opts.damping * diff
            result = SolveResult(u_h=P1Field(mesh, u), picard_iterations=applied,
                                 final_update_norm=update,
                                 final_linear_residual=kept.residual, converged=True,
                                 factorizations=kept.factorizations,
                                 refinement_steps=kept.refinement_steps)
            object.__setattr__(result, "layout", form.layout.compact())
            return result
        if applied >= opts.picard_max_iter:
            raise PicardDiverged(
                f"no convergence after {applied} updates (last update {update:.3e})",
                last_update=update)
        u = u + opts.damping * diff
        applied += 1


def galerkin_residual(mesh: Mesh, u_h: P1Field, coeffs: CoefficientSet) -> float:
    """Relative residual of the nonlinear Galerkin identity at u_h, with the
    `default_rule`, on the unconstrained (interior) nodes: |F - A u| over
    |F| + |A u|, with F the load and A the form frozen at u_h.  It does not
    change when f, g and u_h are scaled together, and reads 1 when A u
    vanishes there but F does not; 0 when both vanish."""
    system = assemble_q(mesh, u_h, coeffs)
    free = ~mesh.boundary_mask()
    load = system.rhs[free]
    action = (system.matrix @ u_h.nodal_values)[free]
    denom = float(np.linalg.norm(load)) + float(np.linalg.norm(action))
    return float(np.linalg.norm(load - action)) / denom if denom > 0.0 else 0.0


@dataclass(frozen=True)
class ZerothOrderReport:
    """Minimum over quadrature points of c - div(b)/2 and the resulting flag.

    Only the smooth per-cell part of the composite divergence is probed: the
    state is piecewise linear, so its gradient is frozen per cell and facet
    jump contributions are not seen.
    """

    min_value: float
    condition_holds: bool
    used_supplied_divergence: bool

    def to_dict(self) -> dict:
        return json_record(self)


def check_zeroth_order_condition(mesh: Mesh, u_h: P1Field, coeffs: CoefficientSet, *,
                                 _samples=None) -> ZerothOrderReport:
    """Probe c(x,u) - div b(x,u,grad u)/2 >= 0 at all `default_rule` points.

    Uses the supplied divergence callback when present, otherwise central
    finite differences of the composite map x -> b(x, u_h(x), grad u_h) with
    step s = 1e-6 * h inside each cell.  The condition holds where c - div b/2 >=
    -`ZEROTH_ORDER_SLACK` (|c| + |div b|/2 + e/2), e the sum over the axes of
    (|b+| + |b-| + |b+ - b-| |x| / 2s) / 2s for the shifted b samples b+ and b-
    (0 for a supplied divergence), so 2^k b and c keep the verdict.  A drift formula
    naming no coordinate and not eta is constant on each cell: every shifted
    evaluation sees the unshifted arguments, so b is evaluated once per block
    and differenced with itself, which gives the same bits.  The coefficients
    are sampled one `cell_blocks` slice at a time into one (C, Q) array of
    values.  `_samples` are the `state_samples` of u_h when the caller already
    holds them.
    """
    rule = default_rule(mesh, coeffs)
    samples = _samples or state_samples(u_h, rule)
    supplied = coeffs.div_b is not None
    variables = getattr(coeffs.b, "variables", None)
    cell_constant = variables is not None and variables.isdisjoint(("x", "y", "z", "eta"))
    step = 1e-6 * mesh.h
    values = np.empty(samples[1].shape)
    holds = True
    for cells, x, eta, p in _sample_blocks(mesh, rule, samples):
        c = point_values("coefficient c", coeffs.c, x, eta)
        noise = np.zeros(eta.shape)
        if supplied:
            div = point_values("coefficient div_b", coeffs.div_b, x, eta, p)
        else:
            div = np.zeros(eta.shape)
            if cell_constant:
                b = point_values("coefficient b", coeffs.b, x, eta, p, shape=x.shape)
            for axis in range(mesh.dim):
                if cell_constant:
                    b_plus = b_minus = b[..., axis]
                else:
                    shift = np.zeros(mesh.dim)
                    shift[axis] = step
                    eta_shift = p[:, :1, axis] * step  # (C, 1): constant on each cell
                    # component `axis` of b, copied so that the rest is freed
                    b_plus = point_values("coefficient b", coeffs.b, x + shift,
                                          eta + eta_shift, p, shape=x.shape)[..., axis].copy()
                    b_minus = point_values("coefficient b", coeffs.b, x - shift,
                                           eta - eta_shift, p, shape=x.shape)[..., axis].copy()
                    noise += (np.abs(b_plus) + np.abs(b_minus) + np.abs(b_plus - b_minus)
                              * np.abs(x[..., axis]) / (2.0 * step)) / (2.0 * step)
                div = div + (b_plus - b_minus) / (2.0 * step)
        values[cells] = c - 0.5 * div
        bound = np.abs(c) + 0.5 * (np.abs(div) + noise)
        holds = holds and bool((values[cells] >= -ZEROTH_ORDER_SLACK * bound).all())

    return ZerothOrderReport(min_value=float(values.min()), condition_holds=holds,
                             used_supplied_divergence=supplied)
