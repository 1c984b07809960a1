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

from dataclasses import dataclass, fields

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
ZEROTH_ORDER_SLACK = 4.0 * float(np.finfo(float).eps)  # per unit of c - div b/2's rounding


def as_point_callable(value):
    """Wrap a constant as a coordinate callable; pass callables through."""
    if callable(value):
        return value
    v = float(value)
    return lambda x: np.full(np.shape(x)[:-1], v)


def point_values(name: str, fn, x: np.ndarray) -> np.ndarray:
    """The coordinate callable `fn` (f or g, called `name`) at the points x
    (..., D), broadcast to their leading shape.  Raises `NonFiniteValue`,
    naming a point and its value, if any value is NaN or infinite."""
    values = np.broadcast_to(np.asarray(fn(x), float), x.shape[:-1])
    finite = np.isfinite(values)
    if not finite.all():
        k = np.unravel_index(np.argmin(finite), finite.shape)
        raise NonFiniteValue(f"{name} is {float(values[k])!r} at x={x[k].tolist()}")
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


def poisson(f=-1.0, g=0.0) -> CoefficientSet:
    """Unit Laplacian: a=1, b=0, c=0."""
    return CoefficientSet(
        a=lambda x, eta, p: np.ones(np.shape(eta)),
        b=lambda x, eta, p: np.zeros(np.shape(x)),
        c=lambda x, eta: np.zeros(np.shape(eta)),
        f=f, g=g, lam=1.0, Lam=1.0, nu=0.0,
        c_mode="identically-zero",
        div_b=lambda x, eta, p: np.zeros(np.shape(eta)),
        constant_coefficients=True,
    )


def advection_diffusion(b_vector, f=-1.0, g=0.0, c0: float = 0.0) -> CoefficientSet:
    """Unit diffusion plus a constant drift and constant reaction c0 >= 0."""
    b_vector = np.asarray(b_vector, dtype=float)
    if c0 < 0:
        raise InvalidParameters("constant reaction c0 must be >= 0")
    nu = float(np.sqrt((b_vector ** 2).sum() + c0 ** 2))
    return CoefficientSet(
        a=lambda x, eta, p: np.ones(np.shape(eta)),
        b=lambda x, eta, p: np.broadcast_to(b_vector, np.shape(x)),
        c=lambda x, eta: np.full(np.shape(eta), c0),
        f=f, g=g, lam=1.0, Lam=1.0, nu=nu,
        c_mode="identically-zero" if c0 == 0.0 else "nonnegative",
        div_b=lambda x, eta, p: np.zeros(np.shape(eta)),
        constant_coefficients=True,
    )


def quasilinear_a(f=-1.0, g=0.0) -> CoefficientSet:
    """Diffusion a = 1 + eta^2/(1+eta^2), saturating between 1 and 2."""
    return CoefficientSet(
        a=lambda x, eta, p: 1.0 + eta ** 2 / (1.0 + eta ** 2),
        b=lambda x, eta, p: np.zeros(np.shape(x)),
        c=lambda x, eta: np.zeros(np.shape(eta)),
        f=f, g=g, lam=1.0, Lam=2.0, nu=0.0,
        c_mode="identically-zero",
        div_b=lambda x, eta, p: np.zeros(np.shape(eta)),
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

    a = np.broadcast_to(np.asarray(coeffs.a(x, eta, p), float), eta.shape)
    b = np.broadcast_to(np.asarray(coeffs.b(x, eta, p), float), x.shape)
    c = np.broadcast_to(np.asarray(coeffs.c(x, eta), float), eta.shape)
    for name, values in (("a", a), ("b", b), ("c", c)):
        finite = np.isfinite(values)
        if not finite.all():
            k = int(np.argmin(finite.reshape(SPOT_SAMPLES, -1).all(axis=1)))
            raise NonFiniteValue(
                f"coefficient {name} is {values[k].tolist()} at x={x[k].tolist()}, "
                f"eta={float(eta[k])!r}")

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
    linear_tol: float = 1e-12
    damping: float = 1.0

    def __post_init__(self):
        if not (0 < self.picard_tol < np.inf and 0 < self.linear_tol < np.inf):
            raise InvalidParameters("tolerances must be positive and finite")
        if not 0.0 < self.damping <= 1.0:
            raise InvalidParameters("damping must lie in (0, 1]")
        if self.picard_max_iter < 0:
            raise InvalidParameters("picard_max_iter must be >= 0")


@dataclass(frozen=True)
class SolveResult:
    """The outcome of `picard_solve`.  `final_linear_residual` is the
    `backward_error` of its last linear solve (None, as the update norm, when
    unknown), `factorizations` counts the sparse LU factorizations it ran and
    `refinement_steps` the solves with a kept factor (see `linear_solve`)."""

    u_h: P1Field
    picard_iterations: int
    final_update_norm: float | None
    final_linear_residual: float | None
    converged: bool
    factorizations: int
    refinement_steps: int

    def to_dict(self) -> dict:
        """Every field but `u_h`, in field order."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "u_h"}


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
    are constant on a cell.  a, b and c are sampled one `cell_blocks` slice
    at a time, so no (C, Q, D) coefficient array is held.  A block whose b
    (or c) samples are all zero skips that term's products and writes +0.0,
    the entries the products give there; a NaN sample is not zero.
    `_samples` are the `state_samples` of w when the caller already holds
    them.
    """
    samples = _samples or state_samples(w, rule)
    grads = gradient_table(mesh)
    bar = rule.points
    wq = rule.weights
    meas = mesh.cell_measures
    n_local = bar.shape[1]
    b_weights = bar * wq[:, None]
    mass = (bar[:, :, None] * bar[:, None, :] * wq[:, None, None]).reshape(len(wq), -1)

    diffusion, advection, reaction = (np.empty((mesh.num_cells, n_local, n_local))
                                      for _ in range(3))
    for cells, x, eta, p in _sample_blocks(mesh, rule, samples):
        a = np.broadcast_to(np.asarray(coeffs.a(x, eta, p), float), eta.shape)
        b = np.broadcast_to(np.asarray(coeffs.b(x, eta, p), float), x.shape)
        c = np.broadcast_to(np.asarray(coeffs.c(x, eta), float), eta.shape)
        g, m = grads[cells], meas[cells]
        a_cell = np.einsum("cq,q->c", a, wq) * m
        diffusion[cells] = np.einsum("c,cmd,cnd->cmn", a_cell, g, g)
        if b.any():
            b_cell = np.matmul(b.transpose(0, 2, 1), b_weights).transpose(0, 2, 1)
            advection[cells] = (b_cell @ g.transpose(0, 2, 1)) * m[:, None, None]
        else:
            advection[cells] = 0.0
        if c.any():
            reaction[cells] = (c @ mass).reshape(-1, n_local, n_local) * m[:, None, None]
        else:
            reaction[cells] = 0.0
    return diffusion, advection, reaction


@dataclass(frozen=True)
class AssemblyMap:
    """Canonical CSR pattern of a mesh's global matrix, and the slot in it of
    every local entry [cell, test, trial] (row-major over the cells).

    Assembling is then one `np.bincount` of the local entries into the
    pattern: no sort and no duplicate summation per assembly.
    """

    indptr: np.ndarray
    indices: np.ndarray
    slots: np.ndarray

    def matrix(self, local: np.ndarray) -> sparse.csr_matrix:
        """Global matrix of (C, M, M) local matrices; the contributions to each
        entry are summed in cell order."""
        data = np.bincount(self.slots, weights=local.ravel(), minlength=self.indices.shape[0])
        n = self.indptr.shape[0] - 1
        return sparse.csr_matrix((data, self.indices, self.indptr), shape=(n, n))


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
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return AssemblyMap(indptr=indptr, indices=pattern - rows * n, slots=slots)


def assemble_matrix(mesh: Mesh, parts, layout: AssemblyMap | None = None) -> sparse.csr_matrix:
    """Global matrix of the form from its `local_form_parts`, scattered through
    `layout` (the mesh's `assembly_map`, built when not given)."""
    diffusion, advection, reaction = parts
    return (layout or assembly_map(mesh)).matrix(diffusion + advection + reaction)


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
        mesh, rule = self.mesh, self.rule
        local, advection, reaction = local_form_parts(
            mesh, w, self.coeffs, rule, _samples=state_samples(w, rule, self.points))
        # the parts are this call's own: summed in place, in `assemble_matrix`'s
        # order, they add no (C, M, M) temporary next to the solve's kept factor
        local += advection
        local += reaction
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
    rhs[free] - A[free, boundary] values."""
    pinned = mesh.boundary_nodes
    if np.shape(values) != pinned.shape:
        raise MissingBoundaryValue(
            f"{len(pinned)} boundary nodes need one value each, got {np.shape(values)}")
    free = np.flatnonzero(~mesh.boundary_mask())
    rows = system.matrix.tocsr()[free]
    rows.sum_duplicates()
    matrix = rows[:, free]
    matrix.eliminate_zeros()  # kept, the many exact zeros raise the LU fill ~1.7x
    return SparseSystem(matrix=matrix, rhs=system.rhs[free] - rows[:, pinned] @ values)


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


def _refine(kept: KeptFactor, system: SparseSystem, abs_matrix, x: np.ndarray, linear_tol):
    """Iterative refinement x <- x + LU^-1 (b - A x) with the kept, older factor,
    for as long as each step at least halves the `backward_error` and for at
    most `REFINE_STEPS` steps; a step that does not lower it is dropped.  So it
    stops at the rounding floor, not at `linear_tol`, which keeps the last
    Picard update a true one.  `abs_matrix` is |A|, and the residual of a step
    is the right-hand side of the next.  Returns the refined x and its
    backward error, or None unless some step was kept and the error ended at
    or below `linear_tol`."""
    matrix, rhs = system.matrix, system.rhs
    r = rhs - matrix @ x
    error = backward_error(matrix, rhs, x, _parts=(abs_matrix, r))
    kept_steps = 0
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
    return (x, error) if kept_steps and error <= linear_tol else None


def linear_solve(system: SparseSystem, opts: SolveOptions | None = None,
                 kept: KeptFactor | None = None, x0: np.ndarray | None = None) -> np.ndarray:
    """Solve the free-node system of `apply_dirichlet` (symmetric or not) by one
    SuperLU factorization; minimum degree on A^T + A halves the COLAMD fill on
    the 2D and 3D ladders.  The pattern of every such system is symmetric, so
    SuperLU's symmetric mode builds the elimination tree of A^T + A; pivoting
    stays partial (threshold 1).

    The solve works through `kept` (a fresh `KeptFactor` when not given), whose
    factor outlives the call: when it holds one (of an earlier matrix), the
    solve first refines the start x0 with it (`_refine`), and only if that
    misses `linear_tol` does it factor this matrix, keeping the new factor in
    its place; `kept.residual` records the `backward_error` of the returned
    solution.  A singular or non-finite matrix, or a backward error above
    `linear_tol`, raises `LinearSolveDiverged`."""
    opts = opts or SolveOptions()
    kept = kept or KeptFactor()
    matrix, rhs = system.matrix, system.rhs
    abs_matrix = abs(matrix)
    refined = None if kept.lu is None else _refine(kept, system, abs_matrix, x0, opts.linear_tol)
    if refined is None:
        try:
            lu = spla.splu(matrix.tocsc(), permc_spec="MMD_AT_PLUS_A",
                           options={"SymmetricMode": True})
            x = lu.solve(rhs)
        except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
            raise LinearSolveDiverged(f"sparse LU factorization failed: {exc}",
                                      residual=float("nan")) from exc
        kept.lu, kept.factorizations = lu, kept.factorizations + 1
        refined = x, backward_error(matrix, rhs, x, _parts=(abs_matrix, rhs - matrix @ x))
    x, kept.residual = refined
    if not kept.residual <= opts.linear_tol:
        raise LinearSolveDiverged(f"backward error {kept.residual:.3e} above tolerance "
                                  f"{opts.linear_tol:.1e}", residual=kept.residual)
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
    only when refinement misses `linear_tol` (see `linear_solve`).  With
    `constant_coefficients` the form does not depend on the iterate either,
    so the system is assembled and factored once and later passes reuse its
    solution.
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
            sol[free] = linear_solve(system, opts, kept, u[free])
        diff = sol - u
        denom = max(float(np.linalg.norm(sol)), 1e-30)
        update = opts.damping * float(np.linalg.norm(diff)) / denom
        if update <= opts.picard_tol:
            u = u + opts.damping * diff
            return SolveResult(u_h=P1Field(mesh, u), picard_iterations=applied,
                               final_update_norm=update,
                               final_linear_residual=kept.residual, converged=True,
                               factorizations=kept.factorizations,
                               refinement_steps=kept.refinement_steps)
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
        c = np.broadcast_to(np.asarray(coeffs.c(x, eta), float), eta.shape)
        noise = np.zeros(eta.shape)
        if supplied:
            div = np.broadcast_to(np.asarray(coeffs.div_b(x, eta, p), float), eta.shape)
        else:
            div = np.zeros(eta.shape)
            if cell_constant:
                b = np.broadcast_to(np.asarray(coeffs.b(x, eta, p), float), x.shape)
            for axis in range(mesh.dim):
                if cell_constant:
                    b_plus = b_minus = b[..., axis]
                else:
                    shift = np.zeros(mesh.dim)
                    shift[axis] = step
                    eta_shift = p[:, :1, axis] * step  # (C, 1): constant on each cell
                    # component `axis` of b, copied so that the rest is freed
                    b_plus = np.broadcast_to(np.asarray(
                        coeffs.b(x + shift, eta + eta_shift, p), float), x.shape)[..., axis].copy()
                    b_minus = np.broadcast_to(np.asarray(
                        coeffs.b(x - shift, eta - eta_shift, p), float), x.shape)[..., axis].copy()
                    noise += (np.abs(b_plus) + np.abs(b_minus) + np.abs(b_plus - b_minus)
                              * np.abs(x[..., axis]) / (2.0 * step)) / (2.0 * step)
                div = div + (b_plus - b_minus) / (2.0 * step)
        values[cells] = c - 0.5 * div
        bound = np.abs(c) + 0.5 * (np.abs(div) + noise)
        holds = holds and bool((values[cells] >= -ZEROTH_ORDER_SLACK * bound).all())

    return ZerothOrderReport(min_value=float(values.min()), condition_holds=holds,
                             used_supplied_divergence=supplied)
