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

import warnings
from dataclasses import dataclass, replace

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
    QuadratureDegreeTooLow,
)
from .mesh import Mesh
from .p1 import P1Field, QuadratureRule, gradient_table, physical_points, quadrature_rule
from .rng import SplitMix64

C_MODES = ("nonnegative", "identically-zero", "general")


def as_point_callable(value):
    """Wrap a constant as a coordinate callable; pass callables through."""
    if callable(value):
        return value
    v = float(value)
    return lambda x: np.full(np.shape(x)[:-1], v)


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

    def with_data(self, f=None, g=None) -> "CoefficientSet":
        updates = {}
        if f is not None:
            updates["f"] = f
        if g is not None:
            updates["g"] = g
        return replace(self, **updates)


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


def validate_coefficients(coeffs: CoefficientSet, mesh: Mesh, n_samples: int = 1000,
                          seed: int = 0, state_range: float = 10.0) -> dict:
    """Spot-check the declared bounds at random (x, eta, p) samples.

    Raises `NonFiniteValue` if a sample of a, b or c is NaN or infinite, and
    `CoefficientBoundsViolation` on the first broken bound; returns the
    observed extrema otherwise.
    """
    rng = SplitMix64(seed)
    cells = rng.integers(0, mesh.num_cells, size=n_samples)
    bary = rng.simplex_barycentric(mesh.dim + 1, n_samples)
    x = np.einsum("nm,nmd->nd", bary, mesh.vertices[mesh.cells[cells]])
    eta = rng.uniform(-state_range, state_range, size=n_samples)
    p = rng.uniform(-state_range, state_range, size=(n_samples, mesh.dim))

    a = np.broadcast_to(np.asarray(coeffs.a(x, eta, p), float), eta.shape)
    b = np.broadcast_to(np.asarray(coeffs.b(x, eta, p), float), x.shape)
    c = np.broadcast_to(np.asarray(coeffs.c(x, eta), float), eta.shape)
    for name, values in (("a", a), ("b", b), ("c", c)):
        finite = np.isfinite(values)
        if not finite.all():
            k = int(np.argmin(finite.reshape(n_samples, -1).all(axis=1)))
            raise NonFiniteValue(
                f"coefficient {name} is {values[k].tolist()} at x={x[k].tolist()}, "
                f"eta={float(eta[k])!r}")

    slack = 1e-12 * max(1.0, coeffs.Lam)
    if a.min() < coeffs.lam - slack:
        raise CoefficientBoundsViolation(
            f"a dips to {a.min():.6g} below declared lam={coeffs.lam}")
    if np.abs(a).max() > coeffs.Lam + slack:
        raise CoefficientBoundsViolation(
            f"|a| reaches {np.abs(a).max():.6g} above declared Lam={coeffs.Lam}")
    lower_order = ((b ** 2).sum(axis=-1) + c ** 2) / coeffs.lam ** 2
    if lower_order.max() > coeffs.nu ** 2 + slack:
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
        "c_min": float(c.min()), "samples": n_samples,
    }


@dataclass(frozen=True)
class SparseSystem:
    """Assembled linear system with optional Dirichlet constraint record."""

    matrix: sparse.csr_matrix
    rhs: np.ndarray
    dirichlet_mask: np.ndarray
    dirichlet_values: np.ndarray

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
        if self.picard_tol <= 0 or self.linear_tol <= 0:
            raise InvalidParameters("tolerances must be positive")
        if not 0.0 < self.damping <= 1.0:
            raise InvalidParameters("damping must lie in (0, 1]")


@dataclass(frozen=True)
class SolveResult:
    u_h: P1Field
    picard_iterations: int
    final_update_norm: float
    final_linear_residual: float
    converged: bool

    def to_dict(self) -> dict:
        return {
            "picard_iterations": self.picard_iterations,
            "final_update_norm": self.final_update_norm,
            "final_linear_residual": self.final_linear_residual,
            "converged": self.converged,
        }


def interpolate_boundary(mesh: Mesh, g) -> dict:
    """Nodal values of the boundary datum at every boundary vertex."""
    g = as_point_callable(g)
    nodes = sorted(mesh.boundary_nodes)
    coords = mesh.vertices[nodes]
    vals = np.broadcast_to(np.asarray(g(coords), dtype=float), (len(nodes),))
    return {int(j): float(v) for j, v in zip(nodes, vals)}


def default_rule(mesh: Mesh, coeffs: CoefficientSet) -> QuadratureRule:
    """Degree 2 integrates constant-coefficient forms exactly; state- or
    space-dependent coefficients get degree 4."""
    return quadrature_rule(mesh.dim, 2 if coeffs.constant_coefficients else 4)


def _state_samples(mesh: Mesh, w: P1Field, rule: QuadratureRule):
    """Quadrature points (C, Q, D) with the state w there (C, Q) and its
    constant per-cell gradient broadcast over the points (C, Q, D)."""
    xq = physical_points(mesh, rule)
    return xq, w.values_in_cells(rule), np.broadcast_to(w.cell_gradients()[:, None, :], xq.shape)


def coefficient_samples(mesh: Mesh, w: P1Field, coeffs: CoefficientSet,
                        rule: QuadratureRule):
    """Evaluate (a, b, c) at all quadrature points with state frozen at w.

    Returns the quadrature coordinates and arrays of shapes (C, Q), (C, Q, D)
    and (C, Q).
    """
    xq, eta, p = _state_samples(mesh, w, rule)
    a = np.broadcast_to(np.asarray(coeffs.a(xq, eta, p), float), eta.shape)
    b = np.broadcast_to(np.asarray(coeffs.b(xq, eta, p), float), xq.shape)
    c = np.broadcast_to(np.asarray(coeffs.c(xq, eta), float), eta.shape)
    return xq, a, b, c


def local_form_parts(mesh: Mesh, w: P1Field, coeffs: CoefficientSet,
                     rule: QuadratureRule, *, _values=None):
    """Per-cell local matrices of the three form terms, frozen at state w.

    Returns (diffusion, advection, reaction), each (C, M, M) with entry
    [cell, m, n] = integral over the cell of the term with trial shape
    function n and test shape function m.  Each term is first summed over the
    quadrature points and then multiplied once per cell: the shape gradients
    are constant on a cell.  `_values` are the (a, b, c) of
    `coefficient_samples` when the caller already holds them.
    """
    a, b, c = _values or coefficient_samples(mesh, w, coeffs, rule)[1:]
    grads = gradient_table(mesh)
    bar = rule.points
    wq = rule.weights
    meas = mesh.cell_measures
    n_local = bar.shape[1]

    a_cell = np.einsum("cq,q->c", a, wq) * meas
    diffusion = np.einsum("c,cmd,cnd->cmn", a_cell, grads, grads)
    b_cell = np.einsum("cqd,qm,q->cmd", b, bar, wq)
    advection = (b_cell @ grads.transpose(0, 2, 1)) * meas[:, None, None]
    mass = (bar[:, :, None] * bar[:, None, :] * wq[:, None, None]).reshape(len(wq), -1)
    reaction = (c @ mass).reshape(-1, n_local, n_local) * meas[:, None, None]
    return diffusion, advection, reaction


def assemble_matrix(mesh: Mesh, parts) -> sparse.csr_matrix:
    """Global matrix of the form from its `local_form_parts`."""
    diffusion, advection, reaction = parts
    local = diffusion + advection + reaction
    m = mesh.dim + 1
    n = mesh.num_vertices
    rows = np.repeat(mesh.cells[:, :, None], m, axis=2)
    cols = np.repeat(mesh.cells[:, None, :], m, axis=1)
    return sparse.coo_matrix(
        (local.ravel(), (rows.ravel(), cols.ravel())), shape=(n, n)).tocsr()


def assemble_q(mesh: Mesh, w: P1Field, coeffs: CoefficientSet,
               rule: QuadratureRule | None = None) -> SparseSystem:
    """Assemble matrix and load vector of the form with coefficients frozen at w."""
    if rule is None:
        rule = default_rule(mesh, coeffs)
    if not coeffs.constant_coefficients and rule.degree < 4:
        warnings.warn("quadrature degree < 4 with non-constant coefficients",
                      QuadratureDegreeTooLow)

    # One set of quadrature points per pass, released before the contraction.
    xq, *values = coefficient_samples(mesh, w, coeffs, rule)
    fvals = np.broadcast_to(np.asarray(coeffs.f(xq), float), xq.shape[:2])
    local_rhs = np.einsum("cq,qm,q->cm", fvals, rule.points, rule.weights)
    local_rhs = local_rhs * mesh.cell_measures[:, None]
    del xq, fvals
    parts = local_form_parts(mesh, w, coeffs, rule, _values=values)
    del values
    matrix = assemble_matrix(mesh, parts)
    n = mesh.num_vertices
    rhs = np.bincount(mesh.cells.ravel(), weights=local_rhs.ravel(), minlength=n)

    return SparseSystem(matrix=matrix, rhs=rhs,
                        dirichlet_mask=np.zeros(n, dtype=bool),
                        dirichlet_values=np.zeros(n))


def q_apply(mesh: Mesh, w: P1Field, u: P1Field, v: P1Field,
            coeffs: CoefficientSet, rule: QuadratureRule | None = None) -> float:
    """Value of the form at (u, v) with coefficients frozen at w."""
    system = assemble_q(mesh, w, coeffs, rule)
    return float(v.nodal_values @ (system.matrix @ u.nodal_values))


def apply_dirichlet(system: SparseSystem, assignment: dict, mesh: Mesh) -> SparseSystem:
    """Constrain nodes to prescribed values by row replacement and symmetric
    column elimination; the assignment must cover every boundary node."""
    missing = mesh.boundary_nodes - set(assignment)
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
    rhs = system.rhs - a @ values
    rhs[mask] = values[mask]
    # Exact zeros go too: right-angled and Kuhn meshes have many, and as stored
    # entries they raise the LU fill ~1.7x.
    entries = a.tocoo()
    keep = (entries.data != 0.0) & ~(mask[entries.row] | mask[entries.col])
    constrained = sparse.csr_matrix(
        (np.concatenate([entries.data[keep], np.ones(pinned.size)]),
         (np.concatenate([entries.row[keep], pinned]),
          np.concatenate([entries.col[keep], pinned]))),
        shape=(n, n))
    return SparseSystem(matrix=constrained, rhs=rhs,
                        dirichlet_mask=mask, dirichlet_values=values)


def _relative_residual(matrix, rhs, x) -> float:
    denom = np.linalg.norm(rhs)
    if denom == 0.0:
        denom = 1.0
    return float(np.linalg.norm(rhs - matrix @ x) / denom)


def linear_solve(system: SparseSystem, opts: SolveOptions | None = None) -> np.ndarray:
    """Solve the constrained system (symmetric or not, pinned rows are identity
    rows) by one SuperLU factorization; minimum degree on A^T + A halves the
    COLAMD fill on the 2D and 3D ladders.  A singular or non-finite matrix, or a
    relative residual above `10 * linear_tol`, raises `LinearSolveDiverged`."""
    opts = opts or SolveOptions()
    try:
        x = spla.splu(system.matrix.tocsc(), permc_spec="MMD_AT_PLUS_A").solve(system.rhs)
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        raise LinearSolveDiverged(f"sparse LU factorization failed: {exc}",
                                  residual=float("nan")) from exc
    residual = _relative_residual(system.matrix, system.rhs, x)
    if not np.isfinite(residual) or residual > 10.0 * opts.linear_tol:
        raise LinearSolveDiverged(
            f"relative residual {residual:.3e} above tolerance {opts.linear_tol:.1e}",
            residual=residual)
    return x


def picard_solve(mesh: Mesh, coeffs: CoefficientSet, opts: SolveOptions | None = None,
                 initial_guess: P1Field | None = None,
                 rule: QuadratureRule | None = None) -> SolveResult:
    """Frozen-coefficient fixed-point iteration for the Galerkin system.

    Each pass assembles the form at the current iterate, solves the linear
    system, and applies a damped update; iteration stops once the relative
    nodal update falls below `picard_tol`.  `picard_iterations` counts the
    updates actually applied, so a state-independent problem converges after
    exactly one.  With `constant_coefficients` the form does not depend on
    the iterate, so the system is assembled and factored once and later
    passes reuse its solution.
    """
    opts = opts or SolveOptions()
    assignment = interpolate_boundary(mesh, coeffs.g)
    if initial_guess is None:
        u = np.zeros(mesh.num_vertices)
        u[list(assignment)] = list(assignment.values())
    else:
        u = initial_guess.nodal_values.copy()

    applied = 0
    sol = None
    while True:
        if sol is None or not coeffs.constant_coefficients:
            system = apply_dirichlet(assemble_q(mesh, P1Field(mesh, u), coeffs, rule),
                                     assignment, mesh)
            sol = linear_solve(system, opts)
            lin_res = _relative_residual(system.matrix, system.rhs, sol)
        diff = sol - u
        denom = max(float(np.linalg.norm(sol)), 1e-30)
        update = opts.damping * float(np.linalg.norm(diff)) / denom
        if update <= opts.picard_tol:
            u = u + opts.damping * diff
            return SolveResult(u_h=P1Field(mesh, u), picard_iterations=applied,
                               final_update_norm=update,
                               final_linear_residual=lin_res, converged=True)
        if applied >= opts.picard_max_iter:
            raise PicardDiverged(
                f"no convergence after {applied} updates (last update {update:.3e})",
                last_update=update)
        u = u + opts.damping * diff
        applied += 1


def galerkin_residual(mesh: Mesh, u_h: P1Field, coeffs: CoefficientSet,
                      rule: QuadratureRule | None = None) -> float:
    """Relative residual of the nonlinear Galerkin identity at u_h, measured
    on the unconstrained (interior) nodes."""
    system = assemble_q(mesh, u_h, coeffs, rule)
    free = np.ones(mesh.num_vertices, dtype=bool)
    free[list(mesh.boundary_nodes)] = False
    r = (system.rhs - system.matrix @ u_h.nodal_values)[free]
    denom = max(float(np.linalg.norm(system.rhs[free])), 1.0)
    return float(np.linalg.norm(r) / denom)


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
        return {
            "min_value": self.min_value,
            "condition_holds": self.condition_holds,
            "used_supplied_divergence": self.used_supplied_divergence,
        }


def check_zeroth_order_condition(mesh: Mesh, u_h: P1Field, coeffs: CoefficientSet,
                                 rule: QuadratureRule | None = None) -> ZerothOrderReport:
    """Probe c(x,u) - div b(x,u,grad u)/2 >= 0 at all quadrature points.

    Uses the supplied divergence callback when present, otherwise central
    finite differences of the composite map x -> b(x, u_h(x), grad u_h) with
    step 1e-6 * h inside each cell.
    """
    xq, eta, p = _state_samples(mesh, u_h, rule or default_rule(mesh, coeffs))
    c = np.broadcast_to(np.asarray(coeffs.c(xq, eta), float), eta.shape)
    if coeffs.div_b is not None:
        div = np.broadcast_to(np.asarray(coeffs.div_b(xq, eta, p), float), eta.shape)
        supplied = True
    else:
        supplied = False
        step = 1e-6 * mesh.h
        div = np.zeros(eta.shape)
        for axis in range(mesh.dim):
            shift = np.zeros(mesh.dim)
            shift[axis] = step
            eta_shift = p[:, :1, axis] * step  # (C, 1): constant on each cell
            b_plus = np.broadcast_to(
                np.asarray(coeffs.b(xq + shift, eta + eta_shift, p), float), xq.shape)
            b_minus = np.broadcast_to(
                np.asarray(coeffs.b(xq - shift, eta - eta_shift, p), float), xq.shape)
            div = div + (b_plus[..., axis] - b_minus[..., axis]) / (2.0 * step)

    values = c - 0.5 * div
    min_value = float(values.min())
    return ZerothOrderReport(min_value=min_value,
                             condition_holds=min_value >= -1e-10,
                             used_supplied_divergence=supplied)
