"""Maximum-principle verification for solved piecewise-linear fields.

Everything here is a checker, not a solver: cut-level sweeps of the global
variational inequality, per-cell and per-edge geometric sufficient conditions,
solution-bound certificates with machine-readable verdicts, level-set measures
and the iteration-lemma utilities that tie them together.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    HypothesisViolated,
    InvalidParameters,
    NotConverged,
    UnsupportedCMode,
)
from .mesh import Mesh, acuteness_audit, interior_edges_2d
from .p1 import P1Field, QuadratureRule, constant_field, gradient_table, \
    physical_points, quadrature_rule
from .solver import (
    CoefficientSet,
    SolveResult,
    assemble_matrix,
    check_zeroth_order_condition,
    default_rule,
    interpolate_boundary,
    local_form_parts,
)

SIGN_TOL = 1e-10  # relative slack for ">= 0" verdicts on assembled sums
PAIR_TOL = 1e-12  # relative slack for per-pair / per-edge integral verdicts
BOUND_TOL = 1e-9  # absolute slack for nodal solution bounds
_BLOCK_TERMS = 1 << 18  # (entry, level) or (row, column) terms evaluated at once
# Rounding can hide a row maximum from the bisection of `_row_maxima` by a few
# ulps per depth; rows within this slack (relative to the magnitude of the
# summed logarithms) of the deciding value are rescanned exactly.
_ROW_SLACK = 1e-9

ELEMENT_CASES = ("general-b", "b-zero-c-nonneg", "poisson-like")


@dataclass(frozen=True)
class DmpParams:
    """Exponents and margins steering the bound certificates.

    `p` is the integrability exponent (p > 2, and p < 2d/(d-2) in 3D), `r`
    trades between source integrability and decay speed (1 <= r < p - 1).
    `lambda_star` is the margin required of per-pair element integrals in the
    strict cases; None defers to 0.1 * lam of the coefficient set at use.
    """

    p: float = 4.0
    r: float = 2.0
    lambda_star: float | None = None
    alpha_exponent: float = 0.0

    def __post_init__(self):
        if not self.p > 2:
            raise InvalidParameters("need p > 2")
        if not 1 <= self.r < self.p - 1:
            raise InvalidParameters("need 1 <= r < p - 1")
        if self.lambda_star is not None and self.lambda_star <= 0:
            raise InvalidParameters("lambda_star must be positive")
        if self.alpha_exponent < 0:
            raise InvalidParameters("alpha_exponent must be >= 0")

    def check_for_dim(self, dim: int) -> None:
        if dim == 3 and not self.p < 6.0:
            raise InvalidParameters(f"p={self.p} must be < 6 in 3D")

    @property
    def q(self) -> float:
        return self.p / (self.p - 1.0)

    @property
    def s(self) -> float:
        return self.r / (self.r - 1.0) if self.r > 1 else math.inf

    @property
    def f_norm_exponent(self) -> float:
        if self.r == 1:
            return math.inf
        return self.p * self.r / ((self.p - 1.0) * (self.r - 1.0))

    @property
    def decay_alpha(self) -> float:
        return self.p

    @property
    def decay_beta(self) -> float:
        return (self.p - 1.0) / self.r

    def to_dict(self) -> dict:
        return {
            "p": self.p, "r": self.r, "q": self.q,
            "s": None if math.isinf(self.s) else self.s,
            "f_norm_exponent": (None if math.isinf(self.f_norm_exponent)
                                else self.f_norm_exponent),
            "lambda_star": self.lambda_star,
            "alpha_exponent": self.alpha_exponent,
        }


def compute_k_star(mesh: Mesh, assignment: dict, c_mode: str) -> float:
    """Cut threshold from the interpolated boundary data.

    For a piecewise-linear boundary interpolant the supremum over the boundary
    is attained at boundary vertices, so a nodal max suffices.  With a
    nonnegative zeroth-order coefficient the threshold is clipped at zero.
    """
    if c_mode == "nonnegative":
        clip = True
    elif c_mode == "identically-zero":
        clip = False
    else:
        raise UnsupportedCMode(f"no cut threshold defined for c_mode={c_mode!r}")
    values = [assignment[j] for j in mesh.boundary_nodes]
    if not values:
        raise InvalidParameters("mesh has no boundary nodes")
    top = max(values)
    return float(max(top, 0.0) if clip else top)


@dataclass(frozen=True)
class AssumptionSweep:
    """Sampled values of the form applied to the cut pair, over cut levels.

    The grid holds the threshold, every distinct nodal value above it and the
    midpoints of consecutive such values; the sign pattern of the cut pair
    changes only at nodal values, so this grid decides the verdict for every
    real cut level.
    """

    k_values: np.ndarray
    q_values: np.ndarray
    min_value: float
    satisfied: bool
    scale: float

    def to_dict(self) -> dict:
        return {
            "verdict": "pass" if self.satisfied else "fail",
            "min_value": self.min_value,
            "scale": self.scale,
            "k_values": self.k_values.tolist(),
            "q_values": self.q_values.tolist(),
        }


def _cut_level_grid(u_h: P1Field, k_star: float) -> np.ndarray:
    values = np.unique(u_h.nodal_values)
    values = values[values >= k_star]
    grid = np.unique(np.concatenate([[k_star], values]))
    if len(grid) > 1:
        mids = 0.5 * (grid[:-1] + grid[1:])
        grid = np.unique(np.concatenate([grid, mids]))
    return grid


def _form_parts(mesh: Mesh, coeffs: CoefficientSet, rule: QuadratureRule | None,
                w: P1Field | None):
    """`local_form_parts` frozen at w, with zero and the default rule for None."""
    return local_form_parts(mesh, constant_field(mesh, 0.0) if w is None else w,
                            coeffs, rule or default_rule(mesh, coeffs))


def _ranges(lo: np.ndarray, hi: np.ndarray):
    """Concatenated index ranges [lo[s], hi[s]) and the range s of each index."""
    lens = hi - lo
    seg = np.repeat(np.arange(len(lens)), lens)
    return seg, np.arange(len(seg)) + np.repeat(lo - (np.cumsum(lens) - lens), lens)


def _range_blocks(lens: np.ndarray):
    """Runs (s0, s1) of consecutive ranges holding about _BLOCK_TERMS indices
    each; a longer range forms a run of its own."""
    ends = np.cumsum(lens)
    s0 = 0
    while s0 < len(lens):
        stop = ends[s0] - lens[s0] + _BLOCK_TERMS
        s1 = max(s0 + 1, int(np.searchsorted(ends, stop, side="right")))
        yield s0, s1
        s0 = s1


def assumption_a_sweep(mesh: Mesh, u_h: P1Field, coeffs: CoefficientSet,
                       rule: QuadratureRule | None = None,
                       k_star: float = 0.0, parts=None) -> AssumptionSweep:
    """Evaluate the cut-pair form value at every decisive cut level >= k_star.

    A nonzero matrix entry a_ij with u_i > u_j couples the cut pair exactly
    on the levels u_j < k < u_i, where it adds (u_i - k) * a_ij * (u_j - k);
    each level sums the terms of the entries straddling it, each term with
    its exact sign.  `parts` are the `local_form_parts` frozen at u_h,
    computed when not given.
    """
    if parts is None:
        parts = _form_parts(mesh, coeffs, rule, u_h)
    matrix = assemble_matrix(mesh, parts).tocoo()
    grid = _cut_level_grid(u_h, k_star)
    u = u_h.nodal_values
    u_i, u_j = u[matrix.row], u[matrix.col]
    keep = (u_i > u_j) & (matrix.data != 0.0)
    u_i, u_j, a_ij = u_i[keep], u_j[keep], matrix.data[keep]
    first = np.searchsorted(grid, u_j, side="right")
    stop = np.searchsorted(grid, u_i, side="left")
    q_values = np.zeros(len(grid))
    for s0, s1 in _range_blocks(stop - first):
        entry, level = _ranges(first[s0:s1], stop[s0:s1])
        entry += s0
        k = grid[level]
        terms = (u_i[entry] - k) * (a_ij[entry] * (u_j[entry] - k))
        q_values += np.bincount(level, weights=terms, minlength=len(grid))
    scale = max(1.0, float(np.abs(q_values).max())) if len(q_values) else 1.0
    min_value = float(q_values.min()) if len(q_values) else 0.0
    return AssumptionSweep(k_values=grid, q_values=q_values, min_value=min_value,
                           satisfied=min_value >= -SIGN_TOL * scale, scale=scale)


@dataclass(frozen=True)
class ElementConditionReport:
    """Per-cell, per-ordered-pair verdicts of the sign conditions.

    A full pass in the strict cases (or the diffusion-only case on a
    non-obtuse mesh) makes the global cut-pair inequality hold for every
    piecewise-linear field, not just the solved one.
    """

    case: str
    lambda_star: float | None
    all_pass: bool
    min_margin: float
    num_pairs: int
    num_failing_pairs: int
    failures: list  # capped listing of the failing pairs

    def to_dict(self, max_failures: int = 50) -> dict:
        return {
            "verdict": "pass" if self.all_pass else "fail",
            "case": self.case,
            "lambda_star": self.lambda_star,
            "min_margin": self.min_margin,
            "num_pairs": self.num_pairs,
            "num_failures": self.num_failing_pairs,
            "failures": self.failures[:max_failures],
        }


def element_condition_check(mesh: Mesh, coeffs: CoefficientSet,
                            rule: QuadratureRule | None = None,
                            case: str = "poisson-like",
                            lambda_star: float | None = None,
                            w: P1Field | None = None,
                            parts=None) -> ElementConditionReport:
    """Check the per-pair element integrals that force the cut-pair inequality.

    For each cell and ordered vertex pair (i, j) with i != j the quantity

        D_ij = -integral( a grad_i . grad_j + b . grad_i  shape_j
                          + c shape_i shape_j )

    must dominate a geometric reference: `lambda_star * |grad_i||grad_j||T|`
    in the strict cases, and `lam * |grad_i||grad_j| cos(angle_ij) |T|`
    together with nonnegativity in the diffusion-only case (where the drift
    and reaction integrals must vanish).  `parts` are the `local_form_parts`
    frozen at w (zero when None), computed when not given.
    """
    if case not in ELEMENT_CASES:
        raise InvalidParameters(f"case must be one of {ELEMENT_CASES}")
    if lambda_star is None:
        lambda_star = 0.1 * coeffs.lam

    if parts is None:
        parts = _form_parts(mesh, coeffs, rule, w)
    diffusion, advection, reaction = parts
    # local_form_parts stores [cell, test, trial]; the pair quantity carries
    # the gradient on the first index, so transpose to [cell, i, j].
    total = np.swapaxes(diffusion + advection + reaction, 1, 2)
    d_pair = -total
    scale = np.maximum(
        1.0, (np.abs(diffusion) + np.abs(advection) + np.abs(reaction)).max(axis=(1, 2)))
    tol = PAIR_TOL * scale

    grads = gradient_table(mesh)
    gnorm = np.linalg.norm(grads, axis=-1)
    prod = gnorm[:, :, None] * gnorm[:, None, :] * mesh.cell_measures[:, None, None]

    m = mesh.dim + 1
    off = ~np.eye(m, dtype=bool)

    if case == "poisson-like":
        # grad_i . grad_j = -|g_i||g_j| cos(angle_ij)
        gdots = np.einsum("cid,cjd->cij", grads, grads)
        norm_prod = gnorm[:, :, None] * gnorm[:, None, :]
        cos_angle = -gdots / norm_prod
        reference = coeffs.lam * prod * cos_angle
        drift_ok = np.abs(np.swapaxes(advection, 1, 2)) <= tol[:, None, None]
        react_ok = np.abs(np.swapaxes(reaction, 1, 2)) <= tol[:, None, None]
        margin = np.minimum(d_pair - reference, d_pair)
        ok = (d_pair >= reference - tol[:, None, None]) \
            & (d_pair >= -tol[:, None, None]) & drift_ok & react_ok
    else:
        reference = lambda_star * prod
        margin = d_pair - reference
        ok = d_pair >= reference - tol[:, None, None]
        if case == "b-zero-c-nonneg":
            ok &= np.abs(np.swapaxes(advection, 1, 2)) <= tol[:, None, None]

    failures = []
    bad = np.argwhere(~ok & off[None, :, :])
    for cell, i, j in bad[:200]:
        failures.append({
            "cell": int(cell), "i": int(i), "j": int(j),
            "d_value": float(d_pair[cell, i, j]),
            "reference": float(reference[cell, i, j]),
        })
    masked = np.where(off[None, :, :], margin, np.inf)
    return ElementConditionReport(
        case=case,
        lambda_star=lambda_star if case != "poisson-like" else None,
        all_pass=bool(np.all(ok[:, off])),
        min_margin=float(masked.min()),
        num_pairs=int(mesh.num_cells * m * (m - 1)),
        num_failing_pairs=int(len(bad)),
        failures=failures,
    )


@dataclass(frozen=True)
class EdgeConditionReport:
    """Two-cell edge sums and, for the unit Laplacian, the closed form
    -(cot alpha + cot beta) / 2 they must reproduce."""

    all_pass: bool
    max_sum: float
    num_edges: int
    edges: list
    poisson_identity_checked: bool
    identity_max_error: float

    def to_dict(self, max_edges: int = 200) -> dict:
        return {
            "verdict": "pass" if self.all_pass else "fail",
            "max_sum": self.max_sum,
            "num_edges": self.num_edges,
            "poisson_identity_checked": self.poisson_identity_checked,
            "identity_max_error": self.identity_max_error,
            "edges": self.edges[:max_edges],
        }


def _looks_like_unit_poisson(mesh: Mesh, coeffs: CoefficientSet) -> bool:
    x = mesh.vertices[: min(5, mesh.num_vertices)]
    for eta_val, p_val in ((0.0, 0.0), (1.37, -0.81), (-2.6, 0.44)):
        eta = np.full(len(x), eta_val)
        p = np.full_like(x, p_val)
        a = np.asarray(coeffs.a(x, eta, p), float)
        b = np.asarray(coeffs.b(x, eta, p), float)
        c = np.asarray(coeffs.c(x, eta), float)
        if (np.abs(a - 1.0).max() > 1e-13 or np.abs(b).max() > 1e-14
                or np.abs(c).max() > 1e-14):
            return False
    return True


def edge_condition_check_2d(mesh: Mesh, coeffs: CoefficientSet,
                            rule: QuadratureRule | None = None,
                            w: P1Field | None = None,
                            poisson_identity: bool | None = None,
                            parts=None) -> EdgeConditionReport:
    """Check nonpositivity of the two-cell integral sum over each interior edge.

    For the unit Laplacian the sum has the closed form
    -(cot alpha + cot beta)/2 = -sin(alpha+beta)/(2 sin alpha sin beta) in the
    two opposite angles, which is nonpositive exactly when alpha + beta <= pi;
    it is evaluated from the apex-vector cotangents.  When the coefficients are
    detected (or declared) to be of that form the identity is verified to
    rounding as a cross-check of the assembled integrals.  `parts` are the
    `local_form_parts` frozen at w (zero when None), computed when not given.
    """
    if mesh.dim != 2:
        raise DimensionMismatch("edge-based verification is 2D only")
    if poisson_identity is None:
        poisson_identity = _looks_like_unit_poisson(mesh, coeffs)

    if parts is None:
        parts = _form_parts(mesh, coeffs, rule, w)
    diffusion, advection, reaction = parts
    total = diffusion + advection + reaction  # [cell, test, trial]
    cell_scale = (np.abs(diffusion) + np.abs(advection) + np.abs(reaction)).max(axis=(1, 2))

    edges = interior_edges_2d(mesh)
    nodes, cells = edges.nodes, edges.cells
    owned = mesh.cells[cells]  # (E, 2, 3)
    lm = np.argmax(owned == nodes[:, None, :1], axis=2)
    ln = np.argmax(owned == nodes[:, None, 1:], axis=2)
    # gradient carried by m, test n -> [test, trial] = [ln, lm]; sums start
    # from +0.0 so that two -0.0 entries add up to +0.0
    fwd = total[cells, ln, lm]
    rev = total[cells, lm, ln]
    s_fwd = 0.0 + fwd[:, 0] + fwd[:, 1]
    s_rev = 0.0 + rev[:, 0] + rev[:, 1]
    scale = np.maximum(1.0, cell_scale[cells].max(axis=1))
    alpha, beta = edges.opposite_angles.T
    cot = edges.opposite_cotangents
    closed = -(cot[:, 0] + cot[:, 1]) / 2.0
    passed = np.maximum(s_fwd, s_rev) <= PAIR_TOL * scale
    identity_err = 0.0
    if poisson_identity and len(closed):
        identity_err = float((np.abs(s_fwd - closed) / np.maximum(1.0, np.abs(closed))).max())
        if identity_err > PAIR_TOL:
            raise InvalidParameters(
                f"assembled edge sums deviate from the cotangent closed form by "
                f"{identity_err:.3e}")
    records = [
        {"node_m": m, "node_n": n, "sum": sf, "sum_reversed": sr,
         "poisson_closed_form": cf, "angle_sum": a, "verdict": "pass" if ok else "fail"}
        for m, n, sf, sr, cf, a, ok in zip(
            nodes[:, 0].tolist(), nodes[:, 1].tolist(), s_fwd.tolist(), s_rev.tolist(),
            closed.tolist(), (alpha + beta).tolist(), passed.tolist())]
    return EdgeConditionReport(
        all_pass=bool(passed.all()),
        max_sum=float(max(s_fwd.max(), s_rev.max())) if records else 0.0,
        num_edges=len(records),
        edges=records,
        poisson_identity_checked=bool(poisson_identity),
        identity_max_error=identity_err,
    )


# -- level sets ----------------------------------------------------------------

def level_set_profile(mesh: Mesh, u_h: P1Field, k_values) -> np.ndarray:
    """Level-set measures over a grid of cut levels: suffix sums of the cell
    measures sorted by nodal maximum, exactly non-increasing in the level."""
    k_values = np.asarray(k_values, dtype=float)
    cell_max = u_h.nodal_values[mesh.cells].max(axis=1)
    order = np.argsort(cell_max, kind="stable")
    tail = np.append(np.cumsum(mesh.cell_measures[order][::-1])[::-1], 0.0)
    return tail[np.searchsorted(cell_max[order], k_values, side="right")]


# -- iteration lemma -----------------------------------------------------------

# Both De Giorgi tables have entries log(L_b - l_a) + g(a) + h(b) with
# increasing l and L, whose differences increase in (a, b); so the column of
# a row maximum is non-decreasing in the row, and `_row_maxima` finds every
# row maximum in O((rows + columns) log rows) evaluations instead of the
# rows x columns of the table.

def _row_maxima(value, starts: np.ndarray, stop: int) -> np.ndarray:
    """Maximum over the columns [starts[a], stop) of every row a of a table
    whose row argmax is non-decreasing in a, by divide and conquer run
    breadth first: each depth evaluates one batch of O(rows + columns)
    entries.  `starts` is non-decreasing and below `stop`; `value(rows,
    cols)` evaluates entries elementwise and never gives NaN."""
    best = np.empty(len(starts))
    if not len(starts):
        return best
    r_lo, r_hi = np.array([0]), np.array([len(starts)])  # rows [r_lo, r_hi)
    c_lo, c_hi = np.array([0]), np.array([stop])  # columns [c_lo, c_hi)
    while len(r_lo):
        mid = (r_lo + r_hi) // 2
        lo = np.maximum(c_lo, starts[mid])
        seg, cols = _ranges(lo, c_hi)
        vals = value(mid[seg], cols)
        top = np.maximum.reduceat(vals, np.cumsum(c_hi - lo) - (c_hi - lo))
        hits = np.flatnonzero(vals == top[seg])
        at = cols[hits[np.searchsorted(seg[hits], np.arange(len(mid)))]]
        best[mid] = top
        # rows above mid search columns up to its argmax, rows below from it on
        up, down = r_lo < mid, mid + 1 < r_hi
        r_lo, r_hi, c_lo, c_hi = (
            np.concatenate([r_lo[up], mid[down] + 1]),
            np.concatenate([mid[up], r_hi[down]]),
            np.concatenate([c_lo[up], at[down]]),
            np.concatenate([at[up] + 1, c_hi[down]]))
    return best


def _row_entries(rows: np.ndarray, starts: np.ndarray, stop: int):
    """(row, column) index arrays of the given rows over the columns
    [starts[row], stop), in row-major order, a block at a time."""
    for s0, s1 in _range_blocks(stop - starts[rows]):
        seg, cols = _ranges(starts[rows[s0:s1]], np.full(s1 - s0, stop))
        yield rows[s0:s1][seg], cols


def _log_span_bound(levels: np.ndarray) -> float:
    """Largest |log(levels[b] - levels[a])| over a < b of increasing levels."""
    with np.errstate(divide="ignore"):
        return float(np.abs(np.log([np.diff(levels).min(), levels[-1] - levels[0]])).max())


def _log_phi(values: np.ndarray) -> np.ndarray:
    positive = values > 0.0
    return np.where(positive, np.log(np.where(positive, values, 1.0)), -np.inf)


def _decay_bound(gap, logphi_k, alpha: float, beta: float, log_m: float,
                 rel_tol: float):
    """Elementwise log of the largest phi(s), s = k + gap, that the decay
    hypothesis phi(s) <= (M/gap)^alpha phi(k)^beta allows with relative slack
    rel_tol, from log phi(k) (-inf where phi(k) = 0)."""
    return alpha * (log_m - np.log(gap)) + beta * logphi_k + math.log1p(rel_tol)


@dataclass(frozen=True)
class DeGiorgiInput:
    """Sampled non-increasing decay function with the lemma's parameters.

    `samples` is an (n, 2) array of (level, value) pairs sorted by level with
    the first level at or below k0; evaluation between samples uses the
    right-continuous step interpolant, which is exact for level-set measures
    of piecewise-linear fields sampled at the distinct nodal values.
    """

    M: float
    alpha: float
    beta: float
    k0: float
    samples: np.ndarray

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        if samples.ndim != 2 or samples.shape[1] != 2 or samples.shape[0] < 1:
            raise InvalidParameters("samples must be a non-empty (n, 2) array")
        if np.any(np.diff(samples[:, 0]) <= 0):
            raise InvalidParameters("sample levels must be strictly increasing")
        if np.any(np.diff(samples[:, 1]) > 1e-15 * max(1.0, samples[0, 1])):
            raise InvalidParameters("sample values must be non-increasing")
        if np.any(samples[:, 1] < 0):
            raise InvalidParameters("sample values must be nonnegative")
        if not (self.M > 0 and self.alpha > 0 and self.beta > 1):
            raise InvalidParameters("need M > 0, alpha > 0, beta > 1")
        if samples[0, 0] > self.k0:
            raise InvalidParameters("need a sample at or below k0")
        object.__setattr__(self, "samples", samples)

    def phi(self, k) -> np.ndarray:
        """Right-continuous step evaluation; constant beyond the last sample."""
        idx = np.searchsorted(self.samples[:, 0], np.asarray(k, dtype=float),
                              side="right") - 1
        idx = np.clip(idx, 0, len(self.samples) - 1)
        return self.samples[idx, 1]

    def phi_k0(self) -> float:
        return float(self.phi(self.k0))


def de_giorgi_rho(inp: DeGiorgiInput) -> float:
    """Level shift beyond which the decay function must vanish:
    M * phi(k0)^((beta-1)/alpha) * 2^(beta/(beta-1))."""
    phi0 = inp.phi_k0()
    return float(inp.M * phi0 ** ((inp.beta - 1.0) / inp.alpha)
                 * 2.0 ** (inp.beta / (inp.beta - 1.0)))


def fit_decay_constant(samples, alpha: float, beta: float, k0: float) -> float:
    """Smallest constant making the step interpolant of the samples satisfy
    the decay hypothesis for every real pair of levels above k0.

    For level pairs inside sampled steps the binding span is the distance to
    the *next* sample boundary, so the fit uses those spans; the returned
    constant therefore certifies the hypothesis for the continuum, not just
    the sample grid.
    """
    samples = np.asarray(samples, dtype=float)
    start = int(np.searchsorted(samples[:, 0], k0, side="right") - 1)
    if start < 0:
        raise InvalidParameters("need a sample at or below k0")
    ks = samples[start:, 0].copy()
    phis = samples[start:, 1]
    ks[0] = k0  # the first sample only matters on [k0, next level)
    if phis[-1] > 0.0:
        raise InvalidParameters(
            "last sample has positive value; the hypothesis cannot hold "
            "with any finite constant")

    positive = np.flatnonzero(phis > 0.0)
    if not len(positive):
        return 0.0
    # candidate (a, b >= a) over the positive samples: k in [ks[a], ks[a+1]),
    # s in [ks[b], ks[b+1])
    k_a, end_b = ks[positive], ks[positive + 1]
    logphi = np.log(phis[positive])

    def candidate(a, b):
        return np.log(end_b[b] - k_a[a]) + (logphi[b] - beta * logphi[a]) / alpha

    n = len(positive)
    starts = np.arange(n)
    row_best = _row_maxima(candidate, starts, n)
    scale = 1.0 + _log_span_bound(ks[:positive[-1] + 2]) \
        + (1.0 + beta) * np.abs(logphi).max() / alpha
    rows = np.flatnonzero(row_best >= row_best.max() - _ROW_SLACK * scale)
    best = max(candidate(a, b).max() for a, b in _row_entries(rows, starts, n))
    return float(np.exp(best))


# The abstract lemma only bounds the vanishing threshold from one side; the
# constructive induction pins it to the exact expression used here.  Reports
# carry this convention so downstream readers know which value was checked.
RHO_CONVENTION = ("rho is the constructive induction value "
                  "M * phi(k0)^((beta-1)/alpha) * 2^(beta/(beta-1)); the "
                  "abstract statement only bounds the threshold by the same "
                  "expression")


@dataclass(frozen=True)
class DeGiorgiReport:
    rho: float
    decay_ratio: float  # per-step geometric decay factor
    hypothesis_ok: bool
    decay_ok: bool
    first_decay_failure: int | None
    tail_ok: bool
    tail_value: float
    tau_max: int

    @property
    def all_pass(self) -> bool:
        return self.hypothesis_ok and self.decay_ok and self.tail_ok

    def to_dict(self) -> dict:
        return {
            "verdict": "pass" if self.all_pass else "fail",
            "rho": self.rho,
            "rho_convention": RHO_CONVENTION,
            "decay_ratio": self.decay_ratio,
            "hypothesis_ok": self.hypothesis_ok,
            "decay_ok": self.decay_ok,
            "first_decay_failure": self.first_decay_failure,
            "tail_ok": self.tail_ok,
            "tail_value": self.tail_value,
            "tau_max": self.tau_max,
        }


def _first_violation(levels: np.ndarray, logphi: np.ndarray, alpha: float,
                     beta: float, log_m: float, rel_tol: float):
    """First level-index pair (a, b), a < b, in row order at which log phi
    exceeds its `_decay_bound`, or None."""
    n = len(levels)
    positive = np.flatnonzero(logphi > -np.inf)
    found = None
    if len(positive) and positive[-1] >= len(positive):
        # the first level with phi = 0 fails at the next level with phi > 0
        a = int(np.argmin(logphi > -np.inf))
        found = (a, int(positive[np.searchsorted(positive, a)]))

    rows = positive[positive < (n - 1 if found is None else found[0])]
    if not len(rows):
        return found

    def bound(a, b):
        return _decay_bound(levels[b] - levels[a], logphi[a], alpha, beta, log_m, rel_tol)

    def margin(r, b):
        return logphi[b] - bound(rows[r], b)

    row_best = _row_maxima(margin, rows + 1, n)
    scale = 1.0 + (1.0 + beta) * np.abs(logphi[positive]).max() \
        + alpha * (abs(log_m) + _log_span_bound(levels))
    starts = np.arange(1, n + 1)
    for a, b in _row_entries(rows[row_best > -_ROW_SLACK * scale], starts, n):
        bad = logphi[b] > bound(a, b)
        if bad.any():
            i = int(np.argmax(bad))
            return a[i], b[i]
    return found


def de_giorgi_verify(inp: DeGiorgiInput, rho: float | None = None,
                     tau_max: int = 40, rel_tol: float = 1e-9) -> DeGiorgiReport:
    """Check the iteration lemma's hypothesis and conclusions on the samples.

    Verifies (a) the decay hypothesis on every sampled level pair above k0 and
    on the geometric ladder k0 + rho - rho/2^tau, (b) the induced geometric
    decay bound at each ladder level, and (c) that the value at k0 + rho has
    dropped below the chain's tail.  Raises `HypothesisViolated` if (a) fails,
    since the conclusions are then unsupported.
    """
    if rho is None:
        rho = de_giorgi_rho(inp)
    if rho < 0:
        raise InvalidParameters("rho must be nonnegative")

    ks = inp.samples[:, 0]
    grid = ks[ks >= inp.k0]
    if len(grid) == 0 or grid[0] > inp.k0:
        grid = np.concatenate([[inp.k0], grid])
    hyp_tol = 1e-12
    log_m = math.log(inp.M)
    # every pair k < s of the increasing grid; report the first in row order
    failure = _first_violation(grid, _log_phi(inp.phi(grid)), inp.alpha, inp.beta,
                               log_m, hyp_tol)
    if failure is not None:
        ai, bi = failure
        raise HypothesisViolated(
            f"decay hypothesis fails for levels ({grid[ai]:.6g}, "
            f"{grid[bi]:.6g})", pair=(float(grid[ai]), float(grid[bi])))

    taus = np.arange(tau_max + 1)
    ladder = inp.k0 + rho - rho / 2.0 ** taus
    if rho > 0:
        k, s = ladder[:-1], ladder[1:]
        step = s > k  # a step collapsed by rounding is skipped
        bad = step & (_log_phi(inp.phi(s)) > _decay_bound(
            np.where(step, s - k, 1.0), _log_phi(inp.phi(k)), inp.alpha, inp.beta,
            log_m, hyp_tol))
        if bad.any():
            t = int(np.argmax(bad))
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


# -- certificate ---------------------------------------------------------------

@dataclass(frozen=True)
class DmpCertificate:
    """Bundle of every maximum-principle verdict for one solved problem."""

    k_star: float
    sup_uh: float
    theorem_3_3_applicable: dict
    theorem_3_3_holds: bool | None
    h_nu: float
    f_norm: float
    f_norm_exponent: float
    empirical_c: float | None
    assumption: AssumptionSweep
    element_condition: ElementConditionReport
    edge_condition: EdgeConditionReport | None
    levelset_profile: np.ndarray  # (n, 2) columns (k, measure)
    de_giorgi: DeGiorgiReport | None
    de_giorgi_hypothesis_failure: tuple | None
    zeroth_order: object
    params: DmpParams
    mesh_info: dict
    solve_info: dict

    @property
    def theorem_3_3_verdict(self) -> str:
        if not (all(self.theorem_3_3_applicable.values()) and self.assumption.satisfied):
            return "not-applicable"
        return "pass" if self.theorem_3_3_holds else "fail"

    @property
    def theorem_3_2_verdict(self) -> str:
        if not (self.assumption.satisfied and self.zeroth_order.condition_holds):
            return "not-applicable"
        if self.f_norm > 1e-300:
            return "pass"  # the generic constant is reported, not asserted
        return "pass" if self.sup_uh <= self.k_star + BOUND_TOL else "fail"

    @property
    def level_sets_verdict(self) -> str:
        measures = self.levelset_profile[:, 1]
        monotone = bool(np.all(np.diff(measures) <= 1e-12 * max(1.0, measures.max())))
        beyond = self.levelset_profile[:, 0] >= self.sup_uh
        vanished = bool(np.all(measures[beyond] == 0.0))
        return "pass" if monotone and vanished else "fail"

    @property
    def de_giorgi_verdict(self) -> str:
        if self.de_giorgi is None:
            return "not-applicable"
        return "pass" if self.de_giorgi.all_pass else "fail"

    def verdicts(self) -> dict:
        out = {
            "angles": "pass" if self.mesh_info["classification"] != "obtuse" else "fail",
            "element": "pass" if self.element_condition.all_pass else "fail",
            "edge": ("not-applicable" if self.edge_condition is None
                     else ("pass" if self.edge_condition.all_pass else "fail")),
            "assumption": "pass" if self.assumption.satisfied else "fail",
            "theorem_3_2": self.theorem_3_2_verdict,
            "theorem_3_3": self.theorem_3_3_verdict,
            "level_sets": self.level_sets_verdict,
            "de_giorgi": self.de_giorgi_verdict,
        }
        return out

    def to_dict(self) -> dict:
        de_giorgi = {"verdict": "not-applicable",
                     "hypothesis_failure": self.de_giorgi_hypothesis_failure}
        if self.de_giorgi is not None:
            de_giorgi = self.de_giorgi.to_dict()
        overshoot = max(self.sup_uh - self.k_star, 0.0)
        return {
            "k_star": self.k_star,
            "sup_uh": self.sup_uh,
            "theorem_3_2": {
                "verdict": self.theorem_3_2_verdict,
                "f_norm": self.f_norm,
                "f_norm_exponent": (None if math.isinf(self.f_norm_exponent)
                                    else self.f_norm_exponent),
                "empirical_c": self.empirical_c,
                "overshoot": overshoot,
                "zeroth_order": self.zeroth_order.to_dict(),
            },
            "theorem_3_3": {
                "verdict": self.theorem_3_3_verdict,
                "applicable": self.theorem_3_3_applicable,
                "h_nu": self.h_nu,
                "holds": self.theorem_3_3_holds,
                "bound_tol": BOUND_TOL,
            },
            "assumption_a": self.assumption.to_dict(),
            "element_condition": self.element_condition.to_dict(),
            "edge_condition": ({"verdict": "not-applicable"}
                               if self.edge_condition is None
                               else self.edge_condition.to_dict()),
            "level_sets": {
                "verdict": self.level_sets_verdict,
                "profile": self.levelset_profile.tolist(),
            },
            "de_giorgi": de_giorgi,
            "params": self.params.to_dict(),
            "mesh": self.mesh_info,
            "solve": self.solve_info,
        }


def _source_norm(mesh: Mesh, coeffs: CoefficientSet, exponent: float) -> float:
    if math.isinf(exponent):
        rule = quadrature_rule(mesh.dim, 4)
        xq = physical_points(mesh, rule)
        fvals = np.broadcast_to(np.asarray(coeffs.f(xq), float), xq.shape[:2])
        return float(np.abs(fvals).max())
    degree = max(4, int(math.ceil(exponent)) + 1)
    rule = quadrature_rule(mesh.dim, degree)
    xq = physical_points(mesh, rule)
    fvals = np.abs(np.broadcast_to(np.asarray(coeffs.f(xq), float), xq.shape[:2]))
    total = np.einsum("cq,q,c->", fvals ** exponent, rule.weights, mesh.cell_measures)
    return float(total ** (1.0 / exponent))


def _select_element_case(parts, coeffs: CoefficientSet) -> str:
    diffusion, advection, reaction = parts
    scale = max(1.0, float(np.abs(diffusion).max()))
    b_zero = float(np.abs(advection).max()) <= PAIR_TOL * scale
    c_zero = float(np.abs(reaction).max()) <= PAIR_TOL * scale
    if b_zero and c_zero:
        return "poisson-like"
    if b_zero and coeffs.c_mode in ("nonnegative", "identically-zero"):
        return "b-zero-c-nonneg"
    return "general-b"


def dmp_certificate(mesh: Mesh, solve_result: SolveResult, coeffs: CoefficientSet,
                    rule: QuadratureRule | None = None,
                    params: DmpParams | None = None,
                    element_case: str | None = None) -> DmpCertificate:
    """Run every verification pass on a converged solution and bundle the
    evidence.  Raises `NotConverged` for unconverged inputs."""
    if not solve_result.converged:
        raise NotConverged("refusing to certify an unconverged solve")
    params = params or DmpParams()
    params.check_for_dim(mesh.dim)
    if rule is None:
        rule = default_rule(mesh, coeffs)

    u_h = solve_result.u_h
    assignment = interpolate_boundary(mesh, coeffs.g)
    k_star = compute_k_star(mesh, assignment, coeffs.c_mode)
    sup_uh = u_h.max_value()

    # The (C, M, M) parts are shared by the sweep and the element and edge
    # checks, and dropped before the quadrature-point passes that follow.
    parts = local_form_parts(mesh, u_h, coeffs, rule)
    sweep = assumption_a_sweep(mesh, u_h, coeffs, rule, k_star, parts=parts)
    case = element_case or _select_element_case(parts, coeffs)
    element = element_condition_check(mesh, coeffs, rule, case=case,
                                      lambda_star=params.lambda_star, w=u_h,
                                      parts=parts)
    edge = None
    if mesh.dim == 2:
        edge = edge_condition_check_2d(mesh, coeffs, rule, w=u_h, parts=parts)
    del parts

    zeroth = check_zeroth_order_condition(mesh, u_h, coeffs, rule)

    xq = physical_points(mesh, rule)
    fvals = np.broadcast_to(np.asarray(coeffs.f(xq), float), xq.shape[:2])
    f_scale = max(1.0, float(np.abs(fvals).max()))
    f_nonpositive = bool(fvals.max() <= 1e-12 * f_scale)
    h_nu = float(mesh.h * coeffs.nu)
    applicable = {"f_nonpositive": f_nonpositive, "h_nu_below_one": h_nu < 1.0}
    flags_true = f_nonpositive and h_nu < 1.0
    holds = None
    if flags_true and sweep.satisfied:
        holds = bool(sup_uh <= k_star + BOUND_TOL)

    f_norm = _source_norm(mesh, coeffs, params.f_norm_exponent)
    overshoot = max(sup_uh - k_star, 0.0)
    empirical_c = overshoot / f_norm if f_norm > 1e-300 else None

    grid = np.unique(np.concatenate([[k_star], np.unique(u_h.nodal_values)]))
    profile = np.column_stack([grid, level_set_profile(mesh, u_h, grid)])

    dg_report = None
    dg_failure = None
    dg_samples = profile[profile[:, 0] >= k_star]
    if len(dg_samples) == 0:
        dg_samples = np.array([[k_star, 0.0]])
    alpha, beta = params.decay_alpha, params.decay_beta
    fitted = fit_decay_constant(dg_samples, alpha, beta, k_star)
    inp = DeGiorgiInput(M=max(fitted, 1e-30), alpha=alpha, beta=beta,
                        k0=k_star, samples=dg_samples)
    try:
        dg_report = de_giorgi_verify(inp)
    except HypothesisViolated as exc:
        dg_failure = exc.pair

    audit = acuteness_audit(mesh, params.alpha_exponent)
    mesh_info = {
        "dim": mesh.dim, "h": mesh.h, "num_cells": mesh.num_cells,
        "num_vertices": mesh.num_vertices,
        "max_angle": audit.max_angle, "min_angle": audit.min_angle,
        "classification": audit.classification,
        "gamma_fit": audit.gamma_fit,
    }

    return DmpCertificate(
        k_star=k_star, sup_uh=sup_uh,
        theorem_3_3_applicable=applicable, theorem_3_3_holds=holds, h_nu=h_nu,
        f_norm=f_norm, f_norm_exponent=params.f_norm_exponent,
        empirical_c=empirical_c,
        assumption=sweep, element_condition=element, edge_condition=edge,
        levelset_profile=profile,
        de_giorgi=dg_report, de_giorgi_hypothesis_failure=dg_failure,
        zeroth_order=zeroth, params=params, mesh_info=mesh_info,
        solve_info=solve_result.to_dict(),
    )
