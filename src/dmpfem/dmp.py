"""Maximum-principle verification for solved piecewise-linear fields.

Everything here is a checker, not a solver: cut-level sweeps of the global
variational inequality, per-cell and per-edge geometric sufficient conditions,
solution-bound certificates with machine-readable verdicts, level-set measures
and the iteration-lemma utilities that tie them together.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    HypothesisViolated,
    InvalidParameters,
    NotConverged,
    UnsupportedCMode,
)
from .mesh import Mesh, acuteness_audit, interior_edges_2d, json_record, row_norms
from .p1 import (
    P1Field,
    QuadratureRule,
    gradient_table,
    norm_degree,
    physical_points,
    quadrature_rule,
    scaled_lp,
)
from .solver import (
    CoefficientSet,
    SolveResult,
    assemble_matrix,
    cell_blocks,
    check_zeroth_order_condition,
    coefficient_values,
    default_rule,
    interpolate_boundary,
    local_form_parts,
    nonzero_parts,
    point_values,
    state_samples,
)

SIGN_TOL = 1e-10  # slack below 0 of the sweep's scale-free ratio q / T
PAIR_TOL = 1e-12  # relative slack for per-pair / per-edge integral verdicts
BOUND_TOL = 1e-9  # slack for nodal solution bounds, relative to max(|k*|, max |u_h|)
_BLOCK_TERMS = 1 << 18  # (row, column) table entries evaluated at once
# Rounding can hide a row maximum from the bisection of `_row_maxima` by a few
# ulps per depth; rows within this slack (relative to the magnitude of the
# summed logarithms) of the deciding value are rescanned exactly.
_ROW_SLACK = 1e-9

MAX_FAILURE_RECORDS = 50  # failing element pairs listed in a report
MAX_EDGE_RECORDS = 200  # edge records written by `EdgeConditionReport.to_dict`
TAU_MAX = 40  # steps of the De Giorgi ladder k0 + rho - rho / 2^tau
DECAY_SLACK = 1e-9  # relative slack of the ladder's geometric decay and tail bounds
HYPOTHESIS_SLACK = 1e-12  # relative slack of the decay hypothesis
# c_mode values with a cut threshold k*: those of a nonnegative c
CUT_C_MODES = ("nonnegative", "identically-zero")


@dataclass(frozen=True)
class DmpParams:
    """Exponents steering the bound certificates.

    `p` is the integrability exponent (p > 2, and p < 2d/(d-2) in 3D), `r`
    trades between source integrability and decay speed (1 <= r < p - 1).
    An r so close to p - 1 that the lemma's decay ratio overflows a float is
    refused.
    """

    p: float = 4.0
    r: float = 2.0

    def __post_init__(self):
        if not 2 < self.p < math.inf:
            raise InvalidParameters("need finite p > 2")
        if not 1 <= self.r < self.p - 1:
            raise InvalidParameters("need 1 <= r < p - 1")
        if _decay_ratio(self.decay_alpha, self.decay_beta) == math.inf:
            raise InvalidParameters(
                f"r={self.r} is too close to p - 1: the decay ratio "
                f"2^(p/(beta - 1)), beta = (p - 1)/r, overflows a float")

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
        return json_record(self, q=self.q, s=_finite_or_none(self.s),
                           f_norm_exponent=_finite_or_none(self.f_norm_exponent))


def _decay_ratio(alpha: float, beta: float) -> float:
    """The iteration lemma's per-step decay factor 2^(alpha/(beta - 1)),
    beta > 1; inf where it, or the factor 2^(beta/(beta - 1)) of
    `de_giorgi_rho`, overflows a float."""
    try:
        if 2.0 ** (beta / (beta - 1.0)) < math.inf:
            return 2.0 ** (alpha / (beta - 1.0))
    except OverflowError:
        pass
    return math.inf


def _finite_or_none(value: float) -> float | None:
    return None if math.isinf(value) else value


def require_cut_threshold(c_mode: str) -> None:
    """Raise `UnsupportedCMode` unless c_mode is one of `CUT_C_MODES`."""
    if c_mode not in CUT_C_MODES:
        raise UnsupportedCMode(f"no cut threshold defined for c_mode={c_mode!r}")


def compute_k_star(boundary_values: np.ndarray, c_mode: str) -> float:
    """Cut threshold from the `interpolate_boundary` values.

    For a piecewise-linear boundary interpolant the supremum over the boundary
    is attained at boundary vertices, so a nodal max suffices: the first
    largest value, so a -0.0 ahead of a 0.0 is kept.  With a nonnegative
    zeroth-order coefficient the threshold is clipped at zero.
    """
    require_cut_threshold(c_mode)
    values = np.asarray(boundary_values, dtype=float)
    if not len(values):
        raise InvalidParameters("mesh has no boundary nodes")
    top = float(values[np.argmax(values)])
    return max(top, 0.0) if c_mode == "nonnegative" else top


@dataclass(frozen=True)
class AssumptionSweep:
    """Values of the form applied to the cut pair, over cut levels >= k*.

    Between consecutive grid levels the same matrix entries straddle every
    cut level k, so there the form is one quadratic
    q(k) = C0 - k C1 + k^2 C2.  The grid holds the threshold, every distinct
    nodal value above it and the vertex of each convex piece (C2 > 0) that
    lies strictly inside its interval; any other piece is smallest at an end,
    so `min_value` is the minimum of q over every real k >= k*.  `min_ratio`
    is the minimum over the grid of q(k) / T(k), with
    T(k) = sum |a_ij| (u_i - k)(k - u_j) >= |q(k)| over the same entries
    (0 where T vanishes); the verdict rests on it, so scaling u_h leaves it
    unchanged.
    """

    k_values: np.ndarray
    q_values: np.ndarray
    min_value: float
    min_ratio: float
    satisfied: bool
    scale: float

    def to_dict(self) -> dict:
        return json_record(self, "satisfied")


def _cut_level_grid(u_h: P1Field, k_star: float) -> np.ndarray:
    """The threshold and every distinct nodal value above it, increasing."""
    values = u_h.nodal_values
    return np.unique(np.concatenate([[k_star], values[values > k_star]]))


def _poly_abs(coef: np.ndarray, x: np.ndarray) -> np.ndarray:
    """coef[0] + x coef[1] + x^2 coef[2], elementwise, for x >= 0."""
    return coef[0] + x * (coef[1] + x * coef[2])


def assumption_a_sweep(u_h: P1Field, matrix, k_star: float = 0.0) -> AssumptionSweep:
    """Evaluate the cut-pair form value at every decisive cut level >= k_star.

    A nonzero matrix entry a_ij with u_i > u_j couples the cut pair exactly
    on the levels u_j < k < u_i, where it adds (u_i - k) * a_ij * (u_j - k).
    On each grid interval the entries straddling it give the three
    coefficients of q, each one prefix sum over the entries' interval ranges,
    so the pass costs O(nnz + levels) after the sort.  A level whose value
    lies within the rounding bound of those sums is recomputed from its
    terms, each with its exact sign, so every reported sign is that of the
    summed terms.  `matrix` is the assembled form.
    """
    matrix = matrix.tocoo()
    grid = _cut_level_grid(u_h, k_star)
    n = len(grid)
    u = u_h.nodal_values
    u_i, u_j = u[matrix.row], u[matrix.col]
    keep = (u_i > u_j) & (matrix.data != 0.0)
    u_i, u_j, a_ij = u_i[keep], u_j[keep], matrix.data[keep]
    # an entry straddles every level of the intervals [grid[p], grid[p+1]]
    # with lo <= p < hi; "interval" n - 1, above the top level, stays empty
    lo = np.searchsorted(grid, u_j, side="left")
    hi = np.searchsorted(grid, u_i, side="right") - 1
    live = lo < hi
    u_i, u_j, a_ij, lo, hi = u_i[live], u_j[live], a_ij[live], lo[live], hi[live]

    # Coefficients in t = k - c about the centre c of the grid: on interval p
    # q = C0 - t C1 + t^2 C2 and T = -(E0 - t E1 + t^2 E2), the E with |a_ij|.
    # Rows 0-5 of `enter` and `leave` hold the leaves of C and E, rows 6, 7
    # and 5 the magnitudes of the leaves of C.
    c = 0.5 * (grid[0] + grid[-1])
    v_i, v_j, a_abs = u_i - c, u_j - c, np.abs(a_ij)
    leaves = (a_ij * (v_i * v_j), a_ij * (v_i + v_j), a_ij,
              a_abs * (v_i * v_j), a_abs * (v_i + v_j), a_abs,
              np.abs(a_ij * (v_i * v_j)), a_abs * (np.abs(v_i) + np.abs(v_j)))
    enter = np.array([np.bincount(lo, w, n) for w in leaves])
    leave = np.array([np.bincount(hi, w, n) for w in leaves])
    # Each interval takes its sums as prefix sums from below or as suffix
    # sums from above, whichever carries the smaller rounding bound.  The
    # bound is first order, doubled: each leaf term (within 4u), each
    # bincount addition (count u times the leaves' sum) and each cumsum
    # addition (u times the partial sum) on the way to the interval.
    step = enter[:6] - leave[:6]
    below = np.cumsum(step, axis=1)
    above = np.zeros_like(below)
    above[:, :-1] = -np.cumsum(step[:, :0:-1], axis=1)[:, ::-1]
    churn = (np.bincount(lo, minlength=n) + np.bincount(hi, minlength=n) + 4.0) \
        * (enter[[6, 7, 5]] + leave[[6, 7, 5]])
    err_below = np.cumsum(np.abs(below[:3]) + churn, axis=1)
    churn[:, :-1], churn[:, -1] = churn[:, 1:], 0.0
    err_above = np.cumsum((np.abs(above[:3]) + churn)[:, ::-1], axis=1)[:, ::-1]
    dist = np.abs(grid - c)
    pick = _poly_abs(err_above, dist) < _poly_abs(err_below, dist)
    c0, c1, c2, e0, e1, e2 = np.where(pick, above, below)
    err = np.where(pick, err_above, err_below)

    # the vertex of each convex piece strictly inside its interval
    with np.errstate(divide="ignore", invalid="ignore"):
        k_vertex = c + c1[:-1] / (2.0 * c2[:-1])
    convex = (c2[:-1] > 0.0) & (grid[:-1] < k_vertex) & (k_vertex < grid[1:])
    k_values = np.concatenate([grid, k_vertex[convex]])
    piece = np.concatenate([np.arange(n), np.flatnonzero(convex)])
    order = np.argsort(k_values, kind="stable")
    k_values, piece = k_values[order], piece[order]

    t = k_values - c
    q_values = c0[piece] - t * (c1[piece] - t * c2[piece])
    t_values = -(e0[piece] - t * (e1[piece] - t * e2[piece]))
    bound = 4.0 * np.finfo(float).eps * _poly_abs(err[:, piece], np.abs(t))
    for r in np.flatnonzero((np.abs(q_values) <= bound) & (bound > 0.0)):
        on = (lo <= piece[r]) & (piece[r] < hi)
        k = k_values[r]
        q_values[r] = math.fsum((u_i[on] - k) * (a_ij[on] * (u_j[on] - k)))
        t_values[r] = math.fsum((u_i[on] - k) * (a_abs[on] * (k - u_j[on])))

    # T >= |q| holds exactly; the max keeps rounding from breaking it
    den = np.maximum(t_values, np.abs(q_values))
    ratio = np.divide(q_values, den, out=np.zeros_like(q_values), where=den > 0.0)
    min_ratio = float(ratio.min())
    return AssumptionSweep(k_values=k_values, q_values=q_values,
                           min_value=float(q_values.min()), min_ratio=min_ratio,
                           satisfied=min_ratio >= -SIGN_TOL,
                           scale=max(1.0, float(np.abs(q_values).max())))


def cell_scales(parts) -> np.ndarray:
    """Largest entry of |diffusion| + |advection| + |reaction| in each cell of
    the `local_form_parts`.  Only the `nonzero_parts` are added: |entry| + 0.0
    is |entry|, so the scales keep their bits."""
    diffusion, *lower = nonzero_parts(parts)
    total = np.abs(diffusion)
    for part in lower:
        total += np.abs(part)
    total = total.reshape(len(total), -1)
    return functools.reduce(np.maximum, (total[:, k] for k in range(total.shape[1])))


@dataclass(frozen=True)
class ElementConditionReport:
    """Per-cell, per-ordered-pair sign verdicts of the element integrals.

    A full pass makes every assembled off-diagonal entry nonpositive, so the
    global cut-pair inequality holds for every piecewise-linear field, not
    just the solved one.
    """

    all_pass: bool
    min_margin: float
    num_pairs: int
    num_failing_pairs: int = field(metadata={"json": "num_failures"})
    failures: list  # the first MAX_FAILURE_RECORDS failing pairs

    def to_dict(self) -> dict:
        return json_record(self, "all_pass")


def element_condition_check(mesh: Mesh, parts, *, _scales=None) -> ElementConditionReport:
    """Check the sign of the per-pair element integrals.

    For each cell and ordered vertex pair (i, j) with i != j the quantity

        D_ij = -integral( a grad_i . grad_j + b . grad_i  shape_j
                          + c shape_i shape_j )

    must be nonnegative, within `PAIR_TOL` times the cell's largest local
    entry.  Every assembled off-diagonal entry A_ij is then <= 0, so the
    cut-pair form sum_{i != j} (u_i - k)+ A_ij (u_j - k)- is nonnegative at
    every level k for every field.  `min_margin` is the smallest
    D_ij / (|grad_i||grad_j||T|), for the unit Laplacian the cosine of the
    largest (in 3D dihedral) angle.  `parts` are the `local_form_parts` of
    the form, of which only the `nonzero_parts` are read, and `_scales` their
    `cell_scales` when the caller already holds them.
    """
    m = mesh.dim + 1
    # The d(d+1) ordered pairs i != j in row-major order.  local_form_parts
    # stores [cell, test, trial] and the pair quantity carries the gradient on
    # i, so pair (i, j) reads entry [cell, j, i].
    i, j = np.nonzero(~np.eye(m, dtype=bool))
    d_pair = functools.reduce(np.add, (part.reshape(len(part), -1)[:, j * m + i]
                                       for part in nonzero_parts(parts)))
    # + 0.0 stands for the skipped zero parts; it can only turn a -0.0 sum
    # into +0.0, which no verdict, margin or record tells apart
    d_pair += 0.0
    np.negative(d_pair, out=d_pair)
    scales = cell_scales(parts) if _scales is None else _scales
    # relative to each cell's own entries, so a scaled form keeps its verdicts
    bad = np.argwhere(~(d_pair >= -PAIR_TOL * scales[:, None]))
    gnorm = row_norms(gradient_table(mesh))
    margin = d_pair / (gnorm[:, i] * gnorm[:, j] * mesh.cell_measures[:, None])
    failures = [{"cell": int(cell), "i": int(i[p]), "j": int(j[p]),
                 "d_value": float(d_pair[cell, p])}
                for cell, p in bad[:MAX_FAILURE_RECORDS]]
    return ElementConditionReport(
        all_pass=not len(bad),
        min_margin=float(margin.min()) + 0.0,  # a zero minimum reads +0.0
        num_pairs=d_pair.size,
        num_failing_pairs=len(bad),
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

    def to_dict(self) -> dict:
        return json_record(self, "all_pass", edges=self.edges[:MAX_EDGE_RECORDS])


def _is_unit_poisson(mesh: Mesh, coeffs: CoefficientSet) -> bool:
    """Whether the coefficients are declared constant and give a = 1, b = 0,
    c = 0 at every vertex: the unit Laplacian."""
    if not coeffs.constant_coefficients:
        return False
    x = mesh.vertices
    eta, p = np.zeros(len(x)), np.zeros_like(x)
    a, b, c = coefficient_values(coeffs, x, eta, p)
    return bool(np.abs(a - 1.0).max() <= 1e-13 and np.abs(b).max() <= 1e-14
                and np.abs(c).max() <= 1e-14)


def edge_condition_check_2d(mesh: Mesh, coeffs: CoefficientSet, scales,
                            matrix) -> EdgeConditionReport:
    """Check nonpositivity of the two-cell integral sum over each interior edge.

    The two cells' entries with trial function m and test function n sum to
    the assembled entry A[n, m] (the reversed sum is A[m, n]), from +0.0 in
    cell order, so two -0.0 entries add up to +0.0.  For the unit Laplacian
    the sum has the closed form -(cot alpha + cot beta)/2 =
    -sin(alpha+beta)/(2 sin alpha sin beta) in the two opposite angles, which
    is nonpositive exactly when alpha + beta <= pi; it is evaluated from the
    apex-vector cotangents.  When `_is_unit_poisson` holds the identity is
    verified to rounding as a cross-check of the assembled integrals.
    `scales` are the `cell_scales` of the form's `local_form_parts` and
    `matrix` their `assemble_matrix`.
    """
    if mesh.dim != 2:
        raise DimensionMismatch("edge-based verification is 2D only")
    poisson_identity = _is_unit_poisson(mesh, coeffs)

    edges = interior_edges_2d(mesh)
    m_nodes, n_nodes = edges.nodes.T
    s_fwd = np.asarray(matrix[n_nodes, m_nodes]).ravel()
    s_rev = np.asarray(matrix[m_nodes, n_nodes]).ravel()
    scale = scales[edges.cells].max(axis=1)
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
            m_nodes.tolist(), n_nodes.tolist(), s_fwd.tolist(), s_rev.tolist(),
            closed.tolist(), (alpha + beta).tolist(), passed.tolist())]
    return EdgeConditionReport(
        all_pass=bool(passed.all()),
        max_sum=float(max(s_fwd.max(), s_rev.max())) if records else 0.0,
        num_edges=len(records),
        edges=records,
        poisson_identity_checked=poisson_identity,
        identity_max_error=identity_err,
    )


# -- level sets ----------------------------------------------------------------

def level_set_profile(mesh: Mesh, u_h: P1Field, k_values) -> np.ndarray:
    """Level-set measures over a grid of cut levels: suffix sums of the cell
    measures sorted by nodal maximum, exactly non-increasing in the level."""
    k_values = np.asarray(k_values, dtype=float)
    values = u_h.nodal_values
    cell_max = functools.reduce(np.maximum, (values[mesh.cells[:, m]]
                                             for m in range(mesh.dim + 1)))
    order = np.argsort(cell_max, kind="stable")
    tail = np.append(np.cumsum(mesh.cell_measures[order][::-1])[::-1], 0.0)
    return tail[np.searchsorted(cell_max[order], k_values, side="right")]


# -- iteration lemma -----------------------------------------------------------

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


def _decay_bound(gap, logphi_k, alpha: float, beta: float, log_m: float):
    """Elementwise log of the largest phi(s), s = k + gap, that the decay
    hypothesis phi(s) <= (M/gap)^alpha phi(k)^beta allows with relative slack
    `HYPOTHESIS_SLACK`, from log phi(k) (-inf where phi(k) = 0)."""
    return alpha * (log_m - np.log(gap)) + beta * logphi_k + math.log1p(HYPOTHESIS_SLACK)


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
        if _decay_ratio(self.alpha, self.beta) == math.inf:
            raise InvalidParameters(f"beta={self.beta} is too close to 1: the decay "
                                    f"ratio 2^(alpha/(beta - 1)) overflows a float")
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
        return json_record(self, "all_pass", rho_convention=RHO_CONVENTION)


def _first_violation(levels: np.ndarray, logphi: np.ndarray, alpha: float,
                     beta: float, log_m: float):
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
        return _decay_bound(levels[b] - levels[a], logphi[a], alpha, beta, log_m)

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


def de_giorgi_verify(inp: DeGiorgiInput) -> DeGiorgiReport:
    """Check the iteration lemma's hypothesis and conclusions on the samples.

    Verifies (a) the decay hypothesis on every sampled level pair above k0 and
    on the geometric ladder k0 + rho - rho/2^tau, tau <= `TAU_MAX`, with rho
    from `de_giorgi_rho`, (b) the decay bound phi(k0) / ratio^tau at each
    ladder level, and (c) that phi(k0 + rho) is within the bound at `TAU_MAX`.
    Raises `HypothesisViolated` if (a) fails, since the conclusions are then
    unsupported.
    """
    rho = de_giorgi_rho(inp)
    ks = inp.samples[:, 0]
    grid = ks[ks >= inp.k0]
    if len(grid) == 0 or grid[0] > inp.k0:
        grid = np.concatenate([[inp.k0], grid])
    log_m = math.log(inp.M)
    # every pair k < s of the increasing grid; report the first in row order
    failure = _first_violation(grid, _log_phi(inp.phi(grid)), inp.alpha, inp.beta, log_m)
    if failure is not None:
        ai, bi = failure
        raise HypothesisViolated(
            f"decay hypothesis fails for levels ({grid[ai]:.6g}, "
            f"{grid[bi]:.6g})", pair=(float(grid[ai]), float(grid[bi])))

    taus = np.arange(TAU_MAX + 1)
    ladder = inp.k0 + rho - rho / 2.0 ** taus
    # phi at k0, at the ladder levels and at k0 + rho, in one evaluation
    values = inp.phi(np.concatenate([[inp.k0], ladder, [inp.k0 + rho]]))
    logphi = _log_phi(values)
    step = np.diff(ladder) > 0.0  # a step collapsed by rounding is skipped
    bad = step & (logphi[2:-1] > _decay_bound(
        np.where(step, np.diff(ladder), 1.0), logphi[1:-2], inp.alpha, inp.beta, log_m))
    if bad.any():
        t = int(np.argmax(bad))
        raise HypothesisViolated(
            f"decay hypothesis fails on the ladder pair tau={t}",
            pair=(float(ladder[t]), float(ladder[t + 1])))

    ratio = _decay_ratio(inp.alpha, inp.beta)
    # -inf where phi(k0) = 0, so that any positive value fails
    bound = logphi[0] - np.append(taus, TAU_MAX) * math.log(ratio) + math.log1p(DECAY_SLACK)
    over = logphi[1:] > bound
    decay_ok = not over[:-1].any()
    return DeGiorgiReport(rho=rho, decay_ratio=ratio, hypothesis_ok=True, decay_ok=decay_ok,
                          first_decay_failure=None if decay_ok else int(np.argmax(over)),
                          tail_ok=not over[-1], tail_value=float(values[-1]),
                          tau_max=TAU_MAX)


# -- certificate ---------------------------------------------------------------

@dataclass(frozen=True)
class DmpCertificate:
    """Bundle of every maximum-principle verdict for one solved problem."""

    k_star: float
    sup_uh: float
    bound_tol: float  # absolute slack of sup u_h <= k*
    theorem_3_3_applicable: dict
    theorem_3_3_holds: bool | None
    h_nu: float
    f_norm: float
    empirical_c: float | None
    assumption: AssumptionSweep
    element_condition: ElementConditionReport
    edge_condition: EdgeConditionReport | None
    levelset_profile: np.ndarray  # (n, 2) columns (k, measure)
    de_giorgi: DeGiorgiReport
    zeroth_order: object
    params: DmpParams
    mesh_info: dict
    solve_info: dict

    @property
    def theorem_3_3_verdict(self) -> str:
        if self.theorem_3_3_holds is None:
            return "not-applicable"
        return "pass" if self.theorem_3_3_holds else "fail"

    @property
    def theorem_3_2_verdict(self) -> str:
        if not (self.assumption.satisfied and self.zeroth_order.condition_holds):
            return "not-applicable"
        if self.f_norm > 0.0:
            return "pass"  # the generic constant is reported, not asserted
        return "pass" if self.sup_uh <= self.k_star + self.bound_tol else "fail"

    @property
    def level_sets_verdict(self) -> str:
        measures = self.levelset_profile[:, 1]
        monotone = bool(np.all(np.diff(measures) <= 1e-12 * max(1.0, measures.max())))
        beyond = self.levelset_profile[:, 0] >= self.sup_uh
        vanished = bool(np.all(measures[beyond] == 0.0))
        return "pass" if monotone and vanished else "fail"

    @property
    def de_giorgi_verdict(self) -> str:
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
        overshoot = max(self.sup_uh - self.k_star, 0.0)
        params = self.params.to_dict()
        return {
            "k_star": self.k_star,
            "sup_uh": self.sup_uh,
            "theorem_3_2": {
                "verdict": self.theorem_3_2_verdict,
                "f_norm": self.f_norm,
                "f_norm_exponent": params["f_norm_exponent"],
                "empirical_c": self.empirical_c,
                "overshoot": overshoot,
                "zeroth_order": self.zeroth_order.to_dict(),
            },
            "theorem_3_3": {
                "verdict": self.theorem_3_3_verdict,
                "applicable": self.theorem_3_3_applicable,
                "h_nu": self.h_nu,
                "holds": self.theorem_3_3_holds,
                "bound_tol": self.bound_tol,
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
            "de_giorgi": self.de_giorgi.to_dict(),
            "params": params,
            "mesh": self.mesh_info,
            "solve": self.solve_info,
        }


def _source_norm(mesh: Mesh, coeffs: CoefficientSet, exponent: float,
                 rule: QuadratureRule, fvals: np.ndarray) -> float:
    """L^exponent norm of f by quadrature (the maximum over the degree-4
    points for an infinite exponent), through `scaled_lp`.  The rule has
    degree `norm_degree(exponent)`.  `fvals` are f at the points of `rule`,
    reused when the norm's rule is that one; any other rule is evaluated one
    `cell_blocks` slice at a time."""
    norm_rule = quadrature_rule(mesh.dim, 4 if math.isinf(exponent) else norm_degree(exponent))
    if norm_rule is not rule:
        fvals = np.empty((mesh.num_cells, len(norm_rule.weights)))
        for cells in cell_blocks(*fvals.shape):
            fvals[cells] = point_values("f", coeffs.f, physical_points(mesh, norm_rule, cells))
    return scaled_lp(fvals, exponent, lambda v: np.einsum(
        "cq,q,c->", v, norm_rule.weights, mesh.cell_measures))


def require_interior_nodes(mesh: Mesh, name: str = "mesh") -> None:
    """Raise `InvalidParameters` when every node is a boundary node, so that
    the Dirichlet data fix u_h and no check has a free node to test."""
    if len(mesh.boundary_nodes) == mesh.num_vertices:
        raise InvalidParameters(f"{name} has no interior nodes")


def dmp_certificate(mesh: Mesh, solve_result: SolveResult, coeffs: CoefficientSet,
                    params: DmpParams | None = None) -> DmpCertificate:
    """Run every verification pass on a converged solution and bundle the
    evidence.  The form at u_h is assembled through the result's `layout`
    when u_h lives on this very mesh object, and through a new `assembly_map`
    otherwise.  Raises `NotConverged` for unconverged inputs, `InvalidParameters`
    for a mesh without interior nodes, and `HypothesisViolated` if the fitted
    De Giorgi constant fails its own hypothesis (an internal inconsistency)."""
    if not solve_result.converged:
        raise NotConverged("refusing to certify an unconverged solve")
    require_interior_nodes(mesh)
    params = params or DmpParams()
    params.check_for_dim(mesh.dim)
    rule = default_rule(mesh, coeffs)

    u_h = solve_result.u_h
    k_star = compute_k_star(interpolate_boundary(mesh, coeffs.g), coeffs.c_mode)
    sup_uh = u_h.max_value()
    bound_tol = BOUND_TOL * max(abs(k_star), float(np.abs(u_h.nodal_values).max()))

    # One sampling of u_h at the quadrature points serves the zeroth-order
    # check, the sign and norm of f and the form parts.  The points are
    # dropped before the sweep and the element and edge checks, which share
    # the (C, M, M) parts and their cell scales.
    samples = state_samples(u_h, rule, physical_points(mesh, rule))
    zeroth = check_zeroth_order_condition(mesh, u_h, coeffs, _samples=samples)
    points = samples[0]
    fvals = point_values("f", coeffs.f, points)
    f_nonpositive = bool(fvals.max() <= 1e-12 * float(np.abs(fvals).max()))
    h_nu = float(mesh.h * coeffs.nu)
    applicable = {"f_nonpositive": f_nonpositive, "h_nu_below_one": h_nu < 1.0}
    f_norm = _source_norm(mesh, coeffs, params.f_norm_exponent, rule, fvals)
    del fvals, points
    parts = local_form_parts(mesh, u_h, coeffs, rule, _samples=samples)
    del samples

    # one assembly serves the sweep and the edge check; the element check
    # runs first, so the parts are freed before the edge check builds its
    # per-edge records
    layout = solve_result.layout if u_h.mesh is mesh else None
    matrix = assemble_matrix(mesh, parts, layout)
    sweep = assumption_a_sweep(u_h, matrix, k_star)
    scales = cell_scales(parts)
    element = element_condition_check(mesh, parts, _scales=scales)
    del parts
    edge = None
    if mesh.dim == 2:
        edge = edge_condition_check_2d(mesh, coeffs, scales, matrix)
    del matrix, scales

    holds = None
    if f_nonpositive and h_nu < 1.0 and sweep.satisfied:
        holds = bool(sup_uh <= k_star + bound_tol)

    overshoot = max(sup_uh - k_star, 0.0)
    empirical_c = overshoot / f_norm if f_norm > 0.0 else None

    grid = np.unique(np.concatenate([[k_star], np.unique(u_h.nodal_values)]))
    profile = np.column_stack([grid, level_set_profile(mesh, u_h, grid)])

    dg_samples = profile[profile[:, 0] >= k_star]
    alpha, beta = params.decay_alpha, params.decay_beta
    fitted = fit_decay_constant(dg_samples, alpha, beta, k_star)
    inp = DeGiorgiInput(M=max(fitted, 1e-30), alpha=alpha, beta=beta,
                        k0=k_star, samples=dg_samples)
    dg_report = de_giorgi_verify(inp)

    audit = acuteness_audit(mesh)
    mesh_info = {
        "dim": mesh.dim, "h": mesh.h, "num_cells": mesh.num_cells,
        "num_vertices": mesh.num_vertices,
        "max_angle": audit.max_angle, "min_angle": audit.min_angle,
        "classification": audit.classification,
    }

    return DmpCertificate(
        k_star=k_star, sup_uh=sup_uh, bound_tol=bound_tol,
        theorem_3_3_applicable=applicable, theorem_3_3_holds=holds, h_nu=h_nu,
        f_norm=f_norm,
        empirical_c=empirical_c,
        assumption=sweep, element_condition=element, edge_condition=edge,
        levelset_profile=profile,
        de_giorgi=dg_report,
        zeroth_order=zeroth, params=params, mesh_info=mesh_info,
        solve_info=solve_result.to_dict(),
    )
