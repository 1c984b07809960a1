"""P1 finite elements for quasi-linear elliptic Dirichlet problems, with
verifiable discrete-maximum-principle certificates."""

from .dmp import (
    AssumptionSweep,
    DeGiorgiInput,
    DeGiorgiReport,
    DmpCertificate,
    DmpParams,
    assumption_a_sweep,
    compute_k_star,
    de_giorgi_rho,
    de_giorgi_verify,
    dmp_certificate,
    edge_condition_check_2d,
    element_condition_check,
    fit_decay_constant,
    level_set_profile,
)
from .mesh import (
    AngleReport,
    InteriorEdges,
    Mesh,
    acuteness_audit,
    build_mesh,
    generate_structured_2d,
    generate_structured_3d,
    interior_edges_2d,
    load_mesh,
    save_mesh,
    write_vtk,
)
from .p1 import (
    P1Field,
    QuadratureRule,
    cut_minus,
    cut_plus,
    discrete_lp,
    field_from_csv,
    field_to_csv,
    integrate,
    interpolate,
    lp_norm,
    quadrature_rule,
)
from .solver import (
    CoefficientSet,
    SolveOptions,
    SolveResult,
    SparseSystem,
    advection_diffusion,
    apply_dirichlet,
    assemble_q,
    backward_error,
    check_zeroth_order_condition,
    galerkin_residual,
    interpolate_boundary,
    linear_solve,
    picard_solve,
    poisson,
    q_apply,
    quasilinear_a,
    validate_coefficients,
)

__version__ = "0.1.0"
