"""Batch command line: mesh generation, solving, certification, reporting.

Subcommands: `mesh-gen`, `solve`, `dmp-check`, `report`.  Exit codes: 0 ok,
1 usage or I/O problem, 2 fixed-point divergence, 3 linear-solver divergence,
4 a requested certificate verdict failed.  Identical inputs and seed produce
byte-identical output files.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass, field

import numpy as np

from . import expressions
from .dmp import DmpParams, dmp_certificate
from .errors import DmpFemError, InvalidParameters, LinearSolveDiverged, PicardDiverged
from .mesh import (
    Mesh,
    acuteness_audit,
    generate_structured_2d,
    generate_structured_3d,
    load_mesh,
    read_json_object,
    save_mesh,
    write_vtk,
)
from .p1 import field_from_csv, field_to_csv
from .solver import (
    CoefficientSet,
    SolveOptions,
    SolveResult,
    advection_diffusion,
    picard_solve,
    poisson,
    quasilinear_a,
    validate_coefficients,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PICARD = 2
EXIT_LINEAR = 3
EXIT_VERDICT = 4

ALL_CHECKS = ("angles", "element", "edge", "assumption", "bounds", "degiorgi")


class _Parser(argparse.ArgumentParser):
    """Argument parser that exits with the documented usage code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


@dataclass
class RunConfig:
    """Reproducibility record embedded in every output file."""

    command: str
    mesh_source: str
    problem: dict = field(default_factory=dict)
    solver_options: dict = field(default_factory=dict)
    dmp_params: dict = field(default_factory=dict)
    seed: int = 0

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "mesh_source": self.mesh_source,
            "problem": self.problem,
            "solver_options": self.solver_options,
            "dmp_params": self.dmp_params,
            "seed": self.seed,
        }


def _json_default(obj):
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _write_json(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(payload, fp, sort_keys=True, indent=1, default=_json_default)
        fp.write("\n")


def _parse_grid(spec: str, want: int) -> tuple:
    parts = spec.lower().split("x")
    if len(parts) != want or not all(p.isdigit() and int(p) >= 1 for p in parts):
        raise DmpFemError(f"bad grid spec {spec!r}; expected e.g. "
                          + "x".join(["8"] * want))
    return tuple(int(p) for p in parts)


# -- problem construction ------------------------------------------------------

def _add_problem_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("problem")
    group.add_argument("--problem", choices=["poisson", "advection-diffusion",
                                             "quasilinear-a"], default=None,
                       help="built-in coefficient preset")
    group.add_argument("--coeffs", default=None,
                       help="JSON file with coefficient formulas")
    group.add_argument("--f", dest="f_expr", default="-1",
                       help="source formula over coordinates (default -1)")
    group.add_argument("--g", dest="g_expr", default="0",
                       help="boundary data formula over coordinates (default 0)")
    group.add_argument("--b", dest="b_const", default="1,0",
                       help="constant drift components for advection-diffusion")
    group.add_argument("--c0", type=float, default=0.0,
                       help="constant reaction for advection-diffusion")


def _coeffs_from_file(path: str, dim: int) -> CoefficientSet:
    spec = read_json_object(path, "coefficient file")
    required = ("a", "b", "c", "f", "g", "lambda", "Lambda", "nu", "c_mode")
    missing = [key for key in required if key not in spec]
    if missing:
        raise DmpFemError(f"coefficient file {path} lacks keys {missing}")
    a_src, c_src = str(spec["a"]), str(spec["c"])
    b_src = [str(s) for s in spec["b"]]
    constant = not any(
        expressions.uses_state(s) or expressions.uses_coordinates(s)
        for s in [a_src, c_src] + b_src)
    div_b = None
    if spec.get("div_b") is not None:
        div_b = expressions.state_function(str(spec["div_b"]), dim)
    return CoefficientSet(
        a=expressions.state_function(a_src, dim),
        b=expressions.vector_state_function(b_src, dim),
        c=expressions.state_function(c_src, dim, with_gradient=False),
        f=expressions.point_function(str(spec["f"]), dim),
        g=expressions.point_function(str(spec["g"]), dim),
        lam=float(spec["lambda"]), Lam=float(spec["Lambda"]), nu=float(spec["nu"]),
        c_mode=str(spec["c_mode"]), div_b=div_b,
        constant_coefficients=bool(spec.get("constant_coefficients", constant)),
    )


def _build_coefficients(args, dim: int) -> tuple:
    """Return (CoefficientSet, problem-record dict)."""
    f = expressions.point_function(args.f_expr, dim)
    g = expressions.point_function(args.g_expr, dim)
    if args.coeffs:
        coeffs = _coeffs_from_file(args.coeffs, dim)
        return coeffs, {"coeffs_file": args.coeffs}
    preset = args.problem or "poisson"
    record = {"preset": preset, "f": args.f_expr, "g": args.g_expr}
    if preset == "poisson":
        return poisson(f=f, g=g), record
    if preset == "advection-diffusion":
        b = [float(s) for s in args.b_const.split(",")]
        if len(b) != dim:
            raise DmpFemError(f"--b needs {dim} components, got {len(b)}")
        record.update({"b": b, "c0": args.c0})
        return advection_diffusion(b, f=f, g=g, c0=args.c0), record
    return quasilinear_a(f=f, g=g), record


def _solver_options(args) -> SolveOptions:
    return SolveOptions(
        picard_max_iter=args.picard_max_iter,
        picard_tol=args.picard_tol,
        linear_tol=args.linear_tol,
        damping=args.damping,
    )


def _add_solver_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("solver")
    group.add_argument("--picard-max-iter", type=int, default=100)
    group.add_argument("--picard-tol", type=float, default=1e-10)
    group.add_argument("--linear-tol", type=float, default=1e-12,
                       help="each sparse LU solve must reach a relative residual "
                            "of at most 10x this (default 1e-12)")
    group.add_argument("--damping", type=float, default=1.0)


def _add_dmp_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("certificate")
    group.add_argument("--p", type=float, default=4.0)
    group.add_argument("--r", type=float, default=2.0)
    group.add_argument("--lambda-star", type=float, default=None)
    group.add_argument("--alpha-exponent", type=float, default=0.0)


# -- subcommands ----------------------------------------------------------------

def cmd_mesh_gen(args) -> int:
    if bool(args.square) == bool(args.cube):
        raise DmpFemError("give exactly one of --square or --cube")
    if args.square:
        nx, ny = _parse_grid(args.square, 2)
        mesh = generate_structured_2d(nx, ny, pattern=args.pattern, skew=args.skew)
    else:
        nx, ny, nz = _parse_grid(args.cube, 3)
        mesh = generate_structured_3d(nx, ny, nz)
    save_mesh(mesh, args.output)
    if args.vtk:
        write_vtk(args.vtk, mesh)
    audit = acuteness_audit(mesh, args.alpha_exponent)
    print(f"mesh: dim={mesh.dim} vertices={mesh.num_vertices} "
          f"cells={mesh.num_cells} h={mesh.h:.6g}")
    print(f"angle audit: classification={audit.classification} "
          f"max_angle={audit.max_angle:.6g} min_angle={audit.min_angle:.6g} "
          f"gamma_fit={audit.gamma_fit:.6g} (alpha={args.alpha_exponent})")
    print(f"wrote {args.output}")
    return EXIT_OK


def _run_solve(mesh: Mesh, args, config: RunConfig):
    coeffs, record = _build_coefficients(args, mesh.dim)
    config.problem = record
    opts = _solver_options(args)
    config.solver_options = asdict(opts)
    validate_coefficients(coeffs, mesh, seed=config.seed)
    result = picard_solve(mesh, coeffs, opts)
    return coeffs, result


def _write_solution(outdir: str, mesh: Mesh, result: SolveResult,
                    config: RunConfig) -> None:
    os.makedirs(outdir, exist_ok=True)
    field_to_csv(result.u_h, os.path.join(outdir, "solution.csv"))
    write_vtk(os.path.join(outdir, "solution.vtk"), mesh,
              point_data={"u": result.u_h.nodal_values}, title="dmpfem solution")
    payload = result.to_dict()
    payload["run"] = config.to_dict()
    _write_json(os.path.join(outdir, "solve.json"), payload)


def cmd_solve(args) -> int:
    mesh = load_mesh(args.mesh)
    config = RunConfig(command="solve", mesh_source=args.mesh, seed=args.seed)
    _, result = _run_solve(mesh, args, config)
    _write_solution(args.output_dir, mesh, result, config)
    print(f"converged in {result.picard_iterations} iterations "
          f"(update {result.final_update_norm:.3e}, "
          f"linear residual {result.final_linear_residual:.3e})")
    print(f"wrote {args.output_dir}/solution.csv, solution.vtk, solve.json")
    return EXIT_OK


def _gated_verdicts(verdicts: dict, checks: list) -> dict:
    gate = {
        "angles": [verdicts["angles"]],
        "element": [verdicts["element"]],
        "edge": [verdicts["edge"]],
        "assumption": [verdicts["assumption"]],
        "bounds": [verdicts["theorem_3_2"], verdicts["theorem_3_3"]],
        "degiorgi": [verdicts["de_giorgi"]],
    }
    return {name: gate[name] for name in checks}


# JSON types accepted for the convergence record of `dmp-check --solve-result`.
_SOLVE_INFO_TYPES = {"picard_iterations": (int,), "final_update_norm": (int, float),
                     "final_linear_residual": (int, float), "converged": (bool,)}


def cmd_dmp_check(args) -> int:
    mesh = load_mesh(args.mesh)
    checks = [c.strip() for c in args.checks.split(",") if c.strip()]
    for c in checks:
        if c not in ALL_CHECKS:
            raise DmpFemError(f"unknown check {c!r}; choose from {ALL_CHECKS}")
    config = RunConfig(command="dmp-check", mesh_source=args.mesh, seed=args.seed)
    params = DmpParams(p=args.p, r=args.r, lambda_star=args.lambda_star,
                       alpha_exponent=args.alpha_exponent)
    config.dmp_params = params.to_dict()

    if bool(args.solution) == bool(args.solve):
        raise DmpFemError("give exactly one of --solution or --solve")
    if args.solve:
        coeffs, result = _run_solve(mesh, args, config)
        _write_solution(args.output_dir, mesh, result, config)
    else:
        coeffs, record = _build_coefficients(args, mesh.dim)
        config.problem = record
        u_h = field_from_csv(mesh, args.solution)
        solve_info = {"source": args.solution, "converged": True,
                      "picard_iterations": -1, "final_update_norm": float("nan"),
                      "final_linear_residual": float("nan")}
        if args.solve_result:
            solve_info.update(read_json_object(args.solve_result, "solve result"))
            for key, types in _SOLVE_INFO_TYPES.items():
                if type(solve_info[key]) not in types:
                    raise InvalidParameters(
                        f"solve result {args.solve_result}: {key} must be "
                        f"{' or '.join(t.__name__ for t in types)}, "
                        f"got {solve_info[key]!r}")
        result = SolveResult(
            u_h=u_h,
            picard_iterations=solve_info["picard_iterations"],
            final_update_norm=float(solve_info["final_update_norm"]),
            final_linear_residual=float(solve_info["final_linear_residual"]),
            converged=solve_info["converged"],
        )

    cert = dmp_certificate(mesh, result, coeffs, params=params)
    payload = cert.to_dict()
    payload["run"] = config.to_dict()
    payload["checks_requested"] = checks
    os.makedirs(args.output_dir, exist_ok=True)
    _write_json(os.path.join(args.output_dir, "certificate.json"), payload)
    with open(os.path.join(args.output_dir, "level_sets.csv"), "w",
              encoding="utf-8") as fp:
        fp.write("k,measure\n")
        for k, measure in cert.levelset_profile:
            fp.write(f"{k:.17g},{measure:.17g}\n")

    gated = _gated_verdicts(cert.verdicts(), checks)
    failed = sorted(name for name, vs in gated.items() if "fail" in vs)
    for name in checks:
        print(f"check {name}: {'/'.join(gated[name])}")
    print(f"wrote {args.output_dir}/certificate.json, level_sets.csv")
    if failed:
        print(f"failed checks: {', '.join(failed)}", file=sys.stderr)
        return EXIT_VERDICT
    return EXIT_OK


def cmd_report(args) -> int:
    rows = []
    for path in args.certificates:
        try:
            cert = read_json_object(path, "certificate")
            verdicts = {
                "angles": "pass" if cert["mesh"]["classification"] != "obtuse"
                else "fail",
                "element": cert["element_condition"]["verdict"],
                "edge": cert["edge_condition"]["verdict"],
                "assumption": cert["assumption_a"]["verdict"],
                "thm3.2": cert["theorem_3_2"]["verdict"],
                "thm3.3": cert["theorem_3_3"]["verdict"],
            }
            rows.append({
                "path": path,
                "h": float(cert["mesh"]["h"]),
                "max_angle": float(cert["mesh"]["max_angle"]),
                "k_star": float(cert["k_star"]),
                "sup_uh": float(cert["sup_uh"]),
                "assumption_min": float(cert["assumption_a"]["min_value"]),
                "empirical_c": cert["theorem_3_2"]["empirical_c"],
                "verdicts": verdicts,
            })
        except (OSError, KeyError, TypeError, ValueError, DmpFemError) as exc:
            print(f"cannot read certificate {path}: {exc}", file=sys.stderr)
            return EXIT_USAGE
    rows.sort(key=lambda r: r["h"])

    header = (f"{'h':>10} {'max_angle':>10} {'k_star':>12} {'sup_uh':>12} "
              f"{'assume_min':>12}  verdicts")
    print(header)
    print("-" * len(header))
    for row in rows:
        verd = ",".join(f"{k}={v}" for k, v in row["verdicts"].items())
        print(f"{row['h']:>10.4g} {row['max_angle']:>10.6g} {row['k_star']:>12.5g} "
              f"{row['sup_uh']:>12.5g} {row['assumption_min']:>12.4g}  {verd}")

    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fp:
            fp.write("h,empirical_c\n")
            for row in rows:
                c = row["empirical_c"]
                fp.write(f"{row['h']:.17g},{'' if c is None else format(c, '.17g')}\n")
        print(f"wrote {args.csv}")
    return EXIT_OK


# -- entry point -----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dmpfem",
                     description="P1 elliptic solver with maximum-principle "
                                 "certificates")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    gen = sub.add_parser("mesh-gen", help="generate a structured mesh")
    gen.add_argument("--square", default=None, metavar="NXxNY")
    gen.add_argument("--cube", default=None, metavar="NXxNYxNZ")
    gen.add_argument("--pattern", choices=["right-diagonal", "crisscross"],
                     default="right-diagonal")
    gen.add_argument("--skew", type=float, default=0.0)
    gen.add_argument("--alpha-exponent", type=float, default=0.0)
    gen.add_argument("-o", "--output", required=True)
    gen.add_argument("--vtk", default=None)
    gen.set_defaults(func=cmd_mesh_gen)

    solve = sub.add_parser("solve", help="solve a problem on a mesh file")
    solve.add_argument("--mesh", required=True)
    solve.add_argument("-o", "--output-dir", default=".")
    solve.add_argument("--seed", type=int, default=0)
    _add_problem_args(solve)
    _add_solver_args(solve)
    solve.set_defaults(func=cmd_solve)

    check = sub.add_parser("dmp-check", help="certify maximum principles")
    check.add_argument("--mesh", required=True)
    check.add_argument("--solution", default=None,
                       help="solution CSV produced by `solve`")
    check.add_argument("--solve-result", default=None,
                       help="solve.json with convergence info for --solution")
    check.add_argument("--solve", action="store_true",
                       help="solve inline instead of reading a solution")
    check.add_argument("--checks", default=",".join(ALL_CHECKS))
    check.add_argument("-o", "--output-dir", default=".")
    check.add_argument("--seed", type=int, default=0)
    _add_problem_args(check)
    _add_solver_args(check)
    _add_dmp_args(check)
    check.set_defaults(func=cmd_dmp_check)

    report = sub.add_parser("report", help="summarize certificate files")
    report.add_argument("certificates", nargs="+")
    report.add_argument("--csv", default=None,
                        help="write h vs empirical constant CSV")
    report.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except PicardDiverged as exc:
        print(f"picard iteration diverged: {exc}", file=sys.stderr)
        return EXIT_PICARD
    except LinearSolveDiverged as exc:
        print(f"linear solver diverged: {exc}", file=sys.stderr)
        return EXIT_LINEAR
    except DmpFemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
