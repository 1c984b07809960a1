"""Batch command line: mesh generation, solving, certification, reporting.

Subcommands: `mesh-gen`, `solve`, `dmp-check`, `report`.  Exit codes: 0 ok,
1 usage or I/O problem, 2 fixed-point divergence, 3 linear-solver divergence,
4 a requested certificate verdict failed.  Identical inputs and seed produce
byte-identical output files.
"""
from __future__ import annotations

import argparse
import functools
import json
import operator
import os
import sys
from dataclasses import asdict, dataclass, field, fields

from . import expressions
from .dmp import DmpParams, dmp_certificate, require_cut_threshold, require_interior_nodes
from .errors import DmpFemError, InvalidParameters, LinearSolveDiverged, PicardDiverged
from .mesh import (
    Mesh,
    acuteness_audit,
    generate_structured_2d,
    generate_structured_3d,
    json_value,
    load_mesh,
    read_json_object,
    save_mesh,
    write_rows,
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

# each `--checks` name and the certificate verdicts it gates
CHECKS = {"angles": ("angles",), "element": ("element",), "edge": ("edge",),
          "assumption": ("assumption",), "bounds": ("theorem_3_2", "theorem_3_3"),
          "degiorgi": ("de_giorgi",)}


class _Parser(argparse.ArgumentParser):
    """Argument parser that exits with the documented usage code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


@dataclass
class RunConfig:
    """Reproducibility record embedded in every output file.  `seed` is
    recorded modulo 2**64, the seed the coefficient spot-check draws from."""

    command: str
    mesh_source: str
    problem: dict = field(default_factory=dict)
    solver_options: dict = field(default_factory=dict)
    dmp_params: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        self.seed %= 2 ** 64


def _write_json(path, payload: dict) -> None:
    """Write `payload` as strict JSON: a NaN or infinity raises `DmpFemError`."""
    try:
        text = json.dumps(payload, sort_keys=True, indent=1, allow_nan=False)
    except ValueError as exc:
        raise DmpFemError(f"cannot write {path}: {exc}") from exc
    with open(path, "w", encoding="utf-8") as fp:
        fp.write(text + "\n")


def _parse_grid(spec: str, want: int) -> tuple:
    parts = spec.lower().split("x")
    if len(parts) != want or not all(p.isdigit() and int(p) >= 1 for p in parts):
        raise DmpFemError(f"bad grid spec {spec!r}; expected e.g. "
                          + "x".join(["8"] * want))
    return tuple(int(p) for p in parts)


# -- problem construction ------------------------------------------------------

# the problem flags and the values they stand for when not given; argparse
# leaves them unset then, so that a flag the run would not use can be refused
_PROBLEM_DEFAULTS = {"problem": "poisson", "f": "-1", "g": "0", "b": "1,0", "c0": 0.0}


def _add_problem_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("problem", argument_default=argparse.SUPPRESS)
    group.add_argument("--problem", choices=["poisson", "advection-diffusion",
                                             "quasilinear-a"],
                       help="built-in coefficient preset (default poisson)")
    group.add_argument("--coeffs", default=None,
                       help="JSON file with coefficient formulas")
    group.add_argument("--f", help="source formula over coordinates (default -1)")
    group.add_argument("--g", help="boundary data formula over coordinates (default 0)")
    group.add_argument("--b", help="constant drift components for advection-diffusion "
                                   "(default 1,0)")
    group.add_argument("--c0", type=float,
                       help="constant reaction for advection-diffusion (default 0)")


def _json_strings(value) -> list:
    if not isinstance(value, list):
        raise TypeError(f"expected a JSON array, got {value!r}")
    return [str(s) for s in value]


def _coeffs_from_file(path: str, dim: int) -> CoefficientSet:
    spec = read_json_object(path, "coefficient file")
    required = ("a", "b", "c", "f", "g", "lambda", "Lambda", "nu", "c_mode")
    missing = [key for key in required if key not in spec]
    if missing:
        raise DmpFemError(f"coefficient file {path} lacks keys {missing}")
    source = f"coefficient file {path}"
    a = expressions.state_function(str(spec["a"]), dim)
    b = expressions.vector_state_function(json_value(spec, "b", _json_strings, source), dim)
    c = expressions.state_function(str(spec["c"]), dim, with_gradient=False)
    div_b = None
    if spec.get("div_b") is not None:
        div_b = expressions.state_function(str(spec["div_b"]), dim)
    return CoefficientSet(
        a=a, b=b, c=c,
        f=expressions.point_function(str(spec["f"]), dim),
        g=expressions.point_function(str(spec["g"]), dim),
        lam=json_value(spec, "lambda", float, source),
        Lam=json_value(spec, "Lambda", float, source), nu=json_value(spec, "nu", float, source),
        c_mode=str(spec["c_mode"]), div_b=div_b,
        constant_coefficients=not (a.variables or b.variables or c.variables),
    )


def _build_coefficients(args, dim: int) -> tuple:
    """Return (CoefficientSet, problem-record dict).  A problem flag that the
    run would not use is an error, not silently ignored."""
    given = [f"--{name}" for name in _PROBLEM_DEFAULTS if name in vars(args)]
    if args.coeffs:
        if given:
            raise DmpFemError(f"--coeffs takes the whole problem from its file; "
                              f"{', '.join(given)} would be ignored")
        return _coeffs_from_file(args.coeffs, dim), {"coeffs_file": args.coeffs}
    problem = {**_PROBLEM_DEFAULTS, **vars(args)}
    preset = problem["problem"]
    unused = [flag for flag in given if flag in ("--b", "--c0")]
    if unused and preset != "advection-diffusion":
        raise DmpFemError(f"{', '.join(unused)} only apply to --problem "
                          f"advection-diffusion, not {preset}")
    f = expressions.point_function(problem["f"], dim)
    g = expressions.point_function(problem["g"], dim)
    record = {"preset": preset, "f": problem["f"], "g": problem["g"]}
    if preset == "poisson":
        return poisson(f=f, g=g), record
    if preset == "advection-diffusion":
        try:
            b = [float(s) for s in problem["b"].split(",")]
        except ValueError as exc:
            raise InvalidParameters(f"--b needs numbers, got {problem['b']!r}") from exc
        if len(b) != dim:
            raise DmpFemError(f"--b needs {dim} components, got {len(b)}")
        record.update({"b": b, "c0": problem["c0"]})
        return advection_diffusion(b, f=f, g=g, c0=problem["c0"]), record
    return quasilinear_a(f=f, g=g), record


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _given_solver_options(args) -> dict:
    """The `SolveOptions` fields given as flags.  argparse leaves a solver flag
    unset when it is not given, so that `dmp-check --solution`, which runs no
    solve, can refuse it."""
    return {f.name: getattr(args, f.name) for f in fields(SolveOptions) if f.name in vars(args)}


def _add_solver_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("solver", argument_default=argparse.SUPPRESS)
    group.add_argument("--picard-max-iter", type=int)
    group.add_argument("--picard-tol", type=float)
    group.add_argument("--linear-tol", type=float,
                       help="bound on the componentwise backward error of every linear "
                            "solve; a Picard pass refined with an earlier LU factor that "
                            f"misses it refactors (default {SolveOptions.linear_tol})")
    group.add_argument("--damping", type=float)


def _add_dmp_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("certificate")
    for f in fields(DmpParams):
        group.add_argument(_flag(f.name), type=float, default=f.default)


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
    audit = acuteness_audit(mesh)
    save_mesh(mesh, args.output)
    if args.vtk:
        write_vtk(args.vtk, mesh)
    print(f"mesh: dim={mesh.dim} vertices={mesh.num_vertices} "
          f"cells={mesh.num_cells} h={mesh.h:.6g}")
    print(f"angle audit: classification={audit.classification} "
          f"max_angle={audit.max_angle:.6g} min_angle={audit.min_angle:.6g}")
    print(f"wrote {args.output}")
    return EXIT_OK


def _problem(mesh: Mesh, args, config: RunConfig) -> CoefficientSet:
    """Build, record and spot-check the problem of a `solve` or `dmp-check` run."""
    coeffs, config.problem = _build_coefficients(args, mesh.dim)
    validate_coefficients(coeffs, mesh, seed=config.seed)
    return coeffs


def _run_solve(mesh: Mesh, coeffs: CoefficientSet, args, config: RunConfig) -> SolveResult:
    opts = SolveOptions(**_given_solver_options(args))
    config.solver_options = asdict(opts)
    return picard_solve(mesh, coeffs, opts)


def _write_solution(outdir: str, mesh: Mesh, result: SolveResult,
                    config: RunConfig) -> None:
    os.makedirs(outdir, exist_ok=True)
    field_to_csv(result.u_h, os.path.join(outdir, "solution.csv"))
    write_vtk(os.path.join(outdir, "solution.vtk"), mesh,
              point_data={"u": result.u_h.nodal_values}, title="dmpfem solution")
    payload = result.to_dict()
    payload["run"] = asdict(config)
    _write_json(os.path.join(outdir, "solve.json"), payload)


def cmd_solve(args) -> int:
    mesh = load_mesh(args.mesh)
    require_interior_nodes(mesh, f"mesh {args.mesh}")
    config = RunConfig(command="solve", mesh_source=args.mesh, seed=args.seed)
    result = _run_solve(mesh, _problem(mesh, args, config), args, config)
    _write_solution(args.output_dir, mesh, result, config)
    print(f"converged in {result.picard_iterations} iterations "
          f"(update {result.final_update_norm:.3e}, "
          f"linear backward error {result.final_linear_residual:.3e})")
    print(f"wrote {args.output_dir}/solution.csv, solution.vtk, solve.json")
    return EXIT_OK


# The convergence record of `dmp-check --solution`: each key, the JSON types
# `--solve-result` may give it and its value when the record leaves it out or
# none is given (-1: unknown count, None: unknown norm).
_SOLVE_INFO = {"converged": ((bool,), True), "picard_iterations": ((int,), -1),
               "final_update_norm": ((int, float), None),
               "final_linear_residual": ((int, float), None),
               "factorizations": ((int,), -1), "refinement_steps": ((int,), -1)}


def _read_solution(mesh: Mesh, args) -> SolveResult:
    u_h = field_from_csv(mesh, args.solution)
    record = read_json_object(args.solve_result, "solve result") if args.solve_result else {}
    info = {}
    for key, (types, default) in _SOLVE_INFO.items():
        value = record.get(key, default)
        if key in record and type(value) not in types:
            raise InvalidParameters(
                f"solve result {args.solve_result}: {key} must be "
                f"{' or '.join(t.__name__ for t in types)}, got {value!r}")
        # the two norms may be JSON integers; the result holds them as floats
        info[key] = float(value) if float in types and key in record else value
    return SolveResult(u_h=u_h, **info)


def cmd_dmp_check(args) -> int:
    mesh = load_mesh(args.mesh)
    require_interior_nodes(mesh, f"mesh {args.mesh}")
    checks = [c.strip() for c in args.checks.split(",") if c.strip()]
    for c in checks or [""]:  # a value naming no check is refused too
        if c not in CHECKS:
            raise DmpFemError(f"unknown check {c!r}; choose from {tuple(CHECKS)}")
    config = RunConfig(command="dmp-check", mesh_source=args.mesh, seed=args.seed)
    params = DmpParams(**{f.name: getattr(args, f.name) for f in fields(DmpParams)})
    config.dmp_params = params.to_dict()

    if bool(args.solution) == bool(args.solve):
        raise DmpFemError("give exactly one of --solution or --solve")
    if args.solve:
        route = "--solve solves the problem itself"
        unused = [] if args.solve_result is None else ["--solve-result"]
    else:
        route = "--solution reads a solved field"
        unused = [_flag(name) for name in _given_solver_options(args)]
    if unused:
        raise DmpFemError(f"{route}; {', '.join(unused)} would be ignored")
    coeffs = _problem(mesh, args, config)
    require_cut_threshold(coeffs.c_mode)
    if args.solve:
        result = _run_solve(mesh, coeffs, args, config)
        _write_solution(args.output_dir, mesh, result, config)
    else:
        result = _read_solution(mesh, args)

    cert = dmp_certificate(mesh, result, coeffs, params=params)
    payload = cert.to_dict()
    payload["run"] = asdict(config)
    payload["checks_requested"] = checks
    os.makedirs(args.output_dir, exist_ok=True)
    _write_json(os.path.join(args.output_dir, "certificate.json"), payload)
    with open(os.path.join(args.output_dir, "level_sets.csv"), "w",
              encoding="utf-8") as fp:
        fp.write("k,measure\n")
        write_rows(fp, "%.17g,%.17g\n", cert.levelset_profile)

    verdicts = cert.verdicts()
    gated = {name: [verdicts[v] for v in CHECKS[name]] for name in checks}
    failed = sorted(name for name, vs in gated.items() if "fail" in vs)
    for name in checks:
        print(f"check {name}: {'/'.join(gated[name])}")
    print(f"wrote {args.output_dir}/certificate.json, level_sets.csv")
    if failed:
        print(f"failed checks: {', '.join(failed)}", file=sys.stderr)
        return EXIT_VERDICT
    return EXIT_OK


# the numeric columns of `report` and their paths in certificate.json
_REPORT_NUMBERS = {"h": ("mesh", "h"), "max_angle": ("mesh", "max_angle"),
                   "k_star": ("k_star",), "sup_uh": ("sup_uh",),
                   "assumption_min": ("assumption_a", "min_value")}
# the verdict columns of `report` but `angles`, and the records holding them
_REPORT_VERDICTS = {"element": "element_condition", "edge": "edge_condition",
                    "assumption": "assumption_a", "thm3.2": "theorem_3_2", "thm3.3": "theorem_3_3"}


def _report_entry(cert: dict, path: tuple, choices=None):
    """The value at `path`: one of `choices`, or else a JSON int or float, not a bool."""
    value = functools.reduce(operator.getitem, path, cert)
    if choices and value not in choices:
        raise ValueError(f"{'.'.join(path)} must be one of {choices}, got {value!r}")
    if not choices and type(value) not in (int, float):
        raise ValueError(f"{'.'.join(path)} must be a number, got {value!r}")
    return value if choices else float(value)


def cmd_report(args) -> int:
    rows = []
    for path in args.certificates:
        try:
            cert = read_json_object(path, "certificate")
            empirical_c = cert["theorem_3_2"]["empirical_c"]
            if empirical_c is not None and type(empirical_c) not in (int, float):
                raise ValueError(f"empirical_c must be a number or null, got {empirical_c!r}")
            classification = _report_entry(cert, ("mesh", "classification"),
                                           ("acute", "non-obtuse", "obtuse"))
            verdicts = {"angles": "fail" if classification == "obtuse" else "pass", **{
                key: _report_entry(cert, (record, "verdict"), ("pass", "fail", "not-applicable"))
                for key, record in _REPORT_VERDICTS.items()}}
            rows.append({"path": path, "empirical_c": empirical_c, "verdicts": verdicts,
                         **{key: _report_entry(cert, keys)
                            for key, keys in _REPORT_NUMBERS.items()}})
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
    check.add_argument("--checks", default=",".join(CHECKS))
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


def _attach_values(argv: list) -> list:
    """Join `--f VALUE`, `--g VALUE` and `--b VALUE` into `--flag=VALUE`:
    argparse reads a value that begins with a minus sign and is not a plain
    number, such as `-1-x*y` or `-1,0`, as an unknown option.  A following
    `--flag` is not joined, so a flag without a value is still an error."""
    out = []
    for arg in argv:
        if out and out[-1] in ("--f", "--g", "--b") and arg.startswith("-") \
                and not arg.startswith("--"):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_attach_values(sys.argv[1:] if argv is None else argv))
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
