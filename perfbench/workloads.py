"""The three workloads: one operation takes one mesh of the ladder through
mesh -> coefficient validation + Picard solve -> DMP certificate.

`run(n)` calls the program and times its stages; `check(n, out)` compares
the outputs with the independent references of `reference.py`.  The program
is reached through module attributes looked up at call time, so the traced
run's wrappers see the benchmark's own calls too.
"""
from __future__ import annotations

import contextlib
import io
import json
import time
from pathlib import Path

import numpy as np

import calibration
import reference as ref

BENCH_DIR = Path(__file__).resolve().parent


class Params:
    """Everything a seed drives: the 2D source constants c and s and the
    `--seed` of the coefficient spot-check.

    c is a power of two, so u_h = c * u_1 bit for bit and every seed certifies
    the same level structure; other values break the rounding ties between
    symmetric nodes differently (2,884 to 3,197 distinct nodal values at 64^2
    over five seeds), which moves the level-dependent work by up to 23%.
    """

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.c = float(2.0 ** rng.integers(-1, 3))
        self.s = float(rng.uniform(0.0, 1.0))
        self.spot_seed = int(rng.integers(0, 2 ** 31))


class Outcome:
    """Stage times of one operation and the program outputs to check.

    `kernel` holds calibration samples taken before the first stage, between
    stages and after the last one, when the caller asked for them.
    """

    def __init__(self, nodes: int):
        self.nodes = nodes
        self.times = {}
        self.kernel = []
        self.out = {}
        self.counts = {"sweep_levels": 0, "level_set_levels": 0,
                       "de_giorgi_samples": 0, "bytes_written": 0}

    def scaled_times(self) -> dict:
        """Stage seconds at the reference speed, each scaled by the mean of
        the two calibration samples around it."""
        return {stage: calibration.scaled(t, 0.5 * (self.kernel[i] + self.kernel[i + 1]))
                for i, (stage, t) in enumerate(self.times.items())}


class _Stages:
    """Times consecutive stages into an Outcome, sampling the calibration
    kernel (if given) before the first stage and after each one."""

    def __init__(self, outcome: Outcome, calibrate):
        self.outcome = outcome
        self.calibrate = calibrate
        if calibrate:
            outcome.kernel.append(calibrate())

    @contextlib.contextmanager
    def stage(self, name: str):
        t0 = time.perf_counter()
        yield
        self.outcome.times[name] = time.perf_counter() - t0
        if self.calibrate:
            self.outcome.kernel.append(self.calibrate())


def _profile_counts(k_values, profile: np.ndarray, k_star: float) -> dict:
    return {"sweep_levels": len(k_values), "level_set_levels": len(profile),
            "de_giorgi_samples": int(np.count_nonzero(profile[:, 0] >= k_star))}


class _Library2D:
    """Shared 2D library route on the right-diagonal unit square, g = 0."""

    ladder = (32, 48, 64)
    warm_n = 4

    def __init__(self, dm, params: Params, workdir: Path):
        self.dm = dm
        self.params = params
        self._refs = {}

    def coefficients(self):
        raise NotImplementedError

    def run(self, n: int, calibrate=None) -> Outcome:
        dm = self.dm
        outcome = Outcome((n + 1) ** 2)
        stages = _Stages(outcome, calibrate)
        with stages.stage("mesh"):
            mesh = dm.mesh.generate_structured_2d(n, n)
        with stages.stage("solve"):
            coeffs = self.coefficients()
            dm.solver.validate_coefficients(coeffs, mesh, seed=self.params.spot_seed)
            result = dm.solver.picard_solve(mesh, coeffs)
        with stages.stage("certify"):
            cert = dm.dmp.dmp_certificate(mesh, result, coeffs)
        outcome.out = {"mesh": mesh, "result": result, "cert": cert}
        outcome.counts.update(_profile_counts(cert.assumption.k_values,
                                              cert.levelset_profile, cert.k_star))
        return outcome

    def reference(self, mesh, n: int):
        """(full stiffness, Dirichlet-zero reference solution), cached per n."""
        if n not in self._refs:
            stiffness = ref.p1_stiffness(mesh.vertices, mesh.cells)
            load = ref.p1_load(mesh.vertices, mesh.cells, *self.load_terms())
            self._refs[n] = stiffness, ref.dirichlet_zero_solve(
                stiffness, load, ref.unit_box_boundary(mesh.vertices))
        return self._refs[n]


class PoissonOvershoot2D(_Library2D):
    """poisson, f = +c, g = 0: u_h overshoots k* = 0 everywhere inside."""

    name = "poisson-overshoot-2d"
    expected = ref.all_pass_except(theorem_3_3="not-applicable")

    def coefficients(self):
        f = self.dm.expressions.point_function(repr(self.params.c), 2)
        return self.dm.solver.poisson(f=f, g=0.0)

    def load_terms(self):
        return self.params.c, 0.0

    def check(self, n: int, out: dict) -> list:
        mesh, cert = out["mesh"], out["cert"]
        u = out["result"].u_h.nodal_values
        stiffness, w = self.reference(mesh, n)
        sweep = cert.assumption
        return (ref.check_mesh_counts(mesh.vertices, mesh.cells, n)
                + ref.check_nodal(u, w)
                + ref.check_edges(cert.edge_condition.edges, mesh.vertices, mesh.cells, n)
                + ref.check_sweep(sweep.k_values, sweep.q_values, sweep.min_value,
                                  u, stiffness)
                + ref.check_level_sets(cert.levelset_profile, u, mesh.vertices, mesh.cells)
                + ref.check_verdicts(cert.verdicts(), self.expected))


class QuasilinearSink2D(_Library2D):
    """quasilinear_a, f = -(1 + s x y), g = 0: several Picard passes, u_h <= 0."""

    name = "quasilinear-sink-2d"
    expected = ref.all_pass_except()

    def coefficients(self):
        f = self.dm.expressions.point_function(f"-(1 + {self.params.s!r}*x*y)", 2)
        return self.dm.solver.quasilinear_a(f=f, g=0.0)

    def load_terms(self):
        return -1.0, -self.params.s

    def check(self, n: int, out: dict) -> list:
        mesh, result, cert = out["mesh"], out["result"], out["cert"]
        u = result.u_h.nodal_values
        _, w = self.reference(mesh, n)
        problems = (ref.check_mesh_counts(mesh.vertices, mesh.cells, n)
                    + ref.check_kirchhoff(u, w, n)
                    + ref.check_upper_bound(u, 0.0)
                    + ref.check_verdicts(cert.verdicts(), self.expected))
        if result.picard_iterations < 2:
            problems.append(f"only {result.picard_iterations} Picard passes applied")
        return problems


class CliKuhn3D:
    """`dmpfem mesh-gen --cube` -> `solve --coeffs` -> `dmp-check --solution`,
    run in-process through `dmpfem.cli.main`, quasilinear a, f = 1, g = 0."""

    name = "cli-kuhn-3d"
    ladder = (8, 12, 16)
    warm_n = 2
    coeffs_file = BENCH_DIR / "quasilinear_3d.json"
    expected = ref.all_pass_except(edge="not-applicable", theorem_3_3="not-applicable")

    def __init__(self, dm, params: Params, workdir: Path):
        self.dm = dm
        self.params = params
        self.workdir = workdir
        self._refs = {}

    def _main(self, argv: list) -> tuple:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.dm.cli.main([str(a) for a in argv])
        return code, err.getvalue()

    def run(self, n: int, calibrate=None) -> Outcome:
        outcome = Outcome((n + 1) ** 3)
        stages = _Stages(outcome, calibrate)
        d = self.workdir / f"cube{n}"
        d.mkdir(parents=True, exist_ok=True)
        mesh_json = d / "mesh.json"
        seed = ["--seed", self.params.spot_seed]
        commands = {
            "mesh": ["mesh-gen", "--cube", f"{n}x{n}x{n}", "-o", mesh_json],
            "solve": ["solve", "--mesh", mesh_json, "--coeffs", self.coeffs_file,
                      "-o", d] + seed,
            "certify": ["dmp-check", "--mesh", mesh_json, "--coeffs", self.coeffs_file,
                        "--solution", d / "solution.csv",
                        "--solve-result", d / "solve.json", "-o", d] + seed,
        }
        codes = {}
        for stage, argv in commands.items():
            with stages.stage(stage):
                codes[stage] = self._main(argv)
            if codes[stage][0] != 0:
                break
        outcome.out = {"dir": d, "codes": codes}
        outcome.counts["bytes_written"] = sum(p.stat().st_size for p in d.iterdir())
        if all(code == 0 for code, _ in codes.values()) and len(codes) == 3:
            outcome.out.update(self.read_outputs(d))
            cert = outcome.out["certificate"]
            outcome.counts.update(_profile_counts(
                cert["assumption_a"]["k_values"], np.asarray(cert["level_sets"]["profile"]),
                cert["k_star"]))
        return outcome

    @staticmethod
    def read_outputs(d: Path) -> dict:
        """Parse the files the CLI wrote, without dmpfem."""
        with open(d / "mesh.json", encoding="utf-8") as fp:
            mesh = json.load(fp)
        with open(d / "solve.json", encoding="utf-8") as fp:
            solve = json.load(fp)
        with open(d / "certificate.json", encoding="utf-8") as fp:
            certificate = json.load(fp)
        with open(d / "solution.csv", encoding="utf-8") as fp:
            header = fp.readline().strip().split(",")
            table = np.loadtxt(fp, delimiter=",", ndmin=2)
        return {"vertices": np.asarray(mesh["vertices"], dtype=float),
                "cells": np.asarray(mesh["cells"], dtype=np.int64),
                "solve": solve, "certificate": certificate,
                "csv_header": header, "csv": table}

    def check(self, n: int, out: dict) -> list:
        bad = [f"{stage} exited {code}: {err.strip()[-300:]}"
               for stage, (code, err) in out["codes"].items() if code != 0]
        if bad or len(out["codes"]) != 3:
            return bad or ["a command did not run"]
        vertices, cells = out["vertices"], out["cells"]
        problems = ref.check_mesh_counts(vertices, cells, n)
        if out["csv_header"] != ["node_index", "x", "y", "z", "value"]:
            return problems + [f"solution.csv header {out['csv_header']}"]
        table = out["csv"]
        index = table[:, 0].astype(np.int64)
        if len(index) != len(vertices) or np.any(np.sort(index) != np.arange(len(vertices))):
            return problems + ["solution.csv does not list every node once"]
        if np.abs(table[:, 1:4] - vertices[index]).max() > 1e-12:
            problems.append("solution.csv coordinates differ from mesh.json")
        u = np.empty(len(vertices))
        u[index] = table[:, 4]
        problems += ref.check_kirchhoff(u, self.reference(vertices, cells, n), n)
        if out["solve"].get("converged") is not True:
            problems.append("solve.json does not report convergence")
        problems += ref.check_verdicts(ref.verdicts_from_json(out["certificate"]),
                                       self.expected)
        return problems

    def reference(self, vertices, cells, n: int) -> np.ndarray:
        if n not in self._refs:
            stiffness = ref.p1_stiffness(vertices, cells)
            load = ref.p1_load(vertices, cells, 1.0)
            self._refs[n] = ref.dirichlet_zero_solve(stiffness, load,
                                                     ref.unit_box_boundary(vertices))
        return self._refs[n]


WORKLOADS = {w.name: w for w in (PoissonOvershoot2D, QuasilinearSink2D, CliKuhn3D)}

