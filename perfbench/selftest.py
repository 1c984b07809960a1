"""Self-test of the benchmark's checks: correct outputs pass, and outputs
with one interior nodal value shifted by 1e-6, one edge sum off its closed
form, or one verdict flipped are each reported as failed.

Runs at the start of every benchmark run on small meshes; also runnable on
its own: `python3 perfbench/selftest.py`.
"""
from __future__ import annotations

import copy
import dataclasses
import sys
import tempfile
from pathlib import Path

import program
import reference as ref
import workloads

SHIFT = 1e-6


def _expect_failure(label: str, problems: list) -> list:
    return [] if problems else [f"self-test: {label} was not reported as failed"]


def run(dm, workdir: Path) -> list:
    """Return the self-test's problems; empty means every check behaved."""
    params = workloads.Params(0)
    problems = []
    for n, mesh in ((6, dm.mesh.generate_structured_2d(6, 6)),
                    (3, dm.mesh.generate_structured_3d(3, 3, 3))):
        problems += ref.stencil_problems(mesh.vertices, mesh.cells, n)

    poisson = workloads.PoissonOvershoot2D(dm, params, workdir)
    n = 8
    out = poisson.run(n).out
    problems += [f"self-test: correct {poisson.name} output flagged: {p}"
                 for p in poisson.check(n, out)]

    mesh, result, cert = out["mesh"], out["result"], out["cert"]
    u = result.u_h.nodal_values.copy()
    u[int(ref.unit_box_boundary(mesh.vertices).argmin())] += SHIFT
    shifted = dict(out, result=dataclasses.replace(
        result, u_h=dm.p1.P1Field(mesh, u)))
    problems += _expect_failure("a shifted nodal value", poisson.check(n, shifted))

    edges = copy.deepcopy(cert.edge_condition.edges)
    edges[len(edges) // 2]["sum"] += SHIFT
    off_edge = dict(out, cert=dataclasses.replace(
        cert, edge_condition=dataclasses.replace(cert.edge_condition, edges=edges)))
    problems += _expect_failure("an edge sum off its closed form",
                                poisson.check(n, off_edge))

    flipped = dict(out, cert=dataclasses.replace(
        cert, element_condition=dataclasses.replace(cert.element_condition,
                                                    all_pass=False)))
    problems += _expect_failure("a flipped verdict", poisson.check(n, flipped))

    cli = workloads.CliKuhn3D(dm, params, workdir / "selftest")
    n = cli.warm_n
    out = cli.run(n).out
    problems += [f"self-test: correct {cli.name} output flagged: {p}"
                 for p in cli.check(n, out)]
    if "certificate" in out:
        certificate = copy.deepcopy(out["certificate"])
        certificate["element_condition"]["verdict"] = "fail"
        problems += _expect_failure("a flipped certificate.json verdict",
                                    cli.check(n, dict(out, certificate=certificate)))
    return problems


if __name__ == "__main__":
    package = program.load()
    with tempfile.TemporaryDirectory(dir=program.ROOT) as tmp:
        found = run(package, Path(tmp))
    for line in found:
        print(line)
    print("self-test: ok" if not found else f"self-test: {len(found)} problems")
    sys.exit(1 if found else 0)
