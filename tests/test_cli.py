import json
import math
from dataclasses import fields

import numpy as np
import pytest

import dmpfem.dmp
from dmpfem import cli, expressions, solver
from dmpfem.cli import main
from dmpfem.errors import InvalidParameters
from dmpfem.mesh import load_mesh
from dmpfem.p1 import P1Field, field_to_csv


# a quasi-linear 3D problem with zero drift and reaction
_COEFFS_3D = {"a": "1 + eta^2/(1+eta^2)", "b": ["0", "0", "0"], "c": "0", "f": "1",
              "g": "0", "lambda": 1.0, "Lambda": 2.0, "nu": 0.0,
              "c_mode": "identically-zero"}


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture
def square_mesh(tmp_path):
    path = tmp_path / "mesh.json"
    assert run(["mesh-gen", "--square", "8x8", "-o", path]) == 0
    return path


class TestExpressions:
    def test_point_formula(self):
        fn = expressions.point_function("1 + x^2 - sin(y)", dim=2)
        pts = np.array([[2.0, 0.0], [0.0, math.pi / 2]])
        assert fn(pts) == pytest.approx([5.0, 1.0 - 1.0])

    def test_state_formula(self):
        fn = expressions.state_function("eta^2/(1+eta^2) + p1", dim=2)
        x = np.zeros((3, 2))
        eta = np.array([0.0, 1.0, 2.0])
        p = np.tile([0.5, 0.0], (3, 1))
        assert fn(x, eta, p) == pytest.approx([0.5, 1.0, 4.0 / 5.0 + 0.5])

    def test_min_max_abs(self):
        fn = expressions.point_function("max(abs(x), min(y, 2))", dim=2)
        assert fn(np.array([[-3.0, 5.0]])) == pytest.approx([3.0])

    def test_rejects_unknown_names(self):
        with pytest.raises(InvalidParameters):
            expressions.point_function("q + 1", dim=2)
        with pytest.raises(InvalidParameters):
            expressions.point_function("eta", dim=2)  # state var in point formula

    def test_rejects_unsafe_syntax(self):
        for source in ("__import__('os')", "x.real", "[1,2]", "x if y else 1",
                       "lambda: 1", "f'{x}'"):
            with pytest.raises(InvalidParameters):
                expressions.point_function(source, dim=2)

    def test_vector_components(self):
        fn = expressions.vector_state_function(["1", "0"], dim=2)
        x = np.zeros((4, 2))
        out = fn(x, np.zeros(4), np.zeros((4, 2)))
        assert out.shape == (4, 2)
        assert np.all(out[:, 0] == 1.0) and np.all(out[:, 1] == 0.0)

    def test_constant_arithmetic_errors(self):
        x = np.zeros((2, 2))
        for source in ("1/0", "0/0", "2.0^5000", "(-1)^0.5"):
            with pytest.raises(InvalidParameters, match="cannot evaluate"):
                expressions.point_function(source, dim=2)(x)
        with pytest.raises(InvalidParameters, match="cannot evaluate"):
            expressions.state_function("eta + 1/0", dim=2)(x, np.zeros(2), x)

    def test_recorded_variables(self):
        cases = {"1 + eta": {"eta"}, "p2 - 1": {"p2"}, "x + y": {"x", "y"}, "x + 1": {"x"},
                 "2": set(), "max(sin(eta), abs(p1))^2": {"eta", "p1"}, "z*p3": {"z", "p3"}}
        for source, variables in cases.items():
            assert expressions.state_function(source, dim=3).variables == variables
            if variables <= {"x", "y"}:
                assert expressions.point_function(source, dim=2).variables == variables
            if variables <= {"x", "y", "eta"}:
                reaction = expressions.state_function(source, dim=2, with_gradient=False)
                assert reaction.variables == variables
            drift = expressions.vector_state_function(["2", source, "y"], dim=3)
            assert drift.variables == variables | {"y"}


class TestMeshGen:
    def test_square_with_vtk(self, tmp_path, capsys):
        mesh_path = tmp_path / "m.json"
        vtk_path = tmp_path / "m.vtk"
        assert run(["mesh-gen", "--square", "4x4", "-o", mesh_path,
                    "--vtk", vtk_path]) == 0
        out = capsys.readouterr().out
        assert "non-obtuse" in out
        mesh = load_mesh(mesh_path)
        assert mesh.num_cells == 32
        assert vtk_path.read_text().startswith("# vtk DataFile Version 3.0")

    def test_skewed_square_reports_obtuse(self, tmp_path, capsys):
        assert run(["mesh-gen", "--square", "4x4", "--skew", "0.6",
                    "-o", tmp_path / "m.json"]) == 0
        assert "obtuse" in capsys.readouterr().out

    def test_cube(self, tmp_path, capsys):
        assert run(["mesh-gen", "--cube", "2x2x2", "-o", tmp_path / "m.json"]) == 0
        out = capsys.readouterr().out
        assert "cells=48" in out
        assert "non-obtuse" in out

    def test_bad_spec_exits_one(self, tmp_path):
        assert run(["mesh-gen", "--square", "0x4", "-o", tmp_path / "m.json"]) == 1
        assert run(["mesh-gen", "-o", tmp_path / "m.json"]) == 1
        assert run(["mesh-gen", "--square", "2x2", "--cube", "1x1x1",
                    "-o", tmp_path / "m.json"]) == 1

    @pytest.mark.parametrize("flag, value", [("--skew", "1.5")])
    def test_bad_structured_parameter_writes_nothing(self, tmp_path, capsys, flag, value):
        mesh_path, vtk_path = tmp_path / "m.json", tmp_path / "m.vtk"
        assert run(["mesh-gen", "--square", "4x4", flag, value, "-o", mesh_path,
                    "--vtk", vtk_path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not mesh_path.exists() and not vtk_path.exists()


# problem flags that the chosen problem would not use, and the message's list of them
_UNUSED_FLAGS = [
    (["--coeffs", "COEFFS", "--f", "50", "--problem", "quasilinear-a"], "--problem, --f"),
    (["--coeffs", "COEFFS", "--g", "1"], "--g"),
    (["--coeffs", "COEFFS", "--b", "0,1", "--c0", "1"], "--b, --c0"),
    (["--problem", "poisson", "--b", "0,1"], "--b"),
    (["--problem", "quasilinear-a", "--c0", "0"], "--c0"),
    (["--b", "0,1", "--c0", "1"], "--b, --c0"),
]


class TestSolveCommand:
    def test_poisson_solve_outputs(self, square_mesh, tmp_path, capsys):
        outdir = tmp_path / "run"
        assert run(["solve", "--mesh", square_mesh, "--problem", "poisson",
                    "--f", "-1", "--g", "0", "-o", outdir]) == 0
        assert "converged in 1 iterations" in capsys.readouterr().out
        solve_info = json.loads((outdir / "solve.json").read_text())
        assert solve_info["converged"] is True
        assert solve_info["picard_iterations"] == 1
        assert solve_info["factorizations"] == 1 and solve_info["refinement_steps"] == 0
        assert (outdir / "solution.csv").exists()
        assert (outdir / "solution.vtk").exists()

    @pytest.mark.parametrize("formula", ["1/0", "0/0"])
    def test_constant_division_by_zero_exits_one(self, square_mesh, tmp_path, capsys,
                                                 formula):
        assert run(["solve", "--mesh", square_mesh, f"--f={formula}",
                    "-o", tmp_path / "run"]) == 1
        assert "cannot evaluate" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--f", "-1-x*y"],
        ["--g", "-x"],
        ["--problem", "advection-diffusion", "--b", "-1,0"],
    ], ids=lambda argv: " ".join(argv))
    def test_value_with_leading_minus(self, square_mesh, tmp_path, argv):
        # a value that begins with a minus sign but is no plain number is
        # still the flag's value, and means what the `--flag=value` form means
        outs = [tmp_path / "spaced", tmp_path / "joined"]
        joined = argv[:-2] + [f"{argv[-2]}={argv[-1]}"]
        for out, args in zip(outs, (argv, joined)):
            assert run(["solve", "--mesh", square_mesh, *args, "-o", out]) == 0
        problem = json.loads((outs[0] / "solve.json").read_text())["run"]["problem"]
        flag = argv[-2].lstrip("-")
        assert problem[flag] == ([-1.0, 0.0] if flag == "b" else argv[-1])
        for name in ("solution.csv", "solve.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

    @pytest.mark.parametrize("flag", ["--f", "--g", "--b"])
    def test_flag_without_value_exits_one(self, square_mesh, tmp_path, capsys, flag):
        assert run(["solve", "--mesh", square_mesh, "-o", tmp_path / "out", flag]) == 1
        assert f"argument {flag}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, ignored", _UNUSED_FLAGS,
                             ids=[" ".join(argv) for argv, _ in _UNUSED_FLAGS])
    @pytest.mark.parametrize("command", ["solve", "dmp-check"])
    def test_unused_problem_flag_exits_one(self, square_mesh, tmp_path, capsys, command,
                                           argv, ignored):
        coeffs_path = tmp_path / "coeffs.json"
        coeffs_path.write_text(json.dumps(_COEFFS_2D))
        argv = [coeffs_path if a == "COEFFS" else a for a in argv]
        extra = ["--solve"] if command == "dmp-check" else []
        assert run([command, "--mesh", square_mesh, *extra, *argv,
                    "-o", tmp_path / "out"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and ignored in err
        assert not (tmp_path / "out").exists()

    def test_default_problem_record(self, square_mesh, tmp_path):
        records = []
        for problem in ("poisson", "advection-diffusion"):
            out = tmp_path / problem
            assert run(["solve", "--mesh", square_mesh, "--problem", problem, "-o", out]) == 0
            records.append(json.loads((out / "solve.json").read_text())["run"]["problem"])
        assert records == [{"preset": "poisson", "f": "-1", "g": "0"},
                           {"preset": "advection-diffusion", "f": "-1", "g": "0",
                            "b": [1.0, 0.0], "c0": 0.0}]

    def test_non_numeric_drift_exits_one(self, square_mesh, tmp_path, capsys):
        assert run(["solve", "--mesh", square_mesh, "--problem", "advection-diffusion",
                    "--b", "1,x", "-o", tmp_path / "run"]) == 1
        assert capsys.readouterr().err.startswith("error: --b needs numbers")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("argv", [
        ["solve", "--linear-tol", "nan"],
        ["solve", "--picard-tol", "nan"],
        ["solve", "--picard-tol", "inf"],
        ["solve", "--picard-max-iter", "-1"],
        ["dmp-check", "--solve", "--picard-max-iter", "-1"],
        ["solve", "--coeffs", "nan-bounds.json"],
        ["dmp-check", "--solve", "--p", "inf"],
    ], ids=lambda argv: " ".join(argv))
    def test_non_finite_parameter_exits_one(self, square_mesh, tmp_path, capsys, argv):
        spec = {"a": "1", "b": ["0", "0"], "c": "0", "f": "-1", "g": "0", "lambda": math.nan,
                "Lambda": math.nan, "nu": math.nan, "c_mode": "identically-zero"}
        (tmp_path / "nan-bounds.json").write_text(json.dumps(spec))
        argv = [tmp_path / a if a.endswith(".json") else a for a in argv]
        if argv[0] != "mesh-gen":
            argv += ["--mesh", square_mesh]
        assert run(argv + ["-o", tmp_path / "out"]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("entry", ["f", "g"])
    @pytest.mark.parametrize("command", ["solve", "dmp-check"])
    def test_non_finite_source_or_boundary_exits_one(self, square_mesh, tmp_path, capsys,
                                                     command, entry):
        # Python-constant overflow: no numpy warning precedes the value
        good = tmp_path / "good"
        assert run(["solve", "--mesh", square_mesh, "-o", good]) == 0
        argv = [command, "--mesh", square_mesh, f"--{entry}", "1e308*1e308",
                "-o", tmp_path / "out"]
        if command == "dmp-check":
            argv += ["--solution", good / "solution.csv"]
        capsys.readouterr()
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {entry} is inf at x=") and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_non_finite_vertex_exits_one(self, square_mesh, tmp_path, capsys):
        data = json.loads(square_mesh.read_text())
        data["vertices"][10][0] = float("nan")
        bad = tmp_path / "nan.json"
        bad.write_text(json.dumps(data))
        assert run(["solve", "--mesh", bad, "-o", tmp_path / "run"]) == 1
        assert "vertex 10 has a non-finite coordinate" in capsys.readouterr().err

    def test_quasilinear_reports_iterations(self, square_mesh, tmp_path):
        outdir = tmp_path / "runq"
        assert run(["solve", "--mesh", square_mesh, "--problem", "quasilinear-a",
                    "-o", outdir]) == 0
        info = json.loads((outdir / "solve.json").read_text())
        assert info["picard_iterations"] >= 2

    def test_picard_divergence_exit_code(self, square_mesh, tmp_path):
        code = run(["solve", "--mesh", square_mesh, "--problem", "quasilinear-a",
                    "--picard-max-iter", "0", "-o", tmp_path / "bad"])
        assert code == 2
        code = run(["dmp-check", "--mesh", square_mesh, "--solve", "--problem",
                    "quasilinear-a", "--picard-max-iter", "0", "-o", tmp_path / "badc"])
        assert code == 2
        assert not (tmp_path / "badc").exists()

    def test_linear_divergence_exit_code(self, square_mesh, tmp_path, monkeypatch):
        def singular(*args, **kwargs):
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(solver.spla, "splu", singular)
        code = run(["solve", "--mesh", square_mesh, "--problem", "poisson",
                    "-o", tmp_path / "runl"])
        assert code == 3
        assert not (tmp_path / "runl" / "solve.json").exists()

    def test_run_record_fields(self, square_mesh, tmp_path):
        outdir = tmp_path / "rec"
        assert run(["solve", "--mesh", square_mesh, "--problem", "poisson",
                    "-o", outdir]) == 0
        record = json.loads((outdir / "solve.json").read_text())["run"]
        assert sorted(record) == ["command", "dmp_params", "mesh_source", "problem",
                                  "seed", "solver_options"]
        assert sorted(record["solver_options"]) == [
            "damping", "linear_tol", "picard_max_iter", "picard_tol"]
        assert run(["solve", "--mesh", square_mesh, "--linear-max-iter", "5",
                    "-o", tmp_path / "gone"]) == 1

    @pytest.mark.parametrize("entry, value, constant", [
        ("a", "1 + sin(1)", True), ("a", "1 + 0*eta", False), ("b0", "0*x", False),
        ("b1", "0*p2", False), ("c", "max(0, 0*y)", False),
    ])
    def test_constancy_read_from_formulas(self, tmp_path, entry, value, constant):
        # a formula is constant when it names no variable, whatever its value
        spec = dict(_COEFFS_2D, b=["0", "0"])
        if entry in ("b0", "b1"):
            spec["b"][int(entry[1])] = value
        else:
            spec[entry] = value
        coeffs_path = tmp_path / "coeffs.json"
        coeffs_path.write_text(json.dumps(spec))
        assert cli._coeffs_from_file(str(coeffs_path), 2).constant_coefficients is constant

    def test_coefficient_file(self, square_mesh, tmp_path):
        spec = {
            "a": "1 + eta^2/(1+eta^2)", "b": ["0", "0"], "c": "0",
            "f": "-1", "g": "0",
            "lambda": 1.0, "Lambda": 2.0, "nu": 0.0,
            "c_mode": "identically-zero",
        }
        coeffs_path = tmp_path / "coeffs.json"
        coeffs_path.write_text(json.dumps(spec))
        outdir = tmp_path / "runc"
        assert run(["solve", "--mesh", square_mesh, "--coeffs", coeffs_path,
                    "-o", outdir]) == 0
        info = json.loads((outdir / "solve.json").read_text())
        assert info["run"]["problem"]["coeffs_file"] == str(coeffs_path)


    @pytest.mark.parametrize("entry, value", [("a", "1 + 0*(x-0.5)^0.5"),
                                              ("c", "0*eta^0.5")])
    def test_non_finite_coefficient_exits_one(self, square_mesh, tmp_path, capsys,
                                              entry, value):
        spec = {"a": "1", "b": ["0", "0"], "c": "0", "f": "-1", "g": "0",
                "lambda": 1.0, "Lambda": 1.0, "nu": 0.0, "c_mode": "nonnegative"}
        spec[entry] = value
        coeffs_path = tmp_path / "coeffs.json"
        coeffs_path.write_text(json.dumps(spec))
        with np.errstate(invalid="ignore"):
            code = run(["dmp-check", "--mesh", square_mesh, "--solve", "--coeffs",
                        coeffs_path, "-o", tmp_path / "run"])
        assert code == 1
        assert f"coefficient {entry} is nan" in capsys.readouterr().err


class TestDmpCheckCommand:
    def test_pass_run(self, square_mesh, tmp_path):
        outdir = tmp_path / "check"
        assert run(["dmp-check", "--mesh", square_mesh, "--solve",
                    "--problem", "poisson", "--f", "-1", "--g", "0",
                    "-o", outdir]) == 0
        cert = json.loads((outdir / "certificate.json").read_text())
        assert cert["theorem_3_3"]["verdict"] == "pass"
        level_csv = (outdir / "level_sets.csv").read_text().splitlines()
        assert level_csv[0] == "k,measure"
        assert len(level_csv) > 2

    def test_failing_verdict_exit_code(self, tmp_path):
        obtuse = tmp_path / "obtuse.json"
        assert run(["mesh-gen", "--square", "4x4", "--skew", "0.6",
                    "-o", obtuse]) == 0
        outdir = tmp_path / "checkf"
        code = run(["dmp-check", "--mesh", obtuse, "--solve",
                    "--problem", "poisson", "--checks", "element", "-o", outdir])
        assert code == 4
        cert = json.loads((outdir / "certificate.json").read_text())
        assert cert["element_condition"]["verdict"] == "fail"
        assert cert["element_condition"]["failures"]

    @pytest.mark.parametrize("div_b", [None, "0"])
    def test_divergence_free_formula_drift_keeps_theorem_3_2(self, tmp_path, div_b):
        # b = (x, -y) without div_b: the finite-difference noise of div b on
        # 32^2 (-6.3e-10) lies within its rounding bound
        mesh = tmp_path / "m32.json"
        assert run(["mesh-gen", "--square", "32x32", "-o", mesh]) == 0
        spec = {**_COEFFS_2D, "b": ["x", "-y"], "nu": 1.5}
        if div_b is not None:
            spec["div_b"] = div_b
        coeffs = tmp_path / "coeffs.json"
        coeffs.write_text(json.dumps(spec))
        out = tmp_path / "check"
        assert run(["dmp-check", "--mesh", mesh, "--solve", "--coeffs", coeffs,
                    "--checks", "bounds", "-o", out]) == 0
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["theorem_3_2"]["verdict"] == "pass"

    def test_huge_source_norm_exponent(self, square_mesh, tmp_path):
        # r = 1.0001 asks for the L^13334.7 norm of f = 0.5, once read as 0
        out = tmp_path / "check"
        assert run(["dmp-check", "--mesh", square_mesh, "--solve", "--f", "0.5",
                    "--r", "1.0001", "-o", out]) == 0
        theorem = json.loads((out / "certificate.json").read_text())["theorem_3_2"]
        assert theorem["verdict"] == "pass"
        assert theorem["f_norm"] == pytest.approx(0.5, rel=1e-12)
        assert 0.0 < theorem["empirical_c"] < math.inf

    def test_check_subset_ignores_other_failures(self, tmp_path):
        obtuse = tmp_path / "obtuse.json"
        assert run(["mesh-gen", "--square", "4x4", "--skew", "0.6",
                    "-o", obtuse]) == 0
        code = run(["dmp-check", "--mesh", obtuse, "--solve",
                    "--problem", "poisson", "--checks", "assumption,bounds",
                    "-o", tmp_path / "checks"])
        assert code == 0

    @pytest.mark.parametrize("declared", [{}, {"constant_coefficients": True}])
    def test_coordinate_dependent_diffusion_is_not_held_to_the_unit_identity(
            self, square_mesh, tmp_path, declared):
        # a = 1 + xy equals 1 on the row y = 0 only, also when declared constant
        spec = {"a": "1 + x*y", "b": ["0", "0"], "c": "0", "f": "-1", "g": "0",
                "lambda": 1.0, "Lambda": 2.0, "nu": 0.0, "c_mode": "identically-zero",
                **declared}
        coeffs_path = tmp_path / "coeffs.json"
        coeffs_path.write_text(json.dumps(spec))
        outdir = tmp_path / "check"
        assert run(["dmp-check", "--mesh", square_mesh, "--solve", "--coeffs",
                    coeffs_path, "-o", outdir]) == 0
        edge = json.loads((outdir / "certificate.json").read_text())["edge_condition"]
        assert edge["verdict"] == "pass" and edge["poisson_identity_checked"] is False

    def test_declared_constancy_is_not_trusted(self, tmp_path):
        # a depends on the state; a file declaring it constant once made the
        # solve stop after one update, 11% off, and every check still passed
        mesh = tmp_path / "mesh16.json"
        assert run(["mesh-gen", "--square", "16x16", "-o", mesh]) == 0
        spec = {"a": "1 + eta^2/(1+eta^2)", "b": ["0", "0"], "c": "0", "f": "-10",
                "g": "0", "lambda": 1.0, "Lambda": 2.0, "nu": 0.0,
                "c_mode": "identically-zero"}
        certs, outs = [], []
        for name, declared in (("plain", {}), ("declared", {"constant_coefficients": True})):
            coeffs_path = tmp_path / f"{name}.json"
            coeffs_path.write_text(json.dumps({**spec, **declared}))
            out = tmp_path / name
            assert run(["dmp-check", "--mesh", mesh, "--solve", "--coeffs", coeffs_path,
                        "-o", out]) == 0
            cert = json.loads((out / "certificate.json").read_text())
            cert.pop("run")
            certs.append(cert)
            outs.append(out)
        assert certs[0]["solve"]["picard_iterations"] > 1
        assert certs[0] == certs[1]
        for name in ("solution.csv", "level_sets.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

    def test_unknown_check_rejected(self, square_mesh, tmp_path):
        assert run(["dmp-check", "--mesh", square_mesh, "--solve",
                    "--checks", "bogus", "-o", tmp_path / "x"]) == 1

    def test_inline_solve_equals_two_step(self, square_mesh, tmp_path):
        inline = tmp_path / "inline"
        assert run(["dmp-check", "--mesh", square_mesh, "--solve",
                    "--problem", "poisson", "--f", "-1", "-o", inline]) == 0
        two_a = tmp_path / "steps"
        assert run(["solve", "--mesh", square_mesh, "--problem", "poisson",
                    "--f", "-1", "-o", two_a]) == 0
        two_b = tmp_path / "steps_check"
        assert run(["dmp-check", "--mesh", square_mesh,
                    "--solution", two_a / "solution.csv",
                    "--solve-result", two_a / "solve.json",
                    "--problem", "poisson", "--f", "-1", "-o", two_b]) == 0
        cert_a = json.loads((inline / "certificate.json").read_text())
        cert_b = json.loads((two_b / "certificate.json").read_text())
        cert_a.pop("run"), cert_b.pop("run")
        assert cert_a == cert_b

    def test_solve_result_norms_read_as_floats(self, square_mesh, tmp_path):
        solved = tmp_path / "solved"
        assert run(["solve", "--mesh", square_mesh, "-o", solved]) == 0
        info = tmp_path / "info.json"
        info.write_text(json.dumps({"picard_iterations": 3, "final_update_norm": 0,
                                    "final_linear_residual": 1, "converged": True}))
        out = tmp_path / "out"
        assert run(["dmp-check", "--mesh", square_mesh, "--solution", solved / "solution.csv",
                    "--solve-result", info, "-o", out]) == 0
        solve = json.loads((out / "certificate.json").read_text())["solve"]
        assert [solve[key] for key in ("picard_iterations", "final_update_norm",
                                       "final_linear_residual", "converged",
                                       "factorizations", "refinement_steps")] == [
            3, 0.0, 1.0, True, -1, -1]
        assert '"final_update_norm": 0.0,' in (out / "certificate.json").read_text()

    def test_determinism_byte_identical(self, square_mesh, tmp_path):
        out1, out2 = tmp_path / "d1", tmp_path / "d2"
        for out in (out1, out2):
            assert run(["dmp-check", "--mesh", square_mesh, "--solve",
                        "--problem", "poisson", "--seed", "42", "-o", out]) == 0
        names = ["certificate.json", "level_sets.csv", "solve.json", "solution.csv",
                 "solution.vtk"]
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
        out3, out4 = tmp_path / "d3", tmp_path / "d4"
        for out in (out3, out4):
            assert run(["dmp-check", "--mesh", square_mesh,
                        "--solution", out1 / "solution.csv",
                        "--solve-result", out1 / "solve.json",
                        "--problem", "poisson", "--seed", "42", "-o", out]) == 0
        for name in names[:2]:
            assert (out3 / name).read_bytes() == (out4 / name).read_bytes(), name
        # a 3D coefficient file: formula drift and no div_b, so the zeroth-
        # order check differentiates b numerically
        cube = tmp_path / "cube.json"
        assert run(["mesh-gen", "--cube", "3x3x4", "-o", cube]) == 0
        coeffs = tmp_path / "drift.json"
        coeffs.write_text(json.dumps({
            "a": "1 + eta^2/(1+eta^2)", "b": ["0.1*eta", "0.2*x", "0.1*sin(z)"], "c": "1",
            "f": "1 - x*y", "g": "0", "lambda": 1.0, "Lambda": 2.0, "nu": 2.0,
            "c_mode": "nonnegative"}))
        out5, out6 = tmp_path / "d5", tmp_path / "d6"
        codes = [run(["dmp-check", "--mesh", cube, "--solve", "--coeffs", coeffs,
                      "--seed", "7", "-o", out]) for out in (out5, out6)]
        assert codes[0] == codes[1] and codes[0] in (0, 4)
        for name in names:
            assert (out5 / name).read_bytes() == (out6 / name).read_bytes(), name

    def test_seed_changes_only_its_record(self, square_mesh, tmp_path):
        # the spot-check draws decide no output value: seeds 0 and 1 write
        # the same files but for the recorded seed
        outs = [tmp_path / "s0", tmp_path / "s1"]
        for seed, out in enumerate(outs):
            assert run(["dmp-check", "--mesh", square_mesh, "--solve",
                        "--problem", "quasilinear-a", "--seed", seed, "-o", out]) == 0
        for name in ("solution.csv", "solution.vtk", "level_sets.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
        for name in ("solve.json", "certificate.json"):
            text = (outs[0] / name).read_text()
            assert text.count('"seed": 0') == 1
            assert text.replace('"seed": 0', '"seed": 1') == (outs[1] / name).read_text()

    def test_seed_recorded_modulo_2_64(self, square_mesh, tmp_path):
        # -1 and 2**64 - 1 draw the same spot-check samples
        outs = [tmp_path / "neg", tmp_path / "max"]
        for seed, out in zip((-1, 2 ** 64 - 1), outs):
            assert run(["dmp-check", "--mesh", square_mesh, "--solve",
                        "--problem", "quasilinear-a", "--seed", seed, "-o", out]) == 0
        for name in ("solve.json", "certificate.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
            assert json.loads((outs[0] / name).read_text())["run"]["seed"] == 2 ** 64 - 1

    @pytest.mark.parametrize("bounds, message", [
        ({"lambda": 1.5}, "a dips to 1.00001 below declared lam=1.5"),
        ({"b": ["5", "0", "0"], "nu": 0.0},
         "lam^-2(|b|^2+c^2) reaches 25 above nu^2=0.0"),
    ])
    def test_solution_path_spot_checks_declared_bounds(self, tmp_path, capsys, bounds,
                                                       message):
        cube = tmp_path / "cube.json"
        assert run(["mesh-gen", "--cube", "4x4x4", "-o", cube]) == 0
        true_bounds, false_bounds = tmp_path / "true.json", tmp_path / "false.json"
        true_bounds.write_text(json.dumps(_COEFFS_3D))
        false_bounds.write_text(json.dumps({**_COEFFS_3D, **bounds}))
        solved = tmp_path / "solved"
        assert run(["solve", "--mesh", cube, "--coeffs", true_bounds, "-o", solved]) == 0
        capsys.readouterr()
        outs = [tmp_path / "solve", tmp_path / "check"]
        assert run(["solve", "--mesh", cube, "--coeffs", false_bounds, "-o", outs[0]]) == 1
        assert run(["dmp-check", "--mesh", cube, "--solution", solved / "solution.csv",
                    "--coeffs", false_bounds, "-o", outs[1]]) == 1
        errors = capsys.readouterr().err.splitlines()
        assert len(errors) == 2 and errors[0] == errors[1] and message in errors[0]
        assert not any(out.exists() for out in outs)

    def test_zero_drift_fast_paths_keep_bytes(self, tmp_path):
        # "0" takes both zero-drift shortcuts; "0*x" names a coordinate, so
        # its divergence is differenced and only the zero products are skipped
        cube = tmp_path / "cube.json"
        assert run(["mesh-gen", "--cube", "4x4x4", "-o", cube]) == 0
        records = []
        for name, drift in (("zero", ["0", "0", "0"]), ("coordinate", ["0*x", "0", "0"])):
            coeffs = tmp_path / f"{name}.json"
            coeffs.write_text(json.dumps({**_COEFFS_3D, "b": drift}))
            out = tmp_path / name
            assert run(["dmp-check", "--mesh", cube, "--solve", "--coeffs", coeffs,
                        "-o", out]) == 0
            files = {}
            for file in ("certificate.json", "solve.json"):
                files[file] = json.loads((out / file).read_text())
                files[file].pop("run")
            for file in ("solution.csv", "level_sets.csv"):
                files[file] = (out / file).read_bytes()
            records.append(files)
        assert records[0] == records[1]

    def test_degiorgi_check_embedded(self, square_mesh, tmp_path):
        outdir = tmp_path / "dg"
        assert run(["dmp-check", "--mesh", square_mesh, "--solve",
                    "--problem", "poisson", "--f", "1", "--checks", "degiorgi",
                    "-o", outdir]) == 0
        cert = json.loads((outdir / "certificate.json").read_text())
        assert cert["de_giorgi"]["verdict"] == "pass"
        assert cert["de_giorgi"]["rho"] > 0

    def test_degiorgi_hypothesis_failure_exits_one(self, square_mesh, tmp_path, capsys,
                                                   monkeypatch):
        fit = dmpfem.dmp.fit_decay_constant
        monkeypatch.setattr(dmpfem.dmp, "fit_decay_constant", lambda *a: fit(*a) / 10.0)
        outdir = tmp_path / "dg"
        capsys.readouterr()
        assert run(["dmp-check", "--mesh", square_mesh, "--solve", "--f", "1",
                    "--checks", "degiorgi", "-o", outdir]) == 1
        assert capsys.readouterr().err.startswith("error: decay hypothesis fails")
        assert not (outdir / "certificate.json").exists()

    def test_solution_without_record_writes_null_norms(self, square_mesh, tmp_path):
        solved = tmp_path / "solved"
        assert run(["solve", "--mesh", square_mesh, "-o", solved]) == 0
        out = tmp_path / "out"
        assert run(["dmp-check", "--mesh", square_mesh, "--solution", solved / "solution.csv",
                    "-o", out]) == 0

        def refuse(token):
            raise ValueError(f"{token} is not strict JSON")

        cert = json.loads((out / "certificate.json").read_text(), parse_constant=refuse)
        assert [cert["solve"][key] for key in ("final_update_norm", "final_linear_residual",
                                               "picard_iterations")] == [None, None, -1]

    def test_non_finite_solve_result_norm_not_written(self, square_mesh, tmp_path, capsys):
        solved = tmp_path / "solved"
        assert run(["solve", "--mesh", square_mesh, "-o", solved]) == 0
        info = tmp_path / "info.json"
        info.write_text('{"final_update_norm": NaN}')
        out = tmp_path / "out"
        capsys.readouterr()
        assert run(["dmp-check", "--mesh", square_mesh, "--solution", solved / "solution.csv",
                    "--solve-result", info, "-o", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out / 'certificate.json'}: ")
        assert "Traceback" not in err
        assert not (out / "certificate.json").exists()


class TestRefusedBeforeOutput:
    """Runs that `solve` or `dmp-check` refuse with exit code 1 before they
    write a file."""

    @pytest.mark.parametrize("grid", [["--square", "1x1"], ["--cube", "1x1x1"]])
    def test_mesh_without_interior_nodes(self, tmp_path, capsys, grid):
        mesh = tmp_path / "mesh.json"
        assert run(["mesh-gen", *grid, "-o", mesh]) == 0
        m = load_mesh(mesh)
        solution = tmp_path / "solution.csv"
        field_to_csv(P1Field(m, np.zeros(m.num_vertices)), solution)
        capsys.readouterr()
        out = tmp_path / "out"
        out.mkdir()
        for argv in (["solve"], ["dmp-check", "--solve"],
                     ["dmp-check", "--solution", solution]):
            assert run([*argv, "--mesh", mesh, "-o", out]) == 1
            assert list(out.iterdir()) == []
        errors = capsys.readouterr().err.splitlines()
        assert len(errors) == 3
        assert all(e.startswith(f"error: mesh {mesh} has no interior nodes") for e in errors)

    def test_general_c_mode_in_dmp_check(self, tmp_path, capsys):
        cube = tmp_path / "cube.json"
        assert run(["mesh-gen", "--cube", "3x3x3", "-o", cube]) == 0
        coeffs = tmp_path / "general.json"
        coeffs.write_text(json.dumps({**_COEFFS_3D, "c_mode": "general"}))
        solved = tmp_path / "solved"
        assert run(["solve", "--mesh", cube, "--coeffs", coeffs, "-o", solved]) == 0
        capsys.readouterr()
        out = tmp_path / "out"
        out.mkdir()
        for argv in (["--solve"], ["--solution", solved / "solution.csv"]):
            assert run(["dmp-check", "--mesh", cube, "--coeffs", coeffs, *argv,
                        "-o", out]) == 1
            assert list(out.iterdir()) == []
        errors = capsys.readouterr().err.splitlines()
        assert len(errors) == 2 and errors[0] == errors[1]
        assert "'general'" in errors[0] and "no cut threshold" in errors[0]

    @pytest.mark.parametrize("route, flags, message", [
        ("--solve", ["--solve-result", "BAD"],
         "--solve solves the problem itself; --solve-result would be ignored"),
        ("--solution", ["--picard-tol", "-5"],
         "--solution reads a solved field; --picard-tol would be ignored"),
        ("--solution", ["--picard-max-iter", "3"],
         "--solution reads a solved field; --picard-max-iter would be ignored"),
    ], ids=["solve-result-with-solve", "picard-tol-with-solution",
            "picard-max-iter-with-solution"])
    def test_flag_unread_by_dmp_check_route(self, square_mesh, tmp_path, capsys,
                                            route, flags, message):
        solved = tmp_path / "solved"
        assert run(["solve", "--mesh", square_mesh, "-o", solved]) == 0
        bad = tmp_path / "bad.json"
        bad.write_text('{"converged": "nope"}')
        source = ["--solve"] if route == "--solve" else ["--solution", solved / "solution.csv"]
        capsys.readouterr()
        out = tmp_path / "out"
        out.mkdir()
        assert run(["dmp-check", "--mesh", square_mesh, *source,
                    *[bad if f == "BAD" else f for f in flags], "-o", out]) == 1
        assert list(out.iterdir()) == []
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_fractional_stored_boundary_nodes(self, tmp_path, capsys):
        mesh = tmp_path / "mesh.json"
        assert run(["mesh-gen", "--square", "2x2", "-o", mesh]) == 0
        data = json.loads(mesh.read_text())
        data["boundary_nodes"] = [j + 0.9 for j in data["boundary_nodes"]]
        mesh.write_text(json.dumps(data))
        capsys.readouterr()
        out = tmp_path / "out"
        out.mkdir()
        assert run(["dmp-check", "--mesh", mesh, "--solve", "-o", out]) == 1
        assert list(out.iterdir()) == []
        err = capsys.readouterr().err
        assert "key 'boundary_nodes' has the wrong type: node index 0.9 is not an integer" \
            in err and str(mesh) in err

    @pytest.mark.parametrize("vertex, flag", [(1, True), (0, False)])
    def test_boolean_cell_entry(self, tmp_path, capsys, vertex, flag):
        # numpy would read true as vertex 1 and false as vertex 0
        mesh = tmp_path / "mesh.json"
        assert run(["mesh-gen", "--square", "4x4", "-o", mesh]) == 0
        data = json.loads(mesh.read_text())
        cell = next(c for c in data["cells"] if vertex in c)
        cell[cell.index(vertex)] = flag
        mesh.write_text(json.dumps(data))
        capsys.readouterr()
        out = tmp_path / "out"
        out.mkdir()
        for argv in (["solve"], ["dmp-check", "--solve"]):
            assert run([*argv, "--mesh", mesh, "-o", out]) == 1
            assert list(out.iterdir()) == []
        errors = capsys.readouterr().err.splitlines()
        assert len(errors) == 2
        assert all(e.startswith("error: ") and "not booleans" in e for e in errors)

    @pytest.mark.parametrize("r", ["2.99", "2.9999999999"])
    @pytest.mark.parametrize("f", ["1", "-1"])
    def test_overflowing_decay_ratio(self, tmp_path, capsys, r, f):
        # beta = 3/r so near 1 that 2^(p/(beta - 1)) is no float
        mesh = tmp_path / "mesh.json"
        assert run(["mesh-gen", "--square", "4x4", "-o", mesh]) == 0
        capsys.readouterr()
        out = tmp_path / "out"
        assert run(["dmp-check", "--mesh", mesh, "--solve", "--f", f, "--p", "4",
                    "--r", r, "-o", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: r={r} is too close to p - 1") and "Traceback" not in err
        assert not out.exists()
        assert run(["dmp-check", "--mesh", mesh, "--solve", "--f", f, "--p", "4",
                    "--r", "2.98", "-o", out]) == 0
        assert (out / "certificate.json").exists()

    @pytest.mark.parametrize("argv", [
        ["dmp-check", "--solve", "--lambda-star", "0.1"],
        ["dmp-check", "--solve", "--alpha-exponent", "1"],
        ["mesh-gen", "--square", "4x4", "--alpha-exponent", "1"],
    ], ids=lambda argv: " ".join(argv))
    def test_removed_flag(self, square_mesh, tmp_path, capsys, argv):
        out = tmp_path / "out"
        if argv[0] == "mesh-gen":
            argv = [*argv, "--vtk", tmp_path / "m.vtk"]
        else:
            argv = [*argv, "--mesh", square_mesh]
        capsys.readouterr()
        assert run([*argv, "-o", out]) == 1
        removed = next(a for a in argv if a in ("--lambda-star", "--alpha-exponent"))
        assert f"unrecognized arguments: {removed} " in capsys.readouterr().err
        assert not out.exists() and not (tmp_path / "m.vtk").exists()


class TestKnobAudit:
    """Every field of `DmpParams` and `SolveOptions` changes an output byte or
    the exit code on one small problem: a setting that changes nothing is a
    knob to delete."""

    # one non-default value per field
    VALUES = {"p": "3", "r": "1.5", "picard_max_iter": "2", "picard_tol": "1e-4",
              "linear_tol": "1e-17", "damping": "0.5"}

    @staticmethod
    def _outputs(mesh, out, command, flags, name, ignored):
        code = run([*command, "--mesh", mesh, "--problem", "quasilinear-a", "--f", "1",
                    *flags, "-o", out])
        path = out / name
        data = json.loads(path.read_text()) if path.exists() else None
        return code, data and {k: v for k, v in data.items() if k not in ignored}

    @pytest.mark.parametrize("cls, command, name, ignored", [
        (dmpfem.dmp.DmpParams, ["dmp-check", "--solve"], "certificate.json",
         ("params", "run", "mesh")),
        (solver.SolveOptions, ["solve"], "solve.json", ("run",)),
    ], ids=["DmpParams", "SolveOptions"])
    def test_every_field_changes_an_output(self, square_mesh, tmp_path, cls, command,
                                           name, ignored):
        default = self._outputs(square_mesh, tmp_path / "default", command, [], name, ignored)
        assert default[0] == 0
        for f in fields(cls):
            flag = "--" + f.name.replace("_", "-")
            changed = self._outputs(square_mesh, tmp_path / f.name, command,
                                    [flag, self.VALUES[f.name]], name, ignored)
            assert changed != default, f"{cls.__name__}.{f.name} changed nothing"


class TestSolutionFile:
    """`dmp-check --solution` rejects a malformed solution CSV with exit 1."""

    @pytest.fixture
    def solution_lines(self, square_mesh, tmp_path):
        outdir = tmp_path / "solved"
        assert run(["solve", "--mesh", square_mesh, "-o", outdir]) == 0
        return (outdir / "solution.csv").read_text().splitlines()

    def _check(self, square_mesh, tmp_path, lines):
        path = tmp_path / "edited.csv"
        path.write_text("\n".join(lines) + "\n")
        return run(["dmp-check", "--mesh", square_mesh, "--solution", path,
                    "-o", tmp_path / "check"])

    def test_index_out_of_range(self, square_mesh, tmp_path, capsys, solution_lines):
        solution_lines[5] = "99" + solution_lines[5][solution_lines[5].index(","):]
        assert self._check(square_mesh, tmp_path, solution_lines) == 1
        assert "line 6: node index 99 outside [0, 81)" in capsys.readouterr().err

    def test_nan_value(self, square_mesh, tmp_path, capsys, solution_lines):
        solution_lines[5] = solution_lines[5].rsplit(",", 1)[0] + ",nan"
        assert self._check(square_mesh, tmp_path, solution_lines) == 1
        assert "line 6: node 4 has value nan" in capsys.readouterr().err

    def test_malformed_rows(self, square_mesh, tmp_path, capsys, solution_lines):
        for row in ("4,0.5,0", "4,0.5,0,abc", "four,0.5,0,1.0", "4,abc,0,1.0"):
            edited = list(solution_lines)
            edited[5] = row
            assert self._check(square_mesh, tmp_path, edited) == 1
            assert "line 6:" in capsys.readouterr().err

    def test_missing_and_repeated_nodes(self, square_mesh, tmp_path, capsys,
                                        solution_lines):
        assert self._check(square_mesh, tmp_path, solution_lines[:5]
                           + solution_lines[6:]) == 1
        assert "does not cover every node: 1 missing, e.g. [4]" in capsys.readouterr().err
        assert self._check(square_mesh, tmp_path, solution_lines
                           + [solution_lines[5]]) == 1
        assert "node 4 appears twice" in capsys.readouterr().err

    def test_solution_of_another_mesh(self, square_mesh, tmp_path, capsys):
        # same vertex count and numbering, interior vertices moved by the skew
        skewed = tmp_path / "skewed.json"
        assert run(["mesh-gen", "--square", "8x8", "--skew", "0.5", "-o", skewed]) == 0
        assert run(["solve", "--mesh", skewed, "-o", tmp_path / "skewed"]) == 0
        assert run(["dmp-check", "--mesh", square_mesh,
                    "--solution", tmp_path / "skewed" / "solution.csv",
                    "-o", tmp_path / "check"]) == 1
        err = capsys.readouterr().err
        assert "line " in err and "its mesh vertex at" in err
        assert not (tmp_path / "check").exists()

    @pytest.mark.parametrize("column", [1, 2])
    def test_edited_coordinate(self, square_mesh, tmp_path, capsys, solution_lines, column):
        row = solution_lines[12].split(",")
        row[column] = repr(float(row[column]) + 1e-9)
        solution_lines[12] = ",".join(row)
        assert self._check(square_mesh, tmp_path, solution_lines) == 1
        assert "line 13: node 11 lies at" in capsys.readouterr().err

    def test_missing_coordinate_column(self, square_mesh, tmp_path, capsys, solution_lines):
        edited = [",".join(line.split(",")[:2] + line.split(",")[3:])
                  for line in solution_lines]
        assert self._check(square_mesh, tmp_path, edited) == 1
        assert "lacks columns ['y']" in capsys.readouterr().err


_COEFFS_2D = {"a": "1", "b": ["0", "0"], "c": "0", "f": "1", "g": "0", "lambda": 1.0,
              "Lambda": 1.0, "nu": 0.0, "c_mode": "identically-zero"}


class TestMalformedFormula:
    @pytest.mark.parametrize("command", ["solve", "dmp-check"])
    @pytest.mark.parametrize("entry", ["a", "b0", "b1", "c", "f", "g", "div_b"])
    def test_exits_one_without_output(self, square_mesh, tmp_path, capsys, command, entry):
        spec = dict(_COEFFS_2D, b=["0", "0"])
        if entry in ("b0", "b1"):
            spec["b"][int(entry[1])] = "1 +"
        else:
            spec[entry] = "1 +"
        coeffs_path = tmp_path / "coeffs.json"
        coeffs_path.write_text(json.dumps(spec))
        argv = [command, "--mesh", square_mesh, "--coeffs", coeffs_path,
                "-o", tmp_path / "out"]
        if command == "dmp-check":
            argv.append("--solve")
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot parse expression '1 +'") and "Traceback" not in err
        assert not (tmp_path / "out").exists()


class TestMalformedJson:
    """Each JSON input that does not decode, is not an object, lacks a field
    or holds a value of the wrong type exits 1 with a message, not a
    traceback."""

    @pytest.mark.parametrize("target, content, message", [
        pytest.param("mesh", "{bad", "is not valid JSON", id="mesh-not-json"),
        pytest.param("mesh", "[1,2]", "does not hold a JSON object", id="mesh-array"),
        pytest.param("mesh", '{"vertices": [[0,0]]}',
                     "mesh data lacks keys ['dim', 'cells']", id="mesh-missing-keys"),
        pytest.param("coeffs", "{bad", "is not valid JSON", id="coeffs-not-json"),
        pytest.param("solve-result", "{bad", "is not valid JSON",
                     id="solve-result-not-json"),
        pytest.param("solve-result", "[1,2]", "does not hold a JSON object",
                     id="solve-result-array"),
        pytest.param("solve-result", '{"picard_iterations": "x"}',
                     "picard_iterations must be int, got 'x'", id="solve-result-bad-type"),
        pytest.param("solve-result", '{"factorizations": 1.0}',
                     "factorizations must be int, got 1.0", id="solve-result-bad-count"),
        pytest.param("report", "[1,2]", "does not hold a JSON object", id="report-array"),
        pytest.param("mesh", '{"dim": 2, "vertices": "abc", "cells": []}',
                     "key 'vertices' has the wrong type", id="mesh-vertices-string"),
        pytest.param("mesh", '{"dim": 2, "vertices": [[0,0],[1,0],[0,1]], '
                     '"cells": [[0,1,2]], "boundary_nodes": ["a"]}',
                     "key 'boundary_nodes' has the wrong type", id="mesh-boundary-string"),
        pytest.param("coeffs", json.dumps(dict(_COEFFS_2D, b=5)),
                     "key 'b' has the wrong type", id="coeffs-b-number"),
        pytest.param("coeffs", json.dumps({**_COEFFS_2D, "lambda": "x"}),
                     "key 'lambda' has the wrong type", id="coeffs-lambda-string"),
    ])
    def test_exits_one_with_message(self, square_mesh, tmp_path, capsys,
                                    target, content, message):
        bad = tmp_path / "bad.json"
        bad.write_text(content)
        solved = tmp_path / "solved"
        assert run(["solve", "--mesh", square_mesh, "-o", solved]) == 0
        out = tmp_path / "out"
        argv = {
            "mesh": ["solve", "--mesh", bad, "-o", out],
            "coeffs": ["solve", "--mesh", square_mesh, "--coeffs", bad, "-o", out],
            "solve-result": ["dmp-check", "--mesh", square_mesh,
                             "--solution", solved / "solution.csv",
                             "--solve-result", bad, "-o", out],
            "report": ["report", bad],
        }[target]
        capsys.readouterr()
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert message in err
        if "lacks" not in message:
            assert str(bad) in err


class TestReportCommand:
    def _make_certs(self, tmp_path):
        paths = []
        for n in (4, 8):
            mesh_path = tmp_path / f"m{n}.json"
            run(["mesh-gen", "--square", f"{n}x{n}", "-o", mesh_path])
            outdir = tmp_path / f"cert{n}"
            run(["dmp-check", "--mesh", mesh_path, "--solve",
                 "--problem", "poisson", "--f", "1", "-o", outdir])
            paths.append(outdir / "certificate.json")
        return paths

    def test_table_sorted_by_h(self, tmp_path, capsys):
        paths = self._make_certs(tmp_path)
        assert run(["report", *paths[::-1]]) == 0
        out = capsys.readouterr().out.splitlines()
        rows = [line for line in out if line and line[0].isdigit()
                or line.strip().startswith("0.")]
        hs = [float(line.split()[0]) for line in rows]
        assert hs == sorted(hs)

    def test_csv_output(self, tmp_path, capsys):
        paths = self._make_certs(tmp_path)
        csv_path = tmp_path / "ratios.csv"
        assert run(["report", *paths, "--csv", csv_path]) == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "h,empirical_c"
        assert len(lines) == 3
        for line in lines[1:]:
            h, c = line.split(",")
            assert float(c) > 0

    def test_unreadable_input(self, tmp_path):
        bogus = tmp_path / "nope.json"
        assert run(["report", bogus]) == 1
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert run(["report", bad]) == 1

    @pytest.mark.parametrize("bad", ["abc", True], ids=["string", "bool"])
    def test_malformed_empirical_c_refused(self, tmp_path, capsys, bad):
        # a JSON number or null only; nothing is written before every row is read
        paths = self._make_certs(tmp_path)
        cert = json.loads(paths[1].read_text())
        cert["theorem_3_2"]["empirical_c"] = bad
        paths[1].write_text(json.dumps(cert))
        csv_path = tmp_path / "ratios.csv"
        assert run(["report", *paths, "--csv", csv_path]) == 1
        assert f"cannot read certificate {paths[1]}" in capsys.readouterr().err
        assert not csv_path.exists()

    def test_empty_input_usage_error(self):
        assert run(["report"]) == 1

    @pytest.mark.parametrize("keys, bad", [
        (("element_condition", "verdict"), 5), (("edge_condition", "verdict"), "passed"),
        (("assumption_a", "verdict"), None), (("theorem_3_2", "verdict"), True),
        (("theorem_3_3", "verdict"), "PASS"), (("mesh", "classification"), 7)],
        ids=lambda value: ".".join(value) if isinstance(value, tuple) else None)
    def test_bad_verdict_refused(self, tmp_path, capsys, report_certificates, keys, bad):
        # a verdict is pass, fail or not-applicable, a classification acute,
        # non-obtuse or obtuse; nothing is written before every row is read
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        good, spoiled = (json.loads(json.dumps(record)) for record in report_certificates)
        spoiled[keys[0]][keys[1]] = bad
        paths[0].write_text(json.dumps(good))
        paths[1].write_text(json.dumps(spoiled))
        csv_path = tmp_path / "ratios.csv"
        assert run(["report", *paths, "--csv", csv_path]) == 1
        err = capsys.readouterr().err
        assert f"cannot read certificate {paths[1]}" in err
        assert f"{'.'.join(keys)} must be one of" in err
        assert not csv_path.exists()

    def test_mixed_verdicts_reflected(self, tmp_path, capsys):
        good = tmp_path / "good.json"
        run(["mesh-gen", "--square", "4x4", "-o", good])
        obtuse = tmp_path / "obtuse.json"
        run(["mesh-gen", "--square", "4x4", "--skew", "0.6", "-o", obtuse])
        outs = []
        for name, mesh_path in [("g", good), ("o", obtuse)]:
            outdir = tmp_path / name
            run(["dmp-check", "--mesh", mesh_path, "--solve",
                 "--problem", "poisson", "--checks", "assumption", "-o", outdir])
            outs.append(outdir / "certificate.json")
        assert run(["report", *outs]) == 0
        out = capsys.readouterr().out
        assert "element=pass" in out
        assert "element=fail" in out


@pytest.fixture(scope="module")
def report_certificates(tmp_path_factory):
    """Two certificate records, of the 4x4 and 8x8 Poisson f=+1 runs."""
    tmp = tmp_path_factory.mktemp("report")
    records = []
    for n in (4, 8):
        mesh_path = tmp / f"m{n}.json"
        assert run(["mesh-gen", "--square", f"{n}x{n}", "-o", mesh_path]) == 0
        assert run(["dmp-check", "--mesh", mesh_path, "--solve", "--f", "1",
                    "-o", tmp / f"cert{n}"]) == 0
        records.append(json.loads((tmp / f"cert{n}" / "certificate.json").read_text()))
    return records


class TestReportNumericColumns:
    """Each numeric column of `report` must be a JSON number, not a bool or a
    string; a bad value exits 1 before the CSV is written."""

    @pytest.mark.parametrize("keys", [("mesh", "h"), ("mesh", "max_angle"), ("k_star",),
                                      ("sup_uh",), ("assumption_a", "min_value")],
                             ids=lambda keys: ".".join(keys))
    @pytest.mark.parametrize("bad", [True, "0.5"], ids=["bool", "string"])
    def test_non_number_refused(self, tmp_path, capsys, report_certificates, keys, bad):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        good, spoiled = (json.loads(json.dumps(record)) for record in report_certificates)
        block = spoiled
        for key in keys[:-1]:
            block = block[key]
        block[keys[-1]] = bad
        paths[0].write_text(json.dumps(good))
        paths[1].write_text(json.dumps(spoiled))
        csv_path = tmp_path / "ratios.csv"
        assert run(["report", *paths, "--csv", csv_path]) == 1
        err = capsys.readouterr().err
        assert f"cannot read certificate {paths[1]}" in err
        assert f"{'.'.join(keys)} must be a number, got {bad!r}" in err
        assert not csv_path.exists()

    def test_integer_values_read(self, tmp_path, capsys, report_certificates):
        record = json.loads(json.dumps(report_certificates[0]))
        record["k_star"] = 0
        path = tmp_path / "a.json"
        path.write_text(json.dumps(record))
        assert run(["report", path]) == 0


class TestErrorExits:
    """Each refused input exits 1 with its message, not a traceback, and
    writes no output."""

    def _check(self, argv, out, capsys, message):
        capsys.readouterr()
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_coefficient_file_lacking_keys(self, square_mesh, tmp_path, capsys):
        coeffs = tmp_path / "coeffs.json"
        coeffs.write_text(json.dumps({k: v for k, v in _COEFFS_2D.items()
                                      if k not in ("nu", "c_mode")}))
        out = tmp_path / "out"
        self._check(["solve", "--mesh", square_mesh, "--coeffs", coeffs, "-o", out], out,
                    capsys, f"coefficient file {coeffs} lacks keys ['nu', 'c_mode']")

    def test_drift_of_the_wrong_length(self, square_mesh, tmp_path, capsys):
        out = tmp_path / "out"
        self._check(["solve", "--mesh", square_mesh, "--problem", "advection-diffusion",
                     "--b", "1,0,0", "-o", out], out, capsys, "--b needs 2 components, got 3")

    def test_dmp_check_without_a_field(self, square_mesh, tmp_path, capsys):
        out = tmp_path / "out"
        self._check(["dmp-check", "--mesh", square_mesh, "-o", out], out, capsys,
                    "give exactly one of --solution or --solve")

    @pytest.mark.parametrize("checks", [",", ""])
    def test_checks_naming_no_check(self, tmp_path, capsys, checks):
        # on the skew-0.5 mesh with f = +1 the default checks exit 4
        mesh = tmp_path / "skew.json"
        assert run(["mesh-gen", "--square", "8x8", "--skew", "0.5", "-o", mesh]) == 0
        out = tmp_path / "out"
        self._check(["dmp-check", "--mesh", mesh, "--solve", "--f", "1", "--checks", checks,
                     "-o", out], out, capsys, "unknown check ''; choose from")

    @pytest.mark.parametrize("command", ["solve", "dmp-check"])
    @pytest.mark.parametrize("key, bad, message", [
        ("vertices", None, "vertex 25 is in no cell"),
        ("cells", 1.5, "key 'cells' has the wrong type: node indices must be integers"),
        ("cells", 2 ** 63, "key 'cells' has the wrong type: node indices must be integers"),
        ("dim", 2.5, "key 'dim' has the wrong type: dim 2.5 is not an integer"),
    ], ids=["vertex-in-no-cell", "fractional-cell", "cell-beyond-int64", "fractional-dim"])
    def test_refused_mesh_integers_and_vertices(self, tmp_path, capsys, command, key, bad,
                                                message):
        mesh = tmp_path / "mesh.json"
        assert run(["mesh-gen", "--square", "4x4", "-o", mesh]) == 0
        data = json.loads(mesh.read_text())
        if key == "vertices":
            data["vertices"].append([0.5, 0.55])
        elif key == "cells":
            data["cells"][3][1] = bad
        else:
            data["dim"] = bad
        mesh.write_text(json.dumps(data))
        out = tmp_path / "out"
        argv = [command, "--mesh", mesh, "-o", out]
        if command == "dmp-check":
            argv.append("--solve")
        self._check(argv, out, capsys, message)

    @pytest.mark.parametrize("command", ["solve", "dmp-check"])
    def test_missing_mesh_file(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        argv = [command, "--mesh", tmp_path / "missing.json", "-o", out]
        if command == "dmp-check":
            argv.append("--solve")
        self._check(argv, out, capsys, "i/o error: ")
