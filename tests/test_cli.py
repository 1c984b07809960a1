import json
import math

import numpy as np
import pytest

from dmpfem import expressions, solver
from dmpfem.cli import main
from dmpfem.errors import InvalidParameters
from dmpfem.mesh import load_mesh
from dmpfem.rng import SplitMix64


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

    def test_usage_flags(self):
        assert expressions.uses_state("1 + eta")
        assert expressions.uses_state("p2 - 1")
        assert not expressions.uses_state("x + y")
        assert expressions.uses_coordinates("x + 1")
        assert not expressions.uses_coordinates("2")


class TestSplitMix:
    def test_deterministic_stream(self):
        a, b = SplitMix64(123), SplitMix64(123)
        assert [a.next_u64() for _ in range(5)] == [b.next_u64() for _ in range(5)]

    @pytest.mark.parametrize("seed", [0, 7, 2 ** 64 - 1])
    def test_uniform_array_matches_scalar_stream(self, seed):
        scalar = SplitMix64(seed)
        want = np.array([(scalar.next_u64() >> 11) * 2.0 ** -53 for _ in range(10 ** 4)])
        vector = SplitMix64(seed)
        got = vector.uniform(size=(100, 100)).ravel()
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()
        assert vector.state == scalar.state
        assert vector.next_u64() == scalar.next_u64()

    def test_scalar_stream_pinned(self):
        # the published splitmix64 outputs for seed 0
        rng = SplitMix64(0)
        assert [rng.next_u64() for _ in range(3)] == [
            0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]

    def test_uniform_range(self):
        rng = SplitMix64(7)
        vals = rng.uniform(-2.0, 3.0, size=(100,))
        assert vals.min() >= -2.0 and vals.max() < 3.0

    def test_barycentric_rows_sum_to_one(self):
        rng = SplitMix64(9)
        bary = rng.simplex_barycentric(4, 50)
        assert bary.min() >= 0
        assert np.abs(bary.sum(axis=1) - 1.0).max() < 1e-12


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


class TestSolveCommand:
    def test_poisson_solve_outputs(self, square_mesh, tmp_path, capsys):
        outdir = tmp_path / "run"
        assert run(["solve", "--mesh", square_mesh, "--problem", "poisson",
                    "--f", "-1", "--g", "0", "-o", outdir]) == 0
        assert "converged in 1 iterations" in capsys.readouterr().out
        solve_info = json.loads((outdir / "solve.json").read_text())
        assert solve_info["converged"] is True
        assert solve_info["picard_iterations"] == 1
        assert (outdir / "solution.csv").exists()
        assert (outdir / "solution.vtk").exists()

    @pytest.mark.parametrize("formula", ["1/0", "0/0"])
    def test_constant_division_by_zero_exits_one(self, square_mesh, tmp_path, capsys,
                                                 formula):
        assert run(["solve", "--mesh", square_mesh, f"--f={formula}",
                    "-o", tmp_path / "run"]) == 1
        assert "cannot evaluate" in capsys.readouterr().err

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

    def test_check_subset_ignores_other_failures(self, tmp_path):
        obtuse = tmp_path / "obtuse.json"
        assert run(["mesh-gen", "--square", "4x4", "--skew", "0.6",
                    "-o", obtuse]) == 0
        code = run(["dmp-check", "--mesh", obtuse, "--solve",
                    "--problem", "poisson", "--checks", "assumption,bounds",
                    "-o", tmp_path / "checks"])
        assert code == 0

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

    def test_degiorgi_check_embedded(self, square_mesh, tmp_path):
        outdir = tmp_path / "dg"
        assert run(["dmp-check", "--mesh", square_mesh, "--solve",
                    "--problem", "poisson", "--f", "1", "--checks", "degiorgi",
                    "-o", outdir]) == 0
        cert = json.loads((outdir / "certificate.json").read_text())
        assert cert["de_giorgi"]["verdict"] == "pass"
        assert cert["de_giorgi"]["rho"] > 0


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
        for row in ("4,0.5,0", "4,0.5,0,abc", "four,0.5,0,1.0"):
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


class TestMalformedJson:
    """Each JSON input that does not decode, is not an object or lacks a field
    exits 1 with a message, not a traceback."""

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
        pytest.param("report", "[1,2]", "does not hold a JSON object", id="report-array"),
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

    def test_empty_input_usage_error(self):
        assert run(["report"]) == 1

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
