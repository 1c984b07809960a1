"""Spans around dmpfem's functions, recorded from outside the program.

`Tracer.install()` replaces each traced function by a recording wrapper in
every dmpfem module that holds a reference to it, i.e. at the names its
callers look up, so calls made inside `picard_solve`, `dmp_certificate` and
the CLI subcommands are seen.  Spans (key, start, end, parent) stay in memory;
`layer_metrics()` turns one pass's spans into self times, call counts and
`tracemalloc` peaks.  `tracemalloc` runs only inside the spans whose peak is
reported, and only while installed.
"""
from __future__ import annotations

import functools
import json
import sys
import time
import tracemalloc

# Span key -> (module, function) pairs recorded under it.  Each function has
# exactly one key, so the self times of all keys partition the traced time.
SPANS = {
    "mesh.generate": [("mesh", "generate_structured_2d"), ("mesh", "generate_structured_3d")],
    "mesh.build_mesh": [("mesh", "build_mesh")],
    "mesh.json_io": [("mesh", "save_mesh"), ("mesh", "load_mesh")],
    "mesh.interior_edges_2d": [("mesh", "interior_edges_2d")],
    "mesh.acuteness_audit": [("mesh", "acuteness_audit")],
    "p1.gradient_table": [("p1", "gradient_table")],
    "p1.cut": [("p1", "cut_plus"), ("p1", "cut_minus")],
    "p1.csv_io": [("p1", "field_to_csv"), ("p1", "field_from_csv")],
    "solver.validate": [("solver", "validate_coefficients")],
    "solver.assemble": [("solver", "assemble_q")],
    "solver.local_form_parts": [("solver", "local_form_parts")],
    "solver.dirichlet": [("solver", "apply_dirichlet")],
    "solver.linear_solve": [("solver", "linear_solve")],
    "solver.zeroth_order": [("solver", "check_zeroth_order_condition")],
    "dmp.sweep": [("dmp", "assumption_a_sweep")],
    "dmp.element": [("dmp", "element_condition_check")],
    "dmp.edge": [("dmp", "edge_condition_check_2d")],
    "dmp.level_set": [("dmp", "level_set_profile")],
    "dmp.fit_decay": [("dmp", "fit_decay_constant")],
    "dmp.de_giorgi_verify": [("dmp", "de_giorgi_verify")],
    "dmp.certificate": [("dmp", "dmp_certificate")],
    "cli.command": [("cli", "cmd_mesh_gen"), ("cli", "cmd_solve"), ("cli", "cmd_dmp_check")],
    "cli.write": [("cli", "_write_solution"), ("cli", "_write_json"), ("mesh", "write_vtk")],
    "cli.read": [("cli", "_coeffs_from_file")],
}
# Factories whose returned callables evaluate coefficient formulas.
EXPRESSION_FACTORIES = ("point_function", "state_function")
EVAL_KEY = "expressions.eval"
# Keys whose spans run under tracemalloc; none of them nests inside another.
# picard_solve as a whole is not one of them: tracemalloc slows its GMRES loop
# about 16x (0.9 s -> 14.1 s at 48^2), so its assembly steps stand in for it.
PEAK_KEYS = ("solver.assemble", "solver.dirichlet", "dmp.level_set", "dmp.fit_decay",
             "dmp.de_giorgi_verify")


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans = []  # [key, start, end, parent index, peak bytes or None]
        self._stack = []
        self._patches = []  # (module, attribute, original)

    def _record(self, key, fn):
        peak = key in PEAK_KEYS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            span = [key, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = time.perf_counter()
            if peak:
                tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                if peak:
                    span[4] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                span[2] = time.perf_counter()
                self._stack.pop()
        return wrapper

    def _factory(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._record(EVAL_KEY, fn(*args, **kwargs))
        return wrapper

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "dmpfem" or name.startswith("dmpfem."))]
        replacements = {}
        for key, targets in SPANS.items():
            for module, name in targets:
                original = getattr(getattr(self.package, module), name)
                replacements[id(original)] = (original, self._record(key, original))
        for name in EXPRESSION_FACTORIES:
            original = getattr(self.package.expressions, name)
            replacements[id(original)] = (original, self._factory(original))
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patches.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def reset(self) -> None:
        self.spans = []
        self._stack = []

    def layer_metrics(self, begin: int = 0, scale: float = 1.0) -> dict:
        """Self time (s, times `scale`) and call count per span key, plus the
        peak (MB) of the tracemalloc keys, over the spans from index `begin`
        on.  Spans from `begin` on must not have parents before it."""
        keys = list(SPANS) + [EVAL_KEY]
        self_s = dict.fromkeys(keys, 0.0)
        calls = dict.fromkeys(keys, 0)
        peak_mb = dict.fromkeys(PEAK_KEYS, 0.0)
        spans = self.spans[begin:]
        durations = [end - start for _, start, end, _, _ in spans]
        own = list(durations)
        for i, (_, _, _, parent, _) in enumerate(spans):
            if parent >= 0:
                own[parent - begin] -= durations[i]
        for i, (key, _, _, _, peak) in enumerate(spans):
            self_s[key] += own[i] * scale
            calls[key] += 1
            if peak is not None:
                peak_mb[key] = max(peak_mb[key], peak / 2 ** 20)
        return {"self_s": self_s, "calls": calls, "peak_mb": peak_mb}

    def dump(self, path, counts: dict) -> None:
        """Write the recorded spans and the given counts as one JSON file."""
        with open(path, "w", encoding="utf-8") as fp:
            json.dump({"spans": [{"key": k, "start": s, "end": e, "parent": p,
                                  "peak_bytes": b} for k, s, e, p, b in self.spans],
                       "counts": counts}, fp)
            fp.write("\n")
