"""Benchmark of dmpfem's mesh -> solve -> certify pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One operation takes one mesh of the workload's ladder through the whole
pipeline; a pass runs the ladder once.  The run repeats whole passes for
about S seconds (at least one) and checks every operation against
independent references; one failed operation makes the result incorrect
and keeps its pass out of the medians.  With --trace 0 it reports the end-to-end metrics
(medians over passes, plus set-up time from fresh processes); with --trace 1
it alternates untraced and traced passes and reports per-layer self times,
call counts and tracemalloc peaks.  The last stdout line is one JSON object.
See README.md for the workloads, seeds and the layer -> end-to-end map.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import calibration
import program
import tracing

STAGES = ("mesh", "solve", "certify")
SETUP_SAMPLES = 3
SETUP_TIMEOUT_S = 60
OUT_DIR = program.ROOT / ".perfbench-out"

SPEC_PATH = program.ROOT / "BENCHMARK.json"

# Per-layer metric -> (kind, source key); names and units are in
# BENCHMARK.json.  "self_s" and "calls" come from span keys in
# tracing.SPANS, "peak_mb" from tracing.PEAK_KEYS, "count" from the
# operations' outputs.
PER_LAYER = {
    "mesh.generate_s": ("self_s", "mesh.generate"),
    "mesh.build_mesh_s": ("self_s", "mesh.build_mesh"),
    "mesh.build_mesh_calls": ("calls", "mesh.build_mesh"),
    "mesh.json_io_s": ("self_s", "mesh.json_io"),
    "mesh.interior_edges_2d_s": ("self_s", "mesh.interior_edges_2d"),
    "mesh.acuteness_audit_s": ("self_s", "mesh.acuteness_audit"),
    "p1.gradient_table_s": ("self_s", "p1.gradient_table"),
    "p1.gradient_table_calls": ("calls", "p1.gradient_table"),
    "p1.cut_s": ("self_s", "p1.cut"),
    "p1.cut_calls": ("calls", "p1.cut"),
    "p1.csv_io_s": ("self_s", "p1.csv_io"),
    "solver.validate_s": ("self_s", "solver.validate"),
    "solver.assemble_s": ("self_s", "solver.assemble"),
    "solver.assemble_calls": ("calls", "solver.assemble"),
    "solver.local_form_parts_s": ("self_s", "solver.local_form_parts"),
    "solver.local_form_parts_calls": ("calls", "solver.local_form_parts"),
    "solver.dirichlet_s": ("self_s", "solver.dirichlet"),
    "solver.linear_solve_s": ("self_s", "solver.linear_solve"),
    "solver.linear_solve_calls": ("calls", "solver.linear_solve"),
    "solver.zeroth_order_s": ("self_s", "solver.zeroth_order"),
    "solver.assemble_peak_mb": ("peak_mb", ("solver.assemble", "solver.dirichlet")),
    "dmp.sweep_s": ("self_s", "dmp.sweep"),
    "dmp.sweep_levels": ("count", "sweep_levels"),
    "dmp.element_s": ("self_s", "dmp.element"),
    "dmp.edge_s": ("self_s", "dmp.edge"),
    "dmp.level_set_s": ("self_s", "dmp.level_set"),
    "dmp.level_set_levels": ("count", "level_set_levels"),
    "dmp.level_set_peak_mb": ("peak_mb", "dmp.level_set"),
    "dmp.fit_decay_s": ("self_s", "dmp.fit_decay"),
    "dmp.de_giorgi_verify_s": ("self_s", "dmp.de_giorgi_verify"),
    "dmp.de_giorgi_samples": ("count", "de_giorgi_samples"),
    "dmp.de_giorgi_peak_mb": ("peak_mb", ("dmp.fit_decay", "dmp.de_giorgi_verify")),
    "dmp.certificate_self_s": ("self_s", "dmp.certificate"),
    "expressions.eval_s": ("self_s", "expressions.eval"),
    "expressions.eval_calls": ("calls", "expressions.eval"),
    "cli.write_s": ("self_s", "cli.write"),
    "cli.read_s": ("self_s", "cli.read"),
    "cli.bytes_written": ("count", "bytes_written"),
    "trace.overhead_s": ("overhead", None),
}


def load_spec() -> dict:
    """BENCHMARK.json, after checking that it names the metrics this file
    computes."""
    spec = json.loads(SPEC_PATH.read_text())
    layers = {m["name"] for m in spec["per_layer"]}
    if layers != set(PER_LAYER):
        raise ValueError(f"{SPEC_PATH.name} and PER_LAYER disagree on "
                         f"{sorted(layers ^ set(PER_LAYER))}")
    return spec


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup(workload: str, seed: int, workdir: Path) -> list:
    """Scaled set-up seconds of SETUP_SAMPLES fresh processes, each importing
    dmpfem and running one tiny operation of the workload."""
    samples = []
    for i in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(program.BENCH_DIR / "setup_probe.py"), workload,
             str(seed), str(workdir / f"setup{i}")],
            cwd=program.ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe exited {proc.returncode}: {proc.stderr[-500:]}")
        raw, kernel = (float(x) for x in proc.stdout.split()[-2:])
        samples.append(calibration.scaled(raw, kernel))
    return samples


class Runner:
    """Runs passes of one workload and keeps attempted/failed counts."""

    def __init__(self, workload):
        self.workload = workload
        self.kernel = calibration.Calibration()
        self.attempted = 0
        self.failed = 0

    def run_pass(self, tracer=None) -> dict:
        """One pass of the ladder: summed stage times (raw and scaled),
        nodes, output counts and, with a tracer, the per-layer metrics.
        A pass with a failed operation is marked "failed"; its sums lack
        that operation, so the metrics leave it out."""
        totals = {"raw": dict.fromkeys(STAGES, 0.0), "scaled": dict.fromkeys(STAGES, 0.0),
                  "nodes": 0, "counts": {}, "layers": None, "failed": False}
        for n in self.workload.ladder:
            self.attempted += 1
            begin = len(tracer.spans) if tracer else 0
            try:
                outcome = self.workload.run(n, self.kernel.sample)
                problems = self.workload.check(n, outcome.out)
            except Exception:  # any program fault is one failed operation
                problems = [traceback.format_exc()]
                outcome = None
            if problems:
                self.failed += 1
                totals["failed"] = True
                print(f"FAILED {self.workload.name} n={n}: " + "; ".join(problems),
                      file=sys.stderr)
            if outcome is None:
                continue
            for stage, t in outcome.times.items():
                totals["raw"][stage] += t
            for stage, t in outcome.scaled_times().items():
                totals["scaled"][stage] += t
            totals["nodes"] += outcome.nodes
            for key, value in outcome.counts.items():
                totals["counts"][key] = totals["counts"].get(key, 0) + value
            if tracer:
                factor = calibration.REFERENCE_S / statistics.mean(outcome.kernel)
                _add_layers(totals, tracer.layer_metrics(begin, factor))
        raw, scaled = totals["raw"], totals["scaled"]
        print("pass: " + ", ".join(f"{k} {scaled[k]:.4f} s (raw {raw[k]:.4f} s)"
                                   for k in STAGES)
              + (" -- FAILED, left out of the metrics" if totals["failed"] else ""))
        return totals


def _add_layers(totals: dict, layers: dict) -> None:
    if totals["layers"] is None:
        totals["layers"] = layers
        return
    acc = totals["layers"]
    for key in acc["self_s"]:
        acc["self_s"][key] += layers["self_s"][key]
        acc["calls"][key] += layers["calls"][key]
    for key in acc["peak_mb"]:
        acc["peak_mb"][key] = max(acc["peak_mb"][key], layers["peak_mb"][key])


def _rounds(seconds: float, do_round) -> None:
    """Call do_round() until the next round would end after `seconds`; at least once."""
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        do_round()
        now = time.perf_counter()
        if (now - start) + (now - t0) > seconds:
            return


def _wall(p: dict) -> float:
    """Scaled ladder time of one pass."""
    return sum(p["scaled"].values())


def end_to_end(runner: Runner, seconds: float, setup: list, spec: list) -> dict:
    """End-to-end metrics over the passes without a failed operation; empty
    when every pass had one."""
    passes = []
    _rounds(seconds, lambda: passes.append(runner.run_pass()))
    passes = [p for p in passes if not p["failed"]]
    if not passes:
        return {}
    values = {"setup_s": statistics.median(setup)}
    for stage in STAGES:
        values[f"{stage}_s"] = statistics.median(p["scaled"][stage] for p in passes)
    values["certified_nodes_per_s"] = statistics.median(p["nodes"] / _wall(p) for p in passes)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    raw = {stage: statistics.median(p["raw"][stage] for p in passes) for stage in STAGES}
    print(f"{len(passes)} passes of ladder {list(runner.workload.ladder)}; raw median "
          + ", ".join(f"{k} {v:.4f} s" for k, v in raw.items())
          + f"; scaled set-up samples {[round(s, 4) for s in setup]}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def per_layer(runner: Runner, seconds: float, dm, trace_path: Path, spec: list) -> dict:
    """Per-layer metrics over the untraced + traced pass pairs without a
    failed operation; empty when every pair had one."""
    tracer = tracing.Tracer(dm)
    pairs = []

    def do_round():
        untraced = runner.run_pass()
        tracer.reset()
        tracer.install()
        try:
            pairs.append((untraced, runner.run_pass(tracer)))
        finally:
            tracer.uninstall()

    _rounds(seconds, do_round)
    pairs = [(u, t) for u, t in pairs if not (u["failed"] or t["failed"])]
    if not pairs:
        return {}
    traced = [t for _, t in pairs]
    overhead = (statistics.median(_wall(t) for t in traced)
                - statistics.median(_wall(u) for u, _ in pairs))
    units = {m["name"]: m["unit"] for m in spec}
    values = {}
    for name, (kind, key) in PER_LAYER.items():
        if kind == "overhead":
            value = overhead
        elif kind == "peak_mb":
            keys = key if isinstance(key, tuple) else (key,)
            value = statistics.median(max(p["layers"]["peak_mb"][k] for k in keys)
                                      for p in traced)
        elif kind == "count":
            value = statistics.median(p["counts"].get(key, 0) for p in traced)
        else:
            value = statistics.median(p["layers"][kind][key] for p in traced)
        values[name] = {"value": value, "unit": units[name]}
    tracer.dump(trace_path, {name: v["value"] for name, v in values.items()})
    print(f"{len(pairs)} clean untraced + traced pass pairs of ladder "
          f"{list(runner.workload.ladder)}; spans of the last traced pass in {trace_path}")
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = load_spec()
    try:
        dm = program.load()
    except (program.ProgramMissing, ImportError) as exc:
        print(f"cannot load the program: {exc}", file=sys.stderr)
        return 2

    import selftest
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    try:
        setup = measure_setup(args.workload, args.seed, workdir) if not args.trace else []
        workload = workloads.WORKLOADS[args.workload](
            dm, workloads.Params(args.seed), workdir)
        workload.run(workload.warm_n)
        problems = selftest.run(dm, workdir)
        for line in problems:
            print(line, file=sys.stderr)
        runner = Runner(workload)
        if args.trace:
            trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
            metrics = per_layer(runner, args.seconds, dm, trace_path, spec["per_layer"])
        else:
            metrics = end_to_end(runner, args.seconds, setup, spec["end_to_end"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"machine: {json.dumps(program.machine_record(), sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed}: attempted {runner.attempted}, "
          f"failed {runner.failed}")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    if not metrics:
        print("every pass had a failed operation; no metrics", file=sys.stderr)
    correct = not problems and runner.failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
