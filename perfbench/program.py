"""Locate the program under test in this checkout and describe the machine.

The benchmark only ever imports dmpfem from `<checkout>/src`, never from an
installed copy, so a tree without the sources fails instead of measuring
something else.
"""
from __future__ import annotations

import importlib
import os
import platform
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

MODULES = ("mesh", "p1", "solver", "dmp", "expressions", "cli")


class ProgramMissing(RuntimeError):
    """The checkout does not hold the dmpfem sources."""


def load():
    """Import dmpfem and its layer modules from the checkout; return the
    package with the submodules attached as attributes."""
    if not (SRC / "dmpfem" / "__init__.py").is_file():
        raise ProgramMissing(f"no dmpfem sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    package = importlib.import_module("dmpfem")
    if Path(package.__file__).resolve().parent != SRC / "dmpfem":
        raise ProgramMissing(f"dmpfem was imported from {package.__file__}, not {SRC}")
    for name in MODULES:
        importlib.import_module(f"dmpfem.{name}")
    return package


def machine_record() -> dict:
    """Git SHA (when the checkout is a repository), core count, BLAS thread
    settings and library versions."""
    import numpy
    import scipy

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "blas_threads": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
