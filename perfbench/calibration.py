"""Host-speed calibration for the benchmark's times.

On a shared 2-vCPU host the speed of the same code drifts by up to 1.9x over
minutes, with no steal time visible in the guest, and no run length the
benchmark can afford averages that out.  The benchmark therefore samples a
fixed CPU-bound kernel, independent of dmpfem, between the stages it times,
and scales each stage time by REFERENCE_S / (kernel time next to it).
Measured over 200 s of drift (30 s window medians), the ratio to the kernel
varied by 3% for a 24^2 dmpfem pipeline and 6% for an in-process 12^3
`dmp-check`, against 26-27% for the raw times; memory-streaming and
fresh-allocation kernels tracked worse (11-17%), so the kernel is
compute-bound and cache-resident.

A scaled time reads in seconds at the reference speed, the speed at which
one kernel run takes REFERENCE_S.
"""
from __future__ import annotations

import time

import numpy as np

import reference as ref

REFERENCE_S = 0.0075
REPEATS = 3
_GRID = 24


def _lattice_mesh(n: int):
    """Right-diagonal triangulation of the unit square, built without dmpfem."""
    x, y = np.meshgrid(np.linspace(0.0, 1.0, n + 1), np.linspace(0.0, 1.0, n + 1))
    vertices = np.column_stack([x.ravel(), y.ravel()])
    i, j = np.meshgrid(np.arange(n), np.arange(n))
    v00 = (j * (n + 1) + i).ravel()
    v10, v01, v11 = v00 + 1, v00 + n + 1, v00 + n + 2
    cells = np.concatenate([np.column_stack([v00, v10, v11]),
                            np.column_stack([v00, v11, v01])])
    return vertices, cells


class Calibration:
    def __init__(self):
        self.vertices, self.cells = _lattice_mesh(_GRID)
        self.boundary = ref.unit_box_boundary(self.vertices)
        self.load = ref.p1_load(self.vertices, self.cells, 1.0)

    def _kernel(self) -> float:
        t0 = time.perf_counter()
        table = {}
        for i in range(20000):
            table[(i, i + 1)] = i
        stiffness = ref.p1_stiffness(self.vertices, self.cells)
        ref.dirichlet_zero_solve(stiffness, self.load, self.boundary)
        return time.perf_counter() - t0

    def sample(self) -> float:
        """Kernel seconds now: the fastest of REPEATS runs."""
        return min(self._kernel() for _ in range(REPEATS))


def scaled(raw_s: float, kernel_s: float) -> float:
    """Stage seconds at the reference speed."""
    return raw_s * REFERENCE_S / kernel_s
