"""One set-up sample: import dmpfem and run one tiny operation of a workload.

Prints the elapsed seconds and a calibration sample taken right after;
`run.py` starts it in fresh processes and reports the median scaled time as
`setup_s`.

    python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR
"""
import sys
import time
from pathlib import Path

t0 = time.perf_counter()

import program  # noqa: E402  (stdlib only; dmpfem is imported by load())

dm = program.load()

import workloads  # noqa: E402

workload = workloads.WORKLOADS[sys.argv[1]](dm, workloads.Params(int(sys.argv[2])),
                                            Path(sys.argv[3]))
workload.run(workload.warm_n)
elapsed = time.perf_counter() - t0

import calibration  # noqa: E402

kernel = calibration.Calibration()
kernel.sample()  # the first runs in a fresh process are cold
print(elapsed, kernel.sample())
