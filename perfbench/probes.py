"""Measurements taken in fresh interpreters, and the machine record.

* ``setup_times``: wall time from spawning an interpreter until ``import
  idjc`` returns, read off the system-wide monotonic clock on both sides.
* ``import_breakdown``: cumulative import times from ``python -X importtime``.
* ``jobs2_speedup``: ``q_grid`` with ``jobs=1`` against ``jobs=2`` on one
  README grid.  The child is this file run as a script; like every process
  of the benchmark it has one BLAS thread, so the probe runs at most two
  threads.
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import ROOT, SRC, program_env

CHILD_TIMEOUT_S = 120
IMPORT_MODULES = ("idjc", "scipy.stats", "scipy.special", "numpy")


def _child(args) -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable, *args], env=program_env(), cwd=ROOT,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"probe {args[:2]} exited {proc.returncode}: {proc.stderr.strip()}")
    return proc


def setup_times(repeats: int) -> list[float]:
    out = []
    for _ in range(repeats):
        start = time.monotonic()
        proc = _child(["-c", "import time, idjc; print(time.monotonic())"])
        out.append(float(proc.stdout) - start)
    return out


def import_breakdown(repeats: int) -> dict[str, float]:
    """Median cumulative import time, in seconds, of each of IMPORT_MODULES."""
    samples: dict[str, list[float]] = {m: [] for m in IMPORT_MODULES}
    for _ in range(repeats):
        proc = _child(["-X", "importtime", "-c", "import idjc"])
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in samples:
                samples[parts[2].strip()].append(int(parts[1]) * 1e-6)
    return {m: statistics.median(v) for m, v in samples.items()}


def jobs2_speedup(repeats: int) -> float:
    proc = _child([str(Path(__file__).resolve()), "jobs2", str(repeats)])
    times = json.loads(proc.stdout)
    return statistics.median(times["1"]) / statistics.median(times["2"])


def _jobs2_child(repeats: int) -> None:
    import math
    import idjc
    from workloads import README_ALPHA, README_GRID

    dim = idjc.default_dim(README_ALPHA)
    rho = idjc.evolve_field(
        idjc.mix([(0.5, idjc.pure_density(idjc.make_coherent(a, dim)))
                  for a in (README_ALPHA, -README_ALPHA)]),
        idjc.EvolutionParams(tau=math.pi / 4, dim=dim))
    times = {"1": [], "2": []}
    idjc.q_grid(rho, *README_GRID, jobs=1)  # warm-up
    for _ in range(repeats):
        for jobs in (1, 2):
            start = time.perf_counter()
            idjc.q_grid(rho, *README_GRID, jobs=jobs)
            times[str(jobs)].append(time.perf_counter() - start)
    print(json.dumps(times))


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _openblas() -> dict:
    import numpy
    info = {"version": None, "threads": None}
    try:
        info["version"] = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        pass
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*"))
    for path in libs:
        try:
            get = ctypes.CDLL(path).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        get.restype = ctypes.c_int
        info["threads"] = get()
    return info


def _git_commit() -> str | None:
    """HEAD of the repository holding the benchmark, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_record() -> dict:
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas(),
        "git_commit": _git_commit(),
        "program": str(SRC.relative_to(ROOT)),
        "blas_env": {k: os.environ.get(k) for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "jobs2_probe": "q_grid jobs=1 vs jobs=2 in a child with one BLAS thread, "
                       "so the probe runs at most 2 threads",
    }


if __name__ == "__main__" and sys.argv[1:2] == ["jobs2"]:
    _jobs2_child(int(sys.argv[2]))
