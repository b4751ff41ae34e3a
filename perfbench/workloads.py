"""The four benchmark workloads: their inputs, one timed pass, and its checks.

Each workload draws its inputs from the seed alone.  ``run_pass`` does the
timed work of one pass and returns a ``Pass``; ``check`` reads the outputs
back afterwards, outside the timed region.  Why each workload exists is in
README.md next to this file.
"""

from __future__ import annotations

import json
import math
import os
import random
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from idjc import dynamics, fock, scenarios
from idjc.errors import IdjcError

import checks
from tracer import recording

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CLI_CHILD = Path(__file__).resolve().parent / "cli_child.py"

# The README reproduction settings.
README_ALPHA = 5.0
README_STEPS = 600
README_GRID = (-8.0, 8.0, -8.0, 8.0, 161, 161)
README_Q_TAUS = (0.0, math.pi / 4, math.pi / 2)
SWEEP_SCENARIOS = ("purity-mixture", "inversion-cat", "cat-transition", "ordinary-contrast")
CLI_TIMEOUT_S = 120


def program_env() -> dict[str, str]:
    """Environment for child interpreters: the package is imported from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class Pass:
    """What one pass did: its timed wall time and the outputs to check."""

    duration_s: float
    tables: list[checks.Table] = field(default_factory=list)
    failed_ops: list[str] = field(default_factory=list)  # failed before any check
    invocation_s: dict[str, float] = field(default_factory=dict)
    traces: list[list] = field(default_factory=list)
    values: np.ndarray | None = None
    outcomes: list[checks.Outcome] = field(default_factory=list)


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.order_rng = random.Random(seed)

    def prepare(self) -> None:
        """Untimed set-up after import: warm caches, build references."""

    def run_pass(self, index: int, tracer=None) -> Pass:
        raise NotImplementedError

    def check(self, done: Pass, index: int) -> list[checks.Outcome]:
        rng = np.random.default_rng([self.seed, index])
        outcomes = [checks.Outcome(False, reason=r) for r in done.failed_ops]
        outcomes += [checks.check_table(t, rng) for t in done.tables]
        for path in self.workdir.iterdir():
            path.unlink()
        return outcomes

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def _sweep_tables(self, name: str, alpha: float, steps: int, path: Path):
        taus = tuple(np.linspace(0.0, math.pi, steps).tolist())
        return [checks.Table(path, name, alpha, taus)]

    def _q_tables(self, alpha: float, taus, path: Path):
        if len(taus) == 1:
            paths = [path]
        else:
            paths = [path.with_name(f"{path.stem}_t{k}{path.suffix}") for k in range(len(taus))]
        return [checks.Table(p, "qfunc-mixture", alpha, (t,), README_GRID)
                for p, t in zip(paths, taus)]


class CliReadme(Workload):
    """The five README runs, each a cold ``python -m idjc.cli run --self-check``."""

    name = "cli-readme"

    def _invocations(self):
        out = {}
        for name in SWEEP_SCENARIOS:
            path = self.workdir / f"{name}.csv"
            argv = ["run", "--scenario", name, "--alpha", repr(README_ALPHA),
                    "--tau-max", repr(math.pi), "--tau-steps", str(README_STEPS),
                    "--self-check", "--out", str(path)]
            out[name] = (argv, self._sweep_tables(name, README_ALPHA, README_STEPS, path))
        path = self.workdir / "qfunc-mixture.csv"
        x_min, x_max, y_min, y_max, nx, ny = README_GRID
        argv = ["run", "--scenario", "qfunc-mixture", "--alpha", repr(README_ALPHA),
                "--x-min", repr(x_min), "--x-max", repr(x_max),
                "--y-min", repr(y_min), "--y-max", repr(y_max),
                "--nx", str(nx), "--ny", str(ny),
                "--tau-values", ",".join(repr(t) for t in README_Q_TAUS),
                "--self-check", "--out", str(path)]
        out["qfunc-mixture"] = (argv, self._q_tables(README_ALPHA, README_Q_TAUS, path))
        return out

    def run_pass(self, index, tracer=None):
        invocations = self._invocations()
        order = self.order_rng.sample(sorted(invocations), len(invocations))
        done = Pass(0.0)
        env = program_env()
        for name in order:
            argv, tables = invocations[name]
            spans_path = self.workdir / f"{name}.spans.json"
            if tracer is None:
                cmd = [sys.executable, "-m", "idjc.cli", *argv]
            else:  # the tracer runs in the child; this one only reads its spans
                cmd = [sys.executable, str(CLI_CHILD), str(spans_path), *argv]
            start = time.perf_counter()
            proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True, timeout=CLI_TIMEOUT_S)
            elapsed = time.perf_counter() - start
            done.invocation_s[name] = elapsed
            done.duration_s += elapsed
            if proc.returncode != 0:
                done.failed_ops.append(f"{name}: exit {proc.returncode}: {proc.stderr.strip()}")
                continue
            done.tables += tables
            if tracer is not None:
                done.traces.append(json.loads(spans_path.read_text()))
        return done

    def peak_rss_mb(self):
        # the largest child; the benchmark process only reads files
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


class InProcess(Workload):
    """A workload driving ``idjc`` from this process."""

    def _configs(self):
        """(ScenarioConfig, expected tables) for each call of one pass, in call order."""
        raise NotImplementedError

    def prepare(self):
        # one warm-up pass as pass 0, checked but not counted
        self.check(self.run_pass(0), 0)

    def run_pass(self, index, tracer=None):
        done = Pass(0.0)
        with recording(tracer, done.traces):
            start = time.perf_counter()
            for config, tables in self._configs():
                try:
                    scenarios.run_scenario(config, self_check=True)
                except (IdjcError, OSError) as exc:
                    done.failed_ops += [f"{config.scenario}: {exc!r}"] * len(tables)
                    continue
                done.tables += tables
            done.duration_s = time.perf_counter() - start
        return done


class SweepAlpha10(InProcess):
    """Four tau sweeps at alpha 10 (dim 203) with the closed-form self-check."""

    name = "sweep-alpha10"
    alpha = 10.0

    def _configs(self):
        order = self.order_rng.sample(SWEEP_SCENARIOS, len(SWEEP_SCENARIOS))
        out = []
        for name in order:
            path = self.workdir / f"{name}.csv"
            config = scenarios.ScenarioConfig(scenario=name, alpha=self.alpha,
                                              tau_max=math.pi, tau_steps=README_STEPS,
                                              output_path=str(path))
            out.append((config, self._sweep_tables(name, self.alpha, README_STEPS, path)))
        return out


class QgridTau8(InProcess):
    """README Q grids at tau = k pi/8, k = 0..7, in one run with jobs=1."""

    name = "qgrid-tau8"
    taus = tuple(k * math.pi / 8 for k in range(8))

    def _configs(self):
        taus = tuple(self.order_rng.sample(self.taus, len(self.taus)))
        path = self.workdir / "qfunc-mixture.csv"
        x_min, x_max, y_min, y_max, nx, ny = README_GRID
        config = scenarios.ScenarioConfig(
            scenario="qfunc-mixture", alpha=README_ALPHA, tau_values=taus,
            x_min=x_min, x_max=x_max, y_min=y_min, y_max=y_max, nx=nx, ny=ny,
            output_path=str(path))
        return [(config, self._q_tables(README_ALPHA, taus, path))]


class LibraryMixed(Workload):
    """A seeded full-rank state evolved call by call through the library API."""

    name = "library-mixed"
    dim = 203
    steps = 300

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = np.random.default_rng(seed)
        k = self.dim - 4  # levels 0 .. dim-5; the top stays empty for the map
        g = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        gram = g @ g.conj().T
        el = np.zeros((self.dim, self.dim), dtype=complex)
        el[:k, :k] = gram / np.trace(gram).real
        self.rho0 = fock.DensityMatrix((el + el.conj().T) / 2.0)
        self.params = [
            dynamics.EvolutionParams(tau=float(tau), dim=self.dim, coupling=coupling, atom=atom)
            for coupling in (dynamics.INTENSITY_DEPENDENT, dynamics.ORDINARY)
            for atom in (dynamics.ATOM_EXCITED, dynamics.ATOM_GROUND)
            for tau in np.linspace(0.0, 2.0 * math.pi, self.steps)
        ]

    def prepare(self):
        self.reference, self.ref_outcomes = checks.library_reference(self.rho0, self.params)

    def run_pass(self, index, tracer=None):
        rho0 = self.rho0
        done = Pass(0.0, values=np.empty((len(self.params), 2)))
        with recording(tracer, done.traces):
            start = time.perf_counter()
            for k, params in enumerate(self.params):
                try:
                    rho = dynamics.evolve_field(rho0, params)
                    done.values[k] = (fock.purity_defect(rho),
                                      dynamics.excited_population(rho0, params))
                except IdjcError:
                    done.values[k] = math.nan  # fails its check
            done.duration_s = time.perf_counter() - start
        return done

    def check(self, done, index):
        return checks.check_library(done.values, self.reference, self.ref_outcomes)


WORKLOADS = {w.name: w for w in (CliReadme, SweepAlpha10, QgridTau8, LibraryMixed)}
