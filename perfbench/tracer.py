"""In-memory span tracer wrapped around the public functions of ``idjc``.

The tracer replaces module attributes (the names :mod:`idjc.scenarios` calls
through, such as ``fock.make_coherent`` or ``dynamics.evolve_field``) and
``fock.DensityMatrix.__post_init__`` with thin wrappers that record one span
per call: name, start, end, parent span and an optional work descriptor taken
from the arguments.  Nothing in the package itself is edited; ``uninstall``
puts every original back.

Constructors of frozen value classes (``CatSpec``, ``EvolutionParams``) are
not wrapped, because replacing a class by a function would change what the
package sees; their cost stays in the caller's self time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import time

# (module, attribute, span name); the span name doubles as the layer key.
_FUNCTIONS = (
    ("idjc.scenarios", "run_scenario", "scenarios.run_scenario"),
    ("idjc.fock", "make_coherent", "fock.make_coherent"),
    ("idjc.fock", "make_cat", "fock.make_cat"),
    ("idjc.fock", "pure_density", "fock.pure_density"),
    ("idjc.fock", "mix", "fock.mix"),
    ("idjc.fock", "purity_defect", "fock.purity_defect"),
    ("idjc.fock", "fidelity_with_pure", "fock.fidelity_with_pure"),
    ("idjc.dynamics", "evolve_field", "dynamics.evolve_field"),
    ("idjc.dynamics", "excited_population", "dynamics.excited_population"),
    ("idjc.closed_form", "purity_mixture_closed", "closed_form.purity_mixture_closed"),
    ("idjc.closed_form", "inversion_cat_closed", "closed_form.inversion_cat_closed"),
    ("idjc.husimi", "q_grid", "husimi.q_grid"),
    ("idjc.husimi", "q_mixture_closed", "husimi.q_mixture_closed"),
)

DENSITY_SPAN = "fock.DensityMatrix"


def _evolve_attrs(arguments):
    return {"dim": arguments["rho0"].dim}


def _q_grid_attrs(arguments):
    grid = [float(arguments[k]) for k in ("x_min", "x_max", "y_min", "y_max")]
    return {"dim": arguments["rho"].dim,
            "grid": grid + [int(arguments["nx"]), int(arguments["ny"])]}


# span name -> work descriptor, taken from the call's bound arguments
_ATTRS = {
    "dynamics.evolve_field": _evolve_attrs,
    "husimi.q_grid": _q_grid_attrs,
}


class Tracer:
    """Records spans of calls into ``idjc`` while installed.

    One tracer serves one thread: the parent of a span is the innermost span
    open when it starts.  Spans are kept as lists
    ``[name, start, end, parent, attrs]`` with ``parent`` an index into
    ``spans`` (-1 at the top) and times from ``time.perf_counter``.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        describe = _ATTRS.get(name)
        signature = inspect.signature(fn) if describe else None

        def attrs(args, kwargs):
            if describe is None:
                return None
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            return describe(bound.arguments)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, attrs(args, kwargs)]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return traced

    def _replace(self, owner, attr, name):
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original))

    def install(self) -> None:
        """Wrap every traced entry point; a second call is an error."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module_name, attr, name in _FUNCTIONS:
            self._replace(importlib.import_module(module_name), attr, name)
        fock = importlib.import_module("idjc.fock")
        self._replace(fock.DensityMatrix, "__post_init__", DENSITY_SPAN)
        # the CLI binds run_scenario by name at import time
        cli = importlib.import_module("idjc.cli")
        self._replace(cli, "run_scenario", "scenarios.run_scenario")

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and start a fresh list."""
        taken = list(self.spans)
        self.spans.clear()
        return taken

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


@contextlib.contextmanager
def recording(tracer: Tracer | None, traces: list):
    """Trace the block when a tracer is given, then append its spans to ``traces``."""
    if tracer is None:
        yield
        return
    tracer.install()
    try:
        yield
    finally:
        tracer.uninstall()
        traces.append(tracer.take())


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(spans)]


_CONSTRUCT = ("fock.make_coherent", "fock.make_cat", "fock.pure_density", "fock.mix")

#: Layer metrics holding self time; they never overlap, so their sum is at
#: most the wall time of the pass they were taken from.
SELF_TIME_METRICS = (
    "scenarios.run_scenario.self_s",
    "fock.construct.s",
    "fock.DensityMatrix.s",
    "fock.purity_defect.s",
    "fock.fidelity_with_pure.s",
    "dynamics.evolve_field.self_s",
    "dynamics.excited_population.s",
    "closed_form.purity_mixture_closed.s",
    "closed_form.inversion_cat_closed.s",
    "husimi.q_grid.s",
    "husimi.q_mixture_closed.s",
)

#: Layer metrics computed from call counts and argument shapes; they repeat
#: exactly for a given workload and program.
COUNT_METRICS = (
    "scenarios.run_scenario.calls",
    "fock.construct.calls",
    "fock.DensityMatrix.calls",
    "fock.DensityMatrix.per_evolve",
    "fock.purity_defect.calls",
    "fock.fidelity_with_pure.calls",
    "dynamics.evolve_field.calls",
    "dynamics.evolve_field.bytes_computed",
    "dynamics.excited_population.calls",
    "closed_form.purity_mixture_closed.calls",
    "closed_form.inversion_cat_closed.calls",
    "husimi.q_grid.calls",
    "husimi.q_grid.points",
    "husimi.q_grid.flops_computed",
    "husimi.overlap_reuse",
    "husimi.q_mixture_closed.calls",
)

# complex128 entries
_ENTRY_BYTES = 16


def layer_metrics(traces: list[list[list]]) -> dict[str, float]:
    """Per-layer counts and self times over the span lists of one pass.

    ``traces`` holds one span list per traced process (one for an in-process
    pass, one per CLI invocation otherwise).  Computed work:

    * ``dynamics.evolve_field.bytes_computed``: 2 * 16 * dim^2 per call, the
      input matrix read once and the evolved matrix written once;
    * ``husimi.q_grid.flops_computed``: nx * ny * (8 dim^2 + 8 dim) per call,
      one complex matrix-vector product and one complex dot per grid point;
    * ``husimi.overlap_reuse``: the share of ``q_grid`` calls whose grid and
      dim equal those of an earlier call in the same pass, so their coherent
      overlaps repeat work already done.
    """
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    evolve_dm = evolve_bytes = points = flops = reused = 0
    seen_grids = set()
    for spans in traces:
        evolve_idx = set()
        for i, (span, own) in enumerate(zip(spans, self_times(spans))):
            name, _, _, parent, attrs = span
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + own
            if name == "dynamics.evolve_field":
                evolve_idx.add(i)
                evolve_bytes += 2 * _ENTRY_BYTES * attrs["dim"] ** 2
            elif name == DENSITY_SPAN and parent in evolve_idx:
                evolve_dm += 1
            elif name == "husimi.q_grid":
                dim, grid = attrs["dim"], attrs["grid"]
                n = grid[4] * grid[5]
                points += n
                flops += n * (8 * dim * dim + 8 * dim)
                key = (dim, tuple(grid))
                reused += key in seen_grids
                seen_grids.add(key)

    def c(name):
        return calls.get(name, 0)

    def s(name):
        return self_s.get(name, 0.0)

    evolves = c("dynamics.evolve_field")
    grids = c("husimi.q_grid")
    out = {
        "scenarios.run_scenario.calls": c("scenarios.run_scenario"),
        "scenarios.run_scenario.self_s": s("scenarios.run_scenario"),
        "fock.construct.calls": sum(c(n) for n in _CONSTRUCT),
        "fock.construct.s": sum(s(n) for n in _CONSTRUCT),
        "fock.DensityMatrix.calls": c(DENSITY_SPAN),
        "fock.DensityMatrix.s": s(DENSITY_SPAN),
        "fock.DensityMatrix.per_evolve": evolve_dm / evolves if evolves else 0.0,
        "dynamics.evolve_field.self_s": s("dynamics.evolve_field"),
        "dynamics.evolve_field.bytes_computed": evolve_bytes,
        "husimi.q_grid.points": points,
        "husimi.q_grid.flops_computed": flops,
        "husimi.overlap_reuse": reused / grids if grids else 0.0,
    }
    for name in ("fock.purity_defect", "fock.fidelity_with_pure",
                 "dynamics.evolve_field", "dynamics.excited_population",
                 "closed_form.purity_mixture_closed", "closed_form.inversion_cat_closed",
                 "husimi.q_grid", "husimi.q_mixture_closed"):
        out[f"{name}.calls"] = c(name)
        if name != "dynamics.evolve_field":  # reported as self_s above
            out[f"{name}.s"] = s(name)
    return out
