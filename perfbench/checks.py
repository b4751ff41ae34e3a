"""Output checks, run between passes and never inside a timed region.

Every table a pass writes is read back from disk and held against the
closed forms of :mod:`idjc.closed_form` and :mod:`idjc.husimi`; the dense
library workload is held against trace preservation and the purity
invariant of the joint atom-field state.  A check returns an ``Outcome``;
one failed outcome counts one failed operation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from idjc import closed_form, dynamics, fock, husimi

ATOL = 1e-9
# slack for values that are bounded exactly but computed in floating point
_EDGE = 1e-12
_Q_SAMPLE = 64

HEADERS = {
    "purity-mixture": ["tau", "zeta_numeric", "zeta_closed"],
    "inversion-cat": ["tau", "W_numeric", "W_closed"],
    "cat-transition": ["tau", "P_excited", "fidelity_even_cat_alpha",
                       "fidelity_odd_cat_i_alpha"],
    "ordinary-contrast": ["tau", "zeta_ID", "zeta_ordinary"],
    "qfunc-mixture": ["x", "y", "q"],
}


@dataclass(frozen=True)
class Table:
    """One output file a scenario should have written, with what it must hold."""

    path: Path
    scenario: str
    alpha: float
    taus: tuple[float, ...] = ()  # the sweep, or the single tau of a Q grid
    grid: tuple[float, float, float, float, int, int] | None = None
    parity_r: int = 1


@dataclass(frozen=True)
class Outcome:
    ok: bool
    gap: float = 0.0  # worst numeric-vs-closed (or invariant) difference
    rows: int = 0
    nbytes: int = 0
    reason: str = ""


def _read_csv(path):
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _within(values, lo, hi) -> bool:
    return bool(np.all(values >= lo - _EDGE) and np.all(values <= hi + _EDGE))


def check_table(table: Table, rng: np.random.Generator) -> Outcome:
    """Read one written table back and hold it against the closed forms."""
    try:
        header, data = _read_csv(table.path)
        nbytes = table.path.stat().st_size
    except (OSError, ValueError) as exc:
        return Outcome(False, reason=f"{table.path}: unreadable ({exc})")
    rows = data.shape[0]
    if header != HEADERS[table.scenario]:
        return Outcome(False, rows=rows, nbytes=nbytes, reason=f"header {header}")
    cols = data.T
    if table.scenario == "qfunc-mixture":
        gap, reason = _check_q(table, cols, rng)
    else:
        gap, reason = _check_sweep(table, cols)
    if not reason and not gap <= ATOL:
        reason = f"closed-form gap {gap:.3e}"
    return Outcome(not reason, gap, rows, nbytes,
                   f"{table.path.name}: {reason}" if reason else "")


def _check_sweep(table: Table, cols) -> tuple[float, str]:
    taus = np.asarray(table.taus)
    if cols.shape[1] != len(taus) or not np.allclose(cols[0], taus, rtol=0, atol=_EDGE):
        return math.inf, "tau column differs from the requested sweep"
    alpha, r = table.alpha, table.parity_r
    if table.scenario in ("purity-mixture", "inversion-cat"):
        numeric, closed = cols[1], cols[2]
    elif table.scenario == "cat-transition":
        numeric = cols[1]
        closed = np.array([(closed_form.inversion_cat_closed(alpha, r, t) + 1.0) / 2.0
                           for t in taus])
        if not _within(cols[2:], 0.0, 1.0):
            return math.inf, "fidelity outside [0, 1]"
    else:  # ordinary-contrast
        numeric = cols[1]
        n_terms = fock.default_dim(alpha)
        closed = np.array([closed_form.purity_mixture_closed(alpha, t, n_terms)
                           for t in taus])
        if not _within(cols[2], 0.0, 1.0):
            return math.inf, "zeta_ordinary outside [0, 1]"
    return float(np.max(np.abs(numeric - closed))), ""


def _check_q(table: Table, cols, rng) -> tuple[float, str]:
    x_min, x_max, y_min, y_max, nx, ny = table.grid
    if cols.shape[1] != nx * ny:
        return math.inf, f"{cols.shape[1]} rows, expected {nx * ny}"
    xs, ys, q = cols
    expect_x = np.repeat(np.linspace(x_min, x_max, nx), ny)
    expect_y = np.tile(np.linspace(y_min, y_max, ny), nx)
    if not (np.allclose(xs, expect_x, rtol=0, atol=_EDGE)
            and np.allclose(ys, expect_y, rtol=0, atol=_EDGE)):
        return math.inf, "grid coordinates differ from the requested grid"
    if not _within(q, 0.0, 1.0 / math.pi):
        return math.inf, f"Q outside [0, 1/pi]: min {q.min():.3e}, max {q.max():.6f}"
    idx = np.sort(rng.choice(q.size, size=min(_Q_SAMPLE, q.size), replace=False))
    closed = np.array([husimi.q_mixture_closed(table.alpha, table.taus[0],
                                               complex(xs[i], ys[i])) for i in idx])
    return float(np.max(np.abs(q[idx] - closed))), ""


def library_reference(rho0: fock.DensityMatrix, params_list) -> tuple[np.ndarray, list[Outcome]]:
    """Reference (purity defect, excited population) per parameter set.

    Each evolution is held against the joint atom-field state from
    ``joint_state_blocks``: the evolved field has unit trace and equals the
    atom-traced joint state ee + gg; the joint purity Tr J^2 equals
    Tr rho0^2 at every tau, because the joint evolution is unitary; the
    purity defect is 1 - sum |rho_ij|^2 and the excited population is the
    trace of the ee block.
    """
    el0 = rho0.elements
    purity0 = float(np.vdot(el0, el0).real)
    values = np.empty((len(params_list), 2))
    outcomes = []
    for k, params in enumerate(params_list):
        rho = dynamics.evolve_field(rho0, params)
        values[k] = fock.purity_defect(rho), dynamics.excited_population(rho0, params)
        blocks = dynamics.joint_state_blocks(rho0, params)
        el = rho.elements
        joint = sum(float(np.sum(np.abs(b) ** 2))
                    for b in (blocks.ee, blocks.eg, blocks.ge, blocks.gg))
        gap = max(abs(complex(np.trace(el)) - 1.0),
                  float(np.max(np.abs(el - (blocks.ee + blocks.gg)))),
                  abs(joint - purity0),
                  abs(values[k, 0] - (1.0 - float(np.sum(np.abs(el) ** 2)))),
                  abs(values[k, 1] - float(np.trace(blocks.ee).real)))
        reason = "" if gap <= ATOL else f"{params}: joint-state check off by {gap:.3e}"
        outcomes.append(Outcome(not reason, gap, reason=reason))
    return values, outcomes


def check_library(values: np.ndarray, reference: np.ndarray,
                  ref_outcomes: list[Outcome]) -> list[Outcome]:
    """Hold one pass's results to the checked reference, operation by operation."""
    outcomes = []
    for got, want, ref in zip(values, reference, ref_outcomes):
        gap = float(np.max(np.abs(got - want)))
        in_range = -_EDGE <= got[0] <= 1.0 and -_EDGE <= got[1] <= 1.0 + _EDGE
        if not ref.ok:
            outcomes.append(ref)
        elif not (gap <= ATOL and in_range):
            outcomes.append(Outcome(False, gap, reason=f"result {got} vs reference {want}"))
        else:
            outcomes.append(Outcome(True, max(gap, ref.gap)))
    return outcomes
