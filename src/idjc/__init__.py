"""Field dynamics of the intensity-dependent Jaynes-Cummings model.

Truncated Fock-space simulation of a resonant two-level atom coupled to one
cavity mode through the intensity-dependent (Buck-Sukumar) interaction,
with closed-form series oracles, Husimi Q-function evaluation and a
scenario runner (see :mod:`idjc.scenarios` and the ``idjc`` command).
"""

from .closed_form import (
    evolved_cat_branches,
    inversion_cat_closed,
    poisson_weights,
    purity_mixture_closed,
    revival_time,
)
from .dynamics import (
    ATOM_EXCITED,
    ATOM_GROUND,
    INTENSITY_DEPENDENT,
    ORDINARY,
    BranchSweep,
    EvolutionParams,
    JointBlocks,
    atomic_inversion,
    evolve_field,
    excited_population,
    joint_state_blocks,
    kraus_diag,
    kraus_shift,
    sweep_branches,
)
from .errors import (
    ConfigError,
    DimMismatch,
    IdjcError,
    InvalidCat,
    InvalidDim,
    SelfCheckFailed,
    TailLeak,
    TruncationTooSmall,
    WeightMismatch,
)
from .fock import (
    CatSpec,
    DensityMatrix,
    StateVector,
    default_dim,
    fidelity_with_pure,
    make_cat,
    make_coherent,
    mix,
    photon_distribution,
    poisson_tail,
    pure_density,
    purity_defect,
)
from .husimi import QGrid, q_at, q_grid, q_mixture_closed, q_sweep

__version__ = "0.1.0"

__all__ = [
    "ATOM_EXCITED",
    "ATOM_GROUND",
    "BranchSweep",
    "CatSpec",
    "ConfigError",
    "DensityMatrix",
    "DimMismatch",
    "EvolutionParams",
    "IdjcError",
    "INTENSITY_DEPENDENT",
    "InvalidCat",
    "InvalidDim",
    "JointBlocks",
    "ORDINARY",
    "QGrid",
    "SelfCheckFailed",
    "StateVector",
    "TailLeak",
    "TruncationTooSmall",
    "WeightMismatch",
    "atomic_inversion",
    "default_dim",
    "evolve_field",
    "evolved_cat_branches",
    "excited_population",
    "fidelity_with_pure",
    "inversion_cat_closed",
    "joint_state_blocks",
    "kraus_diag",
    "kraus_shift",
    "make_cat",
    "make_coherent",
    "mix",
    "photon_distribution",
    "poisson_tail",
    "poisson_weights",
    "pure_density",
    "purity_defect",
    "purity_mixture_closed",
    "q_at",
    "q_grid",
    "q_mixture_closed",
    "q_sweep",
    "revival_time",
    "sweep_branches",
]
