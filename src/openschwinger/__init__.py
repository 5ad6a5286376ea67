"""Open-system dynamics of the lattice Schwinger model in constrained bases.

The package builds the physical Hilbert space of the staggered-fermion
Schwinger model with a flux cutoff (Gauss law enforced exactly), projects onto
the zero-momentum positive-parity sector, and evolves the resulting density
matrix three ways: fixed-step RK4 on the master equation, exact propagation of
the vectorized generator, and a cycle-by-cycle unitary-dilation channel that
mirrors the quantum-circuit implementation.
"""

from .lattice import (
    GaugeFermionConfig,
    LatticeSpec,
    SymmetrySector,
    build_symmetry_sector,
    count_physical_states,
    enumerate_physical_configs,
    gauss_residuals,
    staggered_charges,
)
from .operators import (
    HermitianOperator,
    ModelParams,
    SectorOperators,
    build_sector_operators,
    matrix_from_json,
    matrix_to_json,
    project_operator,
)
from .lindblad import (
    CSV_HEADER,
    BathParams,
    DensityMatrix,
    EvolutionRecord,
    build_lindblad_operator,
    exact_evolve,
    exact_propagate,
    expectation,
    gibbs_reference,
    lindblad_rhs,
    rk4_evolve,
    steady_state,
    vectorized_liouvillian,
)
from .dilation import (
    build_dilation_hamiltonian,
    cycle_propagator,
    dilation_cycle,
    dilation_evolve,
    unitary_from_hamiltonian,
)

__version__ = "0.1.0"

__all__ = [
    "BathParams",
    "CSV_HEADER",
    "DensityMatrix",
    "EvolutionRecord",
    "GaugeFermionConfig",
    "HermitianOperator",
    "LatticeSpec",
    "ModelParams",
    "SectorOperators",
    "SymmetrySector",
    "build_dilation_hamiltonian",
    "build_lindblad_operator",
    "build_sector_operators",
    "build_symmetry_sector",
    "count_physical_states",
    "cycle_propagator",
    "dilation_cycle",
    "dilation_evolve",
    "enumerate_physical_configs",
    "exact_evolve",
    "exact_propagate",
    "expectation",
    "gauss_residuals",
    "gibbs_reference",
    "lindblad_rhs",
    "matrix_from_json",
    "matrix_to_json",
    "project_operator",
    "rk4_evolve",
    "staggered_charges",
    "steady_state",
    "unitary_from_hamiltonian",
    "vectorized_liouvillian",
    "__version__",
]
