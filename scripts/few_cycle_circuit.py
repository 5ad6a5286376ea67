#!/usr/bin/env python3
"""Quality of the short-circuit regime: 4 dilation cycles per time point.

A circuit with a fixed small cycle budget reaches time t with cycle step
t/4, so its accuracy degrades as t grows.  For each endpoint t on a grid this
script runs the 4-cycle channel, takes the exact solution at t from one exact
run over the whole grid, and records the pair-count deviation.  The deviation
stays small up to t of about 6 lattice units and visibly degrades beyond,
which is the point of the exercise.

Usage: python scripts/few_cycle_circuit.py [outdir]   (default results/few_cycle)
"""

import sys
from pathlib import Path

import numpy as np

from openschwinger import (
    BathParams,
    DensityMatrix,
    LatticeSpec,
    ModelParams,
    build_lindblad_operator,
    build_sector_operators,
    build_symmetry_sector,
    dilation_evolve,
    exact_evolve,
)

BETA = 0.1
COUPLING = 3.2
N_CYCLES = 4
T_GRID = np.arange(0.5, 10.0 + 1e-9, 0.5)


def main() -> int:
    out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("results/few_cycle")
    out_dir.mkdir(parents=True, exist_ok=True)

    spec = LatticeSpec(2, truncate_total_flux=True)
    params = ModelParams()
    sector = build_symmetry_sector(spec)
    ops = build_sector_operators(sector, params)
    bath = BathParams.from_beta(BETA, COUPLING)
    lop = build_lindblad_operator(ops.hamiltonian, ops.condensate, spec, params, bath)
    rho0 = DensityMatrix.pure_state(ops.hamiltonian.dim, 0)
    obs = dict(pair_count=ops.pair_count, electric_square=ops.electric_square)
    exact = exact_evolve(rho0, ops.hamiltonian, lop, np.concatenate([[0.0], T_GRID]), **obs)

    lines = ["t,n_pairs_circuit,n_pairs_exact,abs_dev"]
    for t, n_exact in zip(T_GRID, exact.n_pairs[1:]):
        rec = dilation_evolve(rho0, ops.hamiltonian, lop, float(t), N_CYCLES, **obs)
        n_circuit = rec.n_pairs[-1]
        dev = abs(n_circuit - n_exact)
        lines.append(f"{t:.17g},{n_circuit:.17g},{n_exact:.17g},{dev:.17g}")
        print(f"t={t:4.1f}: circuit={n_circuit:.4f} exact={n_exact:.4f} |dev|={dev:.4f}")

    out = out_dir / f"ncycle{N_CYCLES}_deviation.csv"
    out.write_text("\n".join(lines) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
