"""Quantum-circuit emulation of the Lindblad evolution by Stinespring dilation.

One ancilla qubit is enough for a single Lindblad operator.  Per cycle of
length dt the register (ancilla as the leftmost, most significant factor)
starts in |0><0| (x) rho, evolves under

    U_J = exp(-i J sqrt(dt)),   J = [[0, L+], [L, 0]],
    U_H = exp(-i H dt)          (system factor only),

applied in that order, and the ancilla is traced out and reset.  The cycle is
an exactly completely-positive trace-preserving map for any dt; its expansion
in dt reproduces the Lindblad generator at first order, so many short cycles
converge to the continuous evolution.

The cycle K0 rho K0+ + K1 rho K1+ (W = [K0; K1], ``cycle_propagator``) steps
the real state R = Re rho + Im rho: with W = P - iQ and k over its blocks,

    R' = sum_k P_k R P_k^T + Q_k R Q_k^T + P_k R^T Q_k^T - Q_k R^T P_k^T,

which is Re rho' + Im rho' for any complex W, so H and L may be complex.
"""

from __future__ import annotations

import numpy as np

from .lindblad import (
    EvolutionRecord, _diagonal_of, _engine_basis, _matrix_of, _real_state_of, _run_trajectory,
)

__all__ = [
    "build_dilation_hamiltonian",
    "unitary_from_hamiltonian",
    "cycle_propagator",
    "dilation_cycle",
    "dilation_evolve",
]

# every cycle is an exact CPTP map, so each recorded state is held this tight
CYCLE_TOLERANCES = {"trace_tol": 1e-12, "psd_tol": 1e-10}


def build_dilation_hamiltonian(lindblad_op) -> np.ndarray:
    """J = [[0, L+], [L, 0]]: Hermitian on ancilla (x) system."""
    lop = _matrix_of(lindblad_op)
    dim = lop.shape[0]
    j = np.zeros((2 * dim, 2 * dim), dtype=lop.dtype)
    j[:dim, dim:] = lop.conj().T
    j[dim:, :dim] = lop
    return j


def unitary_from_hamiltonian(h, t: float) -> np.ndarray:
    """exp(-i h t) through the eigendecomposition of Hermitian h."""
    evals, evecs = np.linalg.eigh(_matrix_of(h))
    phases = np.exp(-1j * evals * t)
    return (evecs * phases) @ evecs.conj().T


def cycle_propagator(hamiltonian, lindblad_op, dt: float) -> np.ndarray:
    """First block column of (1 (x) U_H) U_J, all a cycle needs.

    Starting from |0><0| (x) rho only the first d columns of the combined
    unitary act on nonzero input, so the cycle is W rho W+ followed by the
    partial trace over the ancilla blocks.
    """
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError(f"cycle length must be finite and positive, got {dt}")
    lop = _matrix_of(lindblad_op)
    dim = lop.shape[0]
    u_j = unitary_from_hamiltonian(build_dilation_hamiltonian(lop), np.sqrt(dt))
    u_h = unitary_from_hamiltonian(hamiltonian, dt)
    w = u_j[:, :dim].copy()
    w[:dim, :] = u_h @ w[:dim, :]
    w[dim:, :] = u_h @ w[dim:, :]
    return w


def _real_layout(w: np.ndarray) -> np.ndarray:
    """W = P - iQ as ``dilation_cycle`` uses it: a (3, 2d, 2d) real array of
    V (row 2j + k is row j of V_k = [P_k, Q_k]) and room for M and V M."""
    dim = w.shape[1]
    out = np.empty((3, 2 * dim, 2 * dim))
    v = out[0].reshape(dim, 2, 2 * dim)
    v[..., :dim] = w.real.reshape(2, dim, dim).swapaxes(0, 1)
    np.negative(w.imag.reshape(2, dim, dim).swapaxes(0, 1), out=v[..., dim:])
    return out


def dilation_cycle(r: np.ndarray, w: np.ndarray) -> np.ndarray:
    """One precomputed cycle W on the real state R: R' = sum_k V_k M V_k^T with
    V_k = [P_k, Q_k] and M = [[R, R^T], [-R^T, R]], 12 d^3 real multiply-adds.

    ``w`` is W or its ``_real_layout``, which ``dilation_evolve`` makes once so
    that no cycle allocates M or V M (made per cycle, they went back to the OS
    in some processes and faulted in again).  The sum over k is one product of
    (V M).reshape(d, 4d) and V.reshape(d, 4d)^T."""
    dim = r.shape[0]
    v, m, vm = w if w.ndim == 3 else _real_layout(w)
    m[:dim, :dim] = m[dim:, dim:] = r
    m[:dim, dim:] = r.T
    np.negative(r.T, out=m[dim:, :dim])
    np.matmul(v, m, out=vm)
    return vm.reshape(dim, 4 * dim) @ v.reshape(dim, 4 * dim).T


def dilation_evolve(
    rho0,
    hamiltonian,
    lindblad_op,
    t_max: float,
    n_cycles: int,
    *,
    pair_count,
    electric_square,
) -> EvolutionRecord:
    """Run n_cycles dilation cycles of length t_max / n_cycles on the real
    state R of rho0 (refused with ValueError unless Hermitian to 1e-10, see
    ``_real_state_of``), one R and one cycle per stepped part of the C basis
    (``lindblad._engine_basis``): W is built from H and L, which are
    block-diagonal there.  Every cycle is checked against ``CYCLE_TOLERANCES``
    (trace to 1e-12, positivity to 1e-10), and the returned record samples
    every cycle boundary including t=0.  A t_max that is not finite and
    positive is refused with ValueError before any setup.
    """
    if n_cycles < 1:
        raise ValueError(f"need at least one cycle, got {n_cycles}")
    if not (np.isfinite(t_max) and t_max > 0):
        raise ValueError(f"t_max must be finite and positive, got {t_max}")
    diagonals = _diagonal_of(pair_count, "pair_count"), _diagonal_of(electric_square, "electric_square")
    c = _engine_basis(hamiltonian, lindblad_op, rho0, diagonals)
    states = c.cut(_real_state_of(rho0))
    dt = t_max / n_cycles
    h, lop = c.cut(_matrix_of(hamiltonian)), c.cut(_matrix_of(lindblad_op))
    ws = [_real_layout(cycle_propagator(*ops, dt)) for ops in zip(h, lop)]
    return _run_trajectory(
        c, states, lambda rs, k: [dilation_cycle(r, w) for r, w in zip(rs, ws)],
        n_cycles, lambda k: k * dt, diagonals=diagonals, tolerances=CYCLE_TOLERANCES,
        counters={"steps": n_cycles, "cycles": n_cycles * len(c.parts)},
    )
