"""Unitary-dilation channel: isometry structure, accuracy, convergence."""

import numpy as np
import pytest

from conftest import standard_setup
from openschwinger import dilation
from openschwinger import (
    DensityMatrix,
    build_dilation_hamiltonian,
    cycle_propagator,
    dilation_cycle,
    dilation_evolve,
    exact_propagate,
    lindblad_rhs,
    rk4_evolve,
    unitary_from_hamiltonian,
)
from openschwinger.lindblad import _density_of_real, _real_state_of


@pytest.fixture(scope="module")
def n2():
    return standard_setup(2)


def random_density(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def cycle(rho, w):
    """One ``dilation_cycle`` on the real state of Hermitian rho, decoded."""
    r = _real_state_of(rho)
    return _density_of_real(dilation_cycle(r, w))


def traced_dilated_state(rho, w):
    # test-only oracle: the full 2d x 2d state W rho W+ and its partial trace
    d = rho.shape[0]
    m = w @ rho @ w.conj().T
    return m[:d, :d] + m[d:, d:]


def test_dilation_hamiltonian_blocks(n2):
    _, _, ops, _, lop = n2
    d = ops.dim
    j = build_dilation_hamiltonian(lop)
    assert j.shape == (2 * d, 2 * d)
    assert np.max(np.abs(j - j.conj().T)) < 1e-14
    assert np.array_equal(j[:d, :d], np.zeros((d, d)))
    assert np.array_equal(j[d:, d:], np.zeros((d, d)))
    assert np.allclose(j[d:, :d], lop, atol=1e-15)
    assert np.allclose(j[:d, d:], lop.conj().T, atol=1e-15)


def test_unitary_from_hamiltonian_is_unitary(n2):
    _, _, ops, _, _ = n2
    u = unitary_from_hamiltonian(ops.hamiltonian.matrix, 0.7)
    assert np.allclose(u @ u.conj().T, np.eye(ops.dim), atol=1e-13)


def test_cycle_propagator_is_an_isometry(n2):
    """W stacks the two Kraus operators, so W+W = K0+K0 + K1+K1 = identity;
    this is the algebraic reason every cycle is exactly trace preserving."""
    _, _, ops, _, lop = n2
    d = ops.dim
    w = cycle_propagator(ops.hamiltonian, lop, 0.05)
    assert w.shape == (2 * d, d)
    assert np.allclose(w.conj().T @ w, np.eye(d), atol=1e-13)


def test_cycle_propagator_composes_the_two_gates(n2):
    _, _, ops, _, lop = n2
    d = ops.dim
    dt = 0.01
    uj = unitary_from_hamiltonian(build_dilation_hamiltonian(lop), np.sqrt(dt))
    uh = unitary_from_hamiltonian(ops.hamiltonian.matrix, dt)
    expected = (np.kron(np.eye(2), uh) @ uj)[:, :d]
    assert np.array_equal(cycle_propagator(ops.hamiltonian, lop, dt), expected)


@pytest.mark.parametrize("n_sites", [2, 4, 6])
def test_kraus_form_cycle_equals_the_traced_dilated_state(n_sites):
    _, _, ops, _, lop = standard_setup(n_sites)
    w = cycle_propagator(ops.hamiltonian, lop, 0.05)
    rho = random_density(np.random.default_rng(n_sites), ops.dim)
    assert np.max(np.abs(cycle(rho, w) - traced_dilated_state(rho, w))) <= 1e-14


def test_kraus_form_cycle_takes_a_complex_hamiltonian():
    # RK4 and the exact engine refuse a complex H; the cycle on R takes it
    _, _, ops, _, lop = standard_setup(4)
    upper = np.triu(np.ones((ops.dim, ops.dim)), 1)
    h = ops.hamiltonian.matrix + 0.3j * (upper - upper.T)
    w = cycle_propagator(h, lop, 0.05)
    rho = random_density(np.random.default_rng(41), ops.dim)
    assert np.max(np.abs(cycle(rho, w) - traced_dilated_state(rho, w))) <= 1e-14


def test_cycle_propagator_rejects_nonpositive_step(n2):
    _, _, ops, _, lop = n2
    with pytest.raises(ValueError):
        cycle_propagator(ops.hamiltonian, lop, 0.0)


@pytest.mark.parametrize("dt", [np.nan, np.inf], ids=["nan", "inf"])
def test_cycle_propagator_rejects_a_non_finite_step(n2, dt):
    _, _, ops, _, lop = n2
    with pytest.raises(ValueError, match="cycle length"):
        cycle_propagator(ops.hamiltonian, lop, dt)


@pytest.mark.parametrize("t_max", [0.0, -1.0, np.nan, np.inf], ids=["zero", "negative", "nan", "inf"])
def test_dilation_evolve_refuses_a_bad_horizon_before_setup(n2, monkeypatch, t_max):
    _, _, ops, _, lop = n2

    def refuse(*args):
        raise AssertionError("setup ran")

    monkeypatch.setattr(dilation, "_real_state_of", refuse)
    monkeypatch.setattr(dilation, "cycle_propagator", refuse)
    with pytest.raises(ValueError, match="t_max"):
        dilation_evolve(DensityMatrix.pure_state(ops.dim, 0), ops.hamiltonian, lop, t_max, 10,
                        pair_count=ops.pair_count, electric_square=ops.electric_square)


def test_single_cycle_error_shrinks_four_fold_per_halving(n2, rng):
    _, _, ops, _, lop = n2
    rho = random_density(rng, ops.dim)
    errors = []
    for dt in (1e-3, 5e-4, 2.5e-4):
        w = cycle_propagator(ops.hamiltonian, lop, dt)
        approx = cycle(rho, w)
        exact = exact_propagate(rho, ops.hamiltonian, lop, dt).matrix
        errors.append(np.max(np.abs(approx - exact)))
    assert errors[0] < 1e-5
    for a, b in zip(errors, errors[1:]):
        assert 3.5 < a / b < 4.5


def test_cycle_matches_the_generator_to_first_order(n2, rng):
    _, _, ops, _, lop = n2
    rho = random_density(rng, ops.dim)
    gen = lindblad_rhs(rho, ops.hamiltonian, lop)
    resids = []
    for dt in (4e-2, 2e-2, 1e-2, 5e-3):
        w = cycle_propagator(ops.hamiltonian, lop, dt)
        out = cycle(rho, w)
        resids.append(np.max(np.abs((out - rho) / dt - gen)))
    # the finite-step defect is first order in the step
    for a, b in zip(resids, resids[1:]):
        assert 1.8 < a / b < 2.2
    # and in particular sits below a square-root envelope anchored at the
    # coarsest step
    c = resids[0] / np.sqrt(4e-2) * 1.05
    for dt, r in zip((4e-2, 2e-2, 1e-2, 5e-3), resids):
        assert r <= c * np.sqrt(dt)


def test_gate_order_matters_but_only_at_higher_order(n2, rng):
    _, _, ops, _, lop = n2
    d = ops.dim
    rho = random_density(rng, d)
    j = build_dilation_hamiltonian(lop)
    diffs = []
    for dt in (4e-2, 2e-2, 1e-2):
        uj = unitary_from_hamiltonian(j, np.sqrt(dt))
        iuh = np.kron(np.eye(2), unitary_from_hamiltonian(ops.hamiltonian.matrix, dt))
        a = cycle(rho, (iuh @ uj)[:, :d])
        b = cycle(rho, (uj @ iuh)[:, :d])
        diffs.append(np.max(np.abs(a - b)))
    assert diffs[0] > 1e-5
    for a, b in zip(diffs, diffs[1:]):
        assert a / b > 2.5


def test_every_cycle_is_exactly_trace_preserving_and_positive(n2):
    _, _, ops, _, lop = n2
    rho0 = DensityMatrix.pure_state(ops.dim, 0)
    rec = dilation_evolve(rho0, ops.hamiltonian, lop, t_max=2.0, n_cycles=50,
                          pair_count=ops.pair_count, electric_square=ops.electric_square)
    assert len(rec) == 51
    assert rec.times[0] == 0.0
    assert rec.times[-1] == pytest.approx(2.0)
    assert np.max(np.abs(rec.trace - 1.0)) < 1e-12
    assert np.min(rec.min_eig) > -1e-10
    assert rec.max_hermiticity_error == 0.0


def test_doubling_cycles_converges_monotonically(n2):
    _, _, ops, _, lop = n2
    rho0 = DensityMatrix.pure_state(ops.dim, 0)
    t_max = 2.0
    exact = exact_propagate(rho0, ops.hamiltonian, lop, t_max).matrix
    errors = []
    for n_cycles in (10, 20, 40, 80):
        r = _real_state_of(rho0)
        w = cycle_propagator(ops.hamiltonian, lop, t_max / n_cycles)
        for _ in range(n_cycles):
            r = dilation_cycle(r, w)
        rho = _density_of_real(r)
        errors.append(np.max(np.abs(rho - exact)))
    assert all(b < a for a, b in zip(errors, errors[1:]))


def test_dilation_tracks_rk4(n2):
    _, _, ops, _, lop = n2
    rho0 = DensityMatrix.pure_state(ops.dim, 0)
    rec_d = dilation_evolve(rho0, ops.hamiltonian, lop, t_max=2.0, n_cycles=40,
                            pair_count=ops.pair_count, electric_square=ops.electric_square)
    rec_r = rk4_evolve(rho0, ops.hamiltonian, lop, t_max=2.0, dt=0.005,
                       pair_count=ops.pair_count, electric_square=ops.electric_square,
                       stride=10)
    shared = np.intersect1d(np.round(rec_d.times, 9), np.round(rec_r.times, 9))
    ia = np.searchsorted(np.round(rec_d.times, 9), shared)
    ib = np.searchsorted(np.round(rec_r.times, 9), shared)
    assert len(shared) > 10
    assert np.max(np.abs(rec_d.n_pairs[ia] - rec_r.n_pairs[ib])) < 0.05


def test_zero_coupling_reduces_to_unitary_evolution(n2, rng):
    _, _, ops, _, _ = n2
    d = ops.dim
    zero = np.zeros((d, d))
    rho = random_density(rng, d)
    w = cycle_propagator(ops.hamiltonian, zero, 0.3)
    stepped = cycle(rho, w)
    u = unitary_from_hamiltonian(ops.hamiltonian.matrix, 0.3)
    assert np.max(np.abs(stepped - u @ rho @ u.conj().T)) < 1e-9


def test_dilation_evolve_rejects_zero_cycles(n2):
    _, _, ops, _, lop = n2
    rho0 = DensityMatrix.pure_state(ops.dim, 0)
    with pytest.raises(ValueError):
        dilation_evolve(rho0, ops.hamiltonian, lop, t_max=1.0, n_cycles=0,
                        pair_count=ops.pair_count, electric_square=ops.electric_square)


def test_dilation_evolve_rejects_a_cycle_that_breaks_the_trace(n2, monkeypatch):
    """The cycle is looked up on the module at call time, so a patched cycle
    that leaks 1e-9 of trace must trip the per-cycle check."""
    _, _, ops, _, lop = n2
    exact_cycle = dilation.dilation_cycle

    def leaky(r, w):
        return exact_cycle(r, w) * (1.0 + 1e-9)

    monkeypatch.setattr(dilation, "dilation_cycle", leaky)
    rho0 = DensityMatrix.pure_state(ops.dim, 0)
    with pytest.raises(ValueError, match="trace .* deviates from 1 by more than 1e-12"):
        dilation_evolve(rho0, ops.hamiltonian, lop, t_max=1.0, n_cycles=4,
                        pair_count=ops.pair_count, electric_square=ops.electric_square)
