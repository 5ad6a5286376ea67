"""Hamiltonian and observable assembly, projection, serialization."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from openschwinger import (
    HermitianOperator,
    LatticeSpec,
    ModelParams,
    build_sector_operators,
    build_symmetry_sector,
    enumerate_physical_configs,
    matrix_from_json,
    matrix_to_json,
    operators,
    project_operator,
)
from openschwinger.operators import (
    _basis_tag,
    _condensate,
    _electric_square,
    _pair_count,
    build_hamiltonian,
)


def n1_config_hamiltonian(a, e, m):
    """The one-site Hamiltonian written out by hand.

    The five configurations in canonical order are the bare vacuum, the two
    single-hop states (electron moved left or right, one unit of flux), and
    the two stretched states with flux on both links.  Hopping connects the
    vacuum to each single-hop state and each single-hop state to one
    stretched state, always with amplitude 1/2a.
    """
    q = 1.0 / (2.0 * a)
    return np.array(
        [
            [-m, q, q, 0, 0],
            [q, a * e * e / 2 + m, 0, q, 0],
            [q, 0, a * e * e / 2 + m, 0, q],
            [0, q, 0, a * e * e - m, 0],
            [0, 0, q, 0, a * e * e - m],
        ]
    )


def n1_sector_hamiltonian(a, e, m):
    s = np.sqrt(2.0)
    return np.array(
        [
            [-m, 1 / (s * a), 0],
            [1 / (s * a), a * e * e / 2 + m, 1 / (2 * a)],
            [0, 1 / (2 * a), a * e * e - m],
        ]
    )


@pytest.mark.parametrize("a,e,m", [(1.0, 1.0, 0.1), (0.7, 1.3, 0.25)])
def test_one_site_hamiltonian_matches_hand_calculation(a, e, m):
    spec = LatticeSpec(n_sites=1)
    configs = enumerate_physical_configs(spec)
    params = ModelParams(a=a, e=e, m=m)
    h = build_hamiltonian(spec, configs, params)
    assert np.max(np.abs(h.matrix - n1_config_hamiltonian(a, e, m))) < 1e-14

    ops = build_sector_operators(build_symmetry_sector(spec), params)
    dev = np.max(np.abs(ops.hamiltonian.matrix - n1_sector_hamiltonian(a, e, m)))
    assert dev < 1e-14


def test_hamiltonian_is_real_symmetric():
    spec = LatticeSpec(n_sites=3)
    configs = enumerate_physical_configs(spec)
    h = build_hamiltonian(spec, configs, ModelParams()).matrix
    assert np.isrealobj(h)
    assert np.array_equal(h, h.T)


def test_hopping_sign_is_positive():
    # the projected two-site Hamiltonian couples the vacuum to the first
    # excited state with +1/a; the sign convention is load bearing for
    # matching printed matrix fixtures
    ops = build_sector_operators(build_symmetry_sector(LatticeSpec(n_sites=2)), ModelParams())
    assert ops.hamiltonian.matrix[0, 1] == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("n_sites", [1, 2, 3])
def test_projection_compresses_with_the_isometry(n_sites):
    spec = LatticeSpec(n_sites=n_sites)
    sector = build_symmetry_sector(spec)
    params = ModelParams(a=0.9, e=1.1, m=0.2)
    configs = list(sector.configs)
    h_full = build_hamiltonian(spec, configs, params)
    h_proj = project_operator(h_full, sector)
    v = sector.isometry()
    assert np.allclose(h_proj.matrix, v.T @ h_full.matrix @ v, atol=1e-13)
    # the sector carries an invariant subspace, so the projected spectrum is
    # a sub-multiset of the full spectrum
    full_eigs = np.linalg.eigvalsh(h_full.matrix)
    for lam in np.linalg.eigvalsh(h_proj.matrix):
        assert np.min(np.abs(full_eigs - lam)) < 1e-10


@pytest.mark.parametrize("a,e,m", [(0.9, 1.1, 0.2), (1.0, 1.0, 0.1)])
@pytest.mark.parametrize("truncate", [False, True])
@pytest.mark.parametrize("n_sites", [1, 2, 3, 4, 5, 6])
def test_direct_sector_hamiltonian_equals_the_projected_oracle(n_sites, truncate, a, e, m):
    spec = LatticeSpec(n_sites=n_sites, truncate_total_flux=truncate)
    sector = build_symmetry_sector(spec)
    params = ModelParams(a=a, e=e, m=m)
    direct = build_sector_operators(sector, params).hamiltonian
    oracle = project_operator(build_hamiltonian(spec, list(sector.configs), params), sector)
    assert direct.basis_tag == oracle.basis_tag
    assert np.max(np.abs(direct.matrix - oracle.matrix)) <= 1e-13


def test_sector_operators_never_build_the_configuration_matrix(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dense configuration-space path reached")

    monkeypatch.setattr(operators, "build_hamiltonian", refuse)
    monkeypatch.setattr(operators, "project_operator", refuse)
    sector = build_symmetry_sector(LatticeSpec(n_sites=4, truncate_total_flux=True))
    ops = build_sector_operators(sector, ModelParams())
    assert ops.dim == sector.dim == 18


def test_eight_site_sector_operators_fit_in_a_small_memory_footprint():
    # the dense configuration-space route peaked at about 3.6 GB here; the
    # child reports its own VmHWM, because on Linux its ru_maxrss keeps the
    # peak of the process that spawned it
    child = (
        "from openschwinger import LatticeSpec, ModelParams, build_sector_operators, "
        "build_symmetry_sector\n"
        "sector = build_symmetry_sector(LatticeSpec(n_sites=8, truncate_total_flux=True))\n"
        "assert build_sector_operators(sector, ModelParams()).dim == 800\n"
        "status = open('/proc/self/status').read().splitlines()\n"
        "print(next(line.split()[1] for line in status if line.startswith('VmHWM:')))\n"
    )
    src = str(Path(operators.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    proc = subprocess.run(
        [sys.executable, "-c", child], capture_output=True, text=True, timeout=300, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    peak_mb = int(proc.stdout.split()[-1]) / 1024  # VmHWM is in kB
    assert peak_mb < 500


@pytest.mark.parametrize("n_sites", [1, 2, 3])
def test_direct_sector_observables_equal_projected_ones(n_sites):
    spec = LatticeSpec(n_sites=n_sites)
    sector = build_symmetry_sector(spec)
    params = ModelParams()
    ops = build_sector_operators(sector, params)
    occ, flux = sector.occupations, sector.fluxes
    tag = _basis_tag(spec, projected=False)
    for direct, full in (
        (ops.pair_count, _pair_count(occ, tag)),
        (ops.electric_square, _electric_square(spec, flux, params, tag)),
        (ops.condensate, _condensate(spec, occ, params, tag)),
    ):
        projected = project_operator(full, sector)
        assert np.allclose(direct.matrix, projected.matrix, atol=1e-13)


def test_observable_diagonals_on_the_two_site_sector():
    ops = build_sector_operators(build_symmetry_sector(LatticeSpec(n_sites=2)), ModelParams())
    assert np.array_equal(np.diag(ops.pair_count.matrix), [0, 1, 2, 1, 0])
    assert np.array_equal(4 * np.diag(ops.electric_square.matrix), [0, 1, 2, 3, 4])


def test_condensate_diagonal_counts_pairs():
    spec = LatticeSpec(n_sites=2)
    params = ModelParams(a=0.5, e=1.0, m=0.1)
    ops = build_sector_operators(build_symmetry_sector(spec), params)
    pairs = np.diag(ops.pair_count.matrix)
    expected = (2 * pairs - spec.n_sites) / (params.a * spec.n_fermion)
    assert np.allclose(np.diag(ops.condensate.matrix), expected, atol=1e-14)


def test_hermitian_operator_rejects_asymmetric_input():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        HermitianOperator(bad, "test")


@pytest.mark.parametrize(
    "conjugation",
    [[1, 2, 0], [0, 1], [0, 1, 3], [0, -1, 2], [0.0, 1.0, 2.0]],
    ids=["three-cycle", "short", "out-of-range", "negative", "float"],
)
def test_hermitian_operator_rejects_a_conjugation_that_is_not_an_involution(conjugation):
    with pytest.raises(ValueError, match="involution"):
        HermitianOperator(np.eye(3), "test", np.array(conjugation))


def test_sector_hamiltonian_carries_the_sector_conjugation():
    sector = build_symmetry_sector(LatticeSpec(n_sites=4, truncate_total_flux=True))
    ops = build_sector_operators(sector, ModelParams())
    assert ops.hamiltonian.conjugation is sector.conjugation
    assert ops.pair_count.conjugation is None


def test_model_params_reject_nonpositive_lattice_spacing():
    with pytest.raises(ValueError):
        ModelParams(a=0.0)
    with pytest.raises(ValueError):
        ModelParams(a=-1.0)


def test_operator_json_round_trip_is_exact():
    ops = build_sector_operators(build_symmetry_sector(LatticeSpec(n_sites=2)), ModelParams())
    dumped = matrix_to_json(ops.hamiltonian.matrix, ops.hamiltonian.basis_tag)
    back = HermitianOperator(*matrix_from_json(dumped))
    assert np.array_equal(back.matrix, ops.hamiltonian.matrix)
    assert back.basis_tag == ops.hamiltonian.basis_tag


def test_matrix_json_handles_complex_entries():
    mat = np.array([[0.0, 1.0j], [-1.0j, 0.5]])
    text = matrix_to_json(mat, "tiny")
    back, tag = matrix_from_json(text)
    assert tag == "tiny"
    assert np.array_equal(back, mat)


def test_basis_tags_distinguish_spaces():
    full = build_sector_operators(build_symmetry_sector(LatticeSpec(n_sites=2)), ModelParams())
    trunc_spec = LatticeSpec(n_sites=2, truncate_total_flux=True)
    trunc = build_sector_operators(build_symmetry_sector(trunc_spec), ModelParams())
    assert full.hamiltonian.basis_tag != trunc.hamiltonian.basis_tag
    assert "N=2" in full.hamiltonian.basis_tag
