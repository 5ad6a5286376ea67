"""Dissipative evolution: generator structure, integrators, thermal references."""

import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import standard_setup
from openschwinger import (
    CSV_HEADER,
    BathParams,
    DensityMatrix,
    EvolutionRecord,
    HermitianOperator,
    LatticeSpec,
    ModelParams,
    build_lindblad_operator,
    build_sector_operators,
    build_symmetry_sector,
    dilation_evolve,
    exact_evolve,
    exact_propagate,
    expectation,
    gibbs_reference,
    lindblad_rhs,
    project_operator,
    rk4_evolve,
    steady_state,
    vectorized_liouvillian,
)
from openschwinger import lindblad
from openschwinger.operators import build_hamiltonian

# thermal reference on the 4-state space at beta=0.1, a=e=1, m=0.1, frozen
# from the eigendecomposition oracle
GIBBS_N2_E2 = 0.3564747014220561
GIBBS_N2_PAIRS = 0.9642044409706013

# C-even Gibbs E^2 of the truncated sectors at the same working point
C_EVEN_GIBBS_E2 = {4: 0.421755, 5: 0.430242, 6: 0.436218, 7: 0.438040, 8: 0.439266}


def full_eigh_gibbs(h, beta, pair_count, electric_square):
    """Test-only oracle: (n_pairs, e2) of exp(-beta H) / Z from one
    eigendecomposition of the whole matrix, for diagonal observables."""
    evals, evecs = np.linalg.eigh(h)
    w = np.exp(-beta * (evals - evals[0]))
    occupation = (np.abs(evecs) ** 2) @ (w / w.sum())
    return occupation @ np.diag(pair_count), occupation @ np.diag(electric_square)


def c_even_basis(conjugation):
    """Orthonormal columns spanning the C-even states: e_s for each fixed
    point s of P and (e_s + e_P(s)) / sqrt 2 for each pair."""
    starts = [s for s, image in enumerate(conjugation) if image >= s]
    basis = np.zeros((len(conjugation), len(starts)))
    for k, s in enumerate(starts):
        images = {s, int(conjugation[s])}
        basis[sorted(images), k] = 1.0 / np.sqrt(len(images))
    return basis


def c_basis(conjugation):
    """Test-only oracle: the orthonormal columns of the engines' C basis, in
    their order: e_s for each fixed point s of P, then (e_s + e_P(s)) / sqrt 2
    and then (e_s - e_P(s)) / sqrt 2 for each pair s < P(s)."""
    fixed = [s for s, image in enumerate(conjugation) if image == s]
    pairs = [(s, int(image)) for s, image in enumerate(conjugation) if image > s]
    basis = np.zeros((len(conjugation), len(conjugation)))
    for k, s in enumerate(fixed):
        basis[s, k] = 1.0
    for k, (s, image) in enumerate(pairs):
        for column, sign in ((len(fixed) + k, 1.0), (len(fixed) + len(pairs) + k, -1.0)):
            basis[s, column], basis[image, column] = 1.0 / np.sqrt(2.0), sign / np.sqrt(2.0)
    return basis


def dense_liouvillian(h, lop):
    """Test-only oracle: the real generator on row-major vec(R) as a dense
    array, Lv = (1 kron H - H kron 1) S + L kron L - 1/2 (G kron 1 + 1 kron G)."""
    dim = h.shape[0]
    ident = np.eye(dim)
    half_g = 0.5 * (lop.T @ lop)
    # right-multiplying by S permutes the columns: column (i, j) <- (j, i)
    transposed = np.arange(dim * dim).reshape(dim, dim).T.ravel()
    lv = np.kron(ident, h)
    lv -= np.kron(h, ident)
    lv = lv[:, transposed]
    lv += np.kron(lop, lop)
    lv -= np.kron(half_g, ident)
    lv -= np.kron(ident, half_g)
    return lv


def random_density(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


# ---------------------------------------------------------------------------
# parameter and state containers
# ---------------------------------------------------------------------------

def test_bath_params_round_trip_beta():
    bath = BathParams.from_beta(0.1, 3.2)
    assert bath.temperature == pytest.approx(10.0)
    assert bath.beta == pytest.approx(0.1)
    assert bath.coupling == 3.2


def test_bath_params_reject_bad_values():
    with pytest.raises(ValueError):
        BathParams(temperature=0.0, coupling=1.0)
    with pytest.raises(ValueError):
        BathParams(temperature=1.0, coupling=-0.5)


def test_pure_state_has_unit_trace_and_purity():
    rho = DensityMatrix.pure_state(4, index=0)
    assert rho.trace == pytest.approx(1.0)
    assert rho.purity == pytest.approx(1.0)
    assert rho.min_eigenvalue == pytest.approx(0.0, abs=1e-15)
    assert rho.hermiticity_error == 0.0


def test_validate_flags_broken_states():
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix(2.0 * np.eye(2)).validate()
    bad_herm = np.array([[0.5, 0.3], [0.0, 0.5]])
    with pytest.raises(ValueError):
        DensityMatrix(bad_herm).validate()
    not_psd = np.diag([1.5, -0.5])
    with pytest.raises(ValueError, match="eigenvalue"):
        DensityMatrix(not_psd).validate()


def test_expectation_rejects_imaginary_leakage():
    rho = DensityMatrix.pure_state(2, 0)
    op = np.array([[0.0, 1.0j], [-1.0j, 0.0]])
    assert expectation(rho, op) == pytest.approx(0.0)
    lopsided = np.array([[0.0, 1.0j], [0.0, 0.0]])
    with pytest.raises(ValueError):
        expectation(DensityMatrix(np.array([[0.5, 0.5], [0.5, 0.5]])), lopsided)


def test_uniform_mixture_pair_count_on_the_five_state_space():
    _, _, ops, _, _ = standard_setup(2, truncate=False)
    rho = DensityMatrix(np.eye(5) / 5.0)
    assert expectation(rho, ops.pair_count) == pytest.approx(0.8, abs=1e-15)


# ---------------------------------------------------------------------------
# trajectory records
# ---------------------------------------------------------------------------

@st.composite
def records(draw):
    n = draw(st.integers(min_value=0, max_value=20))
    incs = draw(
        st.lists(st.floats(min_value=1e-6, max_value=10.0), min_size=n, max_size=n)
    )
    finite = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e12, max_value=1e12)
    cols = [
        np.asarray(draw(st.lists(finite, min_size=n, max_size=n)))
        for _ in range(5)
    ]
    return EvolutionRecord(np.cumsum(incs), *cols)


@settings(max_examples=50, deadline=None)
@given(rec=records())
def test_csv_round_trip_is_bit_exact(rec):
    back = EvolutionRecord.from_csv(rec.to_csv())
    for name in ("times", "n_pairs", "e2", "trace", "purity", "min_eig"):
        assert np.array_equal(getattr(back, name), getattr(rec, name))


def test_csv_header_is_enforced():
    with pytest.raises(ValueError, match="header"):
        EvolutionRecord.from_csv("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError, match="header"):
        EvolutionRecord.from_csv("")
    assert CSV_HEADER == "t,n_pairs,e2,trace,purity,min_eig"


def test_record_rejects_ragged_or_unordered_input():
    t = np.array([0.0, 1.0])
    col = np.zeros(2)
    with pytest.raises(ValueError):
        EvolutionRecord(t, np.zeros(3), col, col, col, col)
    with pytest.raises(ValueError):
        EvolutionRecord(np.array([0.0, 0.0]), col, col, col, col, col)


# ---------------------------------------------------------------------------
# generator structure
# ---------------------------------------------------------------------------

def test_lindblad_operator_is_real_and_matches_its_definition(n2_setup):
    spec, _, ops, bath, lop = n2_setup
    assert np.isrealobj(lop)
    h = ops.hamiltonian.matrix
    o = ops.condensate.matrix
    expected = np.sqrt(1.0 * spec.n_fermion * bath.coupling) * (
        o - (h @ o - o @ h) / (4.0 * bath.temperature)
    )
    assert np.allclose(lop, expected, atol=1e-14)
    # the commutator part makes it non-normal, hence genuinely dissipative
    assert not np.allclose(lop, lop.T)


def test_rhs_kills_the_trace_and_preserves_hermiticity(n2_setup, rng):
    _, _, ops, _, lop = n2_setup
    for _ in range(5):
        rho = random_density(rng, lop.shape[0])
        out = lindblad_rhs(rho, ops.hamiltonian, lop)
        assert abs(np.trace(out)) < 1e-12
        assert np.max(np.abs(out - out.conj().T)) < 1e-12


def test_rhs_agrees_with_the_vectorized_liouvillian(n2_setup, rng):
    # Lv acts on vec(R), R = Re rho + Im rho; decoded, it is the complex rhs
    _, _, ops, _, lop = n2_setup
    lv = vectorized_liouvillian(ops.hamiltonian, lop)
    assert lv.dtype == np.float64
    rho = random_density(rng, lop.shape[0])
    r = lindblad._real_state_of(rho)
    drho = lindblad._density_of_real((lv @ r.ravel()).reshape(r.shape))
    assert np.max(np.abs(drho - lindblad_rhs(rho, ops.hamiltonian, lop))) < 1e-12


def test_liouvillian_left_null_vector_is_the_trace(n2_setup):
    _, _, ops, _, lop = n2_setup
    dim = lop.shape[0]
    lv = vectorized_liouvillian(ops.hamiltonian, lop)
    tr_functional = np.eye(dim).ravel()
    assert np.max(np.abs(tr_functional @ lv)) < 1e-12


@pytest.mark.parametrize("n_sites", [2, 3, 4])
def test_sparse_liouvillian_equals_the_dense_formula(n_sites):
    _, _, ops, _, lop = standard_setup(n_sites)
    lv = vectorized_liouvillian(ops.hamiltonian, lop)
    assert isinstance(lv, scipy.sparse.csr_array)
    assert np.max(np.abs(lv.toarray() - dense_liouvillian(ops.hamiltonian.matrix, lop))) < 1e-14


def test_liouvillian_guard_against_huge_spaces():
    # the truncated N = 7 sector (dim 284): its CSR generator is bounded by
    # 139 MiB and refused before any kron product is allocated
    _, _, ops, _, lop = standard_setup(7)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="superoperator"):
            vectorized_liouvillian(ops.hamiltonian, lop)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("engine", ["exact_evolve", "exact_propagate"])
def test_exact_engines_refuse_a_state_spanning_both_blocks_at_seven_sites(engine):
    # a random state at N = 7 is stepped as one matrix of dim 284, whose
    # generator is over budget; the bound is taken from CSR operators and the
    # run is refused before the state is mapped into the C basis
    _, _, ops, _, lop = standard_setup(7)
    psi = np.random.default_rng(1).standard_normal(ops.dim)
    rho0 = np.outer(psi, psi) / (psi @ psi)
    run = {"exact_evolve": lambda: exact_evolve(rho0, ops.hamiltonian, lop, [0.0, 0.1],
                                                pair_count=ops.pair_count,
                                                electric_square=ops.electric_square),
           "exact_propagate": lambda: exact_propagate(rho0, ops.hamiltonian, lop, 0.1)}[engine]
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="superoperator for dim 284"):
            run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_rk4_tracks_the_exact_flow_of_the_seven_site_vacuum():
    # the vacuum's C-even block at N = 7 (186 of 284 states) fits the
    # Liouvillian budget, so RK4 has an exact oracle there
    _, _, ops, _, lop = standard_setup(7)
    rho0 = DensityMatrix.pure_state(ops.dim, 0)
    obs = dict(pair_count=ops.pair_count, electric_square=ops.electric_square)
    exact = exact_evolve(rho0, ops.hamiltonian, lop, np.arange(5) * 0.05, **obs)
    rec = rk4_evolve(rho0, ops.hamiltonian, lop, t_max=0.2, dt=0.01, stride=5, **obs)
    assert exact.counters["blocks"] == rec.counters["blocks"] == [186]
    assert np.allclose(rec.times, exact.times, rtol=0, atol=1e-12)
    for name in ("n_pairs", "e2", "trace", "purity"):
        assert np.max(np.abs(getattr(rec, name) - getattr(exact, name))) < 1e-6, name


def test_steady_state_is_refused_at_six_sites_before_any_work():
    # N = 6 (dim 109): the LU factors of the order-11881 generator are refused
    # before the generator itself is built
    _, _, ops, _, lop = standard_setup(6)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="steady state"):
            steady_state(ops.hamiltonian, lop)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def arpack_kernels(lv):
    """Test-only oracle: bases of the right and left kernels of the sparse
    generator ``lv``, as columns (complex Ritz vectors spanning the real
    kernels).

    Shift-invert Arnoldi (ARPACK) on one sparse LU factorization of
    mu I - Lv, mu = 1e-6 ||Lv||_inf: the solve has the eigenvalues
    theta = 1/(mu - lambda), largest for the eigenvalues lambda of Lv nearest
    0, and its transposed solve those of Lv^T.  A Ritz value is kernel when
    |lambda| <= 1e-10 ||Lv||_inf; the number of Ritz pairs starts at 4 and
    doubles while every one is kernel.  ``v0`` is fixed, so the result is
    repeatable.
    """
    n = lv.shape[0]
    scale = float(np.max(abs(lv).sum(axis=1)))
    shift = 1e-6 * scale
    lu = scipy.sparse.linalg.splu((shift * scipy.sparse.eye_array(n) - lv).tocsc())

    def kernel(trans):
        solve = scipy.sparse.linalg.LinearOperator(
            (n, n), matvec=lambda x: lu.solve(x, trans=trans), dtype=float,
        )
        k = min(4, n - 2)
        while True:
            theta, vecs = scipy.sparse.linalg.eigs(solve, k=k, v0=np.ones(n))
            is_kernel = np.abs(shift - 1.0 / theta) <= 1e-10 * scale
            if not is_kernel.all() or k == n - 2:
                return vecs[:, is_kernel]
            k = min(2 * k, n - 2)

    return kernel("N"), kernel("T")


@pytest.mark.parametrize("n_sites, kernel_dim", [(2, 1), (3, 1), (4, 3), (5, 2)])
def test_generator_kernel_dimensions(n_sites, kernel_dim):
    _, _, ops, _, lop = standard_setup(n_sites)
    right, left = arpack_kernels(vectorized_liouvillian(ops.hamiltonian, lop))
    assert right.shape[1] == left.shape[1] == kernel_dim


@pytest.mark.parametrize("n_sites", [2, 4, 5])
def test_steady_state_is_the_kernel_projection_of_the_mixed_state(n_sites):
    # K (Lk^T K)^-1 Lk^T vec(1/dim) from the ARPACK kernels; N = 4 and 5 have
    # degenerate kernels, where an arbitrary null vector would not do
    _, _, ops, _, lop = standard_setup(n_sites)
    dim = ops.dim
    right, left = arpack_kernels(vectorized_liouvillian(ops.hamiltonian, lop))
    mixed = np.eye(dim).ravel() / dim
    r = (right @ np.linalg.solve(left.T @ right, left.T @ mixed)).real.reshape(dim, dim)
    r /= np.trace(r)
    expected = 0.5 * (r + r.T) + 0.5j * (r - r.T)
    assert np.max(np.abs(steady_state(ops.hamiltonian, lop).matrix - expected)) <= 1e-10


# every engine, with rho0, H and L given; each returns a record or a matrix
C_BASIS_ENGINES = {
    "rk4_evolve": lambda rho0, h, lop, kw: rk4_evolve(rho0, h, lop, 0.5, 0.01, stride=5, **kw),
    "exact_evolve": lambda rho0, h, lop, kw: exact_evolve(rho0, h, lop, np.arange(6) * 0.1, **kw),
    "dilation_evolve": lambda rho0, h, lop, kw: dilation_evolve(rho0, h, lop, 0.5, 10, **kw),
    "exact_propagate": lambda rho0, h, lop, kw: exact_propagate(rho0, h, lop, 0.5).matrix,
    "steady_state": lambda rho0, h, lop, kw: steady_state(h, lop).matrix,
}


def _columns(result):
    if isinstance(result, EvolutionRecord):
        return {name: getattr(result, name) for name in ("times", "n_pairs", "e2", "trace", "purity", "min_eig")}
    return {"matrix": result}


def _identity_path(engine, rho0, ops, lop):
    """The engine on plain arrays: no conjugation, so no C basis."""
    kw = dict(pair_count=ops.pair_count.matrix, electric_square=ops.electric_square.matrix)
    return _columns(C_BASIS_ENGINES[engine](rho0, ops.hamiltonian.matrix, lop, kw))


def _pure(rng, dim):
    psi = rng.standard_normal(dim)
    return DensityMatrix(np.outer(psi, psi) / (psi @ psi))


@pytest.mark.parametrize("engine", sorted(C_BASIS_ENGINES))
@pytest.mark.parametrize("state", ["vacuum", "random"])
@pytest.mark.parametrize("n_sites", [4, 5])
def test_the_c_basis_path_matches_the_identity_path(n_sites, state, engine):
    # the vacuum is stepped in its C-even block alone, a random pure state as
    # one matrix on the whole C basis; both must give the sector-basis numbers
    _, _, ops, _, lop = standard_setup(n_sites)
    rho0 = DensityMatrix.pure_state(ops.dim, 0) if state == "vacuum" else _pure(np.random.default_rng(1), ops.dim)
    kw = dict(pair_count=ops.pair_count, electric_square=ops.electric_square)
    result = C_BASIS_ENGINES[engine](rho0, ops.hamiltonian, lop, kw)
    expected = _identity_path(engine, rho0, ops, lop)
    for name, column in _columns(result).items():
        assert np.max(np.abs(column - expected[name])) <= 1e-12, name
    if isinstance(result, EvolutionRecord):
        n_even = int(np.sum(ops.hamiltonian.conjugation >= np.arange(ops.dim)))
        assert result.counters["blocks"] == ([n_even] if state == "vacuum" else [ops.dim])


@pytest.mark.parametrize("engine", sorted(C_BASIS_ENGINES) + ["gibbs_reference"])
@pytest.mark.parametrize("hamiltonian", ["sector", "plain"])
def test_csr_operators_give_the_array_run(hamiltonian, engine):
    # L and both observables as CSR matrices, and H the sector operator (with
    # its P) or a plain CSR matrix: the same numbers as the array run
    _, _, ops, bath, lop = standard_setup(4)
    rho0 = _pure(np.random.default_rng(5), ops.dim)
    arrays = dict(pair_count=ops.pair_count.matrix, electric_square=ops.electric_square.matrix)
    csr = {name: scipy.sparse.csr_array(m) for name, m in arrays.items()}
    h = ops.hamiltonian if hamiltonian == "sector" else ops.hamiltonian.matrix
    h_csr = ops.hamiltonian if hamiltonian == "sector" else scipy.sparse.csr_array(h)
    if engine == "gibbs_reference":
        expected = gibbs_reference(h, bath.beta, **arrays)
        result = gibbs_reference(h_csr, bath.beta, **csr)
        for key in ("n_pairs", "e2"):
            assert abs(result[key] - expected[key]) <= 1e-14, key
            assert abs(result["c_even"][key] - expected["c_even"][key]) <= 1e-14, key
        return
    expected = _columns(C_BASIS_ENGINES[engine](rho0, h, lop, arrays))
    for name, column in _columns(C_BASIS_ENGINES[engine](rho0, h_csr, scipy.sparse.csr_array(lop), csr)).items():
        assert np.max(np.abs(column - expected[name])) <= 1e-14, name


def test_a_complex_csr_operator_is_refused_like_a_complex_array(n2_setup):
    _, _, ops, _, lop = n2_setup
    upper = np.triu(np.ones((ops.dim, ops.dim)), 1)
    h = ops.hamiltonian.matrix + 1e-3j * (upper - upper.T)
    for hamiltonian in (h, scipy.sparse.csr_array(h)):
        with pytest.raises(ValueError, match="imaginary"):
            vectorized_liouvillian(hamiltonian, lop)
    # a complex dtype with a zero imaginary part is real
    as_complex = scipy.sparse.csr_array(ops.hamiltonian.matrix.astype(complex))
    assert np.array_equal(vectorized_liouvillian(as_complex, lop).toarray(),
                          vectorized_liouvillian(ops.hamiltonian, lop).toarray())


@pytest.mark.parametrize("truncate", [True, False], ids=["truncated", "full"])
@pytest.mark.parametrize("n_sites", [4, 5, 6, 7, 8])
def test_t_x_t_is_block_diagonal_with_exact_zeros_between_the_blocks(n_sites, truncate):
    # the premise of every C-basis cut: for H, L and both observables, which
    # commute with P, T X T^T has nothing between its C-even and C-odd blocks
    # (as an array, exact zeros; as CSR, no stored entry), and it is V^T X V
    # of the test-side basis V to rounding; the CSR result keeps int32
    # indices, 12 B per entry in every operand and generator cut from it
    _, sector, ops, _, lop = standard_setup(n_sites, truncate=truncate)
    c = lindblad._CBasis(sector.conjugation, ops.dim)
    v = c_basis(sector.conjugation)
    even, odd = c.blocks
    assert even.stop > even.start and odd.stop > odd.start
    for x in (ops.hamiltonian.matrix, lop, ops.pair_count.matrix, ops.electric_square.matrix):
        expected = v.T @ x @ v
        z_csr = c.to_c(scipy.sparse.csr_array(x))
        assert z_csr.indices.dtype == z_csr.indptr.dtype == np.int32
        assert z_csr[even, odd].nnz == z_csr[odd, even].nnz == 0
        for z in (c.to_c(x), z_csr.toarray()):
            assert not np.any(z[even, odd]) and not np.any(z[odd, even])
            assert np.max(np.abs(z - expected)) <= 1e-15 * np.max(np.abs(x))


@pytest.mark.parametrize("engine", sorted(C_BASIS_ENGINES))
def test_a_rho0_off_c_symmetry_in_one_entry_is_stepped_as_one_matrix(engine):
    # at N = 4 P swaps states 4 and 5; a 1e-13 coherence between the vacuum
    # and state 4 alone breaks the symmetry, so rho0 spans both blocks
    _, sector, ops, _, lop = standard_setup(4)
    assert list(sector.conjugation[:6]) == [0, 1, 2, 3, 5, 4]
    rho0 = DensityMatrix.pure_state(ops.dim, 0).matrix
    rho0[0, 4] = rho0[4, 0] = 1e-13
    kw = dict(pair_count=ops.pair_count, electric_square=ops.electric_square)
    result = C_BASIS_ENGINES[engine](rho0, ops.hamiltonian, lop, kw)
    expected = _identity_path(engine, rho0, ops, lop)
    for name, column in _columns(result).items():
        assert np.max(np.abs(column - expected[name])) <= 1e-12, name
    if isinstance(result, EvolutionRecord):
        assert result.counters["blocks"] == [ops.dim]


def test_a_lindblad_operator_that_breaks_c_symmetry_falls_back_to_the_identity():
    # one entry of L moved by 1e-13: P no longer commutes with it, so the run
    # is the plain-array run bit for bit; with the true L the C-basis run
    # agrees with both to rounding
    _, _, ops, _, lop = standard_setup(4)
    broken = lop.copy()
    broken[4, 0] += 1e-13
    rho0 = _pure(np.random.default_rng(2), ops.dim)
    kw = dict(pair_count=ops.pair_count, electric_square=ops.electric_square)
    plain = dict(pair_count=ops.pair_count.matrix, electric_square=ops.electric_square.matrix)
    fallback = rk4_evolve(rho0, ops.hamiltonian, broken, 0.5, 0.01, stride=5, **kw)
    identity = rk4_evolve(rho0, ops.hamiltonian.matrix, broken, 0.5, 0.01, stride=5, **plain)
    c_basis_run = rk4_evolve(rho0, ops.hamiltonian, lop, 0.5, 0.01, stride=5, **kw)
    assert fallback.counters == identity.counters
    for name, column in _columns(fallback).items():
        assert np.array_equal(column, _columns(identity)[name]), name
        assert np.max(np.abs(column - _columns(c_basis_run)[name])) <= 1e-12, name


def test_a_skipped_odd_block_is_never_stepped(monkeypatch):
    # the N = 4 vacuum: one right-hand side of order 16 is built and four
    # evaluations per step are counted, and the skipped block adds a zero
    # eigenvalue to min_eig
    _, _, ops, _, lop = standard_setup(4)
    rho0 = DensityMatrix.pure_state(ops.dim, 0)
    kw = dict(pair_count=ops.pair_count, electric_square=ops.electric_square)
    built = []
    make = lindblad._real_rhs
    monkeypatch.setattr(lindblad, "_real_rhs", lambda *ops: built.append(ops[1].shape) or make(*ops))
    rec = rk4_evolve(rho0, ops.hamiltonian, lop, 0.5, 0.01, stride=5, **kw)
    monkeypatch.undo()
    assert built == [(16, 16)]
    assert rec.counters == {"two_thread": False, "steps": 50, "rhs_evaluations": 200, "records": 11,
                            "blocks": [16]}
    assert np.all(rec.min_eig <= 0.0)
    expected = _identity_path("rk4_evolve", rho0, ops, lop)
    for name, column in _columns(rec).items():
        assert np.max(np.abs(column - expected[name])) <= 1e-12, name


def test_steady_state_that_does_not_converge_is_a_runtime_error(n2_setup, monkeypatch):
    _, _, ops, _, lop = n2_setup
    monkeypatch.setattr(lindblad, "_STEADY_STATE_SOLVES", 2)
    with pytest.raises(RuntimeError, match="not converged after 2 solves"):
        steady_state(ops.hamiltonian, lop)


# ---------------------------------------------------------------------------
# integrators
# ---------------------------------------------------------------------------

def test_rk4_tracks_the_exact_solution(n2_setup):
    _, _, ops, _, lop = n2_setup
    rho0 = DensityMatrix.pure_state(ops.dim, 0)
    rec = rk4_evolve(rho0, ops.hamiltonian, lop, t_max=2.0, dt=0.005,
                     pair_count=ops.pair_count, electric_square=ops.electric_square,
                     stride=20)
    exact = exact_evolve(rho0, ops.hamiltonian, lop, rec.times,
                         pair_count=ops.pair_count, electric_square=ops.electric_square)
    assert np.max(np.abs(rec.n_pairs - exact.n_pairs)) < 1e-8
    assert np.max(np.abs(rec.e2 - exact.e2)) < 1e-8


def test_rk4_tracks_the_exact_solution_at_six_sites():
    # criterion 4's comparison on the truncated N = 6 sector (dim 109), where
    # RK4 takes its CSR operands
    _, _, ops, _, lop = standard_setup(6)
    rho0 = DensityMatrix.pure_state(ops.dim, 0)
    obs = dict(pair_count=ops.pair_count, electric_square=ops.electric_square)
    rec = rk4_evolve(rho0, ops.hamiltonian, lop, t_max=1.0, dt=0.005, stride=20, **obs)
    exact = exact_evolve(rho0, ops.hamiltonian, lop, rec.times, **obs)
    assert len(rec) == 11
    assert np.max(np.abs(rec.n_pairs - exact.n_pairs)) < 1e-6
    assert np.max(np.abs(rec.e2 - exact.e2)) < 1e-6
    end = exact_propagate(rho0, ops.hamiltonian, lop, 1.0)
    assert expectation(end, ops.electric_square) == pytest.approx(exact.e2[-1], abs=1e-12)


def test_exact_engines_leave_the_global_rng_alone():
    # expm_multiply's 1-norm estimates draw from np.random; the records must
    # not depend on its seed, and the caller's state must come back untouched
    _, _, ops, _, lop = standard_setup(4)
    rho0 = DensityMatrix.pure_state(ops.dim, 0)
    times = np.arange(21) * 0.5
    obs = dict(pair_count=ops.pair_count, electric_square=ops.electric_square)
    lv = vectorized_liouvillian(ops.hamiltonian, lop)
    np.random.seed(1)
    state = np.random.get_state()[1].copy()
    scipy.sparse.linalg.expm_multiply(lv, np.ones(ops.dim**2), start=0.0, stop=10.0, num=21)
    assert not np.array_equal(np.random.get_state()[1], state)  # the estimates do draw

    runs = []
    for seed in (1, 2):
        np.random.seed(seed)
        state = np.random.get_state()
        rec = exact_evolve(rho0, ops.hamiltonian, lop, times, **obs)
        end = exact_propagate(rho0, ops.hamiltonian, lop, 10.0)
        after = np.random.get_state()
        assert after[2:] == state[2:] and np.array_equal(after[1], state[1])
        runs.append((rec, end))
    (first, first_end), (second, second_end) = runs
    for name in ("n_pairs", "e2", "trace", "purity", "min_eig"):
        assert np.array_equal(getattr(first, name), getattr(second, name)), name
    assert np.array_equal(first_end.matrix, second_end.matrix)


def test_complex_dtype_hamiltonian_gives_the_same_record(n2_setup):
    _, _, ops, _, lop = n2_setup
    rho0 = DensityMatrix.pure_state(ops.dim, 0)
    kw = dict(pair_count=ops.pair_count, electric_square=ops.electric_square,
              t_max=1.0, dt=0.01, stride=10)
    real_h = rk4_evolve(rho0, ops.hamiltonian, lop, **kw)
    complex_h = rk4_evolve(rho0, ops.hamiltonian.matrix.astype(complex), lop, **kw)
    assert np.allclose(real_h.n_pairs, complex_h.n_pairs, atol=1e-13)
    assert np.allclose(real_h.e2, complex_h.e2, atol=1e-13)
    assert np.allclose(real_h.purity, complex_h.purity, atol=1e-13)


def test_rk4_steps_a_complex_hermitian_state(n2_setup):
    _, _, ops, _, lop = n2_setup
    rho0 = random_density(np.random.default_rng(3), ops.dim)
    assert np.any(rho0.imag)
    kw = dict(pair_count=ops.pair_count, electric_square=ops.electric_square)
    rec = rk4_evolve(rho0, ops.hamiltonian, lop, t_max=1.0, dt=0.005, stride=20, **kw)
    exact = exact_evolve(rho0, ops.hamiltonian, lop, rec.times, **kw)
    assert np.max(np.abs(rec.n_pairs - exact.n_pairs)) < 1e-8
    assert np.max(np.abs(rec.e2 - exact.e2)) < 1e-8
    assert np.max(np.abs(rec.purity - exact.purity)) < 1e-8
    assert exact.max_hermiticity_error == 0.0


# every engine on the real state R, run briefly on (rho0, H, L)
REAL_STATE_ENGINES = {
    "rk4_evolve": lambda rho0, h, lop, kw: rk4_evolve(rho0, h, lop, 0.1, 0.01, **kw),
    "exact_evolve": lambda rho0, h, lop, kw: exact_evolve(rho0, h, lop, [0.0, 0.1], **kw),
    "exact_propagate": lambda rho0, h, lop, kw: exact_propagate(rho0, h, lop, 0.1),
    "steady_state": lambda rho0, h, lop, kw: steady_state(h, lop),
}


@pytest.mark.parametrize("engine", ["rk4_evolve", "exact_evolve", "exact_propagate", "dilation_evolve"])
def test_rk4_refuses_a_non_hermitian_rho0(n2_setup, engine):
    _, _, ops, _, lop = n2_setup
    rho0 = random_density(np.random.default_rng(5), ops.dim)
    rho0 = rho0 + 1e-6 * np.triu(np.ones((ops.dim, ops.dim)), 1)
    kw = dict(pair_count=ops.pair_count, electric_square=ops.electric_square)
    engines = {**REAL_STATE_ENGINES,
               "dilation_evolve": lambda rho0, h, lop, kw: dilation_evolve(rho0, h, lop, 0.1, 2, **kw)}
    with pytest.raises(ValueError, match="rho0"):
        engines[engine](rho0, ops.hamiltonian, lop, kw)


def test_rk4_holds_a_complex_state_to_the_long_horizon_without_projection():
    # 20000 steps at N = 4 from a state with an imaginary part: the single
    # real-matrix state must neither drift off the exact flow nor lose
    # Hermiticity, with nothing projecting it back
    _, _, ops, _, lop = standard_setup(4)
    rho0 = random_density(np.random.default_rng(11), ops.dim)
    rho0 = 0.5 * (rho0 + rho0.conj().T)
    kw = dict(pair_count=ops.pair_count, electric_square=ops.electric_square)
    rec = rk4_evolve(rho0, ops.hamiltonian, lop, t_max=200.0, dt=0.01, stride=1000, **kw)
    exact = exact_evolve(rho0, ops.hamiltonian, lop, rec.times, **kw)
    assert len(rec) == 21
    for name in ("n_pairs", "e2", "purity"):
        assert np.max(np.abs(getattr(rec, name) - getattr(exact, name))) < 1e-9, name
    assert np.max(np.abs(rec.trace - 1.0)) < 1e-12
    assert rec.max_hermiticity_error == 0.0


@pytest.mark.parametrize("engine", sorted(REAL_STATE_ENGINES))
def test_rk4_rejects_a_complex_hamiltonian(n2_setup, engine):
    _, _, ops, _, lop = n2_setup
    rho0 = DensityMatrix.pure_state(ops.dim, 0)
    upper = np.triu(np.ones((ops.dim, ops.dim)), 1)
    h = ops.hamiltonian.matrix + 1e-3j * (upper - upper.T)  # still Hermitian
    kw = dict(pair_count=ops.pair_count, electric_square=ops.electric_square)
    with pytest.raises(ValueError, match="imaginary"):
        REAL_STATE_ENGINES[engine](rho0, h, lop, kw)


def test_real_state_decodes_to_an_exactly_hermitian_matrix():
    r = np.random.default_rng(17).normal(size=(7, 7))
    rho = lindblad._density_of_real(r)
    assert np.array_equal(rho, rho.conj().T)
    assert np.array_equal(rho.real, 0.5 * (r + r.T))
    assert np.array_equal(rho.imag, 0.5 * (r - r.T))


@pytest.mark.parametrize("engine", ["rk4_evolve", "exact_evolve", "dilation_evolve"])
def test_records_read_off_r_match_the_density_matrix_diagnostics(engine, monkeypatch):
    # every row against the DensityMatrix diagnostics of the rho its min_eig
    # was taken from; the record loop itself builds no DensityMatrix.  This
    # rho0 spans both C blocks, so rho is decoded in the whole C basis, and
    # the observables are read off it mapped back to the sector basis
    _, sector, ops, _, lop = standard_setup(4)
    v = c_basis(sector.conjugation)
    rho0 = random_density(np.random.default_rng(3), ops.dim)
    rho0 = 0.5 * (rho0 + rho0.conj().T)
    decoded = []

    def keep(r, out=None):
        rho = decode(r, out)
        decoded.append(rho.copy())
        return rho

    class Refused:
        def __init__(self, matrix):
            raise AssertionError("DensityMatrix built in the record loop")

    decode = lindblad._density_of_real
    monkeypatch.setattr(lindblad, "_density_of_real", keep)
    monkeypatch.setattr(lindblad, "DensityMatrix", Refused)
    kw = dict(pair_count=ops.pair_count, electric_square=ops.electric_square)
    rec = {"rk4_evolve": lambda: rk4_evolve(rho0, ops.hamiltonian, lop, 0.5, 0.01, stride=10, **kw),
           "exact_evolve": lambda: exact_evolve(rho0, ops.hamiltonian, lop, np.linspace(0, 0.5, 6), **kw),
           "dilation_evolve": lambda: dilation_evolve(rho0, ops.hamiltonian, lop, 0.5, 5, **kw)}[engine]()
    monkeypatch.undo()
    assert len(decoded) == len(rec) == 6
    for k, rho in enumerate(decoded):
        dm = DensityMatrix(rho)
        assert rec.trace[k] == pytest.approx(dm.trace, abs=1e-14)
        assert rec.purity[k] == pytest.approx(dm.purity, abs=1e-14)
        in_sector = DensityMatrix(v @ rho @ v.T)
        assert rec.n_pairs[k] == pytest.approx(expectation(in_sector, ops.pair_count), abs=1e-14)
        assert rec.e2[k] == pytest.approx(expectation(in_sector, ops.electric_square), abs=1e-14)
        assert rec.min_eig[k] == np.linalg.eigvalsh(rho)[0]


@pytest.mark.parametrize("n_sites, sparse", [(4, False), (6, True)])
def test_both_operand_branches_compute_the_lindblad_generator(n_sites, sparse):
    # N = 4 (dim 18) takes the dense operands, N = 6 (dim 109) the CSR ones
    _, _, ops, _, lop = standard_setup(n_sites)
    operands = lindblad._real_operands(ops.hamiltonian.matrix, lop)
    assert all(scipy.sparse.issparse(m) == sparse for m in operands)
    rhs = lindblad._real_rhs(*operands)
    rng = np.random.default_rng(n_sites)
    for _ in range(3):
        rho = random_density(rng, ops.dim)
        r = rho.real + rho.imag
        drho = lindblad._density_of_real(rhs(r, np.empty_like(r)))
        assert np.max(np.abs(drho - lindblad_rhs(rho, ops.hamiltonian, lop))) < 1e-13


def test_rk4_matches_a_plain_complex_rk4_in_the_sparse_branch():
    # the sparse real-state step at N = 6, checked step for step against
    # textbook RK4 on lindblad_rhs
    _, _, ops, _, lop = standard_setup(6)
    rho0 = random_density(np.random.default_rng(23), ops.dim)
    dt, n_steps = 0.01, 20
    rec = rk4_evolve(rho0, ops.hamiltonian, lop, n_steps * dt, dt,
                     pair_count=ops.pair_count, electric_square=ops.electric_square)

    def f(rho):
        return lindblad_rhs(rho, ops.hamiltonian, lop)

    rho, rows = rho0, []
    for k in range(n_steps + 1):
        if k > 0:
            k1 = f(rho)
            k2 = f(rho + 0.5 * dt * k1)
            k3 = f(rho + 0.5 * dt * k2)
            k4 = f(rho + dt * k3)
            rho = rho + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        dm = DensityMatrix(rho)
        rows.append((expectation(rho, ops.pair_count), expectation(rho, ops.electric_square),
                     dm.trace, dm.purity, dm.min_eigenvalue))
    plain = np.array(rows).T
    assert len(rec) == n_steps + 1
    for name, col in zip(("n_pairs", "e2", "trace", "purity", "min_eig"), plain):
        assert np.max(np.abs(getattr(rec, name) - col)) < 1e-12, name
    assert rec.max_hermiticity_error == 0.0


def test_rk4_step_allocates_a_fixed_working_set():
    # N = 7 (dim 284, CSR operands): the peak of traced allocations is the
    # same for 2 and 20 steps, so no step leaves temporaries behind, and stays
    # within 14 real dim x dim arrays (state, four step buffers, the complex
    # record buffer and the products of one right-hand side)
    _, _, ops, _, lop = standard_setup(7)
    rho0 = DensityMatrix.pure_state(ops.dim, 0)
    kw = dict(pair_count=ops.pair_count, electric_square=ops.electric_square)
    rk4_evolve(rho0, ops.hamiltonian, lop, 0.01, 0.01, **kw)  # one-time imports and caches
    peaks = []
    for n_steps in (2, 20):
        tracemalloc.start()
        try:
            rk4_evolve(rho0, ops.hamiltonian, lop, n_steps * 0.01, 0.01, stride=n_steps, **kw)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak)
    array_bytes = ops.dim**2 * 8
    assert abs(peaks[1] - peaks[0]) < 0.02 * array_bytes
    assert peaks[1] <= 14 * array_bytes


def test_csr_product_is_the_scipy_product_bit_for_bit():
    _, _, ops, _, lop = standard_setup(6)
    stacked, lop_csr, half_lop_t = lindblad._real_operands(ops.hamiltonian.matrix, lop)
    x = np.random.default_rng(5).normal(size=(ops.dim, ops.dim))
    out = np.full((2 * ops.dim, ops.dim), np.nan)
    for a in (stacked, lop_csr, half_lop_t):
        assert np.array_equal(lindblad._csr_product(a, x, out[:a.shape[0]]), a @ x)


@pytest.fixture(scope="module")
def n7_setup():
    return standard_setup(7)


def _rk4_threads(monkeypatch, threaded):
    """Force ``rk4_evolve`` onto the two-thread right-hand side or off it, and
    count the calls that build it."""
    built = []
    make = lindblad._threaded_real_rhs
    monkeypatch.setattr(lindblad, "_threaded_real_rhs", lambda *a: built.append(1) or make(*a))
    monkeypatch.setattr(lindblad, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(lindblad, "RK4_THREADS_FROM_DIM", 200 if threaded else 10**9)
    return built


def test_two_thread_rhs_gives_the_serial_record_bit_for_bit(n7_setup, monkeypatch):
    # N = 7 (dim 284) is above the cut; the record must not depend on it
    _, _, ops, _, lop = n7_setup
    rho0 = random_density(np.random.default_rng(7), ops.dim)
    kw = dict(pair_count=ops.pair_count, electric_square=ops.electric_square, stride=4)
    records = []
    for threaded in (False, True):
        built = _rk4_threads(monkeypatch, threaded)
        records.append(rk4_evolve(rho0, ops.hamiltonian, lop, 0.2, 0.01, **kw))
        assert len(built) == threaded
    serial, threaded = records
    assert len(serial) == 6
    for name in ("times", "n_pairs", "e2", "trace", "purity", "min_eig"):
        assert np.array_equal(getattr(serial, name), getattr(threaded, name)), name
    assert serial.max_hermiticity_error == threaded.max_hermiticity_error == 0.0


def test_two_thread_rhs_holds_its_order_under_fast_thread_switching(n7_setup):
    # the chains share buffers and are ordered only by their joins; with the
    # interpreter switching threads every microsecond and a third thread
    # competing for the lock, every call must still give the serial dR/dt
    _, _, ops, _, lop = n7_setup
    operands = lindblad._real_operands(ops.hamiltonian.matrix, lop)
    serial = lindblad._real_rhs(*operands)
    rng = np.random.default_rng(11)
    stop = threading.Event()

    def spin():
        while not stop.is_set():
            pass

    spinner = threading.Thread(target=spin)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    spinner.start()
    try:
        with ThreadPoolExecutor(max_workers=1) as pool:
            spare = np.empty((ops.dim, 2 * ops.dim))
            threaded = lindblad._threaded_real_rhs(*operands, pool, spare)
            for _ in range(10):
                r = rng.normal(size=(ops.dim, ops.dim))
                assert np.array_equal(threaded(r, np.empty_like(r)), serial(r, np.empty_like(r)))
    finally:
        stop.set()
        sys.setswitchinterval(interval)
        spinner.join(timeout=10)
    assert not spinner.is_alive()


def test_two_thread_rhs_runs_only_from_the_cut_on_and_on_two_cpus(n2_setup, n7_setup, monkeypatch):
    # at N = 7 a state that spans both C blocks is stepped as one matrix of
    # dim 284, above the cut (the vacuum's C-even block, 186, is below it)
    for setup, cpus, expected in ((n2_setup, 2, 0), (n7_setup, 1, 0), (n7_setup, 2, 1)):
        _, _, ops, _, lop = setup
        built = _rk4_threads(monkeypatch, True)
        monkeypatch.setattr(lindblad, "_usable_cpus", lambda: cpus)
        rho0 = random_density(np.random.default_rng(13), ops.dim)
        rec = rk4_evolve(rho0, ops.hamiltonian, lop, 0.01, 0.01,
                         pair_count=ops.pair_count, electric_square=ops.electric_square)
        assert len(built) == expected
        assert rec.counters["two_thread"] == bool(expected)
        assert rec.counters["blocks"] == [ops.dim]


def test_no_worker_thread_outlives_an_rk4_call(n7_setup, monkeypatch):
    # a state that spans both C blocks, stepped as one matrix above the cut
    _, _, ops, _, lop = n7_setup
    rho0 = random_density(np.random.default_rng(13), ops.dim)
    kw = dict(pair_count=ops.pair_count, electric_square=ops.electric_square)
    built = _rk4_threads(monkeypatch, True)
    before = threading.active_count()
    rk4_evolve(rho0, ops.hamiltonian, lop, 0.05, 0.01, **kw)
    assert threading.active_count() == before
    with np.errstate(all="ignore"), pytest.raises(RuntimeError, match="aborted"):
        rk4_evolve(rho0, ops.hamiltonian, lop, t_max=50.0, dt=5.0, **kw)
    assert threading.active_count() == before
    assert len(built) == 2


@pytest.mark.parametrize("engine", ["rk4", "exact", "dilation"])
def test_every_engine_rejects_a_non_diagonal_observable(n2_setup, engine):
    _, _, ops, _, lop = n2_setup
    rho0 = DensityMatrix.pure_state(ops.dim, 0)
    kw = dict(pair_count=ops.hamiltonian, electric_square=ops.electric_square)
    run = {
        "rk4": lambda: rk4_evolve(rho0, ops.hamiltonian, lop, 0.1, 0.01, **kw),
        "exact": lambda: exact_evolve(rho0, ops.hamiltonian, lop, [0.0, 0.1], **kw),
        "dilation": lambda: dilation_evolve(rho0, ops.hamiltonian, lop, 0.1, 2, **kw),
    }[engine]
    with pytest.raises(ValueError, match="pair_count must be diagonal"):
        run()


def test_rk4_records_endpoints_and_stride(n2_setup):
    _, _, ops, _, lop = n2_setup
    rho0 = DensityMatrix.pure_state(ops.dim, 0)
    rec = rk4_evolve(rho0, ops.hamiltonian, lop, t_max=0.25, dt=0.01,
                     pair_count=ops.pair_count, electric_square=ops.electric_square,
                     stride=10)
    # 25 steps, stride 10: steps 0, 10, 20 plus the forced final step 25
    assert np.allclose(rec.times, [0.0, 0.1, 0.2, 0.25])


def test_rk4_zero_horizon_returns_the_initial_point(n2_setup):
    _, _, ops, _, lop = n2_setup
    rho0 = DensityMatrix.pure_state(ops.dim, 0)
    rec = rk4_evolve(rho0, ops.hamiltonian, lop, t_max=0.0, dt=0.01,
                     pair_count=ops.pair_count, electric_square=ops.electric_square)
    assert len(rec) == 1
    assert rec.times[0] == 0.0
    assert rec.n_pairs[0] == pytest.approx(0.0, abs=1e-14)


def test_rk4_rejects_misaligned_grids(n2_setup):
    _, _, ops, _, lop = n2_setup
    rho0 = DensityMatrix.pure_state(ops.dim, 0)
    kw = dict(pair_count=ops.pair_count, electric_square=ops.electric_square)
    with pytest.raises(ValueError, match="whole number"):
        rk4_evolve(rho0, ops.hamiltonian, lop, t_max=1.0, dt=0.0075, **kw)
    with pytest.raises(ValueError):
        rk4_evolve(rho0, ops.hamiltonian, lop, t_max=1.0, dt=-0.01, **kw)
    with pytest.raises(ValueError, match="stride"):
        rk4_evolve(rho0, ops.hamiltonian, lop, t_max=1.0, dt=0.01, stride=0, **kw)


@pytest.mark.parametrize("t_max, dt", [(1.0, np.inf), (np.inf, 0.01), (np.nan, 0.01), (1.0, np.nan),
                                      (1e308, 1e-300)])
def test_rk4_rejects_non_finite_grids(n2_setup, t_max, dt):
    # dt = inf used to pass the whole-step check (it compares against NaN) and
    # return one row at time NaN
    _, _, ops, _, lop = n2_setup
    rho0 = DensityMatrix.pure_state(ops.dim, 0)
    with pytest.raises(ValueError, match="finite"):
        lindblad._step_count(t_max, dt)
    with pytest.raises(ValueError, match="finite"):
        rk4_evolve(rho0, ops.hamiltonian, lop, t_max=t_max, dt=dt,
                   pair_count=ops.pair_count, electric_square=ops.electric_square)


def test_rk4_aborts_when_the_step_size_is_unstable(n2_setup):
    _, _, ops, _, lop = n2_setup
    rho0 = DensityMatrix.pure_state(ops.dim, 0)
    with np.errstate(all="ignore"), pytest.raises(RuntimeError, match="aborted"):
        rk4_evolve(rho0, ops.hamiltonian, lop, t_max=50.0, dt=5.0,
                   pair_count=ops.pair_count, electric_square=ops.electric_square)


def test_trajectory_invariants_stay_pinned(n2_setup):
    _, _, ops, _, lop = n2_setup
    rho0 = DensityMatrix.pure_state(ops.dim, 0)
    rec = rk4_evolve(rho0, ops.hamiltonian, lop, t_max=5.0, dt=0.005,
                     pair_count=ops.pair_count, electric_square=ops.electric_square,
                     stride=50)
    assert np.max(np.abs(rec.trace - 1.0)) < 1e-12
    assert rec.max_hermiticity_error < 1e-12
    assert np.min(rec.min_eig) > -1e-10
    assert np.all(rec.purity <= 1.0 + 1e-12)


def test_exact_evolve_validates_its_grid(n2_setup):
    _, _, ops, _, lop = n2_setup
    rho0 = DensityMatrix.pure_state(ops.dim, 0)
    kw = dict(pair_count=ops.pair_count, electric_square=ops.electric_square)
    with pytest.raises(ValueError):
        exact_evolve(rho0, ops.hamiltonian, lop, np.array([0.5, 1.0]), **kw)
    with pytest.raises(ValueError):
        exact_evolve(rho0, ops.hamiltonian, lop, np.array([0.0]), **kw)
    with pytest.raises(ValueError, match="uniform"):
        exact_evolve(rho0, ops.hamiltonian, lop, np.array([0.0, 0.1, 0.3]), **kw)


@pytest.mark.parametrize(
    "times",
    [[], [0.0, -0.1, -0.2], [0.0, 0.0, 0.0], [0.0, np.nan, np.nan], [0.0, 0.1, np.inf],
     [[0.0, 0.1], [0.2, 0.3]]],
    ids=["empty", "decreasing", "zero-step", "nan", "inf", "2-D"],
)
def test_exact_evolve_refuses_a_bad_grid_before_setup(n2_setup, monkeypatch, times):
    _, _, ops, _, lop = n2_setup
    rho0 = DensityMatrix.pure_state(ops.dim, 0)
    kw = dict(pair_count=ops.pair_count, electric_square=ops.electric_square)

    def refuse(*args):
        raise AssertionError("Liouvillian built")

    monkeypatch.setattr(lindblad, "vectorized_liouvillian", refuse)
    with pytest.raises(ValueError, match="time grid"):
        exact_evolve(rho0, ops.hamiltonian, lop, times, **kw)


@pytest.mark.parametrize("t", [-1.0, np.nan, np.inf], ids=["negative", "nan", "inf"])
def test_exact_propagate_refuses_a_bad_time_before_setup(n2_setup, monkeypatch, t):
    _, _, ops, _, lop = n2_setup

    def refuse(*args):
        raise AssertionError("Liouvillian built")

    monkeypatch.setattr(lindblad, "vectorized_liouvillian", refuse)
    with pytest.raises(ValueError, match="finite and >= 0"):
        exact_propagate(DensityMatrix.pure_state(ops.dim, 0), ops.hamiltonian, lop, t)


def test_exact_evolve_takes_a_long_grid_in_blocks(n2_setup, monkeypatch):
    # five states per expm_multiply call: 20 steps in five blocks, each
    # starting from the last state of the one before
    _, _, ops, _, lop = n2_setup
    rho0 = random_density(np.random.default_rng(29), ops.dim)
    times = np.arange(21) * 0.25
    kw = dict(pair_count=ops.pair_count, electric_square=ops.electric_square)
    whole = exact_evolve(rho0, ops.hamiltonian, lop, times, **kw)
    calls = []
    expm_multiply = lindblad._expm_multiply

    def counted(*args, **grid):
        calls.append(grid["num"])
        return expm_multiply(*args, **grid)

    monkeypatch.setattr(lindblad, "_EXACT_GRID_BYTES", 5 * ops.dim**2 * 8)
    monkeypatch.setattr(lindblad, "_expm_multiply", counted)
    blocks = exact_evolve(rho0, ops.hamiltonian, lop, times, **kw)
    assert calls == [5] * 5
    assert np.array_equal(blocks.times, whole.times)
    for name in ("n_pairs", "e2", "trace", "purity", "min_eig"):
        assert np.max(np.abs(getattr(blocks, name) - getattr(whole, name))) < 1e-13, name


def test_exact_propagation_satisfies_the_semigroup_property(n2_setup):
    _, _, ops, _, lop = n2_setup
    rho0 = DensityMatrix.pure_state(ops.dim, 0)
    one_shot = exact_propagate(rho0, ops.hamiltonian, lop, 0.7)
    first = exact_propagate(rho0, ops.hamiltonian, lop, 0.3)
    chained = exact_propagate(first, ops.hamiltonian, lop, 0.4)
    assert np.max(np.abs(one_shot.matrix - chained.matrix)) < 1e-12


@pytest.mark.parametrize("n_sites, kernel_dim, coupling", [
    pytest.param(4, 3, 3.2, id="4-3"),
    pytest.param(5, 2, 3.2, id="5-2"),
    pytest.param(5, 2, 0.3, id="5-2-weak"),
])
def test_exact_engines_match_the_complex_superoperator(n_sites, kernel_dim, coupling):
    # test-only oracle: the complex generator on row-major vec(rho),
    # -i (H kron 1 - 1 kron H^T) + L kron conj(L) - 1/2 (G kron 1 + 1 kron G^T)
    _, _, ops, _, lop = standard_setup(n_sites, coupling=coupling)
    h, dim = ops.hamiltonian.matrix, ops.dim
    rho0 = random_density(np.random.default_rng(n_sites), dim)
    rec = exact_evolve(rho0, ops.hamiltonian, lop, np.arange(11) * 0.2,
                       pair_count=ops.pair_count, electric_square=ops.electric_square)
    steady = steady_state(ops.hamiltonian, lop).matrix

    # sparse kron products, expm_multiply and pivoted QR keep the N = 5 case
    # near 320 MB of RSS (about 520 MB with a dense expm and SVD)
    kron = scipy.sparse.kron
    ident, g = scipy.sparse.eye_array(dim), lop.T @ lop
    lv = (-1j * (kron(h, ident) - kron(ident, h.T)) + kron(lop, lop.conj())
          - 0.5 * (kron(g, ident) + kron(ident, g.T))).tocsr()
    flow = scipy.sparse.linalg.expm_multiply(lv, rho0.ravel(), start=0.0, stop=2.0, num=11)
    for k, vec in enumerate(flow):
        dm = DensityMatrix(vec.reshape(dim, dim))
        expected = (expectation(dm, ops.pair_count), expectation(dm, ops.electric_square),
                    dm.trace, dm.purity, dm.min_eigenvalue)
        got = (rec.n_pairs[k], rec.e2[k], rec.trace[k], rec.purity[k], rec.min_eig[k])
        assert np.max(np.abs(np.subtract(got, expected))) < 1e-12, k

    def null_space_of_adjoint(a):
        # the trailing columns of Q in the pivoted QR a P = Q R span range(a)^perp
        q, r, _ = scipy.linalg.qr(a, overwrite_a=True, pivoting=True)
        d = np.abs(np.diagonal(r))
        return q[:, np.count_nonzero(d > 1e-10 * d[0]):].copy()

    right = null_space_of_adjoint(lv.conj().T.toarray(order="F"))
    left = null_space_of_adjoint(lv.toarray(order="F"))
    assert right.shape[1] == left.shape[1] == kernel_dim
    mixed = np.eye(dim).ravel() / dim
    ss = (right @ np.linalg.solve(left.conj().T @ right, left.conj().T @ mixed)).reshape(dim, dim)
    ss /= np.trace(ss).real
    assert np.max(np.abs(steady - ss)) < 1e-12


def test_exact_evolve_endpoint_matches_exact_propagate(n2_setup):
    _, _, ops, _, lop = n2_setup
    rho0 = DensityMatrix.pure_state(ops.dim, 0)
    times = np.linspace(0.0, 1.5, 4)
    rec = exact_evolve(rho0, ops.hamiltonian, lop, times,
                       pair_count=ops.pair_count, electric_square=ops.electric_square)
    end = exact_propagate(rho0, ops.hamiltonian, lop, 1.5)
    assert rec.e2[-1] == pytest.approx(expectation(end, ops.electric_square), abs=1e-12)


# ---------------------------------------------------------------------------
# fixed points and thermal references
# ---------------------------------------------------------------------------

def test_steady_state_is_a_fixed_point(n2_setup):
    _, _, ops, _, lop = n2_setup
    ss = steady_state(ops.hamiltonian, lop)
    assert ss.trace == pytest.approx(1.0, abs=1e-12)
    assert ss.hermiticity_error < 1e-12
    assert ss.min_eigenvalue > -1e-10
    residual = lindblad_rhs(ss.matrix.astype(complex), ops.hamiltonian, lop)
    assert np.max(np.abs(residual)) < 1e-10


def test_steady_state_from_a_degenerate_kernel_is_a_density_matrix():
    # at N = 4 the kernel is three-dimensional; the limit from 1/dim is PSD
    spec, sector, ops, bath, lop = standard_setup(4)
    ss = steady_state(ops.hamiltonian, lop)
    assert ss.trace == pytest.approx(1.0, abs=1e-12)
    assert ss.hermiticity_error < 1e-12
    assert ss.min_eigenvalue > 0.0
    residual = lindblad_rhs(ss.matrix, ops.hamiltonian, lop)
    assert np.max(np.abs(residual)) < 1e-10

    h_oracle = project_operator(
        build_hamiltonian(spec, list(sector.configs), ops.params), sector
    )
    lop_oracle = build_lindblad_operator(h_oracle, ops.condensate, spec, ops.params, bath)
    ss_oracle = steady_state(h_oracle, lop_oracle)
    assert np.max(np.abs(ss.matrix - ss_oracle.matrix)) <= 1e-10


def test_gibbs_reference_at_infinite_temperature_is_the_uniform_mean(n2_setup):
    _, _, ops, _, _ = n2_setup
    ref = gibbs_reference(ops.hamiltonian, 0.0, ops.pair_count, ops.electric_square)
    assert ref["n_pairs"] == pytest.approx(np.mean(np.diag(ops.pair_count.matrix)), abs=1e-14)
    assert ref["e2"] == pytest.approx(np.mean(np.diag(ops.electric_square.matrix)), abs=1e-14)


def test_gibbs_reference_matches_the_matrix_exponential(n2_setup):
    _, _, ops, _, _ = n2_setup
    beta = 0.37
    direct = scipy.linalg.expm(-beta * ops.hamiltonian.matrix)
    direct /= np.trace(direct)
    ref = gibbs_reference(ops.hamiltonian, beta, ops.pair_count, ops.electric_square)
    assert ref["n_pairs"] == pytest.approx(expectation(direct, ops.pair_count), abs=1e-12)
    assert ref["e2"] == pytest.approx(expectation(direct, ops.electric_square), abs=1e-12)


def test_gibbs_reference_values_are_frozen(n2_setup):
    _, _, ops, bath, _ = n2_setup
    ref = gibbs_reference(ops.hamiltonian, bath.beta, ops.pair_count, ops.electric_square)
    assert ref["beta"] == pytest.approx(0.1)
    assert ref["e2"] == pytest.approx(GIBBS_N2_E2, abs=1e-12)
    assert ref["n_pairs"] == pytest.approx(GIBBS_N2_PAIRS, abs=1e-12)


@pytest.mark.parametrize("n_sites", range(1, 9))
@pytest.mark.parametrize("truncate", [False, True], ids=["full", "truncated"])
def test_block_gibbs_reference_matches_one_full_eigendecomposition(n_sites, truncate):
    _, sector, ops, bath, _ = standard_setup(n_sites, truncate=truncate)
    h, pairs, e2 = ops.hamiltonian.matrix, ops.pair_count.matrix, ops.electric_square.matrix
    observables = (ops.pair_count, ops.electric_square)
    ref = gibbs_reference(ops.hamiltonian, bath.beta, *observables)
    oracle = full_eigh_gibbs(h, bath.beta, pairs, e2)
    assert abs(ref["n_pairs"] - oracle[0]) <= 1e-14 and abs(ref["e2"] - oracle[1]) <= 1e-14
    v = c_even_basis(sector.conjugation)
    even = full_eigh_gibbs(v.T @ h @ v, bath.beta, v.T @ pairs @ v, v.T @ e2 @ v)
    assert abs(ref["c_even"]["n_pairs"] - even[0]) <= 1e-14
    assert abs(ref["c_even"]["e2"] - even[1]) <= 1e-14
    # a plain matrix has no conjugation: one block, whose line is the full one
    plain = gibbs_reference(h, bath.beta, *observables)
    assert abs(plain["e2"] - oracle[1]) <= 1e-14
    assert plain["c_even"] == {"n_pairs": plain["n_pairs"], "e2": plain["e2"]}


def test_c_even_gibbs_line_is_the_roadmap_table_and_the_full_line_at_two_sites():
    for n_sites, expected in C_EVEN_GIBBS_E2.items():
        _, _, ops, bath, _ = standard_setup(n_sites)
        ref = gibbs_reference(ops.hamiltonian, bath.beta, ops.pair_count, ops.electric_square)
        assert ref["c_even"]["e2"] == pytest.approx(expected, abs=1e-6)
        assert ref["c_even"]["e2"] > ref["e2"]
    _, _, ops, bath, _ = standard_setup(2)
    ref = gibbs_reference(ops.hamiltonian, bath.beta, ops.pair_count, ops.electric_square)
    assert ref["c_even"] == {"n_pairs": ref["n_pairs"], "e2": ref["e2"]}


def test_gibbs_reference_refuses_a_conjugation_that_does_not_commute(n2_setup):
    _, _, ops, bath, _ = n2_setup
    # swapping the vacuum and a flux state changes H
    h = HermitianOperator(ops.hamiltonian.matrix, "test", np.array([1, 0, 2, 3]))
    with pytest.raises(ValueError, match="commute"):
        gibbs_reference(h, bath.beta, ops.pair_count, ops.electric_square)


@pytest.mark.parametrize("row, col", [(0, 4), (4, 0), (5, 5), (4, 5)],
                         ids=["H_fa=H_fb", "H_af=H_bf", "H_aa=H_bb", "H_ab=H_ba"])
def test_gibbs_reference_refuses_each_broken_commutation_relation(row, col):
    # at N = 4, P fixes states 0-3 and swaps 4 and 5; moving one entry of H by
    # 1e-13, within the Hermiticity tolerance, breaks one relation alone
    _, sector, ops, bath, _ = standard_setup(4)
    assert list(sector.conjugation[:6]) == [0, 1, 2, 3, 5, 4]
    h = ops.hamiltonian.matrix.copy()
    h[row, col] += 1e-13
    with pytest.raises(ValueError, match="commute"):
        gibbs_reference(HermitianOperator(h, "test", sector.conjugation), bath.beta,
                        ops.pair_count, ops.electric_square)


@pytest.mark.parametrize("n_sites", [4, 5])
def test_the_vacuums_long_time_limit_is_the_c_even_gibbs_state(n_sites):
    # the vacuum is C-even and the flow never leaves that block, so the late
    # state reaches the C-even Gibbs line and not the full sector's
    _, _, ops, bath, lop = standard_setup(n_sites)
    late = exact_propagate(DensityMatrix.pure_state(ops.dim, 0), ops.hamiltonian, lop, 100.0)
    ref = gibbs_reference(ops.hamiltonian, bath.beta, ops.pair_count, ops.electric_square)
    for key, op in (("e2", ops.electric_square), ("n_pairs", ops.pair_count)):
        value = expectation(late, op)
        to_even, to_full = abs(value - ref["c_even"][key]), abs(value - ref[key])
        assert to_even <= 5e-4, key
        assert 10 * to_even <= to_full, key


def test_gibbs_reference_rejects_negative_beta(n2_setup):
    _, _, ops, _, _ = n2_setup
    with pytest.raises(ValueError):
        gibbs_reference(ops.hamiltonian, -0.1, ops.pair_count, ops.electric_square)


@pytest.mark.parametrize("beta", [np.inf, np.nan])
def test_gibbs_reference_rejects_a_non_finite_beta(n2_setup, beta):
    _, _, ops, _, _ = n2_setup
    with pytest.raises(ValueError, match="finite"):
        gibbs_reference(ops.hamiltonian, beta, ops.pair_count, ops.electric_square)
