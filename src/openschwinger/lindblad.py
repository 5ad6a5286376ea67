"""Lindblad thermalization engine.

The system couples to a thermal bath through the staggered scalar density
O (the condensate operator); in the quantum Brownian motion regime the
evolution is

    d rho / dt = -i [H, rho] + L rho L+ - 1/2 {L+ L, rho}

with the single Lindblad operator

    L = sqrt(a * 2N * D) * ( O - [H, O] / (4T) ).

The subleading correction to the system Hamiltonian that accompanies this
expansion is dropped.  D is a dimensionless coupling strength and T = 1/beta
the bath temperature.

Three ways to evolve, each a step closure run by one trajectory driver; the
recorded observables must be diagonal in the sector basis.  Every engine runs
in the charge-conjugation (C) basis of ``_CBasis`` when H, L and both
observables commute with the conjugation P that H carries, and steps a rho0
that commutes with P block by block, skipping a block that is exactly zero.
H, L and the real state R0 of rho0 (below) all enter that basis the same
way, as T X T^T sliced into the stepped blocks.  The engines:

* ``rk4_evolve``      fixed-step classical integrator, any sector size: five
                      matrix products per right-hand side, sparse (CSR) when H
                      and L are and run on two threads from dim 200 on (N = 7),
                      and no Hermitian projection
* ``exact_evolve``    action of the exponential of the vectorized generator,
                      a sparse d^2 x d^2 matrix per block, on vec(R0): the
                      truncated sectors up to N = 6, and the vacuum's block at
                      N = 7 (``steady_state``, power iteration on one sparse LU
                      per block, up to N = 5)
* the Stinespring dilation circuit lives in :mod:`openschwinger.dilation`

All three hold a Hermitian rho0 as real matrices R = Re rho + Im rho, one per
stepped block; rho = (R + R^T)/2 + i (R - R^T)/2 is Hermitian bit for bit, so
no record needs a Hermitian projection.  RK4 and the exact engine (with
``exact_propagate`` and ``steady_state``) need real H and L; the dilation
cycle, which mirrors the quantum device, maps R to R for complex ones too.

Vectorization uses row-major (C-order) stacking, matching ``ndarray.reshape``:
vec(A X B) = (A kron B^T) vec(X).  With G = L^T L and S the transposition,
S vec(R) = vec(R^T), the real generator on vec(R) is

    Lv = (1 kron H - H kron 1) S + L kron L - 1/2 (G kron 1 + 1 kron G).
"""

from __future__ import annotations

import contextlib
import functools
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
# scipy.sparse.linalg (expm_multiply, splu) is left to SciPy's lazy
# submodule loading: only the exact engines use it, and importing it raises
# the peak RSS of a process that imports this package from 49 to 59 MB
import scipy.sparse
from scipy.sparse import _sparsetools

from .lattice import LatticeSpec
from .operators import HermitianOperator, ModelParams

__all__ = [
    "BathParams",
    "DensityMatrix",
    "EvolutionRecord",
    "build_lindblad_operator",
    "lindblad_rhs",
    "rk4_evolve",
    "vectorized_liouvillian",
    "exact_propagate",
    "exact_evolve",
    "steady_state",
    "expectation",
    "TRACE_ABORT_TOL",
    "LIOUVILLIAN_MAX_BYTES",
    "STEADY_STATE_MAX_ORDER",
]

# rk4 aborts when the trace drifts this far from one (or turns non-finite)
TRACE_ABORT_TOL = 1e-6

# rk4 multiplies by H and L as CSR matrices when fewer than this fraction of
# their entries are nonzero, and as dense arrays otherwise.  Per step, dense
# wins at the fractions 0.56 to 0.13 of the truncated sectors N = 2 to 5
# (dim 4 to 41) and CSR from 0.06 on (N = 6, dim 109: 2.1 -> 1.3 ms).
RK4_SPARSE_BELOW = 0.1

# From this dimension of a stepped block on, and when the process may run on
# more than one CPU, the CSR right-hand side runs on two threads
# (``_threaded_real_rhs``).  Per RK4 step on two cores, four runs each side
# (20 steps at N = 8, 100 at N = 7, two records each): 96-155 -> 72-91 ms for
# the whole C basis at N = 8 (dim 800), 42-48 -> 27-31 ms for the N = 8
# vacuum's C-even block (476), 7.1-9.9 -> 6.5-8.1 ms at N = 7 (284), and no
# clear difference for the N = 7 vacuum's block (186: 3.0-4.2 against
# 2.7-4.3 ms).  Below, the hand-offs cost more than they save: per right-hand
# side 0.12-0.18 -> 0.23-0.26 ms at 78 (N = 6, C-even) and 0.17 -> 0.23 ms at
# 109 (N = 6).
RK4_THREADS_FROM_DIM = 200

# Largest CSR generator that ``vectorized_liouvillian`` builds, checked for
# every stepped block against the bound on its nonzeros before any block is
# assembled.  Assembly peaks near three times the result and
# ``expm_multiply`` holds one shifted copy besides it (peak RSS measured at
# dim 109: +37 MB to build the 12.3 MiB generator, +74 MB for
# ``exact_evolve`` over 201 points).  64 MiB admits the truncated sectors up
# to N = 6 (dim 109, bound 13.7 MiB) and, at N = 7, the vacuum's C-even block
# (186 states, bound 45.6 MiB); it refuses an N = 7 state that spans both
# blocks (dim 284, bound 98 MiB on the whole C basis and 139 MiB in the
# sector basis; a probe with the complex generator took 817 s to reach t = 10
# there) and the N = 8 vacuum's block (476, bound 403 MiB).
LIOUVILLIAN_MAX_BYTES = 64 * 2**20

# Largest generator order d^2 of a block for which ``steady_state``
# factorizes mu I - Lv.  At N = 5 the two C blocks (34 and 7 states) take
# 0.06-0.07 s with 532 373 + 1 174 nonzeros of fill, against 0.15-0.17 s and
# 1.28 M for the whole sector (order 1681); at N = 6 the whole sector (order
# 11881) took 66 s with 71 M nonzeros and a 1.6 GB peak RSS, and its C-even
# block (78 states, order 6084) is still refused: 4096 (d <= 64) stops at
# N = 5.
STEADY_STATE_MAX_ORDER = 4096

# ``steady_state`` gives up after this many solves (5-11 at N = 2-5, D = 0.01-10, beta = 0.01-1)
_STEADY_STATE_SOLVES = 32

# ``exact_evolve`` holds at most this many bytes of grid states per
# ``expm_multiply`` call (one call for 201 points up to N = 6)
_EXACT_GRID_BYTES = 64 * 2**20


def _matrix_of(op) -> np.ndarray:
    """The matrix of an operator, density matrix, array or sparse matrix, as an array."""
    m = op.matrix if isinstance(op, (HermitianOperator, DensityMatrix)) else op
    return m.toarray() if scipy.sparse.issparse(m) else np.asarray(m)


@dataclass(frozen=True)
class BathParams:
    """Bath temperature T and dimensionless system-bath coupling D."""

    temperature: float = 10.0
    coupling: float = 3.2

    def __post_init__(self):
        if self.temperature <= 0:
            raise ValueError(f"temperature must be positive, got {self.temperature}")
        if self.coupling < 0:
            raise ValueError(f"coupling must be >= 0, got {self.coupling}")

    @property
    def beta(self) -> float:
        return 1.0 / self.temperature

    @classmethod
    def from_beta(cls, beta: float, coupling: float) -> "BathParams":
        if beta <= 0:
            raise ValueError(f"beta must be positive, got {beta}")
        return cls(temperature=1.0 / beta, coupling=coupling)


# ---------------------------------------------------------------------------
# states
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DensityMatrix:
    """A density matrix plus the diagnostics the invariants care about."""

    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    @property
    def purity(self) -> float:
        return float(np.einsum("ij,ji->", self.matrix, self.matrix).real)

    @property
    def hermiticity_error(self) -> float:
        return float(np.max(np.abs(self.matrix - self.matrix.conj().T)))

    @property
    def min_eigenvalue(self) -> float:
        herm = 0.5 * (self.matrix + self.matrix.conj().T)
        return float(np.linalg.eigvalsh(herm)[0])

    def validate(self, trace_tol=1e-9, herm_tol=1e-10, psd_tol=1e-7) -> "DensityMatrix":
        _check_invariants(self.trace, self.min_eigenvalue, trace_tol=trace_tol, psd_tol=psd_tol)
        if (herm := self.hermiticity_error) > herm_tol:
            raise ValueError(f"hermiticity error {herm:.3e} > {herm_tol}")
        return self

    @classmethod
    def pure_state(cls, dim: int, index: int = 0) -> "DensityMatrix":
        rho = np.zeros((dim, dim))
        rho[index, index] = 1.0
        return cls(rho)


def _check_invariants(trace, min_eig, *, trace_tol, psd_tol) -> None:
    if abs(trace - 1.0) > trace_tol:
        raise ValueError(f"trace {trace!r} deviates from 1 by more than {trace_tol}")
    if min_eig < -psd_tol:
        raise ValueError(f"minimum eigenvalue {min_eig:.3e} < -{psd_tol}")


def expectation(rho, op, imag_tol: float = 1e-10) -> float:
    """Re tr(rho A) for Hermitian A, insisting the imaginary part is noise."""
    r = _matrix_of(rho)
    a = _matrix_of(op)
    val = complex(np.einsum("ij,ji->", a, r))
    if abs(val.imag) > imag_tol * max(1.0, abs(val.real)):
        raise ValueError(f"expectation value has imaginary part {val.imag:.3e}")
    return val.real


# ---------------------------------------------------------------------------
# trajectory record
# ---------------------------------------------------------------------------

CSV_HEADER = "t,n_pairs,e2,trace,purity,min_eig"


@dataclass
class EvolutionRecord:
    """Observables and sanity diagnostics sampled along one trajectory."""

    times: np.ndarray
    n_pairs: np.ndarray
    e2: np.ndarray
    trace: np.ndarray
    purity: np.ndarray
    min_eig: np.ndarray
    max_hermiticity_error: float = 0.0
    # what the engine did: steps, evaluations, records, whether the two-thread
    # path ran and the sizes of the stepped blocks (``_run_trajectory``)
    counters: dict = field(default_factory=dict)

    def __post_init__(self):
        n = len(self.times)
        for name in ("n_pairs", "e2", "trace", "purity", "min_eig"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"column {name} has wrong length")
        if n > 1 and not np.all(np.diff(self.times) > 0):
            raise ValueError("times must be strictly increasing")

    def __len__(self) -> int:
        return len(self.times)

    def to_csv(self) -> str:
        lines = [CSV_HEADER]
        cols = (self.times, self.n_pairs, self.e2, self.trace, self.purity, self.min_eig)
        for row in zip(*cols):
            lines.append(",".join(f"{v:.17g}" for v in row))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "EvolutionRecord":
        lines = [ln for ln in text.strip().splitlines() if ln]
        header = lines[0] if lines else ""
        if header != CSV_HEADER:
            raise ValueError(f"unexpected CSV header: {header!r}")
        data = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]]).reshape(-1, 6)
        return cls(*data.T)


# ---------------------------------------------------------------------------
# generator
# ---------------------------------------------------------------------------

def build_lindblad_operator(
    hamiltonian,
    condensate,
    spec: LatticeSpec,
    params: ModelParams,
    bath: BathParams,
) -> np.ndarray:
    """L = sqrt(a * n_fermion * D) (O - [H, O] / 4T).

    O must be diagonal in the sector basis (ValueError otherwise), as the
    condensate is, so the commutator is formed element by element,
    [H, O]_ij = H_ij o_j - o_i H_ij.  Real whenever H is real, which the sector
    builders guarantee; generally non-Hermitian because the commutator part is
    anti-Hermitian.
    """
    h = _matrix_of(hamiltonian)
    o = _diagonal_of(condensate, "condensate")
    comm = h * o
    comm -= o[:, None] * h
    lop = np.diag(o)
    lop -= comm / (4.0 * bath.temperature)
    lop *= np.sqrt(params.a * spec.n_fermion * bath.coupling)
    return lop


def lindblad_rhs(rho: np.ndarray, hamiltonian, lindblad_op) -> np.ndarray:
    """-i[H, rho] + L rho L+ - 1/2 {L+L, rho}; traceless by construction."""
    h = _matrix_of(hamiltonian)
    lop = _matrix_of(lindblad_op)
    g = lop.conj().T @ lop
    return (
        -1j * (h @ rho - rho @ h)
        + lop @ rho @ lop.conj().T
        - 0.5 * (g @ rho + rho @ g)
    )


def _real_csr(op, name: str):
    """An operator, array or sparse matrix as a real CSR matrix; a nonzero
    imaginary part is refused with ValueError (``_real_matrix_of``)."""
    if not scipy.sparse.issparse(op):
        return scipy.sparse.csr_array(_real_matrix_of(op, name))
    op = scipy.sparse.csr_array(op, copy=True)  # its index arrays are the result's
    return scipy.sparse.csr_array((_real_matrix_of(op.data, name), op.indices, op.indptr), shape=op.shape)


def _liouvillian_terms(hamiltonian, lindblad_op) -> tuple:
    """H, L and L^T L / 2 as CSR matrices, for a generator known to fit: its
    size is bounded by 2 dim nnz(H) + nnz(L)^2 + 2 dim nnz(L^T L) entries of
    12 B (a float64 value and an int32 column index) plus the row pointers, and
    a bound above ``LIOUVILLIAN_MAX_BYTES`` raises ValueError before any kron
    product is formed.  H and L may be arrays, operators or sparse matrices,
    and must be real (``_real_csr``; ValueError otherwise)."""
    h = _real_csr(hamiltonian, "hamiltonian")
    lop = _real_csr(lindblad_op, "lindblad_op")
    half_g = 0.5 * (lop.T @ lop)
    dim = h.shape[0]
    nnz = 2 * dim * h.nnz + lop.nnz**2 + 2 * dim * half_g.nnz
    nbytes = 12 * nnz + 4 * (dim**2 + 1)
    if nbytes > LIOUVILLIAN_MAX_BYTES:
        raise ValueError(
            f"superoperator for dim {dim} could take {nbytes / 2**20:.0f} MiB "
            f"(> {LIOUVILLIAN_MAX_BYTES / 2**20:.0f} MiB); use rk4_evolve for this size"
        )
    return h, lop, half_g


def vectorized_liouvillian(hamiltonian, lindblad_op) -> scipy.sparse.csr_array:
    """The real generator on row-major vec(R) (see module docstring), a
    dim^2 x dim^2 CSR matrix, of the terms ``_liouvillian_terms`` admits
    (arrays, operators or CSR matrices)."""
    h, lop, half_g = _liouvillian_terms(hamiltonian, lindblad_op)
    dim = h.shape[0]
    kron = scipy.sparse.kron
    ident = scipy.sparse.eye_array(dim, format="csr")
    # right-multiplying by S permutes the columns: column (i, j) <- (j, i)
    transposed = np.arange(dim * dim).reshape(dim, dim).T.ravel()
    commutator = (kron(ident, h, format="csr") - kron(h, ident, format="csr"))[:, transposed]
    return (commutator + kron(lop, lop) - kron(half_g, ident) - kron(ident, half_g)).tocsr()


# ---------------------------------------------------------------------------
# charge-conjugation blocks
# ---------------------------------------------------------------------------

class _CBasis:
    """The charge-conjugation basis of an involution P of the sector states
    (``HermitianOperator.conjugation``; None for the identity).

    Its states are P's fixed points f, then (a + b)/sqrt 2 and then
    (a - b)/sqrt 2 for the first member a of each swapped pair and its partner
    b = P[a]: the first ``n_even`` span the C-even block (``blocks[0]``), the
    rest the C-odd one.  They are the rows of the real orthogonal matrix T.
    ``to_c`` maps a sector matrix X, array or CSR, to T X T^T, ``cut`` slices
    the parts an engine steps out of it, and ``to_sector`` maps back.  For an
    X that commutes with P exactly (``commutes``) T X T^T is block-diagonal
    with exact zeros between the blocks: each of its entries sums at most two
    products of two terms, and between the blocks these cancel exactly.  A
    P-symmetric diagonal reads ``d[order]`` in the C basis.  Without pairs T
    is the identity and ``to_c`` returns X as it is.

    ``parts`` and ``skipped`` say where an engine steps its state
    (``_engine_basis``): by default every nonempty block, none skipped.
    """

    def __init__(self, p, dim: int):
        states = np.arange(dim)
        self.p = states if p is None else np.asarray(p)
        self.f, self.a = np.flatnonzero(self.p == states), np.flatnonzero(self.p > states)
        self.b = self.p[self.a]
        self.order = np.concatenate([self.f, self.a, self.b])
        self.n_even = len(self.f) + len(self.a)
        self.identity = self.n_even == dim
        self.blocks = (slice(0, self.n_even), slice(self.n_even, dim))
        self.parts = [part for part in self.blocks if part.stop > part.start]
        self.skipped = False

    @functools.cached_property
    def t(self) -> scipy.sparse.csr_array:
        # row by row: one entry per fixed point, (a, b) in each pair's two rows;
        # int32 indices, as the operators have: a product with an int64 operand
        # is int64, 16 B per entry instead of 12 in every cut and generator
        nf, na = len(self.f), len(self.a)
        half = np.sqrt(0.5)
        indptr = np.concatenate([np.arange(nf), nf + 2 * np.arange(2 * na + 1)]).astype(np.int32)
        pairs = np.column_stack([self.a, self.b]).ravel()
        indices = np.concatenate([self.f, pairs, pairs]).astype(np.int32)
        data = np.concatenate([np.ones(nf), np.tile([half, half], na), np.tile([half, -half], na)])
        return scipy.sparse.csr_array((data, indices, indptr), shape=(len(self.p),) * 2)

    def commutes(self, x) -> bool:
        """X[P][:, P] == X exactly (P[d] == d for a diagonal d)."""
        if self.identity:
            return True
        x = np.asarray(x)
        return np.array_equal(x[np.ix_(self.p, self.p)] if x.ndim == 2 else x[self.p], x)

    def to_c(self, x):
        """T X T^T for an array or a CSR matrix X, of the same kind."""
        return x if self.identity else self.t @ x @ self.t.T

    def cut(self, x) -> list:
        """The stepped parts of T X T^T (C-contiguous for an array X): its
        blocks for an X that commutes with P, or the whole of it."""
        z = self.to_c(x)
        return [z[part, part] if scipy.sparse.issparse(z) else np.ascontiguousarray(z[part, part])
                for part in self.parts]

    def to_sector(self, z: np.ndarray) -> np.ndarray:
        """T^T Z T, the inverse of ``to_c``."""
        return z if self.identity else np.ascontiguousarray(self.t.T @ z @ self.t)

    def sizes(self) -> list:
        return [part.stop - part.start for part in self.parts]


def _engine_basis(hamiltonian, lindblad_op, rho0=None, diagonals=()) -> _CBasis:
    """The C basis an engine runs in, with the parts it steps rho0 in.

    P is ``hamiltonian.conjugation`` when H, L and every diagonal in
    ``diagonals`` commute with it exactly, and the identity otherwise (and for
    plain arrays).  A rho0 that commutes with P too (None stands for 1/dim) is
    stepped block by block, and a block of it that is exactly zero is skipped;
    any other is stepped as one matrix, on the whole C basis.  This plan is
    read off rho0 in the sector basis, before rho0 is decoded or mapped: for
    an X that commutes with P the C-even block is zero when X (1 + P)/2 is,
    X == -X[:, P], and the C-odd one when X (1 - P)/2 is, X == X[:, P].
    """
    h = _matrix_of(hamiltonian)
    c = _CBasis(getattr(hamiltonian, "conjugation", None), len(h))
    if not all(c.commutes(x) for x in (h, _matrix_of(lindblad_op), *diagonals)):
        c = _CBasis(None, len(h))
    if rho0 is None or c.identity:
        return c
    rho = _matrix_of(rho0)
    if rho.shape == h.shape and c.commutes(rho):
        swapped = rho[:, c.p]
        zero = np.array_equal(rho, -swapped), np.array_equal(rho, swapped)
        stepped = [part for part, empty in zip(c.blocks, zero) if not empty and part.stop > part.start]
        if stepped:
            c.parts, c.skipped = stepped, len(stepped) < len(c.parts)
            return c
    c.parts = [slice(0, len(h))]
    return c


# ---------------------------------------------------------------------------
# trajectory driver
# ---------------------------------------------------------------------------

def _diagonal_of(op, name: str) -> np.ndarray:
    m = _matrix_of(op)
    diag = np.diagonal(m)
    if np.count_nonzero(m) != np.count_nonzero(diag):
        raise ValueError(f"{name} must be diagonal in the sector basis")
    return np.real(diag).copy()


def _real_state_of(rho0) -> np.ndarray:
    """R0 = Re rho + Im rho of the Hermitian part rho of rho0, a new real array.

    R cannot hold a non-Hermitian part, so a rho0 whose Hermiticity error
    exceeds 1e-10 (the ``validate`` default) is refused with ValueError.
    """
    rho0 = _matrix_of(rho0)
    skew = rho0 - rho0.conj().T
    herm_err = float(np.max(np.abs(skew)))
    if herm_err > 1e-10:
        raise ValueError(f"rho0 is not Hermitian: hermiticity error {herm_err:.3e} > 1e-10")
    herm = rho0 - 0.5 * skew
    return np.real(herm) + np.imag(herm)


def _density_of_real(r: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Write rho = (R + R^T)/2 + i (R - R^T)/2, Hermitian bit for bit, into the
    complex ``out`` (a new array when none is given)."""
    if out is None:
        out = np.empty(r.shape, dtype=complex)
    np.add(r, r.T, out=out.real)
    np.subtract(r, r.T, out=out.imag)
    out *= 0.5
    return out


def _run_trajectory(
    c, states, step, n_steps, time_of, *, diagonals, stride=1, tolerances=None, buffer=None, counters=None,
) -> EvolutionRecord:
    """The one record loop behind every engine.

    ``states`` are the real states R (module docstring) of the parts of the C
    basis ``c`` that the engine steps, and ``step(states, k)`` advances them to
    step k <= ``n_steps``.  Step 0, every ``stride``-th and the last step are
    recorded at ``time_of(k)``.  Trace, purity and the observables with the
    sector diagonals ``diagonals`` (pair count, E^2) are sums over the parts of
    reads straight off R (diag rho = diag R and tr rho^2 = sum_ij R_ij^2).
    ``min_eig`` is the least eigenvalue over the parts, and 0 when a block was
    skipped; only it decodes rho, into the flat complex ``buffer`` (a new one
    when None).  With ``tolerances`` (``trace_tol``, ``psd_tol``) every row
    but the first is checked.  The record carries ``counters`` and the number
    of records and stepped block sizes.
    """
    reads = [tuple(d[c.order][part] for d in diagonals) for part in c.parts]
    if buffer is None:
        buffer = np.empty(max(r.size for r in states), dtype=complex)
    rows = []
    for k in range(n_steps + 1):
        if k > 0:
            states = step(states, k)
        if k % stride and k != n_steps:
            continue
        sums, eigs = [], [0.0] if c.skipped else []
        for r, (pairs_diag, e2_diag) in zip(states, reads):
            diag = np.diagonal(r)
            sums.append((float(np.sum(diag)), float(pairs_diag @ diag), float(e2_diag @ diag),
                         float(np.vdot(r, r))))
            rho = _density_of_real(r, buffer[:r.size].reshape(r.shape))
            eigs.append(float(np.linalg.eigvalsh(rho)[0]))
        tr, pairs, e2, purity = map(sum, zip(*sums))
        min_eig = min(eigs)
        if tolerances is not None and k > 0:
            _check_invariants(tr, min_eig, **tolerances)
        rows.append((time_of(k), pairs, e2, tr, purity, min_eig))
    counters = {"two_thread": False, **(counters or {}), "records": len(rows), "blocks": c.sizes()}
    return EvolutionRecord(*np.array(rows).T, counters=counters)


# ---------------------------------------------------------------------------
# RK4 integration
# ---------------------------------------------------------------------------

def _step_count(t_max: float, dt: float) -> int:
    """The number of ``dt`` steps in ``t_max``; ValueError unless both are
    finite, the count is whole (to 1e-9) and a time grid can index it."""
    if not (np.isfinite(t_max) and np.isfinite(dt)):
        raise ValueError(f"t_max and dt must be finite, got {t_max} and {dt}")
    ratio = float(t_max) / float(dt)
    if not ratio < np.iinfo(np.intp).max:
        raise ValueError(f"t_max / dt = {ratio:.6g} is not a finite step count a time grid can index")
    n_steps = int(round(ratio))
    if abs(n_steps * dt - t_max) > 1e-9 * max(1.0, t_max):
        raise ValueError(f"t_max {t_max} is not a whole number of steps of dt {dt}")
    return n_steps


def _real_matrix_of(op, name: str) -> np.ndarray:
    m = _matrix_of(op)
    if np.iscomplexobj(m) and np.any(m.imag):
        raise ValueError(f"{name} must be real; got a nonzero imaginary part")
    return np.ascontiguousarray(m.real, dtype=float)


def _real_operands(h, lop) -> tuple:
    """[H; L] (H stacked on L), L and L^T / 2 for ``_real_rhs``, from arrays
    or CSR matrices: CSR matrices when fewer than ``RK4_SPARSE_BELOW`` of the
    entries of H and L are nonzero, C-contiguous arrays otherwise.  Halving is
    exact, so products with L^T / 2 are bit for bit half the products with
    L^T."""
    if scipy.sparse.issparse(h):
        stacked = scipy.sparse.vstack([h, lop], format="csr")
        if stacked.nnz < RK4_SPARSE_BELOW * stacked.shape[0] * stacked.shape[1]:
            return stacked, lop, (0.5 * lop.T).tocsr()
        h, lop = h.toarray(), lop.toarray()
    stacked = np.vstack([h, lop])
    half_lop_t = 0.5 * lop.T
    if np.count_nonzero(stacked) < RK4_SPARSE_BELOW * stacked.size:
        return tuple(scipy.sparse.csr_array(m) for m in (stacked, lop, half_lop_t))
    return stacked, lop, np.ascontiguousarray(half_lop_t)


def _real_rhs(stacked, lop, half_lop_t):
    """``rhs(r, out)``: write dR/dt of the real state R into ``out``.

    For real H and L, with H and G = L^T L symmetric,

        dR/dt = R^T H - H R^T + L R L^T - 1/2 (G R + R G)
              = (H R - 1/2 L^T (L R^T))^T - H R^T + L (L R^T)^T - 1/2 L^T (L R),

    five products with the operands of ``_real_operands``: [H; L] R^T,
    L^T (L R^T), [H; L] R, L (L R^T)^T and L^T (L R).  G is never formed.  Each
    transposed operand is first copied into one C-contiguous buffer, because a
    CSR product with a transposed view is about three times slower.  The
    products are ordered so that the temporaries alive at once never hold
    more than 3 dim^2 entries: with about twice that, every call faulted its
    pages back in from the OS (2146 minor faults per call at N = 8, about a
    fifth of its time).
    """
    dim = lop.shape[0]
    rt = np.empty((dim, dim))

    def rhs(r, out):
        np.copyto(rt, r.T)
        hl_rt = stacked @ rt  # [H R^T; L R^T]
        np.negative(hl_rt[:dim], out=out)
        half_g_rt = half_lop_t @ hl_rt[dim:]
        np.copyto(rt, hl_rt[dim:].T)  # the R^T buffer now holds (L R^T)^T
        del hl_rt
        hl_r = stacked @ r  # [H R; L R]
        first = hl_r[:dim]
        first -= half_g_rt
        del half_g_rt
        out += first.T
        out += lop @ rt
        out -= half_lop_t @ hl_r[dim:]
        return out

    return rhs


def _csr_product(a, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write ``a @ x`` into ``out`` (both C-contiguous, ``a`` CSR), bit for bit.

    ``a @ x`` runs SciPy's ``csr_matvecs`` kernel, which adds A X into a
    zeroed result and releases the GIL; calling it on a zeroed ``out`` gives
    the same numbers without allocating the result.
    """
    out.fill(0.0)
    _sparsetools.csr_matvecs(a.shape[0], a.shape[1], x.shape[1], a.indptr, a.indices,
                             a.data, x.ravel(), out.ravel())
    return out


def _threaded_real_rhs(stacked, lop, half_lop_t, pool, spare: np.ndarray):
    """``_real_rhs`` for CSR operands with the work split between the calling
    thread and the single worker of ``pool``; dR/dt is bit for bit the same.

    The seven half-products H R^T, L R^T, H R, L R, 1/2 L^T (L R^T),
    L (L R^T)^T and 1/2 L^T (L R) run in two chains, one on the worker and one
    on the calling thread, joined twice per call; the worker also takes one of
    the two transposed copies.  The terms enter ``out`` in the serial order.
    Each product is written into a dim x dim buffer (``_csr_product``).  Two
    of the buffers are ``spare``, 2 dim^2 contiguous floats of the caller's
    that every call overwrites: ``rk4_evolve`` lends its complex record
    buffer, whose contents are dead between records.  The other two (R^T and
    one product) are allocated per call by the calling thread, so the worker
    allocates no array and both are free while the records run.  Kept alive
    for the whole trajectory, the four buffers raised the peak RSS of a fresh
    process running the N = 8 leg (20 steps, stride 5) from 149 to 160 MB; as
    it is, the peak is 140 MB.
    """
    dim = lop.shape[0]
    h = stacked[:dim]
    b1, b2 = spare.reshape(2, dim, dim)

    def neg_h_rt(rt, out):
        np.negative(_csr_product(h, rt, out), out=out)

    def rhs(r, out):
        rt, b3 = np.empty((2, dim, dim))
        h_r = pool.submit(_csr_product, h, r, b1)  # H R
        np.copyto(rt, r.T)
        first = pool.submit(neg_h_rt, rt, out)  # out = -H R^T
        _csr_product(lop, rt, b2)  # L R^T
        # the R^T buffer takes (L R^T)^T once the worker is done reading it
        l_rt_t = pool.submit(np.copyto, rt, b2.T)
        _csr_product(half_lop_t, b2, b3)  # 1/2 L^T (L R^T)
        for done in (h_r, first, l_rt_t):
            done.result()
        l_r = pool.submit(_csr_product, lop, r, b2)
        np.subtract(b1, b3, out=b1)
        out += b1.T
        last = pool.submit(_csr_product, half_lop_t, b2, b1)  # 1/2 L^T (L R)
        out += _csr_product(lop, rt, b3)
        l_r.result()
        out -= last.result()
        return out

    return rhs


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def rk4_evolve(
    rho0,
    hamiltonian,
    lindblad_op,
    t_max: float,
    dt: float = 0.005,
    *,
    pair_count,
    electric_square,
    stride: int = 1,
) -> EvolutionRecord:
    """Integrate the Lindblad equation with classical fixed-step RK4.

    Records every ``stride``-th step (plus t=0 and the final step).  The trace
    is monitored every step and the run aborts if it leaves 1 by more than
    ``TRACE_ABORT_TOL`` or turns non-finite.  H and L must be real.

    The state is the real matrix R of the module docstring, one per stepped
    part of the C basis (``_engine_basis``), and for real H and L, with
    G = L^T L, the generator reads

        dR/dt = R^T H - H R^T + L R L^T - 1/2 (G R + R G),

    five matrix products per right-hand side (``_real_rhs``), with CSR or
    dense operands (``_real_operands``) and for parts from
    ``RK4_THREADS_FROM_DIM`` on run on two threads (``_threaded_real_rhs``;
    dR/dt, and so every record, is bit for bit the serial result).  A step
    works in three preallocated buffers per part and updates each R in place.
    A rho0 whose Hermiticity error exceeds 1e-10 is refused with ValueError
    (see ``_real_state_of``).
    """
    h = _real_matrix_of(hamiltonian, "hamiltonian")
    lop = _real_matrix_of(lindblad_op, "lindblad_op")
    if dt <= 0 or t_max < 0:
        raise ValueError("need dt > 0 and t_max >= 0")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    n_steps = _step_count(t_max, dt)
    diagonals = _diagonal_of(pair_count, "pair_count"), _diagonal_of(electric_square, "electric_square")
    c = _engine_basis(hamiltonian, lop, rho0, diagonals)
    states = c.cut(_real_state_of(rho0))
    if not c.identity:  # cut from CSR copies, the C-basis operands take no dense temporaries
        h, lop = scipy.sparse.csr_array(h), scipy.sparse.csr_array(lop)
    operands = [_real_operands(*ops) for ops in zip(c.cut(h), c.cut(lop))]
    del h, lop  # the sector-basis copies go before the step buffers come
    threaded = [scipy.sparse.issparse(ops[0]) and ops[1].shape[0] >= RK4_THREADS_FROM_DIM
                and _usable_cpus() > 1 for ops in operands]
    buffers = [np.empty((3,) + r.shape) for r in states]
    rho = np.empty(max(r.size for r in states), dtype=complex)

    def step(states, k):
        for r, rhs, (acc, slope, stage) in zip(states, rhss, buffers):
            # acc sums dt (k1 + 2 k2 + 2 k3 + k4) / 6; each later slope is taken
            # at the stage r + c dt (previous slope) and enters acc with weight w dt
            rhs(r, slope)
            np.multiply(slope, dt / 6.0, out=acc)
            for c_dt, w in ((0.5, 1.0 / 3.0), (0.5, 1.0 / 3.0), (1.0, 1.0 / 6.0)):
                np.multiply(slope, c_dt * dt, out=stage)
                np.add(stage, r, out=stage)
                rhs(stage, slope)
                np.multiply(slope, w * dt, out=stage)
                np.add(acc, stage, out=acc)
            r += acc
        tr = sum(float(np.trace(r)) for r in states)
        if not np.isfinite(tr) or abs(tr - 1.0) > TRACE_ABORT_TOL:
            raise RuntimeError(
                f"rk4 aborted at t={k * dt:.6g}: trace deviated to {tr!r} "
                f"(tolerance {TRACE_ABORT_TOL}); reduce dt"
            )
        return states

    # the worker thread lives for this call only; every part lends it the
    # record buffer, whose contents are dead between records
    with ThreadPoolExecutor(max_workers=1) if any(threaded) else contextlib.nullcontext() as pool:
        rhss = [_threaded_real_rhs(*ops, pool, rho[:r.size].view(float)) if two else _real_rhs(*ops)
                for ops, two, r in zip(operands, threaded, states)]
        counters = {"steps": n_steps, "rhs_evaluations": 4 * n_steps * len(states),
                    "two_thread": any(threaded)}
        return _run_trajectory(c, states, step, n_steps, lambda k: k * dt, diagonals=diagonals,
                               stride=stride, buffer=rho, counters=counters)


# ---------------------------------------------------------------------------
# exact propagation
# ---------------------------------------------------------------------------

def _expm_multiply(lv, vec, **grid) -> np.ndarray:
    """``scipy.sparse.linalg.expm_multiply(lv, vec, **grid)``, repeatable and
    leaving numpy's global RNG as it found it.

    Its 1-norm estimates (``onenormest``) draw random sign vectors from the
    global ``np.random`` state, and the estimates pick the Taylor degree and
    step count, so the draws are seeded with 0 here and the caller's state is
    restored afterwards.
    """
    state = np.random.get_state()
    np.random.seed(0)
    try:
        return scipy.sparse.linalg.expm_multiply(lv, vec, **grid)
    finally:
        np.random.set_state(state)


def _block_generators(c: _CBasis, hamiltonian, lindblad_op) -> list:
    """H, L and L^T L / 2 as CSR matrices on each stepped part of ``c``, once
    the generator of every part is known to fit (``_liouvillian_terms``
    raises ValueError before any of them is assembled)."""
    h = c.cut(_real_csr(hamiltonian, "hamiltonian"))
    lop = c.cut(_real_csr(lindblad_op, "lindblad_op"))
    return [_liouvillian_terms(*ops) for ops in zip(h, lop)]


def exact_propagate(rho0, hamiltonian, lindblad_op, t: float) -> DensityMatrix:
    """rho(t), from vec(R(t)) = expm(Lv t) vec(R0) on each stepped part of the
    C basis (``_engine_basis``), mapped back to the sector basis and decoded;
    Hermitian bit for bit.  A t that is negative or not finite is refused with
    ValueError before Lv is built."""
    if not (np.isfinite(t) and t >= 0):
        raise ValueError(f"t must be finite and >= 0, got {t}")
    c = _engine_basis(hamiltonian, lindblad_op, rho0)
    terms = _block_generators(c, hamiltonian, lindblad_op)
    states = c.cut(_real_state_of(rho0))
    r_t = np.zeros((len(c.p),) * 2)
    for part, r, (h, lop, _) in zip(c.parts, states, terms):
        r_t[part, part] = _expm_multiply(vectorized_liouvillian(h, lop) * t, r.ravel()).reshape(r.shape)
    return DensityMatrix(_density_of_real(c.to_sector(r_t)))


def exact_evolve(
    rho0,
    hamiltonian,
    lindblad_op,
    times: np.ndarray,
    *,
    pair_count,
    electric_square,
) -> EvolutionRecord:
    """Evaluate the exact solution on a uniform, increasing time grid.

    The states come from the action of expm(Lv t) on vec(R0) over the grid
    (``expm_multiply``, Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488
    (2011)), with one Lv per stepped part of the C basis (``_engine_basis``);
    Lv stays sparse and is never exponentiated.  The grid must start at 0 and
    be finite and uniform with a positive step (ValueError otherwise, before
    any setup).  A part takes it in one call when its states fit in
    ``_EXACT_GRID_BYTES`` and in consecutive blocks of that size otherwise,
    each starting from the last state of the one before.  H and L must be
    real and rho0 Hermitian, as for ``rk4_evolve``.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) < 2 or times[0] != 0.0 or not np.isfinite(times).all():
        raise ValueError("time grid must be 1-D and finite, start at 0 and contain at least two points")
    steps = np.diff(times)
    if not (steps[0] > 0 and np.all(np.abs(steps - steps[0]) <= 1e-12 * max(1.0, times[-1]))):
        raise ValueError("time grid must be uniform and increasing")
    diagonals = _diagonal_of(pair_count, "pair_count"), _diagonal_of(electric_square, "electric_square")
    c = _engine_basis(hamiltonian, lindblad_op, rho0, diagonals)
    lvs = [vectorized_liouvillian(h, lop) for h, lop, _ in _block_generators(c, hamiltonian, lindblad_op)]
    states = c.cut(_real_state_of(rho0))
    counters = {"steps": len(steps), "expm_multiply_calls": 0}

    def flow(lv, r):
        block = max(1, _EXACT_GRID_BYTES // r.nbytes - 1)  # steps per call
        vec = r.ravel()
        for first in range(0, len(steps), block):
            last = min(first + block, len(steps))
            grid = _expm_multiply(lv, vec, start=0.0, stop=times[last] - times[first],
                                  num=last - first + 1, endpoint=True)
            counters["expm_multiply_calls"] += 1
            yield from grid[1:]
            vec = grid[-1]

    flows = [flow(lv, r) for lv, r in zip(lvs, states)]
    return _run_trajectory(
        c, states, lambda rs, k: [next(f).reshape(r.shape) for f, r in zip(flows, rs)], len(steps),
        times.__getitem__, diagonals=diagonals, counters=counters,
    )


def steady_state(hamiltonian, lindblad_op) -> DensityMatrix:
    """The time-averaged long-time limit of the flow from 1/dim (the limit
    itself when no eigenvalue of Lv is purely imaginary).

    1/dim commutes with the conjugation P, so in the C basis
    (``_engine_basis``) each block of size d flows on its own and keeps its
    trace d/dim: the result is (d_e/dim) sigma_e + (d_o/dim) sigma_o, with
    sigma the limit of the block's flow from 1/d.

    The kernel of a block's Lv can be degenerate (dimension 3 at N = 4, 2 at
    N = 5 for the whole sector), so an arbitrary null vector need not be a
    density matrix.  The time average of exp(Lv t) vec(R0) is the spectral
    projection of R0 onto the kernel, found by power iteration of
    mu (mu I - Lv)^-1, mu = 1e-6 ||Lv||_inf, on one sparse LU factorization per
    block, from vec(1/d) with the trace reset to one after each solve.  A
    solve fixes the kernel and shrinks the component of every other
    eigenvalue lambda, purely imaginary ones included, by
    mu / |mu - lambda| <= mu / |lambda|: about 2e-4 at N = 4 and 5 (smallest
    nonzero |lambda| 0.11 and 0.09, ||Lv||_inf 19 and 24).  It stops at the
    first solve that changes the iterate no less than the one before, at the
    rounding floor near 1e-13: 5 solves at N = 4, 7 at N = 5.  One still
    improving after ``_STEADY_STATE_SOLVES`` solves (contraction about 1/2 or
    slower) raises RuntimeError; a block with d^2 above
    ``STEADY_STATE_MAX_ORDER`` raises ValueError before any Lv is built.  The
    average of the positive flow from 1/dim is positive semi-definite; it is
    returned with trace one, decoded from R and so Hermitian bit for bit.
    """
    c = _engine_basis(hamiltonian, lindblad_op)
    dim = len(c.p)
    for d in c.sizes():
        if d**2 > STEADY_STATE_MAX_ORDER:
            raise ValueError(
                f"steady state for dim {dim} needs the LU factors of an order-{d**2} "
                f"generator (> {STEADY_STATE_MAX_ORDER}); run rk4_evolve to late times instead"
            )
    r = np.zeros((dim, dim))
    for part, (h, lop, _) in zip(c.parts, _block_generators(c, hamiltonian, lindblad_op)):
        d = part.stop - part.start
        r[part, part] = _block_steady_state(vectorized_liouvillian(h, lop), d) * (d / dim)
    return DensityMatrix(_density_of_real(c.to_sector(r)))


def _block_steady_state(lv, d: int) -> np.ndarray:
    """R of ``steady_state``'s power iteration on the generator ``lv`` of one
    block of size d, from vec(1/d), with trace one."""
    shift = 1e-6 * float(np.max(abs(lv).sum(axis=1)))
    lu = scipy.sparse.linalg.splu((shift * scipy.sparse.eye_array(d**2) - lv).tocsc())
    diagonal = np.arange(0, d**2, d + 1)  # the positions of tr R in vec(R)
    vec = np.eye(d).ravel() / d
    change = np.inf
    for _ in range(_STEADY_STATE_SOLVES):
        nxt = lu.solve(vec)
        nxt /= np.sum(nxt[diagonal])
        last, change = change, float(np.max(np.abs(nxt - vec)))
        vec = nxt
        if change >= last:
            return vec.reshape(d, d)
    raise RuntimeError(f"steady state not converged after {_STEADY_STATE_SOLVES} solves "
                       f"(last change {change:.3e}): Lv has an eigenvalue too close to 0")


# ---------------------------------------------------------------------------
# thermal reference
# ---------------------------------------------------------------------------

def gibbs_reference(hamiltonian, beta: float, pair_count, electric_square) -> dict:
    """Thermal expectation values used as the equilibrium reference lines:
    ``n_pairs`` and ``e2`` of the whole sector's Gibbs state exp(-beta H) / Z,
    and ``c_even``, the same of the C-even block's, which holds the vacuum.

    With P = ``hamiltonian.conjugation`` (the identity for an operator without
    one, or a plain array) H is mapped into the C basis of ``_CBasis``,
    T H T^T: its C-even block holds P's fixed points and the
    (a + b)/sqrt 2 states, its C-odd block the (a - b)/sqrt 2 states.  P must
    commute with H exactly, H[P][:, P] == H (ValueError otherwise).  Each
    block is diagonalized on its own (476 and 324 states instead of 800 at
    N = 8), with the Boltzmann weights shifted by the lower of the two ground
    energies.

    Both observables must be diagonal in the sector basis (ValueError
    otherwise), so only the diagonal of each block's Gibbs state,
    sum_k w_k |v_k|^2 over its eigenvectors v_k, is formed; it meets the
    observable's diagonal made P-symmetric, (d + d[P]) / 2, in the C basis.
    A negative or non-finite beta is refused with ValueError.
    """
    if not (np.isfinite(beta) and beta >= 0):
        raise ValueError(f"beta must be finite and >= 0, got {beta}")
    h = _matrix_of(hamiltonian)
    c = _CBasis(getattr(hamiltonian, "conjugation", None), len(h))
    if not c.commutes(h):
        raise ValueError("the Hamiltonian does not commute with its conjugation")
    z = c.to_c(h)
    (evals_even, vecs_even), (evals_odd, vecs_odd) = (np.linalg.eigh(z[part, part]) for part in c.blocks)
    ground = min(evals_even[0], evals_odd[0]) if len(evals_odd) else evals_even[0]
    w_even = np.exp(-beta * (evals_even - ground))
    w_odd = np.exp(-beta * (evals_odd - ground))
    # unnormalized diagonals of the two blocks' Gibbs states
    occ_even = (np.abs(vecs_even) ** 2) @ w_even
    occ_odd = (np.abs(vecs_odd) ** 2) @ w_odd
    z_even = w_even.sum()
    z = z_even + w_odd.sum()

    def means(op, name):
        d = _diagonal_of(op, name)
        d = (0.5 * (d + d[c.p]))[c.order]
        in_even = occ_even @ d[c.blocks[0]]
        return float((in_even + occ_odd @ d[c.blocks[1]]) / z), float(in_even / z_even)

    n_pairs, n_pairs_even = means(pair_count, "pair_count")
    e2, e2_even = means(electric_square, "electric_square")
    return {"beta": beta, "n_pairs": n_pairs, "e2": e2, "c_even": {"n_pairs": n_pairs_even, "e2": e2_even}}
