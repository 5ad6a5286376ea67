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
one plan, ``_engine_basis``: it checks the shapes of H, L, rho0 and the
observables and builds one ``_CBasis``, which fixes the charge-conjugation
(C) basis of the conjugation P that H carries (the identity, T = 1, when H
carries none or H, L or an observable does not commute with it), the parts
rho0 is stepped in (block by block for a rho0 that commutes with P,
skipping a block that is exactly zero; for RK4 from dim 200 on, a rho0
that spans both blocks as its block pairs) and the observables' diagonals
each part's records read.  H, L and the real state R0 of rho0 (below) all
enter that basis the same way, each part as T_p X T_p^T from its own rows
T_p of T (``_CBasis.cut``): RK4 and the exact engine cut H and L from real
CSR copies, the dilation and R0 from arrays, through the products of
SciPy's T @ X @ T^T without its strided copies (``_sandwich``);
``gibbs_reference`` cuts H into the C blocks the same way.  The plan checks sparse operators as
they are.  ``exact_propagate`` and ``steady_state`` map their blocks back and
decode them in one step (``_CBasis.density``).  The engines:

* ``rk4_evolve``      fixed-step classical integrator, any sector size: five
                      matrix products per right-hand side (seven on a
                      coherence block), sparse (CSR) when H and L are and run
                      on two threads from dim 200 on (N = 7), no Hermitian
                      projection, and each step the nested (Horner) form of
                      RK4's Taylor polynomial in two registers per stepped
                      part, which also hold each record's rho: 7 d^2 floats
                      for a block of size d, and about 5 d^2 (4.6 d^2 at
                      N = 8) for a state of size d stepped as its block pairs
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
import os
import time
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

# From this dimension of a stepped block on (from this size squared for a
# d_a x d_b block pair), and when the process may run on more than one CPU,
# the CSR right-hand side runs on two threads (``_threaded_real_rhs``).  Per
# RK4 step on two cores, four runs each side (20 steps at N = 8, 100 at
# N = 7, two records each): 96-155 -> 72-91 ms for
# the whole C basis at N = 8 (dim 800), 42-48 -> 27-31 ms for the N = 8
# vacuum's C-even block (476), 7.1-9.9 -> 6.5-8.1 ms at N = 7 (284), and no
# clear difference for the N = 7 vacuum's block (186: 3.0-4.2 against
# 2.7-4.3 ms).  Below, the hand-offs cost more than they save: per right-hand
# side 0.12-0.18 -> 0.23-0.26 ms at 78 (N = 6, C-even) and 0.17 -> 0.23 ms at
# 109 (N = 6).  From this dimension on RK4 also steps a state that spans both
# C blocks as its block pairs (``_CBasis``): 4.6 instead of 7.1 d^2 floats at
# N = 8 and 5.1 instead of 7.4 at N = 7 (tracemalloc).  Per step, ten runs
# each side in alternating processes: on two cores 53-65 ms (median 56)
# against 61-70 ms (61) at N = 8, and on one thread 81-95 (85) against
# 101-113 ms (111); at N = 7, whose pairs (186 and 98 states) stay below the
# thread cut, 6.9-8.5 ms (7.2) against 5.5-6.7 ms (5.8) for the whole C basis
# on two threads, and 6.8-7.9 (7.1) against 6.8-7.6 ms (7.0) on one.  With
# the N = 7 pairs on two threads a step took 7.3-8.7 ms.  At N = 6 (109),
# which keeps the whole C basis, the pairs took 1.32-1.54 ms per step against
# 0.86-1.39 ms (one process, six runs each).
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


def _operand_of(op):
    """The matrix of an operator, density matrix, array or sparse matrix: a
    sparse matrix as it is, anything else as an array."""
    m = op.matrix if isinstance(op, (HermitianOperator, DensityMatrix)) else op
    return m if scipy.sparse.issparse(m) else np.asarray(m)


def _matrix_of(op) -> np.ndarray:
    """The matrix of an operator, density matrix, array or sparse matrix, as an array."""
    m = _operand_of(op)
    return m.toarray() if scipy.sparse.issparse(m) else m


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
    # seconds the run spent, by phase; apart from ``counters``, which two runs
    # of one input reproduce exactly
    timings: dict = field(default_factory=dict)

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
        rows = [ln.split(",") for ln in lines[1:]]
        for ln, row in zip(lines[1:], rows):
            if len(row) != 6:
                raise ValueError(f"CSV row {ln!r} has {len(row)} fields, not 6")
        return cls(*np.array([[float(x) for x in row] for row in rows]).reshape(-1, 6).T)


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
    anti-Hermitian.  L is formed in place in the commutator's array, with at
    most two arrays of H's size alive: O - C for C = [H, O] / 4T is 0 - C
    off the diagonal and o_i - C_ii on it.
    """
    h = _checked(_matrix_of(hamiltonian), "hamiltonian")
    o = _diagonal_of(condensate, "condensate", len(h))
    lop = h * o
    lop -= o[:, None] * h  # [H, O]
    lop /= 4.0 * bath.temperature
    diag = o - np.diagonal(lop)
    np.subtract(0.0, lop, out=lop)
    np.fill_diagonal(lop, diag)
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


def _real_csr(op, name: str) -> scipy.sparse.csr_array:
    """An operator, array or sparse matrix as a new real CSR matrix; a nonzero
    imaginary part is refused with ValueError."""
    m = scipy.sparse.csr_array(_operand_of(op), copy=True)  # shares no array with the input
    if np.iscomplexobj(m.data) and np.any(m.data.imag):
        raise ValueError(f"{name} must be real; got a nonzero imaginary part")
    m.data = np.ascontiguousarray(m.data.real, dtype=float)
    return m


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
    (``HermitianOperator.conjugation``; None for the identity), and the parts
    of it an engine steps.

    Its states are P's fixed points f, then (a + b)/sqrt 2 and then
    (a - b)/sqrt 2 for the first member a of each swapped pair and its partner
    b = P[a]: the fixed points and the (a + b)/sqrt 2 states span the C-even
    block (``blocks[0]``), the rest the C-odd one.  They are the rows of the real orthogonal matrix T.
    When P has no pairs (the identity) the C-odd block is empty and T = 1,
    and every method runs as for any other P.  ``cut`` maps a sector matrix X
    into the parts, ``to_sector`` maps back, and ``density`` decodes an
    engine's stepped states to rho there.  For an X that commutes with P
    exactly (``_commutes``) T X T^T is block-diagonal with exact zeros between
    the blocks: each of its entries sums at most two products of two terms,
    and between the blocks these cancel exactly.  A P-symmetric diagonal
    reads ``d[order]`` in the C basis.

    The parts are fixed here.  Without ``rho`` they are the nonempty blocks.
    A ``rho`` (in the sector basis) that commutes with P is stepped block by
    block, and a block of it that is exactly zero is not stepped
    (``skipped``): the C-even block of such a rho is zero when rho (1 + P)/2
    is, rho == -rho[:, P], and the C-odd one when rho (1 - P)/2 is,
    rho == rho[:, P].  Any other rho spans both blocks.  Below ``pairs_from``
    states (and without it) it is stepped as one matrix, on the whole C
    basis; from there on it is ``paired``: the parts are the two blocks, and
    rho is stepped as one state held as its four block pairs R_ab
    (``cut_pairs``, ``_BlockPairs``), which the Lindblad flow maps each into
    itself, the coherence blocks R_eo and R_oe through each other's
    transposes.  ``reads`` holds, per stepped state, the ``diagonals``
    (sector basis) in the C basis: per part, or over the whole C basis for a
    paired state.  ``rows`` holds each part's rows of T (``_rows``).
    """

    def __init__(self, p, dim: int, rho=None, diagonals=(), pairs_from=None):
        states = np.arange(dim)
        self.p = states if p is None else np.asarray(p)
        f, a = np.flatnonzero(self.p == states), np.flatnonzero(self.p > states)
        b = self.p[a]
        self.order = np.concatenate([f, a, b])
        n_even = len(f) + len(a)
        self.blocks = (slice(0, n_even), slice(n_even, dim))
        filled = [part for part in self.blocks if part.stop > part.start]
        stepped = filled if rho is None else []
        if rho is not None and _commutes(self.p, rho):
            swapped = rho[:, self.p]
            odd_empty = np.array_equal(rho, swapped)
            even_empty = np.array_equal(rho, np.negative(swapped, out=swapped))
            stepped = [part for part, empty in zip(self.blocks, (even_empty, odd_empty)) if not empty]
        self.paired = not stepped and len(filled) > 1 and pairs_from is not None and dim >= pairs_from
        self.parts = filled if self.paired else stepped or [slice(0, dim)]
        self.skipped = 0 < len(stepped) < len(filled)
        read = [slice(0, dim)] if self.paired else self.parts
        self.reads = [tuple(d[self.order][part] for d in diagonals) for part in read]
        # row by row: one entry per fixed point, (a, b) in each pair's two rows;
        # int32 indices, as the operators have: a product with an int64 operand
        # is int64, 16 B per entry instead of 12 in every cut and generator
        nf, na = len(f), len(a)
        half = np.sqrt(0.5)
        indptr = np.concatenate([np.arange(nf), nf + 2 * np.arange(2 * na + 1)]).astype(np.int32)
        pairs = np.column_stack([a, b]).ravel()
        indices = np.concatenate([f, pairs, pairs]).astype(np.int32)
        data = np.concatenate([np.ones(nf), np.tile([half, half], na), np.tile([half, -half], na)])
        self.t = scipy.sparse.csr_array((data, indices, indptr), shape=(dim, dim))
        # T's rows of each part
        self.rows = [_rows(self.t, part) for part in self.parts]

    def cut(self, x) -> list:
        """The parts of T X T^T for an array or a CSR matrix X, of the same
        kind (C-contiguous arrays).  A part is T_p X T_p^T with T_p its own
        rows of T, bit for bit the slice of T X T^T: a dense X makes no
        temporary of its size, only two of T_p X's (476 x 800 instead of
        800 x 800 for the N = 8 vacuum)."""
        return [t @ x @ t.T if scipy.sparse.issparse(x) else np.ascontiguousarray(_sandwich(t, x))
                for t in self.rows]

    def cut_pairs(self, x: np.ndarray) -> "_BlockPairs":
        """T X T^T for an array X as its block pairs: each block T_a X T_b^T
        from the rows of T of parts a and b (``_sandwich``), bit for bit the
        block of T X T^T, written into one flat buffer of X's size."""
        r = _BlockPairs(self.parts)
        for (i, j), block in zip(r.index_pairs, r.blocks):
            np.copyto(block, _sandwich(self.rows[i], x, self.rows[j]))
        return r

    def to_sector(self, z: np.ndarray) -> np.ndarray:
        """T^T Z T for an array Z in the C basis."""
        return np.ascontiguousarray(_sandwich(self.t.T, z))

    def density(self, states) -> np.ndarray:
        """rho in the sector basis of the real states R of the stepped parts:
        zero outside them, mapped back (``to_sector``) and decoded, so
        Hermitian bit for bit."""
        r = np.zeros((len(self.p),) * 2)
        for part, x in zip(self.parts, states):
            r[part, part] = x
        return _density_of_real(self.to_sector(r))

    def sizes(self) -> list:
        """The size of each stepped part, or the shape [d_a, d_b] of each
        block pair of a paired state."""
        sizes = [part.stop - part.start for part in self.parts]
        return [[m, n] for m in sizes for n in sizes] if self.paired else sizes


def _rows(t, part: slice) -> scipy.sparse.csr_array:
    """The rows ``part`` of a CSR matrix t, read off t's own ``indptr``,
    ``indices`` and ``data``: the arrays of SciPy's ``t[part]``, without the
    slicing path that took about 21 us per part."""
    lo, hi = t.indptr[part.start], t.indptr[part.stop]
    return scipy.sparse.csr_array((t.data[lo:hi], t.indices[lo:hi], t.indptr[part.start:part.stop + 1] - lo),
                                  shape=(part.stop - part.start, t.shape[1]))


class _BlockPairs:
    """A real state R on the whole C basis held as its block pairs: R_ab for
    every pair (a, b) of the parts, in row-major order, each a C-contiguous
    view of one flat buffer of R's size (``flat``).  It has what the RK4 step
    and the record loop use of an array: ``shape``, ``size``, ``ravel`` (the
    flat buffer), ``diagonal`` and ``trace`` (R's, read off the blocks R_aa),
    and in place ``*=`` a number and ``+=`` a state of the same layout."""

    def __init__(self, parts, flat=None):
        dim = sum(part.stop - part.start for part in parts)
        self.shape, self.size = (dim, dim), dim * dim
        self.flat = np.empty(self.size) if flat is None else flat
        n = len(parts)
        self.index_pairs = [(i, j) for i in range(n) for j in range(n)]
        self.pairs = [(parts[i], parts[j]) for i, j in self.index_pairs]
        self.blocks, start = [], 0
        for a, b in self.pairs:
            shape = (a.stop - a.start, b.stop - b.start)
            self.blocks.append(self.flat[start:start + shape[0] * shape[1]].reshape(shape))
            start += shape[0] * shape[1]
        # R_ba of each block R_ab
        self.partners = [self.blocks[j * n + i] for i, j in self.index_pairs]

    def ravel(self) -> np.ndarray:
        return self.flat

    def diagonal(self) -> np.ndarray:
        return np.concatenate([x.diagonal() for (i, j), x in zip(self.index_pairs, self.blocks) if i == j])

    def trace(self) -> float:
        return np.sum(self.diagonal())

    def __imul__(self, factor):
        self.flat *= factor
        return self

    def __iadd__(self, other):
        self.flat += other.flat
        return self


def _commutes(p, x) -> bool:
    """X[P][:, P] == X exactly (P[d] == d for a diagonal d), for an array or a
    sparse X, which is compared as it is, in CSR form."""
    if scipy.sparse.issparse(x):
        x = scipy.sparse.csr_array(x)
        return (x[p][:, p] != x).nnz == 0
    x = np.asarray(x)
    return np.array_equal(x[np.ix_(p, p)] if x.ndim == 2 else x[p], x)


def _sandwich(t, x: np.ndarray, u=None) -> np.ndarray:
    """t X u^T (u = t when None) for sparse t and u and an array X, as
    (u (t X)^T)^T with one C-contiguous copy: the products SciPy's
    ``t @ X @ u.T`` sums, in the same order, so bit for bit its result,
    without the strided copies it makes for the dense-times-sparse product
    (H at N = 8: 2.6 against 4.9 ms)."""
    return ((t if u is None else u) @ np.ascontiguousarray((t @ x).T)).T


def _engine_basis(hamiltonian, lindblad_op, rho0=None, observables=None, pairs_from=None) -> _CBasis:
    """The one plan every engine runs: the C basis, the parts it steps rho0
    in and their record reads.

    H must be square, and L, rho0 and every observable of ``observables``
    ({name: operator}, each diagonal in the sector basis) dim x dim;
    ValueError names the argument otherwise, before anything is cut.  A
    sparse H, L or observable is checked as it is, never densified.  P is
    ``hamiltonian.conjugation`` when H, L and every observable commute with it
    exactly, and the identity otherwise (and for plain arrays); either way the
    plan is a ``_CBasis`` of P, read off rho0 (None stands for 1/dim) in the
    sector basis, before rho0 is decoded or mapped, and paired from
    ``pairs_from`` states on (RK4 alone passes it).  ``c.reads`` holds the
    observables' diagonals in the order of ``observables``.
    """
    h = _checked(_operand_of(hamiltonian), "hamiltonian")
    dim = h.shape[0]
    lop = _checked(_operand_of(lindblad_op), "lindblad_op", dim)
    rho = None if rho0 is None else _checked(_matrix_of(rho0), "rho0", dim)
    diagonals = [_diagonal_of(op, name, dim) for name, op in (observables or {}).items()]
    p = getattr(hamiltonian, "conjugation", None)
    if p is not None and not all(_commutes(p, x) for x in (h, lop, *diagonals)):
        p = None
    return _CBasis(p, dim, rho, diagonals, pairs_from)


def _real_blocks(c: _CBasis, hamiltonian, lindblad_op) -> zip:
    """(H, L) on each stepped part of ``c``, cut from real CSR copies
    (``_real_csr``): the operands of RK4 and the exact engine alike."""
    return zip(c.cut(_real_csr(hamiltonian, "hamiltonian")), c.cut(_real_csr(lindblad_op, "lindblad_op")))


# ---------------------------------------------------------------------------
# trajectory driver
# ---------------------------------------------------------------------------

def _checked(m, name: str, dim: int | None = None):
    """``m`` (an array or a sparse matrix), once it is a square matrix, of
    order ``dim`` when one is given; ValueError naming ``name`` otherwise."""
    if m.ndim != 2 or m.shape[0] != m.shape[1] or dim not in (None, m.shape[0]):
        raise ValueError(f"{name} must be {'square' if dim is None else f'{dim} x {dim}'}, got shape {m.shape}")
    return m


def _diagonal_of(op, name: str, dim: int) -> np.ndarray:
    """The diagonal of ``op``, read off an array or a sparse matrix as it is;
    ValueError unless ``op`` is dim x dim and diagonal with a real diagonal (a
    complex dtype with a zero imaginary part is real)."""
    m = _checked(_operand_of(op), name, dim)
    diag = m.diagonal()
    nonzero = m.count_nonzero() if scipy.sparse.issparse(m) else np.count_nonzero(m)
    if nonzero != np.count_nonzero(diag):
        raise ValueError(f"{name} must be diagonal in the sector basis")
    if np.iscomplexobj(diag) and np.any(diag.imag):
        raise ValueError(f"{name} must have a real diagonal; got a nonzero imaginary part")
    return np.real(diag).copy()


def _real_state_of(rho0) -> np.ndarray:
    """R0 = Re rho + Im rho of the Hermitian part rho of rho0, a real array
    that the engines only read.

    A float64 rho0 that is symmetric bit for bit is its own R0, and no array
    of its size is made: R0 made as below is rho0 bit for bit then, and at
    N = 8 the copy was garbage that lifted the ``rk4-n8`` peak RSS by about
    5 MB.  R cannot hold a non-Hermitian part, so a rho0 whose Hermiticity
    error exceeds 1e-10 (the ``validate`` default) is refused with
    ValueError.  The skew part rho0 - rho0^H is the one temporary of rho0's
    size, and becomes rho in place: for a real rho0 it is R0 itself.
    """
    rho0 = _matrix_of(rho0)
    if rho0.dtype == np.float64 and np.array_equal(rho0, rho0.T):
        return rho0
    r = np.subtract(rho0, rho0.conj().T, dtype=np.result_type(rho0, float))
    # a real skew part is antisymmetric bit for bit: its largest entry is its largest modulus
    herm_err = float(np.max(np.abs(r) if np.iscomplexobj(r) else r))
    if herm_err > 1e-10:
        raise ValueError(f"rho0 is not Hermitian: hermiticity error {herm_err:.3e} > 1e-10")
    r *= -0.5
    r += rho0  # rho0 - (rho0 - rho0^H) / 2
    return np.add(r.real, r.imag) if np.iscomplexobj(r) else r


def _density_of_real(r, out: np.ndarray | None = None) -> np.ndarray:
    """Write rho = (R + R^T)/2 + i (R - R^T)/2, Hermitian bit for bit, into the
    complex ``out`` (a new array when none is given), for an array R or a
    ``_BlockPairs``, whose block (a, b) of rho is read off R_ab and R_ba."""
    if out is None:
        out = np.empty(r.shape, dtype=complex)
    whole = slice(None)
    pairs = zip(r.pairs, r.blocks, r.partners) if isinstance(r, _BlockPairs) else [((whole, whole), r, r)]
    for (a, b), x, y in pairs:
        np.add(x, y.T, out=out.real[a, b])
        np.subtract(x, y.T, out=out.imag[a, b])
    out *= 0.5
    return out


def _run_trajectory(
    c, states, step, n_steps, time_of, *, stride=1, tolerances=None, buffers=None, counters=None,
) -> EvolutionRecord:
    """The one record loop behind every engine.

    ``states`` are the real states R (module docstring) of the parts of the C
    basis ``c`` that the engine steps (arrays, or one ``_BlockPairs`` when
    ``c.paired``), and ``step(states, k)`` advances them to step
    k <= ``n_steps``.  Step 0, every ``stride``-th and the last step are
    recorded at ``time_of(k)``.  Trace, purity and the pair count and E^2
    (``c.reads``) are sums over the parts of reads straight off R
    (diag rho = diag R and tr rho^2 = sum_ij R_ij^2).
    ``min_eig`` is the least eigenvalue over the parts, and 0 when a block was
    skipped; only it decodes rho, into ``buffers``, one complex array of each
    part's shape (views of one flat array when None).  With ``tolerances``
    (``trace_tol``, ``psd_tol``) every row but the first is checked.  The
    record carries ``counters`` and the number of records and stepped block
    sizes or block-pair shapes (``c.sizes``), and its ``timings`` the seconds
    spent in steps and in records.
    """
    if buffers is None:
        flat = np.empty(max(r.size for r in states), dtype=complex)
        buffers = [flat[:r.size].reshape(r.shape) for r in states]
    rows = []
    steps_s = records_s = 0.0
    for k in range(n_steps + 1):
        start = time.perf_counter()
        if k > 0:
            states = step(states, k)
        stepped = time.perf_counter()
        steps_s += stepped - start
        if k % stride and k != n_steps:
            continue
        sums, eigs = [], [0.0] if c.skipped else []
        for r, out, (pairs_diag, e2_diag) in zip(states, buffers, c.reads):
            diag, flat = r.diagonal(), r.ravel()
            sums.append((float(np.sum(diag)), float(pairs_diag @ diag), float(e2_diag @ diag),
                         float(np.vdot(flat, flat))))
            eigs.append(float(np.linalg.eigvalsh(_density_of_real(r, out))[0]))
        tr, pairs, e2, purity = map(sum, zip(*sums))
        min_eig = min(eigs)
        if tolerances is not None and k > 0:
            _check_invariants(tr, min_eig, **tolerances)
        rows.append((time_of(k), pairs, e2, tr, purity, min_eig))
        records_s += time.perf_counter() - stepped
    counters = {"two_thread": False, **(counters or {}), "records": len(rows), "blocks": c.sizes()}
    return EvolutionRecord(*np.array(rows).T, counters=counters,
                           timings={"steps_s": steps_s, "records_s": records_s})


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


def _real_operands(h, lop) -> tuple:
    """[H; L] (H stacked on L), L and L^T / 2 for ``_real_rhs``, from CSR
    matrices: CSR matrices when fewer than ``RK4_SPARSE_BELOW`` of the entries
    of H and L are nonzero, C-contiguous arrays otherwise.  Halving is exact,
    so products with L^T / 2 are bit for bit half the products with L^T."""
    stacked = scipy.sparse.vstack([h, lop], format="csr")
    if stacked.nnz < RK4_SPARSE_BELOW * stacked.shape[0] * stacked.shape[1]:
        return stacked, lop, (0.5 * lop.T).tocsr()
    lop = lop.toarray()
    return stacked.toarray(), lop, np.ascontiguousarray(0.5 * lop.T)


def _real_rhs(stacked, lop, half_lop_t, right=None):
    """``rhs(r, out, s=None)``: write dR_ab/dt of the block R_ab = r of the
    real state R into ``out``, given its partner s = R_ba (r itself, and
    ``s`` unused, on a diagonal block).

    For real H and L, block-diagonal (H_a, L_a on block a), with H and
    G = L^T L symmetric,

        dR/dt = R^T H - H R^T + L R L^T - 1/2 (G R + R G),
        dR_ab/dt = (H_b R_ba - 1/2 L_b^T (L_b R_ab^T))^T - H_a R_ba^T
                   + L_a (L_b R_ab^T)^T - 1/2 L_a^T (L_a R_ab),

    with the operands of ``_real_operands`` of block a ([H_a; L_a], L_a,
    L_a^T / 2) and of block b (``right``; None for a diagonal block, b = a).
    G is never formed.  On a diagonal block R_ba = R_ab, and [H; L] multiplies
    R^T and R in one product each: five products, [H; L] R^T, L^T (L R^T),
    [H; L] R, L (L R^T)^T and L^T (L R); a coherence block takes the seven
    half-products one by one.  Each transposed operand is first copied into
    one C-contiguous buffer, because a CSR product with a transposed view is
    about three times slower: a diagonal block keeps its buffer, a coherence
    block makes its two per call.  The products are ordered so that the
    temporaries alive at once never hold more than 3 dim^2 entries: with
    about twice that, every call faulted its pages back in from the OS (2146
    minor faults per call at N = 8, about a fifth of its time).
    """
    d_a = lop.shape[0]
    stacked_b, lop_b, half_lop_t_b = right or (stacked, lop, half_lop_t)
    d_b = lop_b.shape[0]
    h_a, h_b = (None, None) if right is None else (stacked[:d_a], stacked_b[:d_b])
    kept = np.empty((d_a, d_b)) if right is None else None

    def hl(h, x, l, y):
        """(h x, l y); for a diagonal block, where x is y, one product with [H; L]"""
        if right is None:
            both = stacked @ x
            return both[:d_a], both[d_a:]
        return h @ x, l @ y

    def rhs(r, out, s=None):
        s = r if right is None else s
        st = np.empty((d_a, d_b)) if kept is None else kept
        np.copyto(st, s.T)  # R_ba^T
        h_st, l_rt = hl(h_a, st, lop_b, st if right is None else np.ascontiguousarray(r.T))
        np.negative(h_st, out=out)
        del h_st
        half_g_rt = half_lop_t_b @ l_rt
        np.copyto(st, l_rt.T)  # the R_ba^T buffer now holds (L_b R_ab^T)^T
        del l_rt
        h_s, l_r = hl(h_b, s, lop, r)  # H_b R_ba, L_a R_ab
        h_s -= half_g_rt
        del half_g_rt
        out += h_s.T
        out += lop @ st
        out -= half_lop_t @ l_r
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


def _threaded_real_rhs(stacked, lop, half_lop_t, pool, right=None):
    """``_real_rhs`` for CSR operands with the work split between the calling
    thread and the single worker of ``pool``; dR_ab/dt is bit for bit the same.

    The seven half-products H_b R_ba, H_a R_ba^T, L_b R_ab^T,
    1/2 L_b^T (L_b R_ab^T), L_a R_ab, 1/2 L_a^T (L_a R_ab) and
    L_a (L_b R_ab^T)^T run in two chains, one on the worker and one on the
    calling thread, joined twice per call; the worker also takes one of the
    transposed copies.  The terms enter ``out`` in the serial order.  Each
    product is written into a buffer of the block's size (``_csr_product``).
    The buffers (R_ba^T, R_ab^T on a coherence block, and three products)
    are allocated per call by the calling thread, so the worker allocates no
    array and none of them is held while the records run: with
    ``rk4_evolve``'s R and two registers a block of size d holds 7 d^2
    floats while it steps.  Kept alive for the whole trajectory, the buffers
    of a diagonal block raised the peak RSS of a fresh process running the
    N = 8 leg (20 steps, stride 5) from 149 to 160 MB.  Made per call, they
    cost no extra page faults: the ``rk4-n8`` benchmark process took a median
    388 k minor faults per run against 423 k when two of them were a record
    buffer lent by the caller.
    """
    d_a = lop.shape[0]
    stacked_b, lop_b, half_lop_t_b = right or (stacked, lop, half_lop_t)
    d_b = lop_b.shape[0]
    h_a = stacked[:d_a]
    h_b = h_a if right is None else stacked_b[:d_b]

    def neg_h_st(st, out):
        np.negative(_csr_product(h_a, st, out), out=out)

    def rhs(r, out, s=None):
        s = r if right is None else s
        buffers = np.empty((4 if right is None else 5, d_a * d_b))
        st = buffers[0].reshape(d_a, d_b)
        b1, b2, b3 = (x.reshape(d_b, d_a) for x in buffers[1:4])
        h_s = pool.submit(_csr_product, h_b, s, b1)  # H_b R_ba
        np.copyto(st, s.T)  # R_ba^T
        first = pool.submit(neg_h_st, st, out)  # out = -H_a R_ba^T
        if right is None:
            rt = st
        else:
            rt = buffers[4].reshape(d_b, d_a)
            np.copyto(rt, r.T)  # R_ab^T
        _csr_product(lop_b, rt, b2)  # L_b R_ab^T
        # the R_ba^T buffer takes (L_b R_ab^T)^T once the worker is done reading it
        l_rt_t = pool.submit(np.copyto, st, b2.T)
        _csr_product(half_lop_t_b, b2, b3)  # 1/2 L_b^T (L_b R_ab^T)
        for done in (h_s, first, l_rt_t):
            done.result()
        b1_ab, b2_ab, b3_ab = (x.reshape(d_a, d_b) for x in buffers[1:4])
        l_r = pool.submit(_csr_product, lop, r, b2_ab)  # L_a R_ab
        np.subtract(b1, b3, out=b1)
        out += b1.T
        last = pool.submit(_csr_product, half_lop_t, b2_ab, b1_ab)  # 1/2 L_a^T (L_a R_ab)
        out += _csr_product(lop, st, b3_ab)
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

        dR/dt = f(R) = R^T H - H R^T + L R L^T - 1/2 (G R + R G),

    five matrix products per right-hand side (``_real_rhs``), with CSR or
    dense operands (``_real_operands``) and for parts from
    ``RK4_THREADS_FROM_DIM`` on run on two threads (``_threaded_real_rhs``;
    dR/dt, and so every record, is bit for bit the serial result).  From
    ``RK4_THREADS_FROM_DIM`` states on, a state that spans both C blocks is
    stepped as its block pairs (``_CBasis.paired``): H and L are cut into
    the two blocks, and each block R_ab of R runs through the same serial or
    two-thread right-hand side with block a's operands on the left and block
    b's on the right (``_paired_rhs``), bit for bit the block of the whole
    C basis's dR/dt.  f is linear, so a classical RK4 step of length h is
    the degree-4 Taylor polynomial of exp(h f), here in nested form:

        R <- R + h f(R + h/2 f(R + h/3 f(R + h/4 f(R)))),

    the same four right-hand sides, evaluated in two registers per part (no
    buffers for the slopes and their sum) with eight elementwise passes, and
    R updated in place; the stages of a paired state run over all its blocks
    in lockstep, and its registers are one flat buffer of 2 dim^2 floats.
    The registers, dead between steps, also hold the complex rho that each
    record decodes, of the whole C basis for a paired state.  With a
    right-hand side's own buffers a block of size d holds 7 d^2 floats while
    it steps, and a paired state of size d about 5 d^2 (tracemalloc: 4.6 d^2
    at N = 8, 5.1 d^2 at N = 7): R and the registers, and the four or five
    buffers of one block pair, each of that block's size: the ``rk4-n8``
    benchmark process, whose random states are stepped so, peaks at a
    median 122.6 MB against 130.9 MB as one matrix.  The entry makes no
    array of the sector's size beyond rho0's real state
    (``_real_state_of``), which ``_CBasis.cut`` (or ``cut_pairs``) maps into
    the stepped parts from their own rows of T.  A rho0 whose Hermiticity
    error exceeds 1e-10 is refused with ValueError.
    """
    if dt <= 0 or t_max < 0:
        raise ValueError("need dt > 0 and t_max >= 0")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    n_steps = _step_count(t_max, dt)
    c = _engine_basis(hamiltonian, lindblad_op, rho0, dict(pair_count=pair_count, electric_square=electric_square),
                      pairs_from=RK4_THREADS_FROM_DIM)
    operands = [_real_operands(*ops) for ops in _real_blocks(c, hamiltonian, lindblad_op)]
    r0 = _real_state_of(rho0)
    states = [c.cut_pairs(r0)] if c.paired else c.cut(r0)
    del r0
    # the (left, right) parts of each stepped block: a part, or a pair of parts
    blocks = states[0].index_pairs if c.paired else [(i, i) for i in range(len(c.parts))]
    two_cpus = _usable_cpus() > 1
    threaded = [two_cpus and scipy.sparse.issparse(operands[i][0]) and scipy.sparse.issparse(operands[j][0])
                and operands[i][1].shape[0] * operands[j][1].shape[0] >= RK4_THREADS_FROM_DIM**2
                for i, j in blocks]
    # per part, the two registers of a step (halves of one flat buffer), which
    # also hold a record's complex rho
    flats = [np.empty(2 * r.size) for r in states]
    registers = [[_BlockPairs(c.parts, half) if c.paired else half.reshape(r.shape)
                  for half in (flat[:r.size], flat[r.size:])] for flat, r in zip(flats, states)]

    def step(states, k):
        for r, rhs, (w1, w2) in zip(states, rhss, registers):
            for x, w, frac in ((r, w1, 0.25), (w1, w2, 1.0 / 3.0), (w2, w1, 0.5)):
                rhs(x, w)  # w = r + frac dt f(x)
                w *= frac * dt
                w += r
            rhs(w1, w2)  # r += dt f(w1)
            w2 *= dt
            r += w2
        tr = sum(float(r.trace()) for r in states)
        if not np.isfinite(tr) or abs(tr - 1.0) > TRACE_ABORT_TOL:
            raise RuntimeError(
                f"rk4 aborted at t={k * dt:.6g}: trace deviated to {tr!r} "
                f"(tolerance {TRACE_ABORT_TOL}); reduce dt"
            )
        return states

    # the worker thread lives for this call only
    with ThreadPoolExecutor(max_workers=1) if any(threaded) else contextlib.nullcontext() as pool:
        def block_rhs(i, j, two):
            right = None if i == j else operands[j]
            return _threaded_real_rhs(*operands[i], pool, right) if two else _real_rhs(*operands[i], right)

        rhss = [block_rhs(i, j, two) for (i, j), two in zip(blocks, threaded)]
        if c.paired:
            rhss = [_paired_rhs(rhss)]
        counters = {"steps": n_steps, "rhs_evaluations": 4 * n_steps * len(states),
                    "two_thread": any(threaded)}
        return _run_trajectory(c, states, step, n_steps, lambda k: k * dt, stride=stride,
                               buffers=[flat.view(complex).reshape(r.shape) for flat, r in zip(flats, states)],
                               counters=counters)


def _paired_rhs(rhss):
    """``rhs(x, out)`` of a ``_BlockPairs`` state from the right-hand sides
    of its blocks (``_real_rhs``), in its order: block R_ab of ``out`` from
    R_ab and R_ba of x.  A coherence block reads its partner, so every stage
    of a step runs over all blocks in lockstep."""

    def rhs(x, out):
        for block_rhs, r, s, w in zip(rhss, x.blocks, x.partners, out.blocks):
            block_rhs(r, w, s)
        return out

    return rhs


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
    return [_liouvillian_terms(*ops) for ops in _real_blocks(c, hamiltonian, lindblad_op)]


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
    return DensityMatrix(c.density(
        _expm_multiply(vectorized_liouvillian(h, lop) * t, r.ravel()).reshape(r.shape)
        for r, (h, lop, _) in zip(states, terms)
    ))


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
    c = _engine_basis(hamiltonian, lindblad_op, rho0, dict(pair_count=pair_count, electric_square=electric_square))
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
        times.__getitem__, counters=counters,
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
    return DensityMatrix(c.density(
        _block_steady_state(vectorized_liouvillian(h, lop), d) * (d / dim)
        for d, (h, lop, _) in zip(c.sizes(), _block_generators(c, hamiltonian, lindblad_op))
    ))


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
    one, or a plain array) H is cut into the nonempty blocks of the C basis
    of ``_CBasis`` (``cut``), as the engines cut it: the C-even block holds
    P's fixed points and the (a + b)/sqrt 2 states, the C-odd block the
    (a - b)/sqrt 2 states, and it is empty when P has no pairs.  P must
    commute with H exactly, H[P][:, P] == H (ValueError otherwise).  A sparse
    H is cut and checked as it is, and only its blocks are densified.  Each
    block is diagonalized on its own (476 and 324 states instead of 800 at
    N = 8), with the Boltzmann weights shifted by the lowest of the blocks'
    ground energies.

    H must be square and both observables of its size and diagonal in the
    sector basis (ValueError otherwise, before H is mapped), so only the
    diagonal of each block's Gibbs state, sum_k w_k |v_k|^2 over its
    eigenvectors v_k, is formed; it meets the observable's diagonal made
    P-symmetric, (d + d[P]) / 2, in the C basis.  A negative or non-finite
    beta is refused with ValueError.
    """
    if not (np.isfinite(beta) and beta >= 0):
        raise ValueError(f"beta must be finite and >= 0, got {beta}")
    h = _checked(_operand_of(hamiltonian), "hamiltonian")
    dim = h.shape[0]
    diagonals = _diagonal_of(pair_count, "pair_count", dim), _diagonal_of(electric_square, "electric_square", dim)
    p = getattr(hamiltonian, "conjugation", None)
    if p is not None and not _commutes(p, h):
        raise ValueError("the Hamiltonian does not commute with its conjugation")
    c = _CBasis(p, dim)
    spectra = [np.linalg.eigh(_matrix_of(z)) for z in c.cut(h)]
    ground = min(evals[0] for evals, _ in spectra)
    weights = [np.exp(-beta * (evals - ground)) for evals, _ in spectra]
    # unnormalized diagonals of the blocks' Gibbs states, and their traces
    occupations = [(np.abs(vecs) ** 2) @ w for (_, vecs), w in zip(spectra, weights)]
    traces = [w.sum() for w in weights]

    def means(d):
        d = (0.5 * (d + d[c.p]))[c.order]
        parts = [occ @ d[part] for occ, part in zip(occupations, c.parts)]
        return float(sum(parts) / sum(traces)), float(parts[0] / traces[0])

    (n_pairs, n_pairs_even), (e2, e2_even) = map(means, diagonals)
    return {"beta": beta, "n_pairs": n_pairs, "e2": e2, "c_even": {"n_pairs": n_pairs_even, "e2": e2_even}}
