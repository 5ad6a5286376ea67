"""Hamiltonian and observables on the gauge-invariant basis.

The Hamiltonian acts on physical configurations as

    H = 1/(2a) sum_n [ sp(n) L-(n) sm(n+1) + sp(n+1) L+(n) sm(n) ]
      + (a e^2 / 2) sum_n l[n]^2  +  m sum_n (-1)^n occ[n]

with sp/sm the fermion raising/lowering operators and L+/L- raising and
lowering the link flux, indices periodic.  A hop that would push a flux past
the cutoff (or out of the truncated space) is simply absent.  The action of H
is written once, as array passes over configurations stored as rows of
occupations and fluxes: ``_diagonal`` gives the diagonal and ``_hops`` every
hop, as a source row and the flux code (``lattice.flux_codes``) of its
target, which is looked up among the indexed codes.  Both assemblies below
use them:

* ``build_sector_operators`` applies them to one representative per symmetry
  orbit and fills the zero-momentum, positive-parity matrix directly (800 x
  800 at N = 8, never the 12387 x 12387 configuration matrix).  This is the
  path every engine and CLI command uses.
* ``build_hamiltonian`` applies them to every configuration and, with
  ``project_operator``, is the dense test oracle for the direct assembly.
  Building both hop directions term by term makes that matrix symmetric
  exactly, not just to rounding.

Observables measured in the runs:

* pair count        sum over even sites of occ[n]
* mean E^2          (e^2 / 2N) sum_n l[n]^2           (average over links)
* scalar density    (1 / 2a*2N) sum_n (-1)^n sigma_z(n), the staggered
                    condensate density that couples the system to the bath

All three are diagonal in the configuration basis and remain diagonal in the
symmetry-projected basis.  Each is written once, over rows of occupations or
fluxes, and reads only the pair count or the flux-square sum, which are the
same on every configuration of an orbit.  Applied to the representatives'
rows it fills in the sector diagonal directly (no floating-point projection
error).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .lattice import GaugeFermionConfig, LatticeSpec, SymmetrySector, _index_in, flux_codes

__all__ = [
    "ModelParams",
    "HermitianOperator",
    "build_hamiltonian",
    "project_operator",
    "SectorOperators",
    "build_sector_operators",
]

HERMITICITY_TOL = 1e-12


@dataclass(frozen=True)
class ModelParams:
    """Couplings of the lattice model: spacing a, charge e, fermion mass m."""

    a: float = 1.0
    e: float = 1.0
    m: float = 0.1

    def __post_init__(self):
        if self.a <= 0:
            raise ValueError(f"lattice spacing must be positive, got {self.a}")


def matrix_to_json(matrix, basis_tag: str) -> str:
    """Serialize a square matrix as {dim, basis_tag, entries} with row-major
    [re, im] entry pairs.  Works for any matrix, Hermitian or not (the dilation
    circuit's unitaries go through here as well)."""
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    entries = [[float(z.real), float(z.imag)] for z in m.ravel(order="C")]
    return json.dumps({"dim": m.shape[0], "basis_tag": basis_tag, "entries": entries})


def matrix_from_json(text: str) -> tuple[np.ndarray, str]:
    payload = json.loads(text)
    dim = payload["dim"]
    flat = np.array(
        [complex(re, im) for re, im in payload["entries"]], dtype=complex
    )
    if flat.size != dim * dim:
        raise ValueError(f"entry count {flat.size} does not match dim {dim}")
    return flat.reshape(dim, dim), payload["basis_tag"]


@dataclass(frozen=True)
class HermitianOperator:
    """A dense Hermitian matrix tagged with the basis it lives in.

    ``conjugation``, when given, is a permutation of the basis that squares
    to the identity and is claimed to commute with the matrix: the charge
    conjugation P of ``SymmetrySector.conjugation``, which
    ``build_sector_operators`` sets on the sector Hamiltonian.
    ``gibbs_reference`` splits the matrix into P's even and odd blocks and
    checks the commutation there; without it P is the identity.
    """

    matrix: np.ndarray
    basis_tag: str
    conjugation: np.ndarray | None = None

    def __post_init__(self):
        m = np.asarray(self.matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        adjoint = m.conj().T
        # the comparison alone settles the exactly Hermitian matrices the builders make
        if not np.array_equal(m, adjoint) and (err := np.abs(m - adjoint).max()) > HERMITICITY_TOL:
            raise ValueError(f"matrix is not Hermitian: max deviation {err:.3e}")
        if self.conjugation is not None:
            p = np.asarray(self.conjugation)
            if not (p.shape == (len(m),) and np.issubdtype(p.dtype, np.integer)
                    and np.all((p >= 0) & (p < len(m))) and np.array_equal(p[p], np.arange(len(m)))):
                raise ValueError(f"conjugation must be an involution of range({len(m)})")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _basis_tag(spec: LatticeSpec, projected: bool) -> str:
    kind = "k0-parity-even" if projected else "config"
    tag = f"{kind}/N={spec.n_sites}/cutoff={spec.flux_cutoff}"
    if spec.truncate_total_flux:
        tag += "/flux-truncated"
    return tag


# ---------------------------------------------------------------------------
# observables: one formula each, over the rows of configurations
# ---------------------------------------------------------------------------

def _pair_count(occ: np.ndarray, tag: str) -> HermitianOperator:
    """Electron-positron pair number (= occupied even sites), diagonal over
    the rows of ``occ``."""
    return HermitianOperator(np.diag(occ[:, 0::2].sum(axis=1).astype(float)), tag)


def _electric_square(spec: LatticeSpec, flux: np.ndarray, params: ModelParams, tag: str) -> HermitianOperator:
    """Mean squared electric field (e^2 / 2N) sum_n l[n]^2, diagonal over the
    rows of ``flux``."""
    scale = params.e**2 / (2.0 * spec.n_sites)
    return HermitianOperator(np.diag(scale * (flux * flux).sum(axis=1)), tag)


def _condensate(spec: LatticeSpec, occ: np.ndarray, params: ModelParams, tag: str) -> HermitianOperator:
    """Staggered scalar density (1/2a*2N) sum_n (-1)^n sigma_z(n), diagonal over
    the rows of ``occ``.

    Equals (2*pairs - N) / (a*2N) on a configuration: the constant part of
    sigma_z = 2*occ - 1 cancels around the even-length chain, which also makes
    this form identical to the occupation form sum_n (-1)^n (sigma_z+1)/2
    normalized the same way.
    """
    pairs = occ[:, 0::2].sum(axis=1)
    return HermitianOperator(np.diag((2.0 * pairs - spec.n_sites) / (params.a * spec.n_fermion)), tag)


# ---------------------------------------------------------------------------
# the action of H, and the configuration-basis oracle
# ---------------------------------------------------------------------------

def _diagonal(occ: np.ndarray, flux: np.ndarray, params: ModelParams) -> np.ndarray:
    """The diagonal of H on the configurations in the rows of ``occ`` and
    ``flux``: the electric and the staggered mass term."""
    a, e, m = params.a, params.e, params.m
    electric = 0.5 * a * e * e * (flux * flux).sum(axis=1)
    return electric + m * (occ[:, 0::2].sum(axis=1) - occ[:, 1::2].sum(axis=1))


def _hops(occ: np.ndarray, flux: np.ndarray, flux_cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """The hops of H out of the configurations in the rows of ``occ`` and
    ``flux``: (source row, target flux code) per hop, in (row, bond) order.

    Every nearest-neighbour hop has amplitude 1/(2a).  A fermion hopping from
    n to n+1 raises the flux on the link between them and one hopping from n+1
    to n lowers it, as Gauss's law requires.  Hops past the flux cutoff are
    left out; targets outside the truncated space are not, so callers drop
    the codes they do not index.
    """
    step = occ - np.roll(occ, -1, axis=1)
    src, bond = np.nonzero((step != 0) & (np.abs(flux + step) <= flux_cutoff))
    targets = flux[src]
    targets[np.arange(len(src)), bond] += step[src, bond]
    return src, flux_codes(targets, flux_cutoff)


def build_hamiltonian(
    spec: LatticeSpec,
    configs: list[GaugeFermionConfig],
    params: ModelParams,
) -> HermitianOperator:
    """Assemble H on the configuration basis (real symmetric, dense).

    The test oracle for the sector Hamiltonian: ``project_operator`` of this
    must equal what ``build_sector_operators`` assembles directly.  Memory
    grows as the square of the config count (1.2 GB at N = 8).
    """
    shape = (len(configs), spec.n_fermion)
    occ = np.array([c.occupations for c in configs], dtype=np.int64).reshape(shape)
    flux = np.array([c.fluxes for c in configs], dtype=np.int64).reshape(shape)
    src, targets = _hops(occ, flux, spec.flux_cutoff)
    target = _index_in(flux_codes(flux, spec.flux_cutoff), targets)
    h = np.diag(_diagonal(occ, flux, params))
    # distinct bonds reach distinct targets, so each entry takes one hop
    h[target[target >= 0], src[target >= 0]] = 1.0 / (2.0 * params.a)
    return HermitianOperator(matrix=h, basis_tag=_basis_tag(spec, projected=False))


# ---------------------------------------------------------------------------
# symmetry-projected operators
# ---------------------------------------------------------------------------

def project_operator(
    op: HermitianOperator, sector: SymmetrySector
) -> HermitianOperator:
    """Compress a configuration-basis operator with the sector isometry.

    Dense V^T A V; kept as the test oracle, not used by the dynamics.
    """
    v = sector.isometry()
    if op.dim != v.shape[0]:
        raise ValueError(
            f"operator dim {op.dim} does not match config count {v.shape[0]}"
        )
    mat = v.T @ op.matrix @ v
    mat = 0.5 * (mat + mat.conj().T)  # kill rounding asymmetry from the two GEMMs
    return HermitianOperator(mat, _basis_tag(sector.spec, projected=True))


@dataclass(frozen=True)
class SectorOperators:
    """Everything the dynamics needs, in the projected basis."""

    sector: SymmetrySector
    params: ModelParams
    hamiltonian: HermitianOperator
    pair_count: HermitianOperator
    electric_square: HermitianOperator
    condensate: HermitianOperator

    @property
    def dim(self) -> int:
        return self.hamiltonian.dim


def _sector_hamiltonian(sector: SymmetrySector, params: ModelParams) -> np.ndarray:
    """H on the sector basis, assembled from one configuration per orbit.

    A sector state is the uniform superposition over an orbit M of the
    translation-reflection group, and H commutes with the group.  So H applied
    to the whole orbit is fixed by H applied to its representative alone:
    <t|H|s> = sqrt(|M_s| / |M_t|) * sum of the representative's hop
    amplitudes into orbit t (Sandvik, arXiv:1101.3281, sec. 4).  The diagonal
    is orbit-invariant.  Hops that leave the (truncated) space are dropped,
    exactly as in ``build_hamiltonian``.
    """
    cutoff, orbit_of, reps = sector.spec.flux_cutoff, sector.orbit_of, sector.representatives
    sizes = np.bincount(orbit_of)
    occ, flux = sector.occupations[reps], sector.fluxes[reps]
    src, targets = _hops(occ, flux, cutoff)
    target = _index_in(flux_codes(sector.fluxes, cutoff), targets)
    s, t = src[target >= 0], orbit_of[target[target >= 0]]
    h = np.diag(_diagonal(occ, flux, params))
    # in the (s, bond) order of the hops, so each entry sums as one loop would
    np.add.at(h, (t, s), 1.0 / (2.0 * params.a) * np.sqrt(sizes[s] / sizes[t]))
    # each entry was computed from one side only; average away the rounding
    return 0.5 * (h + h.T)


def build_sector_operators(
    sector: SymmetrySector, params: ModelParams
) -> SectorOperators:
    """Hamiltonian and observables on the zero-momentum positive-parity basis.

    The Hamiltonian is assembled directly from the orbit representatives,
    without the configuration-space matrix, and carries the sector's charge
    conjugation (``HermitianOperator.conjugation``); the observables are diagonal with
    orbit-invariant entries, so their sector matrices are written down
    directly and are exact.
    """
    spec, reps = sector.spec, sector.representatives
    occ, flux = sector.occupations[reps], sector.fluxes[reps]
    tag = _basis_tag(spec, projected=True)
    return SectorOperators(
        sector=sector,
        params=params,
        hamiltonian=HermitianOperator(_sector_hamiltonian(sector, params), tag, sector.conjugation),
        pair_count=_pair_count(occ, tag),
        electric_square=_electric_square(spec, flux, params, tag),
        condensate=_condensate(spec, occ, params, tag),
    )
