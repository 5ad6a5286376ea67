"""Hamiltonian and observables on the gauge-invariant basis.

The Hamiltonian acts on physical configurations as

    H = 1/(2a) sum_n [ sp(n) L-(n) sm(n+1) + sp(n+1) L+(n) sm(n) ]
      + (a e^2 / 2) sum_n l[n]^2  +  m sum_n (-1)^n occ[n]

with sp/sm the fermion raising/lowering operators and L+/L- raising and
lowering the link flux, indices periodic.  A hop that would push a flux past
the cutoff (or out of the truncated space) is simply absent.  The action of H
on one configuration (diagonal, hop targets, flux shift) is written once, in
``_apply_hamiltonian``, and both assemblies below use it:

* ``build_sector_operators`` applies it to one representative per symmetry
  orbit and fills the zero-momentum, positive-parity matrix directly (800 x
  800 at N = 8, never the 12387 x 12387 configuration matrix).  This is the
  path every engine and CLI command uses.
* ``build_hamiltonian`` applies it to every configuration and, with
  ``project_operator``, is the dense test oracle for the direct assembly.
  Building both hop directions term by term makes that matrix symmetric
  exactly, not just to rounding.

Observables measured in the runs:

* pair count        sum over even sites of occ[n]
* mean E^2          (e^2 / 2N) sum_n l[n]^2           (average over links)
* scalar density    (1 / 2a*2N) sum_n (-1)^n sigma_z(n), the staggered
                    condensate density that couples the system to the bath

All three are diagonal in the configuration basis and remain diagonal in the
symmetry-projected basis.  Each is written once, over the two invariants
``n_pairs`` and ``flux_square_sum`` that configurations and orbits both carry,
so the sector diagonals are filled in directly (no floating-point projection
error).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .lattice import GaugeFermionConfig, LatticeSpec, SymmetrySector

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
    """A dense Hermitian matrix tagged with the basis it lives in."""

    matrix: np.ndarray
    basis_tag: str

    def __post_init__(self):
        m = np.asarray(self.matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        err = np.abs(m - m.conj().T).max() if m.size else 0.0
        if err > HERMITICITY_TOL:
            raise ValueError(f"matrix is not Hermitian: max deviation {err:.3e}")

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
# observables: one formula each, over configurations or orbits
# ---------------------------------------------------------------------------

def _pair_count(items, tag: str) -> HermitianOperator:
    """Electron-positron pair number (= occupied even sites), diagonal over
    ``items``, configurations or orbits."""
    return HermitianOperator(np.diag([float(c.n_pairs) for c in items]), tag)


def _electric_square(spec: LatticeSpec, items, params: ModelParams, tag: str) -> HermitianOperator:
    """Mean squared electric field (e^2 / 2N) sum_n l[n]^2, diagonal over ``items``."""
    scale = params.e**2 / (2.0 * spec.n_sites)
    return HermitianOperator(np.diag([scale * c.flux_square_sum for c in items]), tag)


def _condensate(spec: LatticeSpec, items, params: ModelParams, tag: str) -> HermitianOperator:
    """Staggered scalar density (1/2a*2N) sum_n (-1)^n sigma_z(n), diagonal over
    ``items``.

    Equals (2*pairs - N) / (a*2N) on a configuration: the constant part of
    sigma_z = 2*occ - 1 cancels around the even-length chain, which also makes
    this form identical to the occupation form sum_n (-1)^n (sigma_z+1)/2
    normalized the same way.
    """
    diag = [(2.0 * c.n_pairs - spec.n_sites) / (params.a * spec.n_fermion) for c in items]
    return HermitianOperator(np.diag(diag), tag)


# ---------------------------------------------------------------------------
# configuration-basis operators
# ---------------------------------------------------------------------------

def _apply_hamiltonian(
    cfg: GaugeFermionConfig, params: ModelParams
) -> tuple[float, float, list[GaugeFermionConfig]]:
    """H applied to one configuration: (diagonal element, hop amplitude, hop
    targets).

    Every nearest-neighbour hop has amplitude 1/(2a).  A fermion hopping from
    n to n+1 raises the flux on the link between them and one hopping from n+1
    to n lowers it, as Gauss's law requires.  Targets may lie outside the
    flux cutoff or the truncated space; callers drop the ones they do not
    index.
    """
    occ, flux = cfg.occupations, cfg.fluxes
    nf = len(occ)
    a, e, m = params.a, params.e, params.m
    electric = 0.5 * a * e * e * cfg.flux_square_sum
    mass = m * (sum(occ[0::2]) - sum(occ[1::2]))
    targets = []
    for n in range(nf):
        np1 = (n + 1) % nf
        if occ[n] != occ[np1]:
            new_occ = list(occ)
            new_occ[n], new_occ[np1] = occ[np1], occ[n]
            new_flux = list(flux)
            new_flux[n] += occ[n] - occ[np1]
            targets.append(GaugeFermionConfig(tuple(new_occ), tuple(new_flux)))
    return electric + mass, 1.0 / (2.0 * a), targets


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
    index = {c: i for i, c in enumerate(configs)}
    h = np.zeros((len(configs), len(configs)))
    for i, cfg in enumerate(configs):
        h[i, i], hop, targets = _apply_hamiltonian(cfg, params)
        for target in targets:
            j = index.get(target)
            if j is not None:
                h[j, i] += hop
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
    orbits = sector.orbits
    orbit_of = {sector.configs[i]: t for t, o in enumerate(orbits) for i in o.members}
    sizes = [len(o.members) for o in orbits]
    h = np.zeros((len(orbits), len(orbits)))
    for s, orbit in enumerate(orbits):
        diag, hop, targets = _apply_hamiltonian(sector.configs[orbit.representative], params)
        h[s, s] = diag
        for target in targets:
            t = orbit_of.get(target)
            if t is not None:
                h[t, s] += hop * math.sqrt(sizes[s] / sizes[t])
    # each entry was computed from one side only; average away the rounding
    return 0.5 * (h + h.T)


def build_sector_operators(
    sector: SymmetrySector, params: ModelParams
) -> SectorOperators:
    """Hamiltonian and observables on the zero-momentum positive-parity basis.

    The Hamiltonian is assembled directly from the orbit representatives,
    without the configuration-space matrix; the observables are diagonal with
    orbit-invariant entries, so their sector matrices are written down
    directly and are exact.
    """
    spec, orbits = sector.spec, sector.orbits
    tag = _basis_tag(spec, projected=True)
    return SectorOperators(
        sector=sector,
        params=params,
        hamiltonian=HermitianOperator(_sector_hamiltonian(sector, params), tag),
        pair_count=_pair_count(orbits, tag),
        electric_square=_electric_square(spec, orbits, params, tag),
        condensate=_condensate(spec, orbits, params, tag),
    )
