"""Gauge-invariant state space of the staggered lattice Schwinger model.

One spatial dimension, periodic boundary conditions.  N spatial sites become
``n_fermion = 2N`` staggered fermion sites; even fermion sites host electrons,
odd ones positrons (an *occupied* even site is an electron, an *empty* odd
site is a positron).  The bare vacuum is the staggered Dirac sea: even sites
empty, odd sites occupied.  Integer link fluxes ``l[n]`` live between fermion
sites n and n+1 and are restricted to ``|l[n]| <= flux_cutoff``.

Gauss's law ties the two together site by site,

    l[n] - l[n-1] = q[n],    q[n] = (n odd) - occ[n],

so electrons carry charge -1 and positrons +1 and the vacuum is neutral with
zero flux everywhere.  Only configurations satisfying this constraint at every
site are physical; everything in this module enumerates, counts, and
symmetry-reduces that constrained space.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations
from math import comb
from typing import NamedTuple

import numpy as np

__all__ = [
    "LatticeSpec",
    "GaugeFermionConfig",
    "staggered_charges",
    "gauss_residuals",
    "count_physical_states",
    "enumerate_physical_configs",
    "translate_config",
    "reflect_config",
    "SymmetrySector",
    "build_symmetry_sector",
]


# ---------------------------------------------------------------------------
# lattice geometry and configurations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LatticeSpec:
    """Geometry and truncation choices for one lattice.

    Parameters
    ----------
    n_sites:
        Number of spatial sites N (>= 1).  The fermion chain has 2N sites.
    flux_cutoff:
        Largest allowed |flux| on any link.  The closed-form state count
        assumes the default cutoff of 1; enumeration works for any value.
    truncate_total_flux:
        If True, additionally require ``sum(|l[n]|) < 2N``.  This removes the
        maximally-stretched flux configurations (uniform |l| = 1 loops) and is
        the space used for dynamics runs; matrix fixtures use the full space.
    """

    n_sites: int
    flux_cutoff: int = 1
    truncate_total_flux: bool = False

    def __post_init__(self):
        if self.n_sites < 1:
            raise ValueError(f"n_sites must be >= 1, got {self.n_sites}")
        if self.flux_cutoff < 1:
            raise ValueError(f"flux_cutoff must be >= 1, got {self.flux_cutoff}")

    @property
    def n_fermion(self) -> int:
        return 2 * self.n_sites


class GaugeFermionConfig(NamedTuple):
    """A joint occupation/flux basis configuration.

    ``occupations[n]`` is 0 or 1 for fermion site n; ``fluxes[n]`` is the
    integer flux on the link between sites n and n+1 (the last link wraps
    around).  An instance is the plain tuple ``(occupations, fluxes)``, so it
    hashes and compares as that pair and serves as a dict key during orbit
    construction.
    """

    occupations: tuple[int, ...]
    fluxes: tuple[int, ...]

    @property
    def n_pairs(self) -> int:
        """Number of electron-positron pairs (= occupied even sites)."""
        return sum(self.occupations[0::2])

    @property
    def flux_square_sum(self) -> int:
        return sum(l * l for l in self.fluxes)

    @property
    def total_abs_flux(self) -> int:
        return sum(abs(l) for l in self.fluxes)

    def sort_key(self):
        return (self.flux_square_sum, self.n_pairs, self.occupations, self.fluxes)


def staggered_charges(occupations) -> tuple[int, ...]:
    """Charge q[n] = (n odd) - occ[n] at each fermion site."""
    return tuple((n % 2) - occ for n, occ in enumerate(occupations))


def gauss_residuals(config: GaugeFermionConfig) -> tuple[int, ...]:
    """l[n] - l[n-1] - q[n] for every site; all zero iff physical."""
    occ, flux = config.occupations, config.fluxes
    q = staggered_charges(occ)
    nf = len(occ)
    return tuple(flux[n] - flux[(n - 1) % nf] - q[n] for n in range(nf))


# ---------------------------------------------------------------------------
# counting (closed form, exact integers)
# ---------------------------------------------------------------------------

def count_physical_states(n_sites: int) -> int:
    """Closed-form dimension of the physical space at |flux| <= 1.

    A configuration with M pairs is a cyclic arrangement of M flux strings of
    odd length x_i (each string connects a positron to an electron across
    x_i links of |flux| = 1) separated by M zero-flux gaps of length y_i >= 1,
    with sum x_i + sum y_i = 2N.  Stars-and-bars counts the compositions and
    the factor 2N/M removes the cyclic relabeling of the M strings; the three
    charge-free states (uniform flux -1, 0, +1) are added at the end.

    Exact integer arithmetic throughout, so large N is fine.
    """
    if n_sites < 1:
        raise ValueError("n_sites must be >= 1")
    nf = 2 * n_sites
    total = 0
    for m in range(1, n_sites + 1):
        inner = 0
        for k in range(0, n_sites - m + 1):
            inner += comb(m - 1 + k, m - 1) * comb(nf - 2 * k - m - 1, m - 1)
        # 2N/M need not be integer on its own; the product always is.
        num = nf * inner
        assert num % m == 0
        total += num // m
    return total + 3


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def enumerate_physical_configs(spec: LatticeSpec) -> list[GaugeFermionConfig]:
    """All physical configurations, in canonical order.

    Only half-filled occupation patterns are generated (Gauss's law around
    the periodic lattice forces total charge zero, i.e. exactly N fermions,
    so they are the N-subsets of the 2N sites); for each pattern the fluxes
    follow from the one on the last link, so ``2*flux_cutoff + 1`` candidates
    exist per pattern.

    Canonical order sorts by (sum of flux squares, pair count, occupations,
    fluxes); the first entry is always the bare vacuum.
    """
    nf = spec.n_fermion
    cutoff = spec.flux_cutoff
    # one row per half-filled pattern
    filled = np.fromiter(
        chain.from_iterable(combinations(range(nf), spec.n_sites)), dtype=np.intp
    ).reshape(-1, spec.n_sites)
    occ = np.zeros((len(filled), nf), dtype=np.int64)
    occ[np.arange(len(filled))[:, None], filled] = 1
    # partial sums of the staggered charge fix every flux relative to the seed
    # c on the last link (rel ends in 0 by neutrality): one candidate per
    # seed |c| <= cutoff, kept where every |flux| <= cutoff
    rel = np.cumsum(np.arange(nf) % 2 - occ, axis=1)
    flux = np.arange(-cutoff, cutoff + 1)[:, None, None] + rel
    size = np.abs(flux)
    keep = size.max(axis=2) <= cutoff
    if spec.truncate_total_flux:
        keep &= size.sum(axis=2) < nf
    occ, flux = occ[np.nonzero(keep)[1]], flux[keep]
    # GaugeFermionConfig.sort_key; lexsort takes the primary key last.  The
    # occupation and flux tuples order as their base-2 and base-(2 cutoff + 1)
    # numbers with site 0 the most significant digit (exact in int64 for any
    # lattice small enough to enumerate)
    digits = np.arange(nf - 1, -1, -1)
    order = np.lexsort((
        (flux + cutoff) @ (2 * cutoff + 1) ** digits,
        occ @ 2**digits,
        occ[:, 0::2].sum(axis=1),
        (flux * flux).sum(axis=1),
    ))
    return list(
        map(GaugeFermionConfig, map(tuple, occ[order].tolist()), map(tuple, flux[order].tolist()))
    )


# ---------------------------------------------------------------------------
# symmetries: translation by one spatial site, reflection about site 0
# ---------------------------------------------------------------------------

def translate_config(config: GaugeFermionConfig) -> GaugeFermionConfig:
    """Shift by one spatial site (two fermion sites, preserving staggering)."""
    occ, flux = config.occupations, config.fluxes
    return GaugeFermionConfig(occ[-2:] + occ[:-2], flux[-2:] + flux[:-2])


def reflect_config(config: GaugeFermionConfig) -> GaugeFermionConfig:
    """Spatial reflection about fermion site 0.

    Site n maps to -n (even sites stay even, so electrons map to electrons);
    the link between n and n+1 lands on the link between -n-1 and -n with the
    flux sign flipped, electric fields being odd under reflection.
    """
    occ, flux = config.occupations, config.fluxes
    return GaugeFermionConfig(occ[:1] + occ[:0:-1], tuple(-l for l in reversed(flux)))


# ---------------------------------------------------------------------------
# zero-momentum, positive-parity sector
# ---------------------------------------------------------------------------

class SymmetryOrbit(NamedTuple):
    """One basis state of the projected sector: a symmetry orbit of configs.

    ``members`` are the sorted indices into the canonical config list of the
    N translations of a config and of its mirror image; the basis state is the
    uniform superposition with amplitude ``1/sqrt(len(members))``.
    ``representative`` is the smallest member, the config the orbit was built
    from.
    """

    members: tuple[int, ...]
    representative: int
    flux_square_sum: int
    n_pairs: int

    @property
    def amplitude(self) -> float:
        return 1.0 / np.sqrt(len(self.members))


@dataclass(frozen=True)
class SymmetrySector:
    """Zero-momentum, positive-parity subspace of a physical config space."""

    spec: LatticeSpec
    configs: tuple[GaugeFermionConfig, ...]
    orbits: tuple[SymmetryOrbit, ...]

    @property
    def dim(self) -> int:
        return len(self.orbits)

    @property
    def n_configs(self) -> int:
        return len(self.configs)

    def isometry(self) -> np.ndarray:
        """(n_configs x dim) map V from sector coordinates to config
        coordinates; columns are orthonormal, so V.T @ V = identity."""
        v = np.zeros((len(self.configs), len(self.orbits)))
        for s, orbit in enumerate(self.orbits):
            v[list(orbit.members), s] = orbit.amplitude
        return v


def build_symmetry_sector(spec: LatticeSpec) -> SymmetrySector:
    """Project the physical space onto zero momentum and positive parity.

    Each sector basis state is the uniform superposition over one orbit of
    the group generated by the one-site translation and the reflection (zero
    momentum and even parity at once), and the count of such orbits is the
    sector dimension.  One pass over the canonically ordered configs builds
    them: each config not yet seen opens an orbit made of the N translations
    of it and of its mirror image, and that config, the orbit's smallest
    member, is its representative.

    Basis states are therefore ordered by their representatives, i.e. by
    (flux square sum, pair count, occupations, fluxes); the first two are
    orbit invariants.
    """
    configs = enumerate_physical_configs(spec)
    index = {c: i for i, c in enumerate(configs)}
    seen = set()
    orbits = []
    for i, cfg in enumerate(configs):
        if i in seen:
            continue
        found = set()
        # the images as plain (occupations, fluxes) pairs, shifted as in
        # translate_config; a config is that pair, so the pair finds its index
        for occ, flux in (cfg, reflect_config(cfg)):
            for _ in range(spec.n_sites):
                found.add(index[occ, flux])
                occ, flux = occ[-2:] + occ[:-2], flux[-2:] + flux[:-2]
        members = tuple(sorted(found))
        seen.update(members)
        orbits.append(SymmetryOrbit(members, i, cfg.flux_square_sum, cfg.n_pairs))
    return SymmetrySector(spec=spec, configs=tuple(configs), orbits=tuple(orbits))
