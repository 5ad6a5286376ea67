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
symmetry-reduces that constrained space.  At |flux| <= 1 Gauss's law makes
the flux a walk around the ring, so the physical states are counted in
closed form by a 3 x 3 transfer matrix (``count_physical_states``).

Charge conjugation C maps a configuration to occ'[n] = 1 - occ[n+1] and
l'[n] = -l[n+1] (indices mod 2N).  It keeps Gauss's law, the cutoff, the
flux truncation, the pair count and E^2, and C^2 is the one-site translation,
so on the zero-momentum sector it permutes the orbit states
(``SymmetrySector.conjugation``) and the Hamiltonian splits into its C-even
and C-odd blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
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
    "flux_codes",
    "translate_config",
    "reflect_config",
    "SymmetrySector",
    "build_symmetry_sector",
    "SECTOR_MAX_BYTES",
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

    Gauss's law fixes each link flux from the one before it, so a
    configuration is a closed walk of the flux around the ring.  Across one
    spatial site the even fermion site keeps the flux or lowers it by one (an
    electron) and the odd site keeps it or raises it by one (a positron); over
    the fluxes -1, 0 and 1 the number of ways from one link value to the next
    is the transfer matrix M = [[1, 1, 0], [1, 2, 1], [0, 1, 2]], and the
    count is tr M^N.

    Python integers throughout (an object array), in O(log N) matrix
    products: N = 2000, a count of 1023 digits, takes under a millisecond.
    """
    if n_sites < 1:
        raise ValueError("n_sites must be >= 1")
    transfer = np.array([[1, 1, 0], [1, 2, 1], [0, 1, 2]], dtype=object)
    return int(np.trace(np.linalg.matrix_power(transfer, n_sites)))


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

# Largest working set ``build_symmetry_sector`` may hold, checked against
# ``_setup_bytes`` before anything is allocated.  At cutoff 1 that admits
# N <= 11 (0.44 GiB) and refuses N = 12 (1.7 GiB) and N = 13 (6.9 GiB).
SECTOR_MAX_BYTES = 2**30


def flux_codes(fluxes, flux_cutoff: int) -> np.ndarray:
    """The base-(2 cutoff + 1) number of each row of ``fluxes``, with digit
    ``flux + cutoff`` and site 0 the most significant digit.

    Gauss's law fixes the occupations by the fluxes, so a code names one
    physical configuration, and codes order as the flux tuples do.
    """
    fluxes = np.asarray(fluxes, dtype=np.int64)
    nf = fluxes.shape[-1]
    return (fluxes + flux_cutoff) @ (2 * flux_cutoff + 1) ** np.arange(nf - 1, -1, -1)


def _setup_bytes(spec: LatticeSpec) -> int:
    """Bound on the bytes ``build_symmetry_sector`` holds at once.

    The arrays of 2N int64 columns peak at three of the P = C(2N, N)
    half-filled patterns (occupations, charge partial sums, their temporary),
    at two of them and two of the K kept configurations (the gather), or at
    four of the configurations (sorted and unsorted).  Each pattern holds a
    few more int64 values (extremes, masks) and each configuration up to 16
    (codes, sort keys, orbit maps).  K is the closed-form count at cutoff 1 and
    is otherwise bounded by one candidate per pattern and seed.
    """
    nf, n, cutoff = spec.n_fermion, spec.n_sites, spec.flux_cutoff
    patterns = comb(nf, n)
    kept = count_physical_states(n) if cutoff == 1 else (2 * cutoff + 1) * patterns
    rows = max(3 * patterns, 2 * (patterns + kept), 4 * kept)
    return 8 * (nf * rows + 4 * patterns + 16 * kept) + 2**16  # and 64 KiB for the rest


def _physical_arrays(spec: LatticeSpec) -> tuple[np.ndarray, np.ndarray]:
    """(occupations, fluxes) of every physical configuration, one int64 row
    each, in canonical order (see ``enumerate_physical_configs``).

    A lattice whose codes overflow int64, or whose arrays could take more than
    ``SECTOR_MAX_BYTES``, is refused with ValueError before any allocation.
    """
    nf, cutoff = spec.n_fermion, spec.flux_cutoff
    if (2 * cutoff + 1) ** nf > np.iinfo(np.int64).max:
        raise ValueError(f"flux codes of N = {spec.n_sites} at cutoff {cutoff} overflow int64")
    if (nbytes := _setup_bytes(spec)) > SECTOR_MAX_BYTES:
        raise ValueError(
            f"the configurations of N = {spec.n_sites} could take {nbytes / 2**30:.3g} GiB "
            f"(> {SECTOR_MAX_BYTES / 2**30:g} GiB)"
        )
    # one row per half-filled pattern
    n_patterns = comb(nf, spec.n_sites)
    filled = np.fromiter(
        chain.from_iterable(combinations(range(nf), spec.n_sites)), dtype=np.intp,
        count=n_patterns * spec.n_sites,
    ).reshape(n_patterns, spec.n_sites)
    occ = np.zeros((n_patterns, nf), dtype=np.int64)
    occ[np.arange(n_patterns)[:, None], filled] = 1
    del filled
    # partial sums of the staggered charge fix every flux relative to the seed
    # on the last link (rel ends in 0 by neutrality): one candidate per seed
    # |seed| <= cutoff, kept where every |flux| <= cutoff
    rel = np.cumsum(np.arange(nf) % 2 - occ, axis=1)
    seeds = np.arange(-cutoff, cutoff + 1)[:, None]
    seed, row = np.nonzero(
        (rel.max(axis=1) + seeds <= cutoff) & (rel.min(axis=1) + seeds >= -cutoff)
    )
    flux = rel[row] + seeds[seed]
    occ = occ[row]
    del rel
    if spec.truncate_total_flux:
        keep = np.abs(flux).sum(axis=1) < nf
        occ, flux = occ[keep], flux[keep]
    # GaugeFermionConfig.sort_key; lexsort takes the primary key last.  The
    # occupation and flux tuples order as their base-2 and flux codes
    order = np.lexsort((
        flux_codes(flux, cutoff),
        occ @ 2 ** np.arange(nf - 1, -1, -1),
        occ[:, 0::2].sum(axis=1),
        (flux * flux).sum(axis=1),
    ))
    return occ[order], flux[order]


def _configs_of(occupations: np.ndarray, fluxes: np.ndarray) -> list[GaugeFermionConfig]:
    return list(map(GaugeFermionConfig, map(tuple, occupations.tolist()), map(tuple, fluxes.tolist())))


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
    return _configs_of(*_physical_arrays(spec))


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


def _index_in(codes: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Position of each target in ``codes`` (distinct, in any order), -1 where absent."""
    order = np.argsort(codes)
    found = order[np.minimum(np.searchsorted(codes, targets, sorter=order), len(codes) - 1)]
    return np.where(codes[found] == targets, found, -1)


def _conjugate_codes(codes: np.ndarray, spec: LatticeSpec) -> np.ndarray:
    """The flux code of the charge conjugate of each configuration.

    l'[n] = -l[n+1] rotates the digits left by one and flips each one,
    d -> 2 cutoff - d, as the mirror image in ``_orbit_keys`` does.
    """
    base, nf = 2 * spec.flux_cutoff + 1, spec.n_fermion
    top = base ** (nf - 1)
    return (base**nf - 1) - (codes % top * base + codes // top)


def _orbit_keys(codes: np.ndarray, fluxes: np.ndarray, spec: LatticeSpec) -> np.ndarray:
    """The smallest code over the orbit of each configuration: over the N
    translations of it and of its mirror image.

    Both symmetries act on the codes directly, as ``translate_config`` and
    ``reflect_config`` act on tuples.  Translation moves the last two digits
    to the front; reflection reverses the digits and flips each one,
    d -> 2 cutoff - d.  Each entry of ``images`` opens one coset of the
    translations.
    """
    nf, cutoff = spec.n_fermion, spec.flux_cutoff
    base = 2 * cutoff + 1
    low, high = base**2, base ** (nf - 2)
    images = (codes, (base**nf - 1) - (fluxes + cutoff) @ base ** np.arange(nf))
    key = codes.copy()
    for image in images:
        for _ in range(spec.n_sites):
            np.minimum(key, image, out=key)
            image = image % low * high + image // low
    return key


# ---------------------------------------------------------------------------
# zero-momentum, positive-parity sector
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SymmetrySector:
    """Zero-momentum, positive-parity subspace of a physical config space.

    ``occupations`` and ``fluxes`` hold the physical configurations as rows,
    in canonical order; ``configs`` makes the same list of
    ``GaugeFermionConfig`` tuples on first use.  Sector state s is the uniform
    superposition over the configurations i with ``orbit_of[i] == s``, one
    orbit of the translations and the reflection, and ``representatives[s]``
    is the smallest of them.  ``conjugation[s]`` is the state that charge
    conjugation maps s to: an involution of the states, since C^2 is a
    translation, that fixes the vacuum (state 0).
    """

    spec: LatticeSpec
    occupations: np.ndarray
    fluxes: np.ndarray
    orbit_of: np.ndarray
    representatives: np.ndarray
    conjugation: np.ndarray

    @cached_property
    def configs(self) -> tuple[GaugeFermionConfig, ...]:
        return tuple(_configs_of(self.occupations, self.fluxes))

    @property
    def dim(self) -> int:
        return len(self.representatives)

    @property
    def n_configs(self) -> int:
        return len(self.fluxes)

    def isometry(self) -> np.ndarray:
        """(n_configs x dim) map V from sector coordinates to config
        coordinates; columns are orthonormal, so V.T @ V = identity."""
        v = np.zeros((self.n_configs, self.dim))
        amplitude = 1.0 / np.sqrt(np.bincount(self.orbit_of))
        v[np.arange(self.n_configs), self.orbit_of] = amplitude[self.orbit_of]
        return v


def build_symmetry_sector(spec: LatticeSpec) -> SymmetrySector:
    """Project the physical space onto zero momentum and positive parity.

    Each sector basis state is the uniform superposition over one orbit of
    the group generated by the one-site translation and the reflection (zero
    momentum and even parity at once), and the count of such orbits is the
    sector dimension.  Array passes over the configurations' flux codes
    (``flux_codes``) build them: ``_orbit_keys`` labels every configuration
    with the smallest code in its orbit, and the first configuration in
    canonical order with a given label, the orbit's smallest member, is its
    representative.  The sector holds the two arrays that result,
    ``orbit_of`` and ``representatives``, read-only like the configuration
    rows, and ``conjugation``: the orbit of the charge conjugate of each
    representative, whose code (``_conjugate_codes``) is looked up among the
    configurations' codes.  The arrays are bounded as in
    ``_physical_arrays``.

    Basis states are ordered by their representatives, i.e. by (flux square
    sum, pair count, occupations, fluxes); the first two are orbit invariants.
    """
    occ, flux = _physical_arrays(spec)
    codes = flux_codes(flux, spec.flux_cutoff)
    keys = _orbit_keys(codes, flux, spec)
    _, first, label = np.unique(keys, return_index=True, return_inverse=True)
    # number the orbits by their representatives, the first index of each label
    by_rep = np.argsort(first)
    rank = np.empty_like(by_rep)
    rank[by_rep] = np.arange(len(by_rep))
    orbit_of, reps = rank[label], first[by_rep]
    # C keeps every constraint of the space, so each conjugate is found
    conjugation = orbit_of[_index_in(codes, _conjugate_codes(codes[reps], spec))]
    for arr in (occ, flux, orbit_of, reps, conjugation):
        arr.flags.writeable = False
    return SymmetrySector(spec, occ, flux, orbit_of, reps, conjugation)
