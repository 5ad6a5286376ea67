"""Constrained-basis construction: enumeration, counting, symmetry projection."""

import tracemalloc
from itertools import product
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from openschwinger import (
    GaugeFermionConfig,
    LatticeSpec,
    build_symmetry_sector,
    count_physical_states,
    enumerate_physical_configs,
    gauss_residuals,
    staggered_charges,
)
from openschwinger import lattice
from openschwinger.lattice import reflect_config, translate_config

# physical-space dimensions at cutoff 1, small enough to recount here; the
# odd-N values come from the flux-first scan below, the even-N ones are
# also pinned independently in the acceptance suite
KNOWN_COUNTS = {1: 5, 2: 13, 3: 38, 4: 117, 5: 370, 6: 1186}

# zero-momentum positive-parity dimensions (full space / truncated space)
SECTOR_DIMS = {1: 3, 2: 5, 3: 9, 4: 19, 6: 110}
SECTOR_DIMS_TRUNCATED = {2: 4, 4: 18, 6: 109}

# C-even dimensions of the truncated sectors (of 4, 18, 41, 109, 284, 800)
C_EVEN_DIMS_TRUNCATED = {2: 4, 4: 16, 5: 34, 6: 78, 7: 186, 8: 476}


def flux_first_configs(n_sites, flux_cutoff=1):
    """Enumerate the physical space by scanning flux tuples.

    Independent of the package's occupation-first construction: the charge on
    site n is the flux difference across it, so each flux tuple determines a
    unique occupation candidate, kept when every entry is 0 or 1.
    """
    nf = 2 * n_sites
    out = set()
    for fluxes in product(range(-flux_cutoff, flux_cutoff + 1), repeat=nf):
        occ = []
        for n in range(nf):
            o = (n % 2) - (fluxes[n] - fluxes[n - 1])
            if o not in (0, 1):
                break
            occ.append(o)
        else:
            out.add(GaugeFermionConfig(tuple(occ), tuple(fluxes)))
    return out


@pytest.mark.parametrize("n_sites", [1, 2, 3, 4])
def test_enumeration_matches_flux_first_scan(n_sites):
    spec = LatticeSpec(n_sites=n_sites)
    assert set(enumerate_physical_configs(spec)) == flux_first_configs(n_sites)


@pytest.mark.parametrize("truncate", [False, True])
@pytest.mark.parametrize("n_sites", [2, 3])
def test_enumeration_at_cutoff_two_is_canonical_and_complete(n_sites, truncate):
    spec = LatticeSpec(n_sites=n_sites, flux_cutoff=2, truncate_total_flux=truncate)
    configs = enumerate_physical_configs(spec)
    assert configs == sorted(configs, key=GaugeFermionConfig.sort_key)
    expected = flux_first_configs(n_sites, flux_cutoff=2)
    if truncate:
        expected = {c for c in expected if c.total_abs_flux < 2 * n_sites}
    assert set(configs) == expected and len(configs) == len(expected)


@pytest.mark.parametrize("n_sites,expected", sorted(KNOWN_COUNTS.items()))
def test_closed_form_count_matches_enumeration(n_sites, expected):
    spec = LatticeSpec(n_sites=n_sites)
    configs = enumerate_physical_configs(spec)
    assert len(configs) == expected
    assert count_physical_states(n_sites) == expected


def test_counting_is_exact_at_large_volume():
    # integer combinatorics, no floats anywhere
    value = count_physical_states(50)
    assert isinstance(value, int)
    assert value == 37495403206807318414369013


def stars_and_bars_count(n_sites):
    """Test-only oracle: the physical states at |flux| <= 1 counted by pair
    number M.  M flux strings of odd length x_i and M zero-flux gaps of length
    y_i >= 1 fill the 2N links; stars-and-bars counts the compositions, the
    factor 2N/M removes the cyclic relabeling of the strings, and the three
    uniform fluxes -1, 0, 1 are added at the end."""
    nf = 2 * n_sites
    total = 0
    for m in range(1, n_sites + 1):
        inner = sum(comb(m - 1 + k, m - 1) * comb(nf - 2 * k - m - 1, m - 1) for k in range(n_sites - m + 1))
        assert nf * inner % m == 0
        total += nf * inner // m
    return total + 3


def test_transfer_matrix_count_matches_the_stars_and_bars_sum():
    for n_sites in range(1, 201):
        assert count_physical_states(n_sites) == stars_and_bars_count(n_sites), n_sites


@pytest.mark.parametrize("n_sites", [2, 3, 4])
def test_truncation_removes_the_two_uniform_flux_loops(n_sites):
    full = set(enumerate_physical_configs(LatticeSpec(n_sites=n_sites)))
    kept = set(
        enumerate_physical_configs(
            LatticeSpec(n_sites=n_sites, truncate_total_flux=True)
        )
    )
    removed = full - kept
    assert kept < full
    assert len(removed) == 2
    for cfg in removed:
        assert all(abs(l) == 1 for l in cfg.fluxes)
        assert cfg.total_abs_flux == 2 * n_sites
    for cfg in kept:
        assert cfg.total_abs_flux < 2 * n_sites


def test_staggered_charges_on_the_two_site_chain():
    assert staggered_charges((0, 1)) == (0, 0)
    assert staggered_charges((1, 0)) == (-1, 1)
    assert staggered_charges((1, 1)) == (-1, 0)


@pytest.mark.parametrize("n_sites", [1, 2, 3, 4])
def test_gauss_residuals_vanish_on_every_physical_config(n_sites):
    spec = LatticeSpec(n_sites=n_sites)
    for cfg in enumerate_physical_configs(spec):
        assert gauss_residuals(cfg) == (0,) * spec.n_fermion


def test_gauss_residuals_flag_an_unphysical_config():
    bad = GaugeFermionConfig((0, 1), (1, 0))
    assert any(r != 0 for r in gauss_residuals(bad))


@pytest.mark.parametrize("n_sites", [1, 2, 3, 4, 5])
def test_half_filling_is_implied_by_periodicity(n_sites):
    # sum of charges around the loop telescopes to zero, which forces
    # exactly N occupied sites; no explicit filling filter exists
    for cfg in enumerate_physical_configs(LatticeSpec(n_sites=n_sites)):
        assert sum(cfg.occupations) == n_sites


@pytest.mark.parametrize("n_sites,dim", sorted(SECTOR_DIMS.items()))
def test_sector_dimension_full_space(n_sites, dim):
    sector = build_symmetry_sector(LatticeSpec(n_sites=n_sites))
    assert sector.dim == dim
    assert sector.n_configs == count_physical_states(n_sites)


@pytest.mark.parametrize("n_sites,dim", sorted(SECTOR_DIMS_TRUNCATED.items()))
def test_sector_dimension_truncated_space(n_sites, dim):
    spec = LatticeSpec(n_sites=n_sites, truncate_total_flux=True)
    assert build_symmetry_sector(spec).dim == dim


@pytest.mark.parametrize("n_sites,c_even", sorted(C_EVEN_DIMS_TRUNCATED.items()))
def test_charge_conjugation_splits_the_truncated_sector(n_sites, c_even):
    # the C-even block holds P's fixed points and one state per swapped pair
    sector = build_symmetry_sector(LatticeSpec(n_sites=n_sites, truncate_total_flux=True))
    p = sector.conjugation
    assert not p.flags.writeable
    assert (sector.dim + np.count_nonzero(p == np.arange(sector.dim))) // 2 == c_even


def _permutation_matrix(configs, op):
    index = {c: i for i, c in enumerate(configs)}
    mat = np.zeros((len(configs), len(configs)))
    for i, cfg in enumerate(configs):
        mat[index[op(cfg)], i] = 1.0
    return mat


@pytest.mark.parametrize("n_sites", [1, 2, 3])
def test_sector_equals_trivial_representation_projector(n_sites):
    """Cross-check the orbit construction against the group-average projector.

    The sector is the trivial representation of the group generated by the
    one-site shift and the reflection; its projector is the group average of
    the permutation matrices, its rank the number of group orbits.  The
    isometry columns must span exactly that subspace.
    """
    spec = LatticeSpec(n_sites=n_sites)
    configs = enumerate_physical_configs(spec)
    t = _permutation_matrix(configs, translate_config)
    p = _permutation_matrix(configs, reflect_config)

    elements = {np.eye(len(configs)).tobytes(): np.eye(len(configs))}
    frontier = list(elements.values())
    while frontier:
        nxt = []
        for g in frontier:
            for gen in (t, p):
                h = gen @ g
                key = h.tobytes()
                if key not in elements:
                    elements[key] = h
                    nxt.append(h)
        frontier = nxt
    projector = sum(elements.values()) / len(elements)

    sector = build_symmetry_sector(spec)
    v = sector.isometry()
    rank = int(round(np.trace(projector)))
    assert rank == sector.dim
    assert np.allclose(projector @ v, v, atol=1e-12)
    assert np.allclose(v.T @ v, np.eye(sector.dim), atol=1e-12)


@pytest.mark.parametrize("n_sites", [1, 2, 3, 4])
def test_orbit_members_closed_under_both_symmetries(n_sites):
    sector = build_symmetry_sector(LatticeSpec(n_sites=n_sites))
    index = {c: i for i, c in enumerate(sector.configs)}
    orbit_of = sector.orbit_of
    for i, cfg in enumerate(sector.configs):
        assert orbit_of[index[translate_config(cfg)]] == orbit_of[i]
        assert orbit_of[index[reflect_config(cfg)]] == orbit_of[i]


@pytest.mark.parametrize("truncate", [False, True])
def test_vacuum_is_always_state_zero(truncate):
    for n_sites in (1, 2, 3, 4):
        spec = LatticeSpec(n_sites=n_sites, truncate_total_flux=truncate)
        sector = build_symmetry_sector(spec)
        first = sector.configs[sector.representatives[0]]
        assert first.flux_square_sum == 0
        assert first.n_pairs == 0
        assert np.count_nonzero(sector.orbit_of == 0) == 1
        assert all(l == 0 for l in first.fluxes)


def test_orbits_sorted_by_flux_then_pair_count():
    sector = build_symmetry_sector(LatticeSpec(n_sites=4))
    configs = sector.configs
    keys = [(configs[r].flux_square_sum, configs[r].n_pairs) for r in sector.representatives]
    assert keys == sorted(keys)


ORBIT_CASES = [(n, 1) for n in range(1, 7)] + [(n, 2) for n in range(1, 4)]


@pytest.mark.parametrize(
    "n_sites, flux_cutoff", ORBIT_CASES, ids=[f"N{n}-cutoff{c}" for n, c in ORBIT_CASES]
)
@pytest.mark.parametrize("truncate", [False, True], ids=["full", "truncated"])
def test_orbit_amplitudes_normalize_the_superposition(n_sites, flux_cutoff, truncate):
    spec = LatticeSpec(n_sites=n_sites, flux_cutoff=flux_cutoff, truncate_total_flux=truncate)
    sector = build_symmetry_sector(spec)
    orbit_of, reps = sector.orbit_of, sector.representatives
    # every config belongs to exactly one orbit, and no orbit is empty
    sizes = np.bincount(orbit_of, minlength=sector.dim)
    assert orbit_of.min() >= 0 and len(sizes) == sector.dim and sizes.min() >= 1
    v = sector.isometry()
    assert np.count_nonzero(v) == sector.n_configs
    assert v[np.arange(sector.n_configs), orbit_of] == pytest.approx(1.0 / np.sqrt(sizes[orbit_of]))
    # the one-pass construction opens each orbit at its smallest member
    assert np.array_equal(reps, [np.flatnonzero(orbit_of == s).min() for s in range(sector.dim)])
    # which keeps the basis in canonical order
    assert np.all(np.diff(reps) > 0)


def test_a_lattice_over_the_byte_budget_is_refused_before_allocating(monkeypatch):
    spec = LatticeSpec(n_sites=9, truncate_total_flux=True)
    needed = lattice._setup_bytes(spec)
    monkeypatch.setattr(lattice, "SECTOR_MAX_BYTES", needed - 1)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="could take"):
            build_symmetry_sector(spec)
        with pytest.raises(ValueError, match="could take"):
            enumerate_physical_configs(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    monkeypatch.setattr(lattice, "SECTOR_MAX_BYTES", needed)
    assert build_symmetry_sector(spec).dim == 2267


@pytest.mark.parametrize("n_sites, flux_cutoff", [(2, 1), (6, 1), (9, 1), (4, 2), (3, 5)])
def test_setup_bytes_bound_the_traced_peak(n_sites, flux_cutoff):
    spec = LatticeSpec(n_sites, flux_cutoff)
    tracemalloc.start()
    try:
        build_symmetry_sector(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= lattice._setup_bytes(spec) <= 2.5 * peak + 2**16


def test_codes_that_overflow_int64_are_refused():
    with pytest.raises(ValueError, match="overflow"):
        build_symmetry_sector(LatticeSpec(n_sites=10, flux_cutoff=5))


def test_spec_rejects_bad_parameters():
    with pytest.raises(ValueError):
        LatticeSpec(n_sites=0)
    with pytest.raises(ValueError):
        LatticeSpec(n_sites=2, flux_cutoff=0)


@settings(max_examples=60, deadline=None)
@given(
    n_sites=st.integers(min_value=1, max_value=3),
    pick=st.integers(min_value=0, max_value=10**6),
    n_translations=st.integers(min_value=0, max_value=5),
    do_reflect=st.booleans(),
)
def test_symmetries_preserve_the_physical_constraints(
    n_sites, pick, n_translations, do_reflect
):
    configs = enumerate_physical_configs(LatticeSpec(n_sites=n_sites))
    cfg = configs[pick % len(configs)]
    moved = cfg
    for _ in range(n_translations):
        moved = translate_config(moved)
    if do_reflect:
        moved = reflect_config(moved)
    assert moved in set(configs)
    assert gauss_residuals(moved) == (0,) * (2 * n_sites)
    assert moved.flux_square_sum == cfg.flux_square_sum
    assert moved.n_pairs == cfg.n_pairs
    assert moved.total_abs_flux == cfg.total_abs_flux
