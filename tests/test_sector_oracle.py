"""The array-built sector against a loop-built oracle, bit for bit.

The oracle builds everything one configuration or one orbit at a time, in
plain Python: the enumeration as the half-filled patterns and their flux
seeds sorted by ``GaugeFermionConfig.sort_key``, the orbits in one pass over
the canonically ordered configurations, the charge conjugation by applying C
to each representative's tuple, H by applying the Hamiltonian to each
orbit's representative, and L with the commutator as two dense matrix
products.  The package builds the same objects in array passes, in the same
floating-point order, so configurations, orbits, the conjugation, H, L and
the Gibbs reference must come out equal (``==``), not merely close.
"""

import math
from collections import Counter
from itertools import accumulate, combinations

import numpy as np
import pytest

from openschwinger import (
    BathParams,
    GaugeFermionConfig,
    HermitianOperator,
    LatticeSpec,
    ModelParams,
    build_lindblad_operator,
    build_sector_operators,
    build_symmetry_sector,
    gibbs_reference,
)
from openschwinger.lattice import reflect_config
from openschwinger.operators import build_hamiltonian


def loop_configs(spec):
    """The physical configurations, pattern by pattern and seed by seed."""
    nf, cutoff = spec.n_fermion, spec.flux_cutoff
    configs = []
    for filled in combinations(range(nf), spec.n_sites):
        occ = tuple(int(n in filled) for n in range(nf))
        rel = list(accumulate(n % 2 - o for n, o in enumerate(occ)))
        for seed in range(-cutoff, cutoff + 1):
            flux = tuple(seed + r for r in rel)
            if max(map(abs, flux)) > cutoff:
                continue
            if spec.truncate_total_flux and sum(map(abs, flux)) >= nf:
                continue
            configs.append(GaugeFermionConfig(occ, flux))
    return sorted(configs, key=GaugeFermionConfig.sort_key)


def loop_orbits(spec, configs):
    """One pass over the canonically ordered configs: each config not yet
    seen opens an orbit of the N translations of it and of its mirror image.

    Returns the orbit of each config and the representative of each orbit.
    """
    index = {c: i for i, c in enumerate(configs)}
    orbit_of = [None] * len(configs)
    representatives = []
    for i, cfg in enumerate(configs):
        if orbit_of[i] is not None:
            continue
        for occ, flux in (cfg, reflect_config(cfg)):
            for _ in range(spec.n_sites):
                orbit_of[index[occ, flux]] = len(representatives)
                occ, flux = occ[-2:] + occ[:-2], flux[-2:] + flux[:-2]
        representatives.append(i)
    return orbit_of, representatives


def loop_conjugation(configs, orbit_of, representatives):
    """The orbit of C applied to each representative: occ'[n] = 1 - occ[n+1]
    and l'[n] = -l[n+1], indices mod 2N."""
    orbit_of_config = dict(zip(configs, orbit_of))
    conjugation = []
    for rep in representatives:
        occ, flux = configs[rep]
        nf = len(occ)
        image = GaugeFermionConfig(
            tuple(1 - occ[(n + 1) % nf] for n in range(nf)),
            tuple(-flux[(n + 1) % nf] for n in range(nf)),
        )
        conjugation.append(orbit_of_config[image])
    return conjugation


def apply_hamiltonian(cfg, params):
    """(diagonal element, hop amplitude, hop targets) of H on one configuration."""
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


def loop_config_hamiltonian(configs, params):
    index = {c: i for i, c in enumerate(configs)}
    h = np.zeros((len(configs), len(configs)))
    for i, cfg in enumerate(configs):
        h[i, i], hop, targets = apply_hamiltonian(cfg, params)
        for target in targets:
            j = index.get(target)
            if j is not None:
                h[j, i] += hop
    return h


def loop_sector_hamiltonian(configs, orbit_of, representatives, params):
    """Sandvik's representative formula, one orbit and one hop at a time."""
    orbit_of_config = dict(zip(configs, orbit_of))
    sizes = Counter(orbit_of)
    h = np.zeros((len(representatives), len(representatives)))
    for s, rep in enumerate(representatives):
        diag, hop, targets = apply_hamiltonian(configs[rep], params)
        h[s, s] = diag
        for target in targets:
            t = orbit_of_config.get(target)
            if t is not None:
                h[t, s] += hop * math.sqrt(sizes[s] / sizes[t])
    return 0.5 * (h + h.T)


def gemm_lindblad_operator(h, o, spec, params, bath):
    comm = h @ o - o @ h
    return np.sqrt(params.a * spec.n_fermion * bath.coupling) * (o - comm / (4.0 * bath.temperature))


CASES = [(n, 1) for n in range(1, 9)] + [(n, 2) for n in range(1, 5)]


@pytest.mark.parametrize(
    "n_sites, flux_cutoff", CASES, ids=[f"N{n}-cutoff{c}" for n, c in CASES]
)
@pytest.mark.parametrize("truncate", [False, True], ids=["full", "truncated"])
def test_array_setup_equals_the_loop_oracle(n_sites, flux_cutoff, truncate):
    spec = LatticeSpec(n_sites, flux_cutoff, truncate)
    params = ModelParams(a=0.9, e=1.1, m=0.2) if n_sites % 2 else ModelParams()
    bath = BathParams.from_beta(0.1, 3.2)
    configs = loop_configs(spec)
    orbit_of, representatives = loop_orbits(spec, configs)
    conjugation = loop_conjugation(configs, orbit_of, representatives)
    h = loop_sector_hamiltonian(configs, orbit_of, representatives, params)

    sector = build_symmetry_sector(spec)
    assert sector.configs == tuple(configs)
    assert sector.orbit_of.tolist() == orbit_of
    assert sector.representatives.tolist() == representatives
    assert sector.conjugation.tolist() == conjugation
    ops = build_sector_operators(sector, params)
    assert np.array_equal(ops.hamiltonian.matrix, h)
    lop = build_lindblad_operator(ops.hamiltonian, ops.condensate, spec, params, bath)
    assert np.array_equal(lop, gemm_lindblad_operator(h, ops.condensate.matrix, spec, params, bath))
    # P is an involution that fixes the vacuum and commutes exactly with H,
    # L and the observables
    p = sector.conjugation
    assert p[0] == 0 and np.array_equal(p[p], np.arange(sector.dim))
    for m in (h, lop, ops.pair_count.matrix, ops.electric_square.matrix, ops.condensate.matrix):
        assert np.array_equal(m[p][:, p], m)
    observables = (ops.pair_count, ops.electric_square)
    loop_h = HermitianOperator(h, ops.hamiltonian.basis_tag, np.array(conjugation))
    assert gibbs_reference(ops.hamiltonian, bath.beta, *observables) == gibbs_reference(
        loop_h, bath.beta, *observables
    )
    if len(configs) <= 400:
        config_h = build_hamiltonian(spec, configs, params).matrix
        assert np.array_equal(config_h, loop_config_hamiltonian(configs, params))
