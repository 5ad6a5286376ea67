"""Command-line front end.

Subcommands build the constrained bases, dump operators, run the three
evolution engines, and emit figure-ready CSV/JSON data files.

Exit codes follow the usual convention: 0 on success, 1 when a run fails a
numerical check (integrator abort, validation failure, or a --max-dev bound
exceeded in ``compare``), 2 for usage errors.

Basis defaults differ between the structural and the dynamical subcommands on
purpose: ``states`` and ``hamiltonian`` use the full flux-cutoff space, where
the printed reference matrices live, while ``evolve``/``compare``/``sweep``
default to the smaller sector with the uniform background-flux loops removed
(pass --full-flux to keep them).  For N=2 that is the difference between the
5- and the 4-dimensional space.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from .lattice import LatticeSpec, build_symmetry_sector, count_physical_states, enumerate_physical_configs
from .operators import ModelParams, build_sector_operators, matrix_to_json
from .lindblad import (
    BathParams,
    DensityMatrix,
    EvolutionRecord,
    _block_generators,
    _engine_basis,
    _step_count,
    build_lindblad_operator,
    exact_evolve,
    gibbs_reference,
    rk4_evolve,
)
from .dilation import build_dilation_hamiltonian, dilation_evolve, unitary_from_hamiltonian

ENUMERATION_LIMIT = 6  # brute force is cheap up to here and a no-go well beyond

# Largest record a run may hold, checked before setup at 640 B per row (20000
# rows at N = 2 peaked at 320 B a row in rk4 and dilation runs, 610 B in
# ``exact_evolve`` with its time grid, 460 B in ``to_csv``): 3.3 M rows
RECORD_MAX_BYTES = 2 * 2**30

# Largest dense setup a command may build, checked once the sector is known at
# ten dim x dim float64 arrays: H, the three observables, L and the Gibbs
# eigendecomposition peaked 9.1-9.3 such arrays above the sector at N = 8 and
# 9.  N <= 10 (3.2 GiB) passes and N = 11 (28 GiB) is refused.
SETUP_MAX_BYTES = 4 * 2**30


class NumericalCheckError(RuntimeError):
    """A cross-check or invariant failed at run time (exit code 1)."""


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _finite_float(text: str) -> float:
    """argparse ``type`` of every float flag: inf and nan are usage errors."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _add_model_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--a", type=_finite_float, default=1.0, help="lattice spacing (default 1)")
    p.add_argument("--e", type=_finite_float, default=1.0, help="gauge coupling (default 1)")
    p.add_argument("--m", type=_finite_float, default=0.1, help="fermion mass (default 0.1)")


def _add_setup_args(p: argparse.ArgumentParser) -> None:
    """The flags ``_build_setup`` reads, bar the lattice size."""
    p.add_argument(
        "--full-flux",
        dest="truncate",
        action="store_false",
        help="keep the uniform background-flux loops (default: drop them, as in the device runs)",
    )
    _add_model_args(p)
    p.add_argument("--beta", type=_finite_float, default=0.1, help="inverse temperature (default 0.1)")
    p.add_argument("--coupling", type=_finite_float, default=3.2, help="system-environment coupling D (default 3.2)")


def _add_dynamics_basis_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n-sites", type=int, required=True, metavar="N", help="spatial lattice sites")
    _add_setup_args(p)


def _add_run_args(p: argparse.ArgumentParser, *, dt: float, stride: int) -> None:
    p.add_argument("--t-max", type=_finite_float, default=10.0)
    p.add_argument("--dt", type=_finite_float, default=dt, help="step (rk4) or output grid spacing (exact)")
    p.add_argument("--n-cycles", type=int, default=200, help="dilation cycles (dilation method only)")
    p.add_argument("--stride", type=int, default=stride, help="record every STRIDE-th rk4 step")


def _operators_from(args):
    """(spec, params, sector operators) of the flags; bad values are usage errors."""
    n = args.n_sites
    if n < 1:
        raise _UsageError(f"--n-sites must be >= 1, got {n}")
    spec = LatticeSpec(n, truncate_total_flux=args.truncate)
    try:
        params = ModelParams(a=args.a, e=args.e, m=args.m)
    except ValueError as exc:
        raise _UsageError(f"--a: {exc}") from exc
    sector = _sector_of(spec, "--n-sites")
    if (nbytes := 80 * sector.dim**2) > SETUP_MAX_BYTES:
        raise _UsageError(f"--n-sites: the operators of the dim {sector.dim} sector of N = {n} could "
                          f"take {nbytes / 2**30:.3g} GiB (> {SETUP_MAX_BYTES / 2**30:g} GiB)")
    return spec, params, build_sector_operators(sector, params)


def _sector_of(spec: LatticeSpec, flag: str):
    """The sector of ``spec``; a lattice too large to enumerate is a usage error."""
    try:
        return build_symmetry_sector(spec)
    except ValueError as exc:
        raise _UsageError(f"{flag}: {exc}") from exc


class _UsageError(ValueError):
    pass


def _check_run_args(args, methods: set) -> None:
    """Reject run arguments the engines cannot use, before any setup."""
    if args.t_max < 0 or (args.t_max == 0 and methods != {"rk4"}):
        raise _UsageError(f"--t-max must be > 0 (or 0 for rk4 alone), got {args.t_max}")
    if "dilation" in methods and args.n_cycles < 1:
        raise _UsageError(f"--n-cycles must be >= 1, got {args.n_cycles}")
    if "rk4" in methods and args.stride < 1:
        raise _UsageError(f"--stride must be >= 1, got {args.stride}")
    rows = 0  # recorded rows of the records a command holds at once
    if methods & {"rk4", "exact"}:
        if args.dt <= 0:
            raise _UsageError(f"--dt must be > 0, got {args.dt}")
        try:
            n_steps = _step_count(args.t_max, args.dt)
        except ValueError as exc:
            raise _UsageError(f"--t-max {args.t_max} and --dt {args.dt}: {exc}") from None
        if "rk4" in methods:
            rows += -(-n_steps // args.stride) + 1  # every stride-th step and the last
        if "exact" in methods:
            rows += n_steps + 1
    if "dilation" in methods:
        rows += args.n_cycles + 1
    if (nbytes := 640 * rows) > RECORD_MAX_BYTES:
        raise _UsageError(f"{rows} recorded rows could take {nbytes / 2**30:.3g} GiB "
                          f"(> {RECORD_MAX_BYTES / 2**30:g} GiB): lower --t-max or --n-cycles, "
                          "or raise --dt or --stride")


def _bath_from(args) -> BathParams:
    """The bath of ``--beta`` and ``--coupling``; bad values are usage errors."""
    try:
        return BathParams.from_beta(args.beta, args.coupling)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def _build_setup(args, methods: set):
    """(spec, bath, ops, lop) for the dynamical subcommands; a sector too large for ``methods`` is a usage error.

    The exact engine's size check is its own: the generator of every C block
    the vacuum is stepped in must fit ``LIOUVILLIAN_MAX_BYTES``."""
    bath = _bath_from(args)
    spec, params, ops = _operators_from(args)
    lop = build_lindblad_operator(ops.hamiltonian, ops.condensate, spec, params, bath)
    if "exact" in methods:
        observables = dict(pair_count=ops.pair_count, electric_square=ops.electric_square)
        try:
            _block_generators(_engine_basis(ops.hamiltonian, lop, _vacuum(ops), observables), ops.hamiltonian, lop)
        except ValueError as exc:
            raise _UsageError(f"--method exact at N = {spec.n_sites}: {exc}") from None
    return spec, bath, ops, lop


def _vacuum(ops) -> DensityMatrix:
    """The projected bare vacuum, where every run starts."""
    return DensityMatrix.pure_state(ops.hamiltonian.dim, 0)


def _run_method(args, method, ops, lop):
    """Dispatch one evolution run; every path records the same observables."""
    rho0 = _vacuum(ops)
    if method == "rk4":
        return rk4_evolve(
            rho0, ops.hamiltonian, lop, args.t_max, args.dt,
            pair_count=ops.pair_count, electric_square=ops.electric_square,
            stride=args.stride,
        )
    if method == "dilation":
        return dilation_evolve(
            rho0, ops.hamiltonian, lop, args.t_max, args.n_cycles,
            pair_count=ops.pair_count, electric_square=ops.electric_square,
        )
    times = np.arange(_step_count(args.t_max, args.dt) + 1) * args.dt
    return exact_evolve(
        rho0, ops.hamiltonian, lop, times,
        pair_count=ops.pair_count, electric_square=ops.electric_square,
    )


def _sidecar_path(out: Path) -> Path:
    return out.with_suffix(".json") if out.suffix else out.with_name(out.name + ".json")


def _check_outputs(outputs: dict) -> None:
    """Refuse, before any setup and without creating anything, the files a
    command would write (``{flag: [paths]}``, where the None of an unset flag
    is skipped) when two resolve to one file, one is an existing directory, or
    the nearest existing ancestor of one is not a directory."""
    owner = {}
    for flag, paths in outputs.items():
        for path in filter(None, paths):
            real = Path(path).resolve()
            if real in owner:
                also = "" if owner[real] == flag else f" (also for {owner[real]})"
                raise _UsageError(f"{flag}: {path} would be written twice{also}")
            owner[real] = flag
            if real.is_dir():
                raise _UsageError(f"{flag}: {path} is an existing directory")
            ancestor = next(a for a in real.parents if a.exists())
            if not ancestor.is_dir():
                raise _UsageError(f"{flag}: {path} cannot be created, {ancestor} is not a directory")


def _config_dict(args, method, spec, bath) -> dict:
    cfg = {
        "n_sites": spec.n_sites,
        "flux_cutoff": spec.flux_cutoff,
        "truncate_total_flux": spec.truncate_total_flux,
        "a": args.a,
        "e": args.e,
        "m": args.m,
        "beta": bath.beta,
        "coupling": bath.coupling,
        "method": method,
        "t_max": args.t_max,
    }
    if method in ("rk4", "exact"):
        cfg["dt"] = args.dt
        if method == "rk4":
            cfg["stride"] = args.stride
    else:
        cfg["n_cycles"] = args.n_cycles
    return cfg


def _write_outputs(out: Path, record: EvolutionRecord, config: dict, gibbs: dict, elapsed: float) -> None:
    """The CSV of ``record`` and its JSON sidecar: the run's config, the Gibbs
    reference (full sector and C-even block), the worst invariant values over
    all rows, the last row's distance from both Gibbs lines, the engine's
    counters (``EvolutionRecord.counters``), its wall time, and the seconds by
    phase: the record's ``timings`` and ``write_s``, the time taken to write
    the CSV."""
    start = time.perf_counter()
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(record.to_csv())
    timings = {**record.timings, "write_s": time.perf_counter() - start}
    sidecar = {
        "config": config,
        "gibbs_reference": gibbs,
        "invariants": {
            "max_trace_error": float(np.max(np.abs(record.trace - 1.0))),
            "max_hermiticity_error": float(record.max_hermiticity_error),
            "min_eig": float(np.min(record.min_eig)),
        },
        "thermal_gap": {
            "t": float(record.times[-1]),
            "e2": float(record.e2[-1] - gibbs["e2"]),
            "n_pairs": float(record.n_pairs[-1] - gibbs["n_pairs"]),
            "c_even": {
                "e2": float(record.e2[-1] - gibbs["c_even"]["e2"]),
                "n_pairs": float(record.n_pairs[-1] - gibbs["c_even"]["n_pairs"]),
            },
        },
        "counters": record.counters,
        "wall_time_s": elapsed,
        "timings": timings,
    }
    _sidecar_path(out).write_text(json.dumps(sidecar, indent=1))


def _run_and_write(args, out: Path):
    """Build, run ``args.method`` and write the CSV and its sidecar to ``out``:
    the one run path of ``evolve`` and ``sweep``.  The record's ``timings``
    gain ``setup_s``, the seconds spent on the operators and the Gibbs
    reference; ``elapsed`` is the engine call's wall time."""
    t0 = time.perf_counter()
    spec, bath, ops, lop = _build_setup(args, {args.method})
    setup = time.perf_counter() - t0
    t0 = time.perf_counter()
    record = _run_method(args, args.method, ops, lop)
    elapsed = time.perf_counter() - t0
    t0 = time.perf_counter()
    gibbs = gibbs_reference(ops.hamiltonian, bath.beta, ops.pair_count, ops.electric_square)
    record.timings["setup_s"] = setup + time.perf_counter() - t0
    _write_outputs(out, record, _config_dict(args, args.method, spec, bath), gibbs, elapsed)
    return ops, lop, record, gibbs, elapsed


def _align_records(rec_a: EvolutionRecord, rec_b: EvolutionRecord, tol: float = 1e-9):
    """Indices of time points the two records share: each time of ``rec_a``
    and the first of ``rec_b`` not below it by ``tol``, if within ``tol``."""
    ta, tb = rec_a.times, rec_b.times
    ib = np.searchsorted(tb, ta - tol)
    ia = np.flatnonzero(ib < len(tb))
    ia = ia[np.abs(tb[ib[ia]] - ta[ia]) <= tol]
    return ia, ib[ia]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_states(args) -> int:
    n = args.n_sites
    if n < 1:
        raise _UsageError(f"N must be >= 1, got {n}")
    closed = count_physical_states(n)
    try:
        digits = str(closed)
    except ValueError as exc:  # past sys.get_int_max_str_digits(): from N = 8407 on at its default
        raise _UsageError(f"the count of physical states at N = {n} is too long to print: {exc}") from None
    print(f"N={n}: physical states (closed form) = {digits}")
    ok = True
    if n <= ENUMERATION_LIMIT:
        spec = LatticeSpec(n)
        enumerated = len(enumerate_physical_configs(spec))
        print(f"N={n}: physical states (enumeration) = {enumerated}")
        if enumerated != closed:
            print("cross-check FAILED: enumeration disagrees with closed form", file=sys.stderr)
            ok = False
    if args.sector:
        sector = _sector_of(LatticeSpec(n, truncate_total_flux=args.truncate), "N")
        label = "truncated sector" if args.truncate else "sector"
        print(f"N={n}: {label} dim {sector.dim} (from {sector.n_configs} configurations)")
        # the orbits must partition the configs: each state in [0, dim) holds its representative
        states = np.arange(sector.dim)
        if not (np.array_equal(np.unique(sector.orbit_of), states)
                and np.array_equal(sector.orbit_of[sector.representatives], states)):
            print("cross-check FAILED: sector orbits do not partition the configurations", file=sys.stderr)
            ok = False
    if not ok:
        raise NumericalCheckError("states cross-checks failed")
    return 0


def cmd_hamiltonian(args) -> int:
    out = Path(args.output)
    names = ("pairs", "electric", "condensate") if args.observables else ()
    paths = [Path(f"{out.with_suffix('')}_{name}.json") for name in names]
    _check_outputs({"-o/--output": [out], "--observables": paths})
    _, _, ops = _operators_from(args)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(matrix_to_json(ops.hamiltonian.matrix, ops.hamiltonian.basis_tag))
    print(f"wrote {out} (dim {ops.hamiltonian.dim}, basis {ops.hamiltonian.basis_tag})")
    for path, op in zip(paths, (ops.pair_count, ops.electric_square, ops.condensate)):
        path.write_text(matrix_to_json(op.matrix, op.basis_tag))
        print(f"wrote {path}")
    return 0


def cmd_evolve(args) -> int:
    out = Path(args.output)
    unitaries = [Path(f"{args.dump_unitaries}_{u}.json") for u in ("uj", "uh")] if args.dump_unitaries else []
    _check_outputs({"-o/--output": [out, _sidecar_path(out)], "--dump-unitaries": unitaries})
    _check_run_args(args, {args.method})
    if args.dump_unitaries and args.method != "dilation":
        raise _UsageError("--dump-unitaries only applies to the dilation method")
    ops, lop, record, _, elapsed = _run_and_write(args, out)
    print(
        f"wrote {out} and {_sidecar_path(out)}: dim {ops.hamiltonian.dim}, "
        f"{len(record.times)} rows, {elapsed:.2f}s"
    )
    if args.dump_unitaries:
        dt_cycle = args.t_max / args.n_cycles
        j_op = build_dilation_hamiltonian(lop)
        tag = ops.hamiltonian.basis_tag
        unitaries[0].parent.mkdir(parents=True, exist_ok=True)
        uj = unitary_from_hamiltonian(j_op, np.sqrt(dt_cycle))
        uh = unitary_from_hamiltonian(ops.hamiltonian.matrix, dt_cycle)
        unitaries[0].write_text(matrix_to_json(uj, f"{tag}+ancilla"))
        unitaries[1].write_text(matrix_to_json(uh, tag))
        print(f"wrote {unitaries[0]} and {unitaries[1]} (cycle dt {dt_cycle:g})")
    return 0


def cmd_gibbs(args) -> int:
    _check_outputs({"-o/--output": [args.output]})
    bath = _bath_from(args)
    _, _, ops = _operators_from(args)
    ref = gibbs_reference(ops.hamiltonian, bath.beta, ops.pair_count, ops.electric_square)
    line = json.dumps(ref, indent=1)
    if args.output:
        out = Path(args.output)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(line)
        print(f"wrote {out}")
    print(line)
    return 0


def cmd_compare(args) -> int:
    _check_outputs({"--out-a": [args.out_a], "--out-b": [args.out_b]})
    _check_run_args(args, {args.method_a, args.method_b})
    if args.max_dev is not None and args.max_dev < 0:
        raise _UsageError(f"--max-dev must be >= 0, got {args.max_dev}")
    _, _, ops, lop = _build_setup(args, {args.method_a, args.method_b})
    # both runs and the grid check first, so a failure leaves no output behind
    rec_a = _run_method(args, args.method_a, ops, lop)
    rec_b = _run_method(args, args.method_b, ops, lop)
    ia, ib = _align_records(rec_a, rec_b)
    if len(ia) < 2:
        raise _UsageError(
            "the two methods share fewer than two time points; "
            "choose dt / n-cycles so the grids align"
        )
    for out_path, rec in ((args.out_a, rec_a), (args.out_b, rec_b)):
        if out_path:
            out = Path(out_path)
            out.parent.mkdir(parents=True, exist_ok=True)
            out.write_text(rec.to_csv())
    worst = 0.0
    for name in ("n_pairs", "e2"):
        da = np.abs(getattr(rec_a, name)[ia] - getattr(rec_b, name)[ib])
        worst = max(worst, float(np.max(da)))
        print(
            f"{name}: max |dev| = {np.max(da):.6e}, mean |dev| = {np.mean(da):.6e} "
            f"over {len(ia)} shared points"
        )
    if args.max_dev is not None and worst > args.max_dev:
        raise NumericalCheckError(
            f"max observable deviation {worst:.6e} exceeds --max-dev {args.max_dev:g}"
        )
    return 0


def cmd_sweep(args) -> int:
    sites = args.sites
    if min(sites) < 1:
        raise _UsageError(f"--sites must all be >= 1, got {min(sites)}")
    if any(b <= a for a, b in zip(sites, sites[1:])):
        raise _UsageError(f"--sites must be strictly increasing, got {sites}")
    tail_frac = args.tail_frac
    if not 0.0 < tail_frac < 1.0:
        raise _UsageError(f"--tail-frac must be in (0, 1), got {tail_frac}")
    out_dir = Path(args.output_dir)
    csvs = [out_dir / f"evolve_N{n}.csv" for n in sites]
    _check_outputs({"-o/--output-dir": [*csvs, *map(_sidecar_path, csvs), out_dir / "summary.json"]})
    _check_run_args(args, {args.method})
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = {"method": args.method, "t_max": args.t_max, "tail_frac": tail_frac, "runs": []}
    records = []
    for n, out in zip(sites, csvs):
        sub = argparse.Namespace(**vars(args), n_sites=n)
        ops, _, record, gibbs, elapsed = _run_and_write(sub, out)
        tail = record.times >= record.times[-1] * (1.0 - tail_frac)
        eq_e2 = float(np.mean(record.e2[tail]))
        eq_pairs = float(np.mean(record.n_pairs[tail]))
        records.append(record)
        summary["runs"].append(
            {
                "n_sites": n,
                "dim": ops.hamiltonian.dim,
                "eq_e2": eq_e2,
                "eq_n_pairs": eq_pairs,
                "gibbs_e2": gibbs["e2"],
                "gibbs_n_pairs": gibbs["n_pairs"],
                "gibbs_e2_c_even": gibbs["c_even"]["e2"],
                "gibbs_n_pairs_c_even": gibbs["c_even"]["n_pairs"],
                "wall_time_s": elapsed,
                "csv": out.name,
            }
        )
        print(f"N={n}: dim {ops.hamiltonian.dim}, tail-mean e2 = {eq_e2:.6f}, thermal e2 = {gibbs['e2']:.6f} ({elapsed:.1f}s)")

    # Two convergence-with-volume readouts, both shrinking as N grows: the gaps
    # between successive thermal lines (full sector, and the C-even block the
    # vacuum reaches) and the distances between successive trajectories on their
    # shared time grid.  The tail means above are informational: their N
    # dependent relaxation bias makes their gaps a poor convergence measure.
    for suffix in ("", "_c_even"):
        values = [run[f"gibbs_e2{suffix}"] for run in summary["runs"]]
        gaps = [abs(b - a) for a, b in zip(values, values[1:])]
        summary[f"thermal_e2_gaps{suffix}"] = gaps
        summary[f"thermal_gaps{suffix}_decreasing"] = all(b < a for a, b in zip(gaps, gaps[1:]))
    if len(records[0]) > 1:  # a --t-max 0 run records one row
        curve = [float(np.max(np.abs(ra.e2 - rb.e2))) for ra, rb in zip(records, records[1:])]
        summary["curve_e2_distances"] = curve
        summary["curve_distances_decreasing"] = all(b < a for a, b in zip(curve, curve[1:]))
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=1))
    if len(sites) > 1:
        print("thermal e2 gaps:", ", ".join(f"{g:.6f}" for g in summary["thermal_e2_gaps"]))
        print("C-even thermal e2 gaps:", ", ".join(f"{g:.6f}" for g in summary["thermal_e2_gaps_c_even"]))
        if "curve_e2_distances" in summary:
            print("trajectory sup distances:", ", ".join(f"{g:.6f}" for g in summary["curve_e2_distances"]))
        if len(sites) > 2:
            print("gaps decreasing:", summary["thermal_gaps_decreasing"])
            print("C-even gaps decreasing:", summary["thermal_gaps_c_even_decreasing"])
    print(f"wrote {out_dir / 'summary.json'}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _int_list(text: str) -> list[int]:
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError("empty site list")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="openschwinger",
        description="Constrained-basis construction and open-system evolution "
        "for the lattice Schwinger model with a flux cutoff.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("states", help="count physical states and cross-check the closed form")
    p.add_argument("n_sites", type=int, metavar="N", help="spatial lattice sites")
    p.add_argument("--sector", action="store_true", help="also build and report the projected sector")
    p.add_argument("--truncate", action="store_true", help="drop the uniform background-flux loops")
    p.set_defaults(func=cmd_states)

    p = sub.add_parser("hamiltonian", help="dump the projected Hamiltonian as operator JSON")
    p.add_argument("--n-sites", type=int, required=True, metavar="N")
    p.add_argument("--truncate", action="store_true", help="drop the uniform background-flux loops")
    _add_model_args(p)
    p.add_argument("-o", "--output", required=True, help="output JSON path")
    p.add_argument("--observables", action="store_true", help="also dump pair count, electric square, condensate")
    p.set_defaults(func=cmd_hamiltonian)

    p = sub.add_parser("evolve", help="run one evolution and write CSV + JSON sidecar")
    _add_dynamics_basis_args(p)
    p.add_argument("--method", choices=("rk4", "dilation", "exact"), default="rk4")
    _add_run_args(p, dt=0.005, stride=1)
    p.add_argument("-o", "--output", required=True, help="output CSV path")
    p.add_argument("--dump-unitaries", metavar="PREFIX", help="also dump the dilation cycle unitaries (JSON)")
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("gibbs", help="print thermal reference observable values")
    _add_dynamics_basis_args(p)
    p.add_argument("-o", "--output", help="optional output JSON path")
    p.set_defaults(func=cmd_gibbs)

    p = sub.add_parser("compare", help="run two methods on one setup and report deviations")
    _add_dynamics_basis_args(p)
    p.add_argument("--method-a", choices=("rk4", "dilation", "exact"), required=True)
    p.add_argument("--method-b", choices=("rk4", "dilation", "exact"), required=True)
    _add_run_args(p, dt=0.005, stride=1)
    p.add_argument("--max-dev", type=_finite_float, help="exit 1 if max observable deviation exceeds this")
    p.add_argument("--out-a", help="optional CSV dump of the first run")
    p.add_argument("--out-b", help="optional CSV dump of the second run")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("sweep", help="run one method across lattice sizes and summarize equilibria")
    p.add_argument("--sites", type=_int_list, default=[2, 4, 6, 8], help="comma-separated N list")
    _add_setup_args(p)
    p.add_argument("--method", choices=("rk4", "dilation", "exact"), default="rk4")
    _add_run_args(p, dt=0.01, stride=5)
    p.add_argument("--tail-frac", type=_finite_float, default=0.2, help="trailing fraction averaged as 'equilibrium'")
    p.add_argument("-o", "--output-dir", required=True)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as exc:
        parser.exit(2, f"{parser.prog}: error: {exc}\n")
    except (NumericalCheckError, RuntimeError, FloatingPointError, np.linalg.LinAlgError, ValueError) as exc:
        print(f"{parser.prog}: numerical check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
