"""The three benchmark workloads, their correctness gate and their layer metrics.

Every workload runs on the truncated sector at a = e = 1, m = 0.1, beta = 0.1
and D = 3.2, through the package's public API in the order the CLI uses:
sector, sector operators, Lindblad operator, Gibbs reference, engine, then
the CSV and its JSON sidecar.  One closed-loop client makes the calls back
to back.  The program receives only the initial state generated from the
seed: seed 0 is the projected bare vacuum, which lies in one conserved block
of the sector; any other seed draws a random real pure state, which spans
all blocks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from openschwinger import (
    BathParams,
    DensityMatrix,
    LatticeSpec,
    ModelParams,
    build_lindblad_operator,
    build_sector_operators,
    build_symmetry_sector,
    cli,
    dilation,
    dilation_evolve,
    exact_evolve,
    expectation,
    gibbs_reference,
    lattice,
    lindblad,
    lindblad_rhs,
    operators,
    rk4_evolve,
    steady_state,
)

from .spans import Tracer, self_times

PARAMS = ModelParams(a=1.0, e=1.0, m=0.1)
BETA, COUPLING = 0.1, 3.2

# The frozen thermal references of tests/test_acceptance.py (GIBBS_E2).
GIBBS_E2 = {
    2: 0.3564747014220561,
    4: 0.4157958947256944,
    6: 0.4324402475846839,
    8: 0.43769385838354147,
}
GIBBS_TOL = 1e-12
# Record invariants: the DensityMatrix.validate defaults.
TRACE_TOL, HERM_TOL, PSD_TOL = 1e-9, 1e-10, 1e-7
RK4_VS_EXACT_TOL = 1e-6
DILATION_VS_EXACT_TOL = 0.05
STEADY_RESIDUAL_TOL = 1e-8

# Public functions the package calls on a module attribute; a traced pass
# wraps them so their time is split out of the caller's.
INNER_CALLS = (
    (lattice, "enumerate_physical_configs", "lattice.enumerate"),
    (operators, "build_hamiltonian", "operators.config_h"),
    (operators, "project_operator", "operators.project"),
    (lindblad, "vectorized_liouvillian", "lindblad.liouvillian"),
    (dilation, "cycle_propagator", "dilation.propagator"),
    (dilation, "dilation_cycle", "dilation.cycle"),
)

ENGINE_ERRORS = (ValueError, RuntimeError, FloatingPointError, np.linalg.LinAlgError)


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------

class Gate:
    """Counts engine calls and correctness checks, and the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def record(self, rec, label: str) -> None:
        """The DensityMatrix.validate invariants on every row of a record."""
        trace_dev = float(np.max(np.abs(rec.trace - 1.0)))
        min_eig = float(np.min(rec.min_eig))
        self.check(trace_dev <= TRACE_TOL, f"{label}: |tr - 1| = {trace_dev:.3e} > {TRACE_TOL}")
        self.check(
            rec.max_hermiticity_error <= HERM_TOL,
            f"{label}: hermiticity error {rec.max_hermiticity_error:.3e} > {HERM_TOL}",
        )
        self.check(min_eig >= -PSD_TOL, f"{label}: min_eig {min_eig:.3e} < -{PSD_TOL}")

    def close(self, a, b, tol: float, label: str) -> None:
        """Observables of two records on the same time grid agree within tol."""
        if a is None or b is None:
            self.check(False, f"{label}: a record is missing")
            return
        n = min(len(a), len(b))
        if not self.check(np.allclose(a.times[:n], b.times[:n], atol=1e-9), f"{label}: grids differ"):
            return
        dev = max(
            float(np.max(np.abs(a.n_pairs[:n] - b.n_pairs[:n]))),
            float(np.max(np.abs(a.e2[:n] - b.e2[:n]))),
        )
        self.check(dev <= tol, f"{label}: max |dev| {dev:.3e} > {tol}")


# ---------------------------------------------------------------------------
# one pass over a workload
# ---------------------------------------------------------------------------

@dataclass
class Setup:
    n: int
    spec: LatticeSpec
    ops: object
    lop: np.ndarray
    bath: BathParams
    gibbs: dict

    @property
    def observables(self) -> dict:
        return {"pair_count": self.ops.pair_count, "electric_square": self.ops.electric_square}


@dataclass
class Pass:
    """State of one pass: spans, gate, generated inputs and output files."""

    tracer: Tracer
    gate: Gate
    out_dir: Path
    seed: int
    rng: np.random.Generator = field(init=False)
    bytes_written: int = 0
    sizes: dict = field(default_factory=dict)  # n -> array sizes, traced passes only
    rk4_runs: list = field(default_factory=list)  # (n, steps, records, dt)
    dilation_runs: list = field(default_factory=list)  # (n, cycles, t_max)
    kept: dict = field(default_factory=dict)  # n -> operators for the probes

    def __post_init__(self):
        self.rng = np.random.default_rng(self.seed)

    def setup(self, n: int) -> Setup:
        tr = self.tracer
        with tr.span("setup", n=n):
            spec = LatticeSpec(n, truncate_total_flux=True)
            with tr.layer("lattice.sector"):
                sector = build_symmetry_sector(spec)
            with tr.layer("operators.sector_ops"):
                ops = build_sector_operators(sector, PARAMS)
            bath = BathParams.from_beta(BETA, COUPLING)
            with tr.layer("lindblad.lop"):
                lop = build_lindblad_operator(ops.hamiltonian, ops.condensate, spec, PARAMS, bath)
            with tr.layer("lindblad.gibbs"):
                gibbs = gibbs_reference(ops.hamiltonian, bath.beta, ops.pair_count, ops.electric_square)
        with tr.span("bench"):
            if n in GIBBS_E2:
                dev = abs(gibbs["e2"] - GIBBS_E2[n])
                self.gate.check(dev <= GIBBS_TOL, f"N={n}: Gibbs E2 off the frozen value by {dev:.3e}")
            if tr.layers:
                h = ops.hamiltonian.matrix
                self.sizes[n] = {
                    "n_configs": sector.n_configs,
                    "dim": ops.dim,
                    "h_nnz": int(np.count_nonzero(h)),
                    "lop_nnz": int(np.count_nonzero(lop)),
                    "g_nnz": int(np.count_nonzero(lop.T @ lop)),
                }
            self.kept[n] = (ops.hamiltonian.matrix, lop, ops.pair_count.matrix, ops.electric_square.matrix)
        return Setup(n, spec, ops, lop, bath, gibbs)

    def initial_state(self, dim: int) -> DensityMatrix:
        with self.tracer.span("bench"):
            if self.seed == 0:
                return DensityMatrix.pure_state(dim, 0)
            psi = self.rng.standard_normal(dim)
            psi /= np.linalg.norm(psi)
            return DensityMatrix(np.outer(psi, psi))

    def engine(self, name: str, n: int, fn, *args, **kwargs):
        """One engine call, timed as evolve; a raised numerical error counts as failed."""
        self.gate.attempted += 1
        with self.tracer.span("evolve"), self.tracer.layer(name, n=n):
            try:
                return fn(*args, **kwargs)
            except ENGINE_ERRORS as exc:
                self.gate.failures.append(f"{name} N={n} raised {type(exc).__name__}: {exc}")
                return None

    def write(self, stem: str, record, config: dict, gibbs: dict, elapsed: float) -> None:
        """The CSV and JSON sidecar of one record, written by the CLI's own writer."""
        if record is None:
            return
        csv = self.out_dir / f"{stem}.csv"
        with self.tracer.span("write"):
            cli._write_outputs(csv, record, config, gibbs, elapsed)
        with self.tracer.span("bench"):
            self.bytes_written += csv.stat().st_size + cli._sidecar_path(csv).stat().st_size

    @property
    def liouvillian_sizes(self) -> set[int]:
        """The sizes whose engine calls build the vectorized Liouvillian."""
        return {
            s.attrs["n"] for s in self.tracer.spans
            if s.name in ("lindblad.exact_evolve", "lindblad.steady_state")
        }

    def last_engine_seconds(self) -> float:
        return next(s.duration for s in reversed(self.tracer.spans) if s.name == "evolve")


def _config(s: Setup, method: str, **run_args) -> dict:
    """The sidecar config the CLI writes, made by its own ``_config_dict``.

    ``run_args`` are the CLI options of the method: ``t_max`` and ``dt``,
    ``stride`` for rk4, ``n_cycles`` for dilation.
    """
    args = SimpleNamespace(a=PARAMS.a, e=PARAMS.e, m=PARAMS.m, **run_args)
    return cli._config_dict(args, method, s.spec, s.bath)


@dataclass(frozen=True)
class Rk4Workload:
    """RK4 from the seeded state at each size, outputs written for each."""

    sizes: tuple[int, ...]
    t_max: float
    dt: float
    stride: int

    @property
    def setup_sizes(self) -> tuple[int, ...]:
        return self.sizes

    def run(self, p: Pass) -> None:
        for n in self.sizes:
            s = p.setup(n)
            rho0 = p.initial_state(s.ops.dim)
            rec = p.engine(
                "lindblad.rk4", n, rk4_evolve, rho0, s.ops.hamiltonian, s.lop,
                self.t_max, self.dt, stride=self.stride, **s.observables,
            )
            elapsed = p.last_engine_seconds()
            if rec is not None:
                p.rk4_runs.append((n, int(round(self.t_max / self.dt)), len(rec), self.dt))
                with p.tracer.span("bench"):
                    p.gate.record(rec, f"rk4 N={n}")
            cfg = _config(s, "rk4", t_max=self.t_max, dt=self.dt, stride=self.stride)
            p.write(f"rk4_N{n}", rec, cfg, s.gibbs, elapsed)
            del s, rec


@dataclass(frozen=True)
class OracleWorkload:
    """Vectorized Liouvillian, steady state and dilation circuit, cross-checked."""

    n: int
    grid_dt: float
    t_max: float
    cycles: int
    scan_times: tuple[float, ...]
    scan_cycles: int
    rk4_t_max: float
    rk4_dt: float
    n_dilation_only: int

    @property
    def setup_sizes(self) -> tuple[int, ...]:
        return (self.n, self.n_dilation_only)

    def run(self, p: Pass) -> None:
        s = p.setup(self.n)
        obs = s.observables
        h, lop = s.ops.hamiltonian, s.lop
        rho0 = p.initial_state(s.ops.dim)
        n = self.n

        times = np.arange(int(round(self.t_max / self.grid_dt)) + 1) * self.grid_dt
        exact = p.engine("lindblad.exact_evolve", n, exact_evolve, rho0, h, lop, times, **obs)
        p.write(f"exact_N{n}", exact, _config(s, "exact", t_max=self.t_max, dt=self.grid_dt),
                s.gibbs, p.last_engine_seconds())

        ss = p.engine("lindblad.steady_state", n, steady_state, h, lop)
        with p.tracer.span("bench"):
            if ss is not None:
                self._check_steady(p, ss, h, lop)

        dil = self._dilation(p, s, rho0, self.t_max, self.cycles, f"dilation_N{n}")
        for t in self.scan_times:
            self._dilation(p, s, rho0, t, self.scan_cycles, f"scan_N{n}_t{t:g}")

        stride = int(round(self.grid_dt / self.rk4_dt))
        rk = p.engine(
            "lindblad.rk4", n, rk4_evolve, rho0, h, lop, self.rk4_t_max, self.rk4_dt,
            stride=stride, **obs,
        )
        elapsed = p.last_engine_seconds()
        if rk is not None:
            p.rk4_runs.append((n, int(round(self.rk4_t_max / self.rk4_dt)), len(rk), self.rk4_dt))
        with p.tracer.span("bench"):
            if rk is not None:
                p.gate.record(rk, f"rk4 N={n}")
            if exact is not None:
                p.gate.record(exact, f"exact N={n}")
            p.gate.close(rk, exact, RK4_VS_EXACT_TOL, f"rk4 vs exact N={n}")
            p.gate.close(dil, exact, DILATION_VS_EXACT_TOL, f"{self.cycles} cycles vs exact N={n}")
        cfg = _config(s, "rk4", t_max=self.rk4_t_max, dt=self.rk4_dt, stride=stride)
        p.write(f"rk4_N{n}", rk, cfg, s.gibbs, elapsed)
        del s, exact, ss, dil, rk

        s = p.setup(self.n_dilation_only)
        self._dilation(p, s, p.initial_state(s.ops.dim), self.t_max, self.cycles,
                       f"dilation_N{s.n}")

    def _dilation(self, p: Pass, s: Setup, rho0, t_max: float, cycles: int, stem: str):
        rec = p.engine(
            "dilation.evolve", s.n, dilation_evolve, rho0, s.ops.hamiltonian, s.lop,
            t_max, cycles, **s.observables,
        )
        elapsed = p.last_engine_seconds()
        if rec is not None:
            p.dilation_runs.append((s.n, cycles, t_max))
            with p.tracer.span("bench"):
                p.gate.record(rec, f"dilation N={s.n} t={t_max:g} cycles={cycles}")
        p.write(stem, rec, _config(s, "dilation", t_max=t_max, n_cycles=cycles), s.gibbs, elapsed)
        return rec

    @staticmethod
    def _check_steady(p: Pass, ss: DensityMatrix, h, lop) -> None:
        """Trace one, Hermitian, PSD and a fixed point of the generator.

        Not compared with the Gibbs state: the kernel is degenerate at N >= 4,
        so the returned fixed point is an arbitrary mixture of block states.
        """
        try:
            ss.validate(trace_tol=TRACE_TOL, herm_tol=HERM_TOL, psd_tol=PSD_TOL)
            problem = None
        except ValueError as exc:
            problem = str(exc)
        p.gate.check(problem is None, f"steady state: {problem}")
        residual = float(np.max(np.abs(lindblad_rhs(ss.matrix, h, lop))))
        p.gate.check(
            residual <= STEADY_RESIDUAL_TOL,
            f"steady state: Liouvillian residual {residual:.3e} > {STEADY_RESIDUAL_TOL}",
        )


WORKLOADS = {
    "rk4-n8": Rk4Workload(sizes=(8,), t_max=0.2, dt=0.01, stride=5),
    "rk4-small": Rk4Workload(sizes=(2, 4, 5, 6), t_max=10.0, dt=0.005, stride=1),
    "oracle-circuit": OracleWorkload(
        n=5, grid_dt=0.05, t_max=10.0, cycles=200,
        scan_times=tuple(0.5 * k for k in range(1, 21)), scan_cycles=4,
        rk4_t_max=2.0, rk4_dt=0.005, n_dilation_only=6,
    ),
}

# The same code paths at sizes that run in well under a second, for the tests.
TINY_WORKLOADS = {
    "rk4-n8": Rk4Workload(sizes=(3,), t_max=0.04, dt=0.01, stride=2),
    "rk4-small": Rk4Workload(sizes=(2, 3), t_max=0.1, dt=0.005, stride=1),
    "oracle-circuit": OracleWorkload(
        n=2, grid_dt=0.05, t_max=0.5, cycles=10, scan_times=(0.5, 1.0), scan_cycles=4,
        rk4_t_max=0.2, rk4_dt=0.005, n_dilation_only=3,
    ),
}


def run_pass(workload, seed: int, traced: bool, out_dir: Path) -> Pass:
    tracer = Tracer(layers=traced)
    p = Pass(tracer, Gate(), out_dir, seed)
    with tracer.patched(INNER_CALLS), tracer.span("pass"):
        workload.run(p)
    return p


def setup_round(workload, seed: int, out_dir: Path) -> Pass:
    """Only the setup of every size of the workload, as in a pass."""
    p = Pass(Tracer(layers=False), Gate(), out_dir, seed)
    for n in workload.setup_sizes:
        p.setup(n)
    p.kept.clear()
    return p


# ---------------------------------------------------------------------------
# metrics of one pass
# ---------------------------------------------------------------------------

def pass_metrics(p: Pass) -> dict:
    """End-to-end times of a pass; the benchmark's own work is left out of wall_s."""
    tr = p.tracer
    return {
        "setup_s": tr.total("setup"),
        "evolve_s": tr.total("evolve"),
        "write_s": tr.total("write"),
        "wall_s": tr.total("pass") - tr.total("bench"),
    }


def layer_raw(p: Pass) -> dict:
    """Self times and counts of one traced pass, before the probes are folded in."""
    tr = p.tracer
    selfs = self_times(tr.spans)
    raw: dict[str, float] = {}

    def add(key, value):
        raw[key] = raw.get(key, 0.0) + value

    for i, (span, own) in enumerate(zip(tr.spans, selfs)):
        if span.name in ("pass", "setup", "evolve", "write", "bench"):
            continue
        add(span.name + "_s", own)
        n = tr.enclosing_n(i)
        if span.name == "lindblad.rk4":
            add(f"lindblad.rk4_s.n{n}", span.duration)
        elif span.name == "dilation.evolve":
            add(f"dilation.evolve_s.n{n}", span.duration)
        elif span.name == "dilation.propagator":
            add(f"dilation.propagator_s.n{n}", span.duration)

    # Coverage: the share of each phase that the layer spans inside it explain.
    for phase in ("setup", "evolve"):
        inside = [i for i, s in enumerate(tr.spans) if s.name == phase]
        total = sum(tr.spans[i].duration for i in inside)
        glue = sum(selfs[i] for i in inside)
        raw[f"trace.{phase}_coverage"] = (total - glue) / total if total else 1.0

    raw["cli.write_s"] = tr.total("write")
    raw["cli.bytes_written"] = float(p.bytes_written)
    return raw


# ---------------------------------------------------------------------------
# probes of the engine layer: record cost, and step cost at one BLAS thread
# ---------------------------------------------------------------------------

def record_ms(dim: int, pair_count, electric_square, min_seconds: float = 0.2) -> float:
    """Median time of the diagnostics every record computes, via the public API.

    The public DensityMatrix diagnostics and expectation values on a complex
    state of the recorded size: trace, purity, Hermiticity error, minimum
    eigenvalue, pair count and E^2.
    """
    rho = DensityMatrix(DensityMatrix.pure_state(dim, 0).matrix.astype(complex))
    samples = []
    start = time.perf_counter()
    while len(samples) < 3 or (time.perf_counter() - start < min_seconds and len(samples) < 200):
        t0 = time.perf_counter()
        rho.trace, rho.purity, rho.hermiticity_error, rho.min_eigenvalue
        expectation(rho, pair_count), expectation(rho, electric_square)
        samples.append(time.perf_counter() - t0)
    return float(np.median(samples)) * 1e3


def record_probe(p: Pass) -> dict:
    """``record_ms`` at each RK4 size of the pass, at the default thread count."""
    return {
        f"lindblad.record_ms.n{n}": record_ms(p.kept[n][0].shape[0], p.kept[n][2], p.kept[n][3])
        for n, _, _, _ in p.rk4_runs
    }


def engine_probe(kept: dict, rk4_plan: list, dilation_plan: list) -> dict:
    """Time RK4 steps and dilation cycles on the given operators.

    ``rk4_plan`` holds (n, steps, dt): the run records only its two end
    points, and the measured record time is taken off.  ``dilation_plan``
    holds (n, cycles, t_max), run as the workload runs them.
    """
    out = {}
    for n, steps, dt in rk4_plan:
        h, lop, pairs, e2 = kept[n]
        rec_ms = record_ms(h.shape[0], pairs, e2)
        rho0 = DensityMatrix.pure_state(h.shape[0], 0)
        t0 = time.perf_counter()
        rk4_evolve(rho0, h, lop, steps * dt, dt, pair_count=pairs, electric_square=e2, stride=steps)
        seconds = time.perf_counter() - t0
        out[f"lindblad.record_ms.n{n}"] = rec_ms
        out[f"lindblad.rk4_step_ms.n{n}"] = (seconds * 1e3 - 2 * rec_ms) / steps
        out[f"lindblad.rk4_probe_steps.n{n}"] = steps
    if dilation_plan:
        tracer = Tracer(layers=True)
        cycles = 0
        with tracer.patched(INNER_CALLS):
            for n, n_cycles, t_max in dilation_plan:
                h, lop, pairs, e2 = kept[n]
                rho0 = DensityMatrix.pure_state(h.shape[0], 0)
                with tracer.span("dilation.evolve"):
                    dilation_evolve(rho0, h, lop, t_max, n_cycles, pair_count=pairs, electric_square=e2)
                cycles += n_cycles
        loop = tracer.total("dilation.evolve") - tracer.total("dilation.propagator")
        out["dilation.ms_per_cycle"] = loop / cycles * 1e3
    return out


def layer_metrics(raw: dict, p: Pass, probe: dict, probe_1t: dict) -> dict:
    """Per-layer metrics from the median raw values of the traced passes.

    ``p`` is a traced pass of the run (sizes and run plans are the same in
    every pass); ``probe`` is ``record_probe(p)`` and ``probe_1t`` the
    ``engine_probe`` result at one BLAS thread.
    """
    sizes = p.sizes
    m = {
        "lattice.enumerate_s": raw.get("lattice.enumerate_s", 0.0),
        "lattice.sector_s": raw.get("lattice.sector_s", 0.0),
        "lattice.n_configs": float(sum(s["n_configs"] for s in sizes.values())),
        "lattice.sector_dim": float(sum(s["dim"] for s in sizes.values())),
        "operators.config_h_s": raw.get("operators.config_h_s", 0.0),
        "operators.project_s": raw.get("operators.project_s", 0.0),
        "operators.sector_ops_s": raw.get("operators.sector_ops_s", 0.0),
        "operators.config_h_mb": max(s["n_configs"] ** 2 * 8 for s in sizes.values()) / 2**20,
        "operators.useful_frac": sum(s["dim"] for s in sizes.values())
        / sum(s["n_configs"] for s in sizes.values()),
        "operators.h_nnz_row": sum(s["h_nnz"] for s in sizes.values())
        / sum(s["dim"] for s in sizes.values()),
        "lindblad.lop_s": raw.get("lindblad.lop_s", 0.0),
        "lindblad.lop_nnz_row": sum(s["lop_nnz"] for s in sizes.values())
        / sum(s["dim"] for s in sizes.values()),
        "lindblad.gibbs_s": raw.get("lindblad.gibbs_s", 0.0),
    }

    # RK4: step time is the engine span less the records at the probed cost.
    steps_total = records_total = 0
    step_time = record_time = step_time_1t = flops = sparse_flops = 0.0
    for n, steps, records, _ in p.rk4_runs:
        dim = sizes[n]["dim"]
        rec_ms = probe[f"lindblad.record_ms.n{n}"]
        step_ms = (raw[f"lindblad.rk4_s.n{n}"] * 1e3 - records * rec_ms) / steps
        m[f"lindblad.rk4_step_ms.n{n}"] = step_ms
        m[f"lindblad.record_ms.n{n}"] = rec_ms
        m[f"lindblad.rk4_step_ms.n{n}.1t"] = probe_1t[f"lindblad.rk4_step_ms.n{n}"]
        m[f"lindblad.record_ms.n{n}.1t"] = probe_1t[f"lindblad.record_ms.n{n}"]
        # 4 right-hand sides of 8 GEMMs: H x, H y, G x, G y, and L x L^T, L y L^T
        dense = 4 * 8 * 2 * dim**3
        sparse = 4 * 2 * dim * (2 * sizes[n]["h_nnz"] + 2 * sizes[n]["g_nnz"] + 4 * sizes[n]["lop_nnz"])
        m[f"lindblad.rk4_gflop.n{n}"] = dense / 1e9
        m[f"lindblad.dense_useful_frac.n{n}"] = sparse / dense
        steps_total += steps
        records_total += records
        step_time += steps * step_ms
        record_time += records * rec_ms
        step_time_1t += steps * m[f"lindblad.rk4_step_ms.n{n}.1t"]
        flops += steps * dense
        sparse_flops += steps * sparse
    m["lindblad.rk4_step_ms"] = step_time / steps_total
    m["lindblad.rk4_step_ms.1t"] = step_time_1t / steps_total
    m["lindblad.record_ms"] = record_time / records_total
    m["lindblad.rk4_steps"] = float(steps_total)
    m["lindblad.records"] = float(records_total)
    m["lindblad.rk4_gflop"] = flops / 1e9
    m["lindblad.dense_useful_frac"] = sparse_flops / flops

    if "lindblad.exact_evolve_s" in raw or "lindblad.steady_state_s" in raw:
        m["lindblad.liouvillian_s"] = raw.get("lindblad.liouvillian_s", 0.0)
        m["lindblad.liouvillian_mb"] = max(sizes[n]["dim"] ** 4 * 16 for n in p.liouvillian_sizes) / 2**20
        m["lindblad.exact_evolve_s"] = raw.get("lindblad.exact_evolve_s", 0.0)
        m["lindblad.steady_state_s"] = raw.get("lindblad.steady_state_s", 0.0)

    if p.dilation_runs:
        cycles = sum(c for _, c, _ in p.dilation_runs)
        # the evolve span's self time plus its cycles: everything but the propagator
        loop = raw.get("dilation.evolve_s", 0.0) + raw.get("dilation.cycle_s", 0.0)
        m["dilation.propagator_s"] = raw.get("dilation.propagator_s", 0.0)
        m["dilation.cycle_ms"] = raw.get("dilation.cycle_s", 0.0) / cycles * 1e3
        m["dilation.ms_per_cycle"] = loop / cycles * 1e3
        m["dilation.cycles"] = float(cycles)
        m["dilation.useful_frac"] = m["dilation.cycle_ms"] / m["dilation.ms_per_cycle"]
        m["dilation.ms_per_cycle.1t"] = probe_1t["dilation.ms_per_cycle"]
        for n in sorted({n for n, _, _ in p.dilation_runs}):
            n_cycles = sum(c for k, c, _ in p.dilation_runs if k == n)
            loop_n = raw[f"dilation.evolve_s.n{n}"] - raw.get(f"dilation.propagator_s.n{n}", 0.0)
            m[f"dilation.ms_per_cycle.n{n}"] = loop_n / n_cycles * 1e3

    m["cli.write_s"] = raw["cli.write_s"]
    m["cli.bytes_written"] = raw["cli.bytes_written"]
    m["trace.setup_coverage"] = raw["trace.setup_coverage"]
    m["trace.evolve_coverage"] = raw["trace.evolve_coverage"]
    return m
