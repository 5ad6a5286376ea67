"""Benchmark command: one workload, one seed, timed end to end or per layer.

    python3 -m perfbench.run --workload rk4-n8 --seed 0 --seconds 20 --trace 0

Run from the repository root.  The package is imported from ``src/`` of the
same checkout; nothing is installed.  The command repeats whole passes over
the workload until ``--seconds`` have passed (at least two passes) and reports
medians over them.  With ``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics, the tracing overhead and, from a child process started
with ``OPENBLAS_NUM_THREADS=1``, the engine timings at one BLAS thread.  Every
pass runs the correctness gate outside its timed regions.  The last line of
standard output is one JSON object holding the metrics ``BENCHMARK.json``
names; the lines before it print every metric by name and unit, the
environment and a ``result`` line with everything measured.  The exit code is
0 when every engine call and check passed, 1 when one failed and 2 when the
package cannot be loaded from this checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MIN_PASSES = 2
# setup_s is the median over the passes' own setups plus setup-only rounds.
# After each untraced pass, rounds run while they fit in this share of the
# pass's wall time, so the setups sample the whole run, not one stretch of it.
SETUP_EXTRA_SHARE = 0.4
# seconds of RK4 per size in the single-thread probe (at least two steps)
ONE_THREAD_BUDGET_S = 2.0


def load_package() -> str | None:
    """Import openschwinger from this checkout's ``src/``; the problem, if any."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import openschwinger
    except ImportError as exc:
        return f"cannot import openschwinger from {src}: {exc}"
    where = Path(openschwinger.__file__).resolve().parents[1]
    if where != src:
        return f"openschwinger was imported from {where}, not from {src}"
    return None


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def unit_of(name: str) -> str:
    """Unit of a metric, from its name (size and thread suffixes dropped)."""
    base = re.sub(r"(\.n\d+|\.1t)+$", "", name)
    if base.rsplit(".", 1)[-1].startswith("ms_per_"):
        return "ms"
    for suffix, unit in (
        ("_ms", "ms"), ("_s", "s"), ("_mb", "MB"), ("_frac", "frac"), ("_coverage", "frac"),
        ("_gflop", "GFLOP"), ("_nnz_row", "nnz/row"), ("bytes_written", "B"),
    ):
        if base.endswith(suffix):
            return unit
    return "count"


def _median(values):
    return statistics.median(values) if values else float("nan")


def one_thread_probe(p, raw: dict, out_dir: Path) -> dict:
    """Engine timings of the last traced pass's operators at one BLAS thread."""
    import numpy as np

    plan_rk4 = []
    for n, steps, _, dt in p.rk4_runs:
        step_estimate = raw[f"lindblad.rk4_s.n{n}"] / steps
        plan_rk4.append((n, int(min(steps, max(2, math.ceil(ONE_THREAD_BUDGET_S / step_estimate)))), dt))
    sizes = {n for n, _, _ in plan_rk4} | {n for n, _, _ in p.dilation_runs}
    arrays = {
        f"{key}{n}": arr
        for n in sizes
        for key, arr in zip(("h", "lop", "pairs", "e2"), p.kept[n])
    }
    path = out_dir / "one_thread.npz"
    plan = json.dumps({"rk4": plan_rk4, "dilation": p.dilation_runs, "sizes": sorted(sizes)})
    np.savez(path, plan=plan, **arrays)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "perfbench.one_thread", str(path)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=150,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"one-thread probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(wl, workload, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    passes, raws, setups = [], [], []
    attempted = 0
    failures: list[str] = []
    last_traced = None
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        traced = trace and len(passes) % 2 == 1
        p = wl.run_pass(workload, seed, traced, out_dir)
        m = dict(wl.pass_metrics(p), traced=traced)
        passes.append(m)
        attempted += p.gate.attempted
        failures += p.gate.failures
        print(
            f"pass {len(passes)} ({'traced' if traced else 'untraced'}): "
            + ", ".join(f"{k} {v:.4f}" for k, v in m.items() if k != "traced")
            + f", failed {p.gate.failed}/{p.gate.attempted}",
            flush=True,
        )
        if traced:
            raws.append(wl.layer_raw(p))
            last_traced = p
        else:
            setups.append(m["setup_s"])
        del p
        spent = 0.0
        while not trace and spent + setups[-1] <= SETUP_EXTRA_SHARE * m["wall_s"]:
            p = wl.setup_round(workload, seed, out_dir)
            setups.append(p.tracer.total("setup"))
            spent += setups[-1]
            attempted += p.gate.attempted
            failures += p.gate.failures
            del p

    untraced = [m for m in passes if not m["traced"]]
    if len(setups) > len(untraced):
        print(f"setup rounds: {len(setups) - len(untraced)}, setup_s over all "
              f"{len(setups)}: min {min(setups):.4f} median {_median(setups):.4f} max {max(setups):.4f}",
              flush=True)

    metrics = {key: _median([m[key] for m in untraced]) for key in ("evolve_s", "wall_s", "write_s")}
    metrics["setup_s"] = _median(setups)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics["failed_frac"] = len(failures) / attempted if attempted else 0.0

    details = {}
    if trace and not failures:  # a failed call leaves the layer figures incomplete
        raw = {key: _median([r[key] for r in raws]) for key in raws[0]}
        probe = wl.record_probe(last_traced)
        probe_1t = one_thread_probe(last_traced, raw, out_dir)
        metrics.update(wl.layer_metrics(raw, last_traced, probe, probe_1t))
        traced_wall = _median([m["wall_s"] for m in passes if m["traced"]])
        metrics["trace.overhead_frac"] = traced_wall / metrics["wall_s"] - 1.0
        details = {"raw": raw, "record_probe": probe, "one_thread": probe_1t}
    return {
        "passes": passes,
        "setups": setups,
        "attempted": attempted,
        "failures": failures,
        "metrics": metrics,
        "details": details,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="python3 -m perfbench.run", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="rk4-n8, rk4-small or oracle-circuit")
    parser.add_argument("--seed", type=int, default=0, help="0: bare vacuum; other: random pure state")
    parser.add_argument("--seconds", type=float, default=20.0, help="measure at least this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer run")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return parser, args


def main(argv=None, workloads: dict | None = None) -> int:
    """Run one workload; ``workloads`` replaces the workload table (tests use tiny sizes)."""
    parser, args = parse_args(argv)
    problem = load_package()
    if problem is None and not (ROOT / "BENCHMARK.json").is_file():
        problem = f"no BENCHMARK.json in {ROOT}"
    if problem is not None:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2

    from . import workloads as wl
    from .environment import environment

    table = workloads if workloads is not None else wl.WORKLOADS
    if args.workload not in table:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(table)}")
    spec = benchmark_spec()
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]

    env = environment(ROOT)
    print(f"perfbench {args.workload} seed {args.seed} trace {args.trace} seconds {args.seconds:g}")
    print("env " + json.dumps(env), flush=True)
    # the output files go to a directory of this run's own inside the checkout
    with tempfile.TemporaryDirectory(prefix=".perfbench_out-", dir=ROOT) as out_dir:
        res = measure(wl, table[args.workload], args.seed, args.seconds, bool(args.trace), Path(out_dir))

    metrics = res["metrics"]
    for failure in res["failures"]:
        print(f"FAILED: {failure}")
    for name, value in metrics.items():
        print(f"metric {name} {value:.6g} {unit_of(name)}")
    print("result " + json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                                  "env": env, **res}))
    failed = len(res["failures"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": res["attempted"],
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics.get(m["name"], float("nan")), "unit": m["unit"]} for m in listed
        },
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
