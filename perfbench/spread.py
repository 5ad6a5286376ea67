"""Spread of the end-to-end metrics over seeded runs of unchanged code.

    python3 -m perfbench.spread --seeds 0-9 --out perfbench/baseline/<commit>-spread-a.json

Runs every workload untraced once per seed, each in a fresh interpreter, for
``run_seconds`` of ``BENCHMARK.json``.  For each workload and end-to-end
metric it reports the median over the runs and the spread: the distance
between the first and third quartile (``statistics.quantiles(values, n=4)``)
over the median.  A bound in ``BENCHMARK.json`` holds when the spread stays
below it and when the medians of two such sets differ by less than it; the
``--compare`` option prints that difference against an earlier file.  The
file holds every run's metrics.  The exit code is 1 if any run failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from .baseline import run_one
from .run import benchmark_spec


def parse_seeds(text: str) -> list[int]:
    """``0-9`` or ``0,3,5``."""
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarise(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "spread": (q3 - q1) / median}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m perfbench.spread", description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-9", help="a range like 0-9 or a list like 0,3,5")
    parser.add_argument("--out", required=True, help="output JSON path")
    parser.add_argument("--compare", help="an earlier output of this command")
    args = parser.parse_args(argv)

    spec = benchmark_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs, summary, ok = [], {}, True
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in parse_seeds(args.seeds):
            code, lines, _ = run_one(workload, seed, spec["run_seconds"], 0)
            final = json.loads(lines[-1]) if code == 0 and lines else None
            ok &= final is not None and final["correct"]
            metrics = {k: v["value"] for k, v in final["metrics"].items()} if final else {}
            runs.append({"workload": workload, "seed": seed, "exit": code, "metrics": metrics})
            print(f"{workload} seed {seed}: exit {code} "
                  + " ".join(f"{k} {v:.4f}" for k, v in metrics.items()), flush=True)
            for name in bounds:
                if name in metrics:
                    values[name].append(metrics[name])
        summary[workload] = {
            name: dict(summarise(v), bound=bounds[name]) for name, v in values.items() if len(v) >= 2
        }
        for name, s in summary[workload].items():
            print(f"  {workload} {name}: median {s['median']:.4f} spread {s['spread']:.4f} "
                  f"(bound {s['bound']}, a third {s['bound'] / 3:.4f})", flush=True)

    if args.compare:
        earlier = json.loads(Path(args.compare).read_text())["summary"]
        for workload, metrics in summary.items():
            for name, s in metrics.items():
                before = earlier.get(workload, {}).get(name)
                if before:
                    change = s["median"] / before["median"] - 1.0
                    s["median_change"] = change
                    print(f"  {workload} {name}: median {before['median']:.4f} -> {s['median']:.4f} "
                          f"({change:+.4f}, bound {s['bound']})", flush=True)

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"seconds": spec["run_seconds"], "seeds": args.seeds,
                               "compare": args.compare, "summary": summary, "runs": runs}, indent=1) + "\n")
    print(f"wrote {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
