"""Run every workload, untraced and traced, for the given seeds; save the results.

    python3 -m perfbench.baseline --seeds 0,1 --out perfbench/baseline/<commit>.json

Each run is ``python3 -m perfbench.run`` in a fresh interpreter, so peak RSS
and BLAS state do not carry over between workloads.  The metric lines of each
run are echoed; the file holds every run's ``result`` line.  The exit code is
1 if any run failed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from .run import ROOT

WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def run_one(workload: str, seed: int, seconds: float, trace: int) -> tuple[int, list[str], str]:
    """One benchmark run in a fresh interpreter: exit code, stdout lines, stderr."""
    cmd = [sys.executable, "-m", "perfbench.run", "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout.splitlines(), proc.stderr


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m perfbench.baseline", description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0,1", help="comma-separated seeds (default 0,1)")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--out", required=True, help="output JSON path")
    args = parser.parse_args(argv)

    runs, ok = [], True
    for seed in (int(s) for s in args.seeds.split(",")):
        for workload in WORKLOADS:
            for trace in (0, 1):
                code, lines, stderr = run_one(workload, seed, args.seconds, trace)
                print(f"== {workload} seed {seed} trace {trace}: exit {code}", flush=True)
                for line in lines:
                    if line.startswith(("metric ", "FAILED: ")):
                        print("  " + line, flush=True)
                result = next((ln[len("result "):] for ln in lines if ln.startswith("result ")), None)
                ok &= code == 0 and result is not None
                runs.append(json.loads(result) if result else {"workload": workload, "seed": seed,
                            "trace": trace, "exit": code, "stderr": stderr[-2000:]})
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"seconds": args.seconds, "runs": runs}, indent=1) + "\n")
    print(f"wrote {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
