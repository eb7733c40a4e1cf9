"""Run-to-run spread of the end-to-end metrics, over several seeds.

    python3 perfbench/spread.py --workloads oracle presentation arith --seeds 10
    python3 perfbench/spread.py --workloads arith --seeds 5 --out spread.json

Runs ``run.py`` once per (workload, seed), one run at a time, and prints for
each metric the median, the quartiles (``statistics.quantiles(n=4)``) and
their distance as a share of the median, next to the metric's bound in
BENCHMARK.json.  A benchmark is steady when every spread except that of
``setup_s`` is below its bound, with a third of the bound as the target.
``--out`` writes every value and the medians as JSON, together with one
traced run per workload (on the first seed): its per-layer metrics and its
exact ``report.checks``, which ``run.py`` compares later traced runs with.

    python3 perfbench/spread.py --seeds 10 --out perfbench/baseline.json
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=["oracle", "presentation", "arith"])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seeds = range(args.first_seed, args.first_seed + args.seeds)

    def run(workload, seed, trace):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        result = json.loads(done.stdout.splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"{workload} seed {seed}: incorrect result\n{done.stdout}")
        return result

    results = {}
    steady = True
    for workload in args.workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in seeds:
            result = run(workload, seed, 0)
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + ", ".join(f"{k} {v[-1]:.4f}" for k, v in values.items()),
                  flush=True)
        results[workload] = {}
        for m in spec["end_to_end"]:
            name, got = m["name"], values[m["name"]]
            median = statistics.median(got)
            q1, _, q3 = statistics.quantiles(got, n=4)
            share = (q3 - q1) / median
            if name != "setup_s" and share >= m["bound"]:
                steady = False
            print(f"  {workload} {name}: median {median:.4f} {m['unit']}, quartiles {q1:.4f}..{q3:.4f}, "
                  f"spread {share:.3f} (bound {m['bound']}, target < {m['bound'] / 3:.3f})")
            results[workload][name] = {"median": median, "q1": q1, "q3": q3, "spread": share,
                                       "values": got}
        if args.out:
            layers = {k: v["value"] for k, v in run(workload, seeds[0], 1)["metrics"].items()}
            results[workload]["report.checks"] = layers["report.checks"]
            results[workload]["per_layer"] = layers
    if args.out:
        host = {"python": platform.python_version(), "nproc": os.cpu_count()}
        args.out.write_text(json.dumps({"host": host, "run_seconds": spec["run_seconds"],
                                        "seeds": list(seeds), "workloads": results}, indent=2) + "\n")
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
