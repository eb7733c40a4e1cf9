"""The dpalg benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload oracle --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all    # every metric of every workload

A closed loop with one caller: passes run one after another, each in its own
fresh interpreter (``one_pass.py``), the way every ``dpalg oracle-omega``
invocation pays for its own start-up.  Passes start until ``--seconds`` have
gone by, and at least ``MIN_PASSES`` run.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json as medians over
the passes.  ``--trace 1`` alternates untraced and traced passes and reports
the per-layer metrics as medians over the traced passes; tracing overhead is
the traced over the untraced median verdict time.  A traced run fails its
correctness gate when a counter that must fire on the workload reads zero, or
when two traced passes disagree on an exact count.

Human-readable lines go first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("oracle", "presentation", "arith")
MIN_PASSES = 3  # per kind of pass (untraced, traced)
DEADLINE_S = 170  # a pass still running this long after the run began is killed

# Counters that must read nonzero in a traced run of the workload; a zero
# means a wrapper was bypassed or the workload stopped exercising the layer.
MUST_FIRE = {
    "oracle": (
        "linalg.solve_in_lattice.calls", "linalg.hermite_form.cells",
        "linalg.smith_diagonal.cells", "linalg.kernel_basis_mod.calls",
        "linalg.cokernel_factors.calls", "linalg.max_entry_bits",
        "oracle.fold_kernel.calls", "oracle.OmegaOracle.calls",
        "oracle.to_kernel_coords.calls", "oracle.class_is_zero.calls",
        "oracle.verify_main_theorem.calls", "oracle.verify_indecomposables.calls",
        "dpcore.mul.calls", "dpcore.divided_power.calls", "dpcore.dp_map_apply.calls",
        "dpcore.coordinates.calls", "dpcore.basis_of_weight.calls",
        "kahler.universal_derivation.calls", "kahler.omega_coordinates.calls",
        "report.checks", "report.laws", "cli.run.calls",
    ),
    "presentation": (
        "linalg.hermite_form.cells", "linalg.smith_diagonal.cells",
        "linalg.cokernel_factors.calls", "linalg.max_entry_bits",
        "kahler.presentation_relations.calls", "dpcore.mul.calls",
        "dpcore.divided_power.calls", "dpcore.basis_of_weight.calls",
    ),
    "arith": (
        "beck.act.calls", "beck.phi_p.calls", "beck.phi_n.calls",
        "beck.semidirect_gamma.calls", "beck.table_density",
        "kahler.universal_derivation.calls", "kahler.omega_coordinates.calls",
        "kahler.omega_as_umodule.calls", "kahler.is_dp_derivation.calls",
        "dpcore.mul.calls", "dpcore.divided_power.calls",
        "report.checks", "report.laws",
        "suites.suite_axioms.calls", "suites.suite_beck.calls",
    ),
}

# Exact counts: equal on every traced pass of the same code and seed.
EXACT_SUFFIXES = (".calls", ".cells", ".max_rows", ".max_cols", ".none",
                  "max_entry_bits", "report.checks", "report.laws")


def run_pass(workload, seed, trace, started):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"  # identical hashing, so identical work, in every pass
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # import from cached bytecode, as once installed
    command = [sys.executable, str(HERE / "one_pass.py"),
               "--workload", workload, "--seed", str(seed), "--trace", str(trace)]
    try:
        done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, DEADLINE_S - (perf_counter() - started)))
    except subprocess.TimeoutExpired:
        sys.exit(f"{workload}: a pass ran past the {DEADLINE_S} s deadline")
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        sys.exit(f"{workload}: a pass exited with code {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def summary(values):
    """Median, plus the highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    text = f"median {statistics.median(ordered):.4f}"
    if n >= 11:
        text += f", p{100 * (n - 10) // n} {ordered[n - 11]:.4f}"
    else:
        text += ", no percentile has ten samples beyond it"
    return text + f" (n={n})"


def measure(workload, seed, seconds, trace, spec):
    """Run one workload; return (correct, attempted, failed, metrics)."""
    started = perf_counter()
    plain, traced = [], []
    while perf_counter() - started < seconds or len(plain) < MIN_PASSES or (
        trace and len(traced) < MIN_PASSES
    ):
        want_trace = trace and len(traced) < len(plain)
        (traced if want_trace else plain).append(run_pass(workload, seed, int(want_trace), started))
    elapsed = perf_counter() - started

    ops = [op for p in plain + traced for op in p["ops"]]
    failures = sorted({name for name, ok in ops if not ok})
    for name in failures:
        print(f"  FAILED: {name}")
    attempted, failed = len(ops), sum(1 for _, ok in ops if not ok)
    correct = not failed
    print(f"{workload}: {len(plain)} untraced and {len(traced)} traced passes in {elapsed:.1f} s, "
          f"one at a time, seed {seed}")
    print(f"  failed_share {failed / attempted:.4f} share ({failed} of {attempted} operations)")

    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    metrics = {}
    for name, unit in units.items():
        values = [p[name] for p in plain]
        print(f"  {name} [{unit}] {summary(values)}")
        metrics[name] = {"value": statistics.median(values), "unit": unit}
    for name in ("wall_verdict_s", "wall_setup_s", "ref_s"):
        print(f"  {name} [s] {summary([p[name] for p in plain])}")
    if not trace:
        return correct, attempted, failed, metrics

    layers = [p["trace"] for p in traced]
    for name in MUST_FIRE[workload]:
        if not layers[0].get(name):
            print(f"  TRACE: {name} reads zero on {workload}")
            correct = False
    exact = {k for layer in layers for k in layer if k.endswith(EXACT_SUFFIXES)}
    for name in sorted(exact):
        seen = {layer.get(name, 0) for layer in layers}
        if len(seen) > 1:
            print(f"  TRACE: {name} differs between traced passes: {sorted(seen)}")
            correct = False
    overhead = (statistics.median(p["verdict_s"] for p in traced)
                / statistics.median(p["verdict_s"] for p in plain))
    print(f"  trace.overhead {overhead:.3f} ratio (traced over untraced verdict_s)")
    checks = layers[0].get("report.checks", 0)
    recorded = _recorded_checks(workload)
    note = "no recorded baseline" if recorded is None else (
        f"seed baseline {recorded:.0f}" + (f", DROP of {recorded - checks:.0f}" if checks < recorded else ""))
    print(f"  report.checks {checks:.0f} count ({note})")

    metrics = {}
    for m in spec["per_layer"]:
        name = m["name"]
        if name == "trace.overhead":
            value = overhead
        else:
            value = statistics.median(layer.get(name, 0) for layer in layers)
        metrics[name] = {"value": value, "unit": m["unit"]}
    return correct, attempted, failed, metrics


def _recorded_checks(workload):
    path = HERE / "baseline.json"
    if not path.exists():
        return None
    return json.loads(path.read_text())["workloads"][workload].get("report.checks")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]

    print(f"host: Python {platform.python_version()}, nproc {os.cpu_count()}")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in names:
        ok, tried, bad, found = measure(workload, args.seed, seconds, args.trace, spec)
        correct, attempted, failed = correct and ok, attempted + tried, failed + bad
        if args.workload == "all":
            found = {f"{workload}.{k}": v for k, v in found.items()}
        metrics.update(found)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
