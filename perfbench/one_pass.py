"""One pass of a benchmark workload, in a fresh interpreter.

    PYTHONPATH=src python3 perfbench/one_pass.py --workload oracle --seed 0 --trace 0

Prints one JSON line: set-up seconds (``import dpalg`` plus building the
pass's inputs), verdict seconds (first call into ``dpalg`` to last verdict),
peak resident MiB, every operation with whether its verdict matched the known
answer, and with ``--trace 1`` the layer metrics of ``spans.Tracer``.

The speed of a shared host drifts by tens of percent over minutes, and CPU
time drifts with wall time, so the drift is not preemption.  The pass times a
fixed pure-Python loop just before and just after its work, and reports both
timings scaled to a host that runs that loop in ``REF_S`` seconds, next to the
raw wall seconds.  The loop runs no ``dpalg`` code, so a change to the package
moves the scaled timings exactly as it moves the raw ones.
"""

import argparse
import contextlib
import io
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parents[1] / "src"

# Settings are scaled so that one pass takes a few seconds on a 2-core host:
# a run then holds about ten passes, and their median is steady.
ORACLE_GRID = (  # (rank, N, ring)
    (1, 16, "z"),
    (2, 5, "z"),
    (2, 6, "z"),
    (2, 7, "z"),
    (3, 4, "z"),
    (2, 6, "zmod=6"),
)
PRESENTATION_GRID = ((3, 5, 0), (2, 8, 6))  # (rank, N, modulus)
SIGN_CONTROL = (1, 6)  # sign +1 must mismatch at w = 3, sign -1 match everywhere
ARITH_SPEC = (2, 6)
ARITH_SAMPLES = 40
# The doubled gamma_2 entry is caught only by samples that reach gamma_2(x1).
# At rank 2 that is about one sample in nine, and 40 samples missed it on
# seeds 402 and 472.  At rank 1 about one in four reach it, and 100 samples
# leave a miss chance near 1e-11 (no miss, and no first hit later than
# sample 30, on seeds 0..1999).
CONTROL_SPEC = (1, 6)
CONTROL_SAMPLES = 100
REF_S = 0.2  # seconds the two reference loops take together on a quiet 2-core host


def reference_loop_s(iterations=1_000_000):
    """Seconds for a fixed pure-Python loop: the host's speed right now."""
    start = perf_counter()
    total = 0
    for i in range(iterations):
        total += i * i % 7
    return perf_counter() - start


def setup_oracle(seed):
    return [
        ["oracle-omega", "--gens", str(k), "--trunc", str(n), "--ring", ring, "--json"]
        for k, n, ring in ORACLE_GRID
    ]


def verdict_oracle(argvs):
    from dpalg.cli import run

    ops = []
    for argv in argvs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run(argv)
        ok = code == 0 and json.loads(out.getvalue())["passed"] is True
        ops.append((" ".join(argv), ok))
    return ops


def setup_presentation(seed):
    from dpalg import Ring, free_spec

    return [(free_spec(Ring(m), k, n), -1) for k, n, m in PRESENTATION_GRID] + [
        (free_spec(Ring(0), *SIGN_CONTROL), sign) for sign in (-1, +1)
    ]


def verdict_presentation(cases):
    from dpalg.kahler import omega_free_basis, presentation_of_omega
    from dpalg.linalg import cokernel_factors, invariant_factor_chain

    ops = []
    for spec, sign in cases:
        slices = presentation_of_omega(spec, gamma_relation_sign=sign)
        closed = omega_free_basis(spec)
        for w, s in slices.items():
            got = cokernel_factors(
                len(s.entries), s.rows, spec.ring,
                column_annihilators=[e.annihilator for e in s.entries],
            )
            expected = invariant_factor_chain([e.annihilator for e in closed[w]], spec.ring)
            name = f"rank {spec.generator_count}, N={spec.truncation}, {spec.ring}, sign {sign:+d}, w={w}"
            if sign == -1:
                ops.append((name, got == expected))
            elif w == 3:
                # The derivation law forces sign -1; +1 is wrong at the odd prime 3.
                ops.append((name, got != expected))
    return ops


def setup_arith(seed):
    from dpalg import ZZ, free_spec
    from dpalg.kahler import omega_as_umodule, universal_derivation_table

    spec = free_spec(ZZ, *ARITH_SPEC)
    module = omega_as_umodule(spec)
    table = universal_derivation_table(spec)
    # Negative control: d with one gamma_2 entry doubled is not a DP derivation.
    control_spec = free_spec(ZZ, *CONTROL_SPEC)
    control = omega_as_umodule(control_spec)
    perturbed = dict(universal_derivation_table(control_spec))
    gamma2 = ((0, 2),)
    perturbed[gamma2] = tuple(2 * c for c in perturbed[gamma2])
    return seed, module, table, control, perturbed


def table_density(module):
    tables = list(module.a_action.values()) + list(module.phi_action.values())
    cells = sum(len(row) for matrix in tables for row in matrix)
    nonzero = sum(1 for matrix in tables for row in matrix for v in row if v)
    return nonzero / cells


def verdict_arith(inputs):
    from dpalg.kahler import is_dp_derivation
    from dpalg.suites import suite_axioms, suite_beck

    seed, module, table, control, perturbed = inputs
    ops = [("suite_axioms", suite_axioms(ARITH_SAMPLES, seed).passed)]
    ops.append(("d is a DP derivation",
                is_dp_derivation(table, module, samples=ARITH_SAMPLES, seed=seed).passed))
    ops.append(("doubled gamma_2 entry is rejected",
                not is_dp_derivation(perturbed, control, samples=CONTROL_SAMPLES, seed=seed).passed))
    beck = suite_beck(ARITH_SAMPLES, seed)
    ops.append(("suite_beck", beck.passed))
    detected = [r.passed for r in beck.records if r.law == "corrupted phi table is detected"]
    ops.append(("corrupted phi module is detected", detected == [True]))
    return ops


WORKLOADS = {
    "oracle": (setup_oracle, verdict_oracle),
    "presentation": (setup_presentation, verdict_presentation),
    "arith": (setup_arith, verdict_arith),
}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    setup, verdict = WORKLOADS[args.workload]

    ref_s = reference_loop_s()
    start = perf_counter()
    import dpalg
    import dpalg.cli  # pulls in every module a workload calls

    if Path(dpalg.__file__).resolve().parent != SRC / "dpalg":
        sys.exit(f"dpalg was imported from {dpalg.__file__}, not from {SRC}")
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    inputs = setup(args.seed)
    setup_s = perf_counter() - start

    if tracer:
        tracer.timed = True
    begin = perf_counter()
    ops = verdict(inputs)
    verdict_s = perf_counter() - begin
    if tracer:
        tracer.timed = False
    ref_s += reference_loop_s()
    scale = REF_S / ref_s

    result = {
        "setup_s": setup_s * scale,
        "verdict_s": verdict_s * scale,
        "wall_setup_s": setup_s,
        "wall_verdict_s": verdict_s,
        "ref_s": ref_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops": ops,
        "trace": None,
    }
    if tracer:
        layers = tracer.metrics(verdict_s)
        if args.workload == "arith":
            layers["beck.table_density"] = table_density(inputs[1])
        result["trace"] = layers
    print(json.dumps(result))


if __name__ == "__main__":
    main()
